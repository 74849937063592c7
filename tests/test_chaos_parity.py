"""The chaos-parity harness: same faults, both planes, same story.

Three layers of enforcement:

* cross-plane parity on a couple of named scenarios (slow: the process
  plane spawns real workers) — the full matrix is ``repro chaos-parity``;
* the whole default matrix sim-side, checking expected outcomes and
  the single-plane safety invariants;
* a seeded randomized regression sweep (~50 scenarios, sim-only,
  fast).  Every failure message carries the scenario's ``describe()``,
  which includes the reproducing seed.
"""

import numpy as np
import pytest

from repro.core.cost_model import Regime, TimeCostModel
from repro.core.partition import PartitionPlan
from repro.data.datasets import NETFLIX
from repro.hardware.timeline import Phase
from repro.hardware.topology import paper_workstation
from repro.resilience.policy import redistribute
from repro.testing import (
    ChaosScenario,
    check_invariants,
    check_parity,
    default_matrix,
    generate_scenarios,
    run_scenario,
)


def _by_name(name: str) -> ChaosScenario:
    (scenario,) = [s for s in default_matrix(0) if s.name == name]
    return scenario


class TestCrossPlaneParity:
    def test_kill_soft_parity(self):
        scenario = _by_name("kill-soft")
        sim = run_scenario(scenario, "sim")
        process = run_scenario(scenario, "process")
        report = check_parity(sim, process)
        assert report.ok, report.describe()
        # the contract actually bit on something: a redistribution
        assert any("redistribute" in str(d) for d in sim.decisions)

    def test_two_deaths_remap_parity(self):
        """Both planes renumber survivors identically: the second kill,
        aimed at an old rank, fires on the remapped worker in each."""
        scenario = _by_name("two-deaths-remap")
        sim = run_scenario(scenario, "sim")
        process = run_scenario(scenario, "process")
        report = check_parity(sim, process)
        assert report.ok, report.describe()
        assert len(sim.decisions) == 2
        assert sim.final_workers == process.final_workers == 2

    def test_abort_parity(self):
        scenario = _by_name("abort-checkpointed")
        sim = run_scenario(scenario, "sim")
        process = run_scenario(scenario, "process")
        report = check_parity(sim, process)
        assert report.ok, report.describe()
        assert sim.aborted and process.aborted
        assert sim.checkpoint_written and process.checkpoint_written


class TestDefaultMatrixSim:
    @pytest.mark.parametrize(
        "scenario", default_matrix(0), ids=lambda s: s.name
    )
    def test_sim_outcome_and_invariants(self, scenario):
        outcome = run_scenario(scenario, "sim")
        problems = check_invariants(scenario, outcome)
        assert not problems, f"{problems} ({scenario.describe()})"
        assert outcome.aborted == scenario.expect_abort, scenario.describe()
        if not scenario.expect_abort:
            assert len(outcome.rmse_history) == scenario.epochs

    def test_matrix_covers_every_fault_kind(self):
        kinds = {
            f.kind for s in default_matrix(0) for f in s.fault_plan.faults
        }
        assert kinds == {"kill", "delay", "drop", "corrupt"}

    def test_sim_runs_are_deterministic(self):
        scenario = _by_name("kill-soft")
        a = run_scenario(scenario, "sim")
        b = run_scenario(scenario, "sim")
        assert a.rmse_history == b.rmse_history
        assert a.decisions == b.decisions
        assert a.degraded_ratio == b.degraded_ratio

    def test_degraded_epochs_logged_and_priced(self):
        """After a kill the sim's cost log flips to degraded pricing."""
        scenario = _by_name("kill-soft")
        outcome = run_scenario(scenario, "sim")
        assert outcome.degraded_ratio is not None
        assert outcome.degraded_ratio > 0


class TestProcessDegradedRatio:
    """The process plane's drift input prices stages by CPU seconds."""

    @staticmethod
    def _telemetry(healthy_wall: float):
        from types import SimpleNamespace

        from repro.hardware.timeline import Timeline

        tl = Timeline()
        # epoch 0 is the excluded warm-up; epoch 1 healthy, 2 degraded.
        # Both priced epochs cost 1 CPU second, but the healthy one was
        # held off the CPU for most of its wall time.
        for epoch, wall in ((0, 1.0), (1, healthy_wall), (2, 1.0)):
            tl.add("worker-0", Phase.COMPUTE, 0.0, wall, epoch, cpu=1.0)
            tl.add("server", Phase.SYNC, wall, wall, epoch, cpu=0.0)
        return SimpleNamespace(timeline=tl)

    def test_host_preemption_does_not_move_the_ratio(self):
        from repro.testing.parity import _process_degraded_ratio

        decisions = ((2, "WorkerSyncError", "redistribute"),)
        for healthy_wall in (1.0, 4.0):
            ratio = _process_degraded_ratio(
                self._telemetry(healthy_wall), decisions
            )
            assert ratio == pytest.approx(1.0)

    def test_wall_duration_when_cpu_unmeasured(self):
        from types import SimpleNamespace

        from repro.hardware.timeline import Timeline
        from repro.testing.parity import _process_degraded_ratio

        tl = Timeline()
        for epoch, wall in ((0, 1.0), (1, 1.0), (2, 2.0)):
            tl.add("worker-0", Phase.COMPUTE, 0.0, wall, epoch)
            tl.add("server", Phase.SYNC, wall, wall, epoch)
        ratio = _process_degraded_ratio(
            SimpleNamespace(timeline=tl),
            ((2, "WorkerSyncError", "redistribute"),),
        )
        assert ratio == pytest.approx(2.0)


class TestRandomizedSweep:
    def test_fifty_scenarios_hold_invariants(self):
        scenarios = generate_scenarios(seed=0, count=50)
        assert len(scenarios) == 50
        for scenario in scenarios:
            outcome = run_scenario(scenario, "sim")
            problems = check_invariants(scenario, outcome)
            assert not problems, (
                f"{problems} — reproduce with: {scenario.describe()}"
            )

    def test_generator_is_deterministic(self):
        assert generate_scenarios(7, 10) == generate_scenarios(7, 10)

    def test_generator_varies_with_seed(self):
        a = [s.fault_plan.describe() for s in generate_scenarios(1, 10)]
        b = [s.fault_plan.describe() for s in generate_scenarios(2, 10)]
        assert a != b

    def test_generated_faults_fit_their_scenarios(self):
        for s in generate_scenarios(3, 30):
            for f in s.fault_plan.faults:
                assert f.rank < s.n_workers
                assert f.epoch < s.epochs


class TestScenarioValidation:
    def test_fault_rank_must_fit(self):
        from repro.core.config import RecoveryPolicy
        from repro.resilience import FaultPlan

        with pytest.raises(ValueError, match="outside"):
            ChaosScenario(
                name="bad", seed=0, n_workers=2, epochs=2,
                fault_plan=FaultPlan().kill(5, epoch=1),
                recovery=RecoveryPolicy(),
            )

    def test_run_scenario_rejects_unknown_plane(self):
        with pytest.raises(ValueError, match="plane"):
            run_scenario(_by_name("kill-soft"), "quantum")


class TestDegradedCostProperties:
    """Satellite properties over the analytic failure path (Eq. 1-5)."""

    @pytest.fixture
    def model(self):
        return TimeCostModel(paper_workstation(16), NETFLIX, k=128)

    def test_kills_never_cheapen_compute_bound_epochs(self, model):
        """Monotonicity, seeded-random kill sets: in the compute-bound
        regime the degraded epoch always costs at least the healthy one.
        (Scoped to compute-bound on purpose — sync-bound epochs can get
        cheaper with fewer workers, as fewer merges shrink T_sync.)"""
        rng = np.random.default_rng(0)
        n = model.platform.n_workers
        from repro.core.config import PartitionStrategy

        fractions = model.derive_partition(PartitionStrategy.DP1).fractions
        healthy = model.epoch_cost(fractions)
        assert healthy.regime is Regime.COMPUTE_BOUND
        for trial in range(25):
            n_dead = int(rng.integers(1, n - 1))
            dead = set(map(int, rng.choice(n, size=n_dead, replace=False)))
            degraded = model.degraded_epoch_cost(fractions, dead)
            assert degraded.regime is Regime.COMPUTE_BOUND, (trial, dead)
            assert degraded.total >= healthy.total - 1e-12, (
                f"trial {trial}: killing {sorted(dead)} cheapened the "
                f"epoch {healthy.total:.6f} -> {degraded.total:.6f} "
                f"(reproduce: default_rng(0), trial {trial})"
            )

    def test_redistributed_fractions_sum_to_one(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            raw = rng.random(n) + 0.05
            fractions = tuple(float(f) for f in raw / raw.sum())
            plan = PartitionPlan("dp1", fractions)
            n_dead = int(rng.integers(1, n))
            dead = set(map(int, rng.choice(n, size=n_dead, replace=False)))
            degraded = redistribute(plan, dead)
            assert abs(sum(degraded.fractions) - 1.0) <= 1e-9, (
                f"trial {trial}: fractions {degraded.fractions} "
                f"(reproduce: default_rng(1), trial {trial})"
            )
            assert all(f > 0 for f in degraded.fractions)
