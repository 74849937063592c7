"""Integration tests for the multi-process shared-memory trainer.

These spawn real OS processes; sizes are kept small so the whole module
runs in a few seconds.
"""

import time

import numpy as np
import pytest

from repro.data.datasets import NETFLIX
from repro.engine.channels import QOnlyChannel
from repro.parallel.executor import ParallelTrainResult, SharedMemoryTrainer
from repro.resilience import FaultPlan


class _SlowBootChannel(QOnlyChannel):
    """A Q-only stack whose unpickling in a spawned worker takes 2.5 s:
    a worker boot slower than the barrier timeout it is run with."""

    def __setstate__(self, state):
        time.sleep(2.5)
        self.__dict__.update(state)


@pytest.fixture(scope="module")
def data():
    return NETFLIX.scaled(6000).generate(seed=4)


class TestSharedMemoryTrainer:
    def test_converges_with_two_workers(self, data):
        trainer = SharedMemoryTrainer(data, k=8, n_workers=2, lr=0.01, seed=0)
        res = trainer.train(epochs=4)
        assert len(res.rmse_history) == 4
        assert res.rmse_history[-1] < res.rmse_history[0]
        assert np.all(np.isfinite(res.model.P))

    def test_single_worker(self, data):
        trainer = SharedMemoryTrainer(data, k=8, n_workers=1, lr=0.01, seed=0)
        res = trainer.train(epochs=2)
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_custom_fractions(self, data):
        trainer = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, fractions=[0.3, 0.7], seed=0
        )
        res = trainer.train(epochs=2)
        assert res.n_workers == 2
        assert res.updates_per_second > 0

    def test_worker_failure_raises_cleanly(self, data):
        """Fault injection: a crashed worker must surface as a clear
        error, not a hang, and shared memory must be reclaimed (the
        next run succeeds)."""
        bad = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            fault_plan=FaultPlan().kill(1, 1),
        )
        with pytest.raises(RuntimeError, match="worker process failed"):
            bad.train(epochs=3)
        # recovery: fresh trainer works
        ok = SharedMemoryTrainer(data, k=8, n_workers=2, lr=0.01, seed=0)
        res = ok.train(epochs=2)
        assert len(res.rmse_history) == 2

    def test_validation(self, data):
        with pytest.raises(ValueError):
            SharedMemoryTrainer(data, n_workers=0)
        with pytest.raises(ValueError):
            SharedMemoryTrainer(data, n_workers=2, fractions=[1.0])
        with pytest.raises(ValueError):
            SharedMemoryTrainer(data, k=0)
        with pytest.raises(ValueError):
            SharedMemoryTrainer(data).train(epochs=0)


class TestUpdatesPerSecond:
    def _result(self, elapsed: float) -> ParallelTrainResult:
        return ParallelTrainResult(
            rmse_history=[1.0],
            elapsed_seconds=elapsed,
            epochs=1,
            n_workers=1,
            nnz=1000,
            model=None,
        )

    def test_normal_rate(self):
        assert self._result(2.0).updates_per_second == pytest.approx(500.0)

    def test_zero_elapsed_returns_zero_not_inf(self):
        """Regression: sub-clock-resolution runs used to report inf,
        which poisoned any mean/table built from the rate."""
        assert self._result(0.0).updates_per_second == 0.0
        assert self._result(-1e-9).updates_per_second == 0.0


class TestChannelStrategies:
    """Strategies 2/3 in the process plane: the channel stack drives
    the wire format, and the metrics registry proves the byte math."""

    @staticmethod
    def _wire_bytes(tel, name):
        return sum(s.value for s in tel.registry.samples() if s.name == name)

    def test_fp16_matches_fp32_with_half_the_wire_bytes(self, data):
        from repro.engine import Fp16Channel, QOnlyChannel
        from repro.obs import Telemetry

        tel32, tel16 = Telemetry(), Telemetry()
        fp32 = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            channel=QOnlyChannel(), telemetry=tel32,
        ).train(epochs=3)
        fp16 = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            channel=Fp16Channel(QOnlyChannel()), telemetry=tel16,
        ).train(epochs=3)
        # Strategy 2's claim: half-precision transmission, same accuracy
        assert fp16.rmse_history[-1] == pytest.approx(
            fp32.rmse_history[-1], rel=0.02
        )
        for name in ("bytes_pulled_total", "bytes_pushed_total"):
            full = self._wire_bytes(tel32, name)
            half = self._wire_bytes(tel16, name)
            assert full > 0
            assert half == pytest.approx(full / 2)

    def test_partition_plan_accepted(self, data):
        from repro.core.partition import PartitionPlan

        trainer = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            partition=PartitionPlan("dp0", (0.35, 0.65)),
        )
        assert trainer.fractions == pytest.approx([0.35, 0.65])
        res = trainer.train(epochs=2)
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_double_buffer_stack_runs(self, data):
        from repro.engine import DoubleBufferChannel, Fp16Channel, QOnlyChannel

        stack = DoubleBufferChannel(Fp16Channel(QOnlyChannel()))
        res = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0, channel=stack
        ).train(epochs=2)
        assert res.rmse_history[-1] < res.rmse_history[0]

    def test_config_selects_the_channel_stack(self, data):
        from repro.core.config import CommConfig, HCCConfig

        trainer = SharedMemoryTrainer(
            data, config=HCCConfig(comm=CommConfig(fp16=True))
        )
        assert trainer.channel.wire_is_fp16
        assert trainer.channel.describe() == "fp16(q-only(full))"


class TestBarrierDiagnostics:
    """Rendezvous failures name the missing ranks, and the timeout is
    configurable through HCCConfig."""

    def test_sync_error_names_the_missing_rank(self, data):
        from repro.engine import WorkerSyncError

        bad = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0,
            fault_plan=FaultPlan().kill(1, 1),
        )
        with pytest.raises(WorkerSyncError) as excinfo:
            bad.train(epochs=3)
        err = excinfo.value
        # worker-0's progress stamp races the broken barrier, so the
        # missing set may or may not include it — but the crashed rank
        # is always reported
        assert 1 in err.missing_ranks
        assert "worker-1" in str(err)
        assert err.epoch == 1

    def test_sync_error_names_the_exit_code_not_the_timeout(self, data):
        """A dead rank is caught by its exit code in milliseconds; the
        message must say so instead of quoting the configured timeout."""
        from repro.engine import WorkerSyncError

        bad = SharedMemoryTrainer(
            data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=120,
            fault_plan=FaultPlan().kill(1, 1, hard=True),
        )
        with pytest.raises(WorkerSyncError) as excinfo:
            bad.train(epochs=3)
        message = str(excinfo.value)
        assert "worker-1 exited with code 13 after" in message
        assert "120s" not in message

    def test_sim_sync_error_names_the_simulated_exit_code(self, data):
        from repro.engine import EpochEngine, QOnlyChannel, SimBackend, WorkerSyncError
        from repro.experiments.platforms import workers_platform

        backend = SimBackend(
            workers_platform(2), ratings=data.shuffle(0), k=8, seed=0,
            barrier_timeout_s=120, fault_plan=FaultPlan().kill(1, 1, hard=True),
        )
        with pytest.raises(WorkerSyncError) as excinfo:
            EpochEngine(backend, channel=QOnlyChannel()).run(3)
        message = str(excinfo.value)
        assert "worker-1 exited with code 13" in message
        assert "120s" not in message

    def test_slow_worker_boot_is_not_a_straggler(self, data):
        """Spawn start-up never counts against barrier_timeout_s: workers
        that take longer than the timeout to boot still train cleanly."""
        from repro.engine import EpochEngine, ProcessBackend

        backend = ProcessBackend(
            data, k=8, n_workers=2, lr=0.01, seed=0, barrier_timeout_s=1.0
        )
        result = EpochEngine(backend, channel=_SlowBootChannel()).run(2)
        assert len(result.rmse_history) == 2

    def test_straggler_error_names_the_timeout(self, data):
        from repro.engine import EpochEngine, QOnlyChannel, SimBackend, WorkerSyncError
        from repro.experiments.platforms import workers_platform

        backend = SimBackend(
            workers_platform(2), ratings=data.shuffle(0), k=8, seed=0,
            barrier_timeout_s=5,
            fault_plan=FaultPlan().delay_barrier(0, 1, seconds=60.0),
        )
        with pytest.raises(WorkerSyncError) as excinfo:
            EpochEngine(backend, channel=QOnlyChannel()).run(3)
        assert "no stamp after the 5s timeout" in str(excinfo.value)
        assert "exited" not in str(excinfo.value)

    def test_config_sets_barrier_timeout(self, data):
        from repro.core.config import HCCConfig

        trainer = SharedMemoryTrainer(
            data, config=HCCConfig(barrier_timeout_s=7.5)
        )
        assert trainer.barrier_timeout_s == 7.5

    def test_explicit_timeout_overrides_config(self, data):
        from repro.core.config import HCCConfig

        trainer = SharedMemoryTrainer(
            data, config=HCCConfig(barrier_timeout_s=7.5), barrier_timeout_s=3.0
        )
        assert trainer.barrier_timeout_s == 3.0

    def test_nonpositive_timeout_rejected(self):
        from repro.core.config import HCCConfig

        with pytest.raises(ValueError, match="barrier_timeout_s"):
            HCCConfig(barrier_timeout_s=0.0)


class TestExecutorTelemetry:
    def test_disabled_telemetry_takes_zero_overhead_path(self, data, monkeypatch):
        """telemetry=None must never touch the span-ring machinery."""
        from repro.obs import spans

        calls = []
        original = spans.SpanRing.create.__func__

        def tracking(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            spans.SpanRing, "create", classmethod(tracking)
        )
        res = SharedMemoryTrainer(data, k=8, n_workers=2, seed=0).train(epochs=2)
        assert res.telemetry is None
        assert calls == []

    def test_instrumented_run_matches_uninstrumented_numerics(self, data):
        """Telemetry must observe, not perturb: same seed, same RMSE."""
        from repro.obs import Telemetry

        plain = SharedMemoryTrainer(data, k=8, n_workers=2, seed=0).train(epochs=2)
        tel = Telemetry()
        traced = SharedMemoryTrainer(
            data, k=8, n_workers=2, seed=0, telemetry=tel
        ).train(epochs=2)
        assert traced.rmse_history == pytest.approx(plain.rmse_history)
        assert traced.telemetry is tel
