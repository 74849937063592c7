"""Cross-layer tests for the Q_ROTATE future-work mode."""

import numpy as np
import pytest

from repro.core.comm import CommPlan
from repro.core.config import CommConfig, HCCConfig, RecoveryPolicy, TransmitMode
from repro.core.cost_model import Regime, TimeCostModel
from repro.core.framework import HCCMF
from repro.core.partition import even_partition
from repro.data.datasets import MOVIELENS_20M, NETFLIX
from repro.engine import (
    EpochEngine,
    QOnlyChannel,
    QRotateChannel,
    SimBackend,
    STAGES,
    WorkerSyncError,
    backends,
)
from repro.engine.pipeline import AdditiveDeltaSync
from repro.experiments.platforms import workers_platform
from repro.hardware.topology import paper_workstation
from repro.resilience import FaultPlan


def _rotating(data, n_workers, fault_plan=None):
    """An opened rotation-mode sim backend over an even split."""
    backend = SimBackend(
        workers_platform(n_workers), ratings=data, k=8, lr=0.01, seed=0,
        fault_plan=fault_plan, barrier_timeout_s=5.0,
    )
    backend.open(
        even_partition(n_workers), QRotateChannel(), AdditiveDeltaSync(),
        None, 1,
    )
    return backend


class TestCommPlan:
    def test_no_sync_values(self):
        plan = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ROTATE)
        )
        assert plan.sync_values == 0

    def test_gross_bytes_match_q_only(self):
        rotate = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ROTATE)
        )
        q_only = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ONLY)
        )
        assert rotate.epoch_pull == q_only.epoch_pull

    def test_final_gather_includes_q(self):
        rotate = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ROTATE)
        )
        q_only = CommPlan.for_dataset(
            MOVIELENS_20M, 128, CommConfig(transmit=TransmitMode.Q_ONLY)
        )
        assert rotate.final_push_extra > q_only.final_push_extra


class TestCostModel:
    def test_rotation_is_compute_bound(self):
        m = TimeCostModel(
            paper_workstation(16), MOVIELENS_20M, 128,
            CommConfig(transmit=TransmitMode.Q_ROTATE),
        )
        assert m.sync_time() == 0.0
        from repro.core.config import PartitionStrategy

        plan = m.derive_partition(PartitionStrategy.AUTO)
        cost = m.epoch_cost(plan.fractions)
        assert cost.regime is Regime.COMPUTE_BOUND
        assert cost.exposed_sync == 0.0

    def test_rotation_chunks_transfers(self):
        m = TimeCostModel(
            paper_workstation(16), MOVIELENS_20M, 128,
            CommConfig(transmit=TransmitMode.Q_ROTATE),
        )
        from repro.core.config import PartitionStrategy
        from repro.hardware.timeline import Phase

        plan = m.derive_partition(PartitionStrategy.DP1)
        cost = m.epoch_cost(plan.fractions)
        gpu = cost.workers[-1]
        pulls = [s for s in gpu.spans if s.phase is Phase.PULL]
        assert len(pulls) == m.platform.n_workers  # one hop per rotation step


class TestWorkerRotation:
    P = 3

    @pytest.fixture
    def backend(self, small_ratings):
        return _rotating(small_ratings.shuffle(0), self.P)

    def test_blocks_partition_shard(self, backend):
        edges = np.linspace(0, backend.ratings.n, self.P + 1, dtype=np.int64)
        for shard, blocks in zip(backend._shards, backend._col_blocks):
            assert len(blocks) == shard.nnz
            assert np.all(edges[blocks] <= shard.cols)
            assert np.all(shard.cols < edges[blocks + 1])

    def test_step_only_touches_owned_columns(self, backend, monkeypatch):
        """Each worker's part of a sub-step writes only the Q columns of
        block (rank + step) mod p, so workers own disjoint blocks."""
        written = []

        def spy(model, *args):
            before = model.Q.copy()
            real(model, *args)
            written.append(np.flatnonzero(np.any(model.Q != before, axis=0)))

        real = backends._train_shard
        monkeypatch.setattr(backends, "_train_shard", spy)
        backend.pull(0)
        backend.compute(0)
        edges = np.linspace(0, backend.ratings.n, self.P + 1, dtype=np.int64)
        assert len(written) == self.P * self.P
        for call, cols in enumerate(written):
            step, rank = divmod(call, self.P)
            owned = (rank + step) % self.P
            assert len(cols) > 0
            assert np.all((edges[owned] <= cols) & (cols < edges[owned + 1]))


class TestEngineRotation:
    def test_trace_has_every_stage_and_no_merge(self, small_ratings):
        backend = SimBackend(
            workers_platform(3), ratings=small_ratings.shuffle(0), k=8, seed=0
        )
        result = EpochEngine(backend, channel=QRotateChannel()).run(2)
        assert result.stage_sequence() == [
            (e, s) for e in range(2) for s in STAGES
        ]
        for event in result.stage_trace:
            if event.stage == "sync":
                assert event.detail["merges"] == 0
            if event.stage in ("pull", "push"):
                assert event.detail["per_worker_bytes"] == backend.model.Q.nbytes
        assert result.updates_applied == 2 * small_ratings.nnz

    def test_resume_is_bitwise_identical(self, small_ratings, tmp_path):
        platform = paper_workstation(16)
        cfg = HCCConfig(
            k=8, epochs=4, learning_rate=0.01, seed=1,
            comm=CommConfig(transmit=TransmitMode.Q_ROTATE),
        )
        path = tmp_path / "rotate-ckpt"
        straight = HCCMF(platform, NETFLIX, cfg, ratings=small_ratings).train()
        HCCMF(platform, NETFLIX, cfg, ratings=small_ratings).train(
            epochs=2, checkpoint_every=2, checkpoint_path=path
        )
        resumed = HCCMF(platform, NETFLIX, cfg, ratings=small_ratings).train(
            resume_from=path
        )
        assert resumed.rmse_history == straight.rmse_history
        assert np.array_equal(resumed.model.P, straight.model.P)
        assert np.array_equal(resumed.model.Q, straight.model.Q)


class TestRotationFaults:
    def _run(self, data, channel, plan):
        backend = SimBackend(
            workers_platform(3), ratings=data, k=8, lr=0.01, seed=0,
            fault_plan=plan,
        )
        engine = EpochEngine(
            backend, channel=channel,
            recovery=RecoveryPolicy(min_workers=2, backoff_base_s=0.0),
        )
        return backend, engine.run(3)

    def test_kill_redistributes_to_p_minus_1_blocks(self, small_ratings):
        data = small_ratings.shuffle(0)
        plan = FaultPlan().kill(2, epoch=1)
        _, q_only = self._run(data, QOnlyChannel(), plan)
        backend, rotated = self._run(data, QRotateChannel(), plan)
        assert rotated.resilience.decisions == q_only.resilience.decisions
        assert rotated.resilience.redistributions == 1
        assert rotated.final_plan.n_workers == 2
        assert len(rotated.rmse_history) == 3
        # the recovered attempt rotates over two column blocks
        assert {int(b.max()) for b in backend._col_blocks} == {1}

    def test_straggler_past_timeout_rolls_back_p_and_q(self, small_ratings):
        backend = _rotating(
            small_ratings.shuffle(0), 3,
            FaultPlan().delay_barrier(1, 0, seconds=10.0, point="end"),
        )
        p0, q0 = backend.model.P.copy(), backend.model.Q.copy()
        backend.pull(0)
        backend.compute(0)
        assert not np.array_equal(backend.model.Q, q0)  # trained in place
        with pytest.raises(WorkerSyncError):
            backend.push(0)
        assert backend.model.P.tobytes() == p0.tobytes()
        assert backend.model.Q.tobytes() == q0.tobytes()

    @pytest.mark.parametrize("kind", ["drop", "corrupt"])
    def test_payload_faults_rejected(self, small_ratings, kind):
        plan = (
            FaultPlan().drop_payload(0, 0) if kind == "drop"
            else FaultPlan().corrupt_payload(0, 0)
        )
        with pytest.raises(ValueError, match=kind):
            _rotating(small_ratings.shuffle(0), 2, plan)


class TestFrameworkRotation:
    def test_converges_like_q_only(self):
        data = NETFLIX.scaled(15_000).generate(seed=3)
        results = {}
        for mode in (TransmitMode.Q_ONLY, TransmitMode.Q_ROTATE):
            cfg = HCCConfig(
                k=8, epochs=6, learning_rate=0.01, seed=3,
                comm=CommConfig(transmit=mode),
            )
            res = HCCMF(paper_workstation(16), NETFLIX, cfg, ratings=data).train()
            results[mode] = res.rmse_history
        for mode, history in results.items():
            assert history[-1] < history[0], mode
        assert results[TransmitMode.Q_ROTATE][-1] == pytest.approx(
            results[TransmitMode.Q_ONLY][-1], abs=0.1
        )

    def test_rotation_faster_on_movielens(self):
        times = {}
        for mode in (TransmitMode.Q_ONLY, TransmitMode.Q_ROTATE):
            cfg = HCCConfig(k=128, epochs=20, comm=CommConfig(transmit=mode))
            times[mode] = HCCMF(paper_workstation(16), MOVIELENS_20M, cfg).train().total_time
        assert times[TransmitMode.Q_ROTATE] < times[TransmitMode.Q_ONLY]
