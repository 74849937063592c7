"""The shard loop (``_train_shard``) and the sim plane's per-worker setup."""

import numpy as np
import pytest

from repro.core.partition import PartitionPlan
from repro.data.grid import partition_rows
from repro.engine import QOnlyChannel, SimBackend
from repro.engine.backends import _train_shard
from repro.engine.pipeline import AdditiveDeltaSync
from repro.experiments.platforms import workers_platform
from repro.mf.kernels import ConflictPolicy
from repro.mf.model import MFModel


@pytest.fixture
def setup(small_ratings):
    data = small_ratings.shuffle(0)
    shard = partition_rows(data, [0.5, 0.5])[0].extract(data).sort_by_row()
    model = MFModel.init_for(data, 8, seed=0)
    return data, shard, model


def _train(model, shard, seed=1, epochs=1):
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        _train_shard(
            model, shard.rows, shard.cols, shard.vals,
            rng.permutation(shard.nnz), 256, 0.01, 0.01, ConflictPolicy.ATOMIC,
        )


def _opened(data, fractions=(0.5, 0.5)):
    """A 2-worker sim backend (rank 0 a GPU, rank 1 a CPU), opened."""
    backend = SimBackend(workers_platform(2), ratings=data, k=8, seed=0)
    backend.open(
        PartitionPlan("fixed", fractions), QOnlyChannel(), AdditiveDeltaSync(),
        None, 1,
    )
    return backend


class TestPolicySelection:
    def test_cpu_gets_atomic(self, setup):
        assert _opened(setup[0])._policies[1] is ConflictPolicy.ATOMIC

    def test_gpu_gets_last_write(self, setup):
        assert _opened(setup[0])._policies[0] is ConflictPolicy.LAST_WRITE


class TestTrainShard:
    def test_updates_exclusive_p_rows_in_place(self, setup):
        data, shard, model = setup
        p = model.P
        p_before = p.copy()
        local = MFModel(p, model.Q.copy())
        _train(local, shard)
        own_rows = np.unique(shard.rows)
        other = np.setdiff1d(np.arange(data.m), own_rows)
        # exclusive rows changed, in the caller's array...
        assert local.P is p
        assert not np.allclose(p[own_rows], p_before[own_rows])
        # ...but nobody else's rows were touched
        np.testing.assert_array_equal(p[other], p_before[other])

    def test_updates_local_q(self, setup):
        _, shard, model = setup
        local = MFModel(model.P, model.Q.copy())
        _train(local, shard)
        assert not np.allclose(local.Q, model.Q)

    def test_reduces_local_loss(self, setup):
        _, shard, model = setup
        before = model.rmse(shard)
        _train(model, shard, epochs=3)
        assert model.rmse(shard) < before

    def test_empty_shard_leaves_q_unchanged(self, setup):
        data, _, model = setup
        empty = partition_rows(data, [0.0, 1.0])[0].extract(data)
        q = model.Q.copy()
        _train(model, empty)
        np.testing.assert_array_equal(model.Q, q)


class TestSimShards:
    def test_counts_updates(self, setup):
        data = setup[0]
        backend = _opened(data, (0.3, 0.7))
        backend.pull(0)
        updates = backend.compute(0)["updates"]
        assert updates == tuple(s.nnz for s in backend._shards)
        assert sum(updates) == data.nnz

    def test_shards_row_sorted(self, setup):
        for shard in _opened(setup[0])._shards:
            keys = shard.rows * shard.n + shard.cols
            assert np.all(np.diff(keys) >= 0)
