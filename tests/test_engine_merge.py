"""Unit tests for the one server merge both training planes call.

``encode_pull`` / ``encode_push`` / ``merge_pushes`` in
:mod:`repro.engine.backends` are the server side of every epoch on the
sim and the process plane alike (paper 3.1/3.5).
"""

import numpy as np
import pytest

from repro.data.datasets import NETFLIX
from repro.engine import EpochEngine, Fp16Channel, QOnlyChannel, SimBackend, WirePayloadError
from repro.engine.backends import encode_pull, encode_push, merge_pushes
from repro.experiments.platforms import workers_platform
from repro.mf.model import MFModel
from repro.resilience import FaultPlan


def _epoch(channel, q, n_workers):
    """Pull one epoch: (base, pull wire, one empty push wire per worker)."""
    pull_wire = np.zeros(q.shape, dtype=channel.wire_dtype)
    base = encode_pull(channel, q, pull_wire)
    return base, pull_wire, [np.zeros_like(pull_wire) for _ in range(n_workers)]


def _push(channel, values, pull_wire, push_wire, faults=(), epoch=0):
    encode_push(channel, values, pull_wire, push_wire, faults, epoch)


@pytest.fixture
def q():
    return MFModel.init(6, 8, 4, seed=0).Q


class TestMergePushes:
    def test_encode_pull_returns_wire_accurate_base(self, q):
        channel = QOnlyChannel()
        base, pull_wire, _ = _epoch(channel, q, 1)
        np.testing.assert_array_equal(base, q)
        np.testing.assert_array_equal(pull_wire, q)
        assert base is not pull_wire  # the server's own decoded copy

    def test_weighted_delta_merge(self, q):
        channel = QOnlyChannel()
        base, pull_wire, pushes = _epoch(channel, q, 1)
        _push(channel, base + 1.0, pull_wire, pushes[0])
        merge_pushes(channel, q, base, pushes, [0.25], epoch=0)
        np.testing.assert_allclose(q, base + 0.25, rtol=1e-6)

    def test_two_workers_merge_additively(self, q):
        channel = QOnlyChannel()
        base, pull_wire, pushes = _epoch(channel, q, 2)
        _push(channel, base + 1.0, pull_wire, pushes[0])
        _push(channel, base + 3.0, pull_wire, pushes[1])
        merge_pushes(channel, q, base, pushes, [0.5, 0.5], epoch=0)
        # deltas are both measured against the epoch base
        np.testing.assert_allclose(q, base + 0.5 + 1.5, rtol=1e-5)

    def test_unchanged_push_is_noop(self, q):
        channel = QOnlyChannel()
        base, pull_wire, pushes = _epoch(channel, q, 1)
        _push(channel, base, pull_wire, pushes[0])
        merge_pushes(channel, q, base, pushes, [1.0], epoch=0)
        np.testing.assert_array_equal(q, base)

    def test_weight_bounds(self, q):
        channel = QOnlyChannel()
        base, pull_wire, pushes = _epoch(channel, q, 1)
        _push(channel, base + 1.0, pull_wire, pushes[0])
        before = q.copy()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            merge_pushes(channel, q, base, pushes, [1.5], epoch=0)
        np.testing.assert_array_equal(q, before)

    def test_fp16_wire_roundtrip(self):
        q = MFModel.init(4, 4, 2, seed=1).Q
        channel = Fp16Channel(QOnlyChannel())
        base, pull_wire, pushes = _epoch(channel, q, 1)
        assert pull_wire.dtype == np.float16
        # FP16 wire: small relative error against the true Q
        np.testing.assert_allclose(base, q, rtol=1e-3)
        _push(channel, base + 0.5, pull_wire, pushes[0])
        merge_pushes(channel, q, base, pushes, [1.0], epoch=0)
        np.testing.assert_allclose(q, base + 0.5, rtol=2e-3, atol=2e-3)


class TestPayloadCheck:
    def test_nan_push_from_rank1_raises_before_any_merge(self, q):
        channel = QOnlyChannel()
        base, pull_wire, pushes = _epoch(channel, q, 2)
        corrupt = FaultPlan().corrupt_payload(1, 3)
        _push(channel, base + 1.0, pull_wire, pushes[0])
        _push(channel, base + 1.0, pull_wire, pushes[1], corrupt.for_rank(1), epoch=3)
        assert np.isnan(pushes[1]).all()
        before = q.tobytes()
        with pytest.raises(WirePayloadError) as ei:
            merge_pushes(channel, q, base, pushes, [1.0, 1.0], epoch=3)
        assert (ei.value.rank, ei.value.epoch) == (1, 3)
        # rank 0's valid push was not merged either
        assert q.tobytes() == before

    def test_dropped_push_carries_the_epoch_base(self, q):
        channel = Fp16Channel(QOnlyChannel())
        base, pull_wire, pushes = _epoch(channel, q, 1)
        drop = FaultPlan().drop_payload(0, 0).for_rank(0)
        _push(channel, base + 1.0, pull_wire, pushes[0], drop)
        np.testing.assert_array_equal(pushes[0], pull_wire)
        before = q.copy()
        merge_pushes(channel, q, base, pushes, [1.0], epoch=0)
        np.testing.assert_array_equal(q, before)


class TestSimPlaneFaults:
    """Sim-plane drops and corruptions take the same encode and merge."""

    @pytest.fixture(scope="class")
    def data(self):
        return NETFLIX.scaled(3000).generate(seed=2).shuffle(0)

    def _backend(self, data, n_workers, plan=None):
        return SimBackend(
            workers_platform(n_workers), ratings=data, k=8, lr=0.01,
            batch_size=1024, seed=0, fault_plan=plan,
        )

    def test_nan_push_leaves_p_and_q_bit_identical(self, data):
        clean = self._backend(data, 2)
        EpochEngine(clean, channel=QOnlyChannel()).run(1)
        faulty = self._backend(data, 2, FaultPlan().corrupt_payload(1, 1))
        with pytest.raises(WirePayloadError) as ei:
            EpochEngine(faulty, channel=QOnlyChannel()).run(2)
        assert (ei.value.rank, ei.value.epoch) == (1, 1)
        # epoch 1 left no trace: the model is the clean epoch-0 state
        assert faulty.model.Q.tobytes() == clean.model.Q.tobytes()
        assert faulty.model.P.tobytes() == clean.model.P.tobytes()

    def test_dropped_push_adds_exactly_zero_delta(self, data):
        backend = self._backend(data, 1, FaultPlan().drop_payload(0, 0))
        EpochEngine(backend, channel=QOnlyChannel()).run(1)
        init = MFModel.init_for(data, 8, seed=0)
        assert backend.model.Q.tobytes() == init.Q.tobytes()
        # the worker still trained its P rows in place
        assert not np.array_equal(backend.model.P, init.P)
