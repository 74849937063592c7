"""Unit tests for shared-memory span rings and timeline assembly."""

import pytest

from repro.hardware.timeline import Phase
from repro.obs.spans import (
    SpanRecord,
    SpanRecorder,
    SpanRing,
    assemble_timeline,
    records_to_timeline,
)


@pytest.fixture
def ring():
    r = SpanRing.create(capacity=8, worker="worker-0")
    yield r
    r.unlink()


class TestSpanRing:
    def test_record_and_drain(self, ring):
        ring.record(Phase.PULL, 0, 1.0, 1.5)
        ring.record(Phase.COMPUTE, 0, 1.5, 3.0)
        records = ring.drain()
        assert records == [
            SpanRecord(Phase.PULL, 0, 1.0, 1.5),
            SpanRecord(Phase.COMPUTE, 0, 1.5, 3.0),
        ]
        assert ring.count == 2
        assert ring.dropped == 0

    def test_full_ring_drops_and_counts(self):
        ring = SpanRing.create(capacity=2, worker="w")
        try:
            for i in range(5):
                ring.record(Phase.PULL, i, float(i), float(i) + 0.5)
            assert ring.count == 2
            assert ring.dropped == 3
            # the *first* records survive; history is never rewritten
            assert [r.epoch for r in ring.drain()] == [0, 1]
        finally:
            ring.unlink()

    def test_attach_sees_creator_writes(self, ring):
        """The server drains what the worker wrote via a fresh attach
        (same-process stand-in for the cross-process path)."""
        ring.record(Phase.PUSH, 2, 4.0, 4.25)
        peer = SpanRing.attach(ring.spec)
        try:
            records = peer.drain()
            assert records[0].phase is Phase.PUSH
            assert records[0].epoch == 2
        finally:
            peer.close()

    def test_spec_capacity_round_trips(self, ring):
        assert ring.spec.capacity == 8
        assert ring.spec.worker == "worker-0"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpanRing.create(capacity=0, worker="w")

    def test_context_manager_owner_unlinks(self):
        with SpanRing.create(capacity=2, worker="w") as ring:
            spec = ring.spec
        # segment destroyed: attaching again must fail
        with pytest.raises(FileNotFoundError):
            SpanRing.attach(spec)


class TestSpanRecorder:
    def test_span_context_uses_clock(self, ring):
        ticks = iter([10.0, 11.0])
        rec = SpanRecorder(ring, clock=lambda: next(ticks))
        with rec.span(Phase.COMPUTE, 3):
            pass
        record = ring.drain()[0]
        assert (record.start, record.end) == (10.0, 11.0)
        assert record.epoch == 3

    def test_span_records_cpu_seconds(self, ring):
        walls = iter([10.0, 11.0])
        cpus = iter([2.0, 2.25])
        rec = SpanRecorder(ring, clock=lambda: next(walls),
                           cpu_clock=lambda: next(cpus))
        with rec.span(Phase.COMPUTE, 0):
            pass
        assert ring.drain()[0].cpu == pytest.approx(0.25)

    def test_unmeasured_cpu_drains_as_none(self, ring):
        ring.record(Phase.PULL, 0, 1.0, 1.5)
        assert ring.drain()[0].cpu is None

    def test_cpu_reaches_the_timeline(self, ring):
        from repro.hardware.timeline import Timeline

        ring.record(Phase.COMPUTE, 0, 0.0, 1.0, cpu=0.4)
        tl = Timeline()
        records_to_timeline(tl, "worker-0", ring.drain())
        assert tl.spans[0].cpu == pytest.approx(0.4)
        assert tl.spans[0].duration == pytest.approx(1.0)

    def test_span_records_even_on_exception(self, ring):
        rec = SpanRecorder(ring)
        with pytest.raises(RuntimeError):
            with rec.span(Phase.COMPUTE, 0):
                raise RuntimeError("boom")
        assert ring.count == 1


class TestAssembleTimeline:
    def test_rebases_to_origin(self, ring):
        ring.record(Phase.PULL, 0, 100.0, 100.5)
        timeline, dropped = assemble_timeline([ring], origin=100.0)
        span = timeline.spans[0]
        assert span.start == pytest.approx(0.0)
        assert span.end == pytest.approx(0.5)
        assert dropped == 0

    def test_server_spans_get_their_own_lane(self, ring):
        ring.record(Phase.COMPUTE, 0, 0.0, 1.0)
        timeline, _ = assemble_timeline(
            [ring], server_spans=[(Phase.SYNC, 0, 1.0, 1.1)]
        )
        assert timeline.workers() == ["worker-0", "server"]
        assert timeline.phase_total(Phase.SYNC, "server") == pytest.approx(0.1)

    def test_dropped_total_across_rings(self):
        rings = [SpanRing.create(capacity=1, worker=f"w{i}") for i in range(2)]
        try:
            for ring in rings:
                ring.record(Phase.PULL, 0, 0.0, 1.0)
                ring.record(Phase.PULL, 1, 1.0, 2.0)  # dropped
            _, dropped = assemble_timeline(rings)
            assert dropped == 2
        finally:
            for ring in rings:
                ring.unlink()

    def test_records_to_timeline_returns_count(self, ring):
        from repro.hardware.timeline import Timeline

        ring.record(Phase.PULL, 0, 0.0, 1.0)
        tl = Timeline()
        n = records_to_timeline(tl, "worker-0", ring.drain())
        assert n == 1 and len(tl) == 1

    def test_records_to_timeline_epoch_offset(self, ring):
        from repro.hardware.timeline import Timeline

        ring.record(Phase.PULL, 1, 0.0, 1.0)
        tl = Timeline()
        records_to_timeline(tl, "worker-0", ring.drain(), epoch_offset=3)
        assert tl.spans[0].epoch == 4


class TestAttemptTagging:
    """A ring created for recovery attempt N tags everything it drains."""

    def test_ring_carries_attempt_through_drain(self):
        ring = SpanRing.create(capacity=4, worker="w0", attempt=2)
        try:
            ring.record(Phase.PULL, 0, 0.0, 1.0)
            record = ring.drain()[0]
            assert record.attempt == 2
        finally:
            ring.unlink()

    def test_attach_inherits_attempt_from_spec(self):
        ring = SpanRing.create(capacity=4, worker="w0", attempt=1)
        try:
            ring.record(Phase.PUSH, 0, 0.0, 0.5)
            peer = SpanRing.attach(ring.spec)
            try:
                assert peer.attempt == 1
                assert peer.drain()[0].attempt == 1
            finally:
                peer.close()
        finally:
            ring.unlink()

    def test_default_attempt_is_zero(self, ring):
        ring.record(Phase.PULL, 0, 0.0, 1.0)
        assert ring.attempt == 0
        assert ring.drain()[0].attempt == 0

    def test_timeline_spans_carry_attempt(self):
        ring = SpanRing.create(capacity=4, worker="w0", attempt=3)
        try:
            ring.record(Phase.COMPUTE, 1, 0.0, 1.0)
            timeline, _ = assemble_timeline([ring])
            assert timeline.spans[0].attempt == 3
        finally:
            ring.unlink()

    def test_multi_attempt_rings_assemble_together(self):
        """Rings from two recovery attempts coexist in one timeline —
        the preserved-spans guarantee the process backend relies on."""
        first = SpanRing.create(capacity=4, worker="w0", attempt=0)
        second = SpanRing.create(capacity=4, worker="w0", attempt=1)
        try:
            first.record(Phase.COMPUTE, 1, 0.0, 1.0)   # failed attempt
            second.record(Phase.COMPUTE, 1, 2.0, 3.0)  # the retry
            timeline, _ = assemble_timeline([first, second])
            attempts = sorted(s.attempt for s in timeline.spans)
            assert attempts == [0, 1]
            assert all(s.epoch == 1 for s in timeline.spans)
        finally:
            first.unlink()
            second.unlink()
