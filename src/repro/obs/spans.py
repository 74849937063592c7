"""Span recording for real runs: shared-memory rings, one copy, no queues.

Each worker process owns a :class:`SpanRing` — a fixed-capacity record
buffer in named shared memory.  Recording a span is five float64 stores
plus a cursor bump (no locks, no pickling, no queue in the hot path:
the paper's one-copy discipline applied to telemetry itself).  The
server drains every ring after the run — barriers order the writes
before the reads — and assembles a real :class:`Timeline`, which the
existing Chrome-trace exporter renders as the wall-clock counterpart of
the paper's Nsight Systems screenshots.

Record layout (float64 each): ``[count, dropped, (code, epoch, start,
end, cpu) * capacity]``, where ``cpu`` is the process CPU seconds spent
inside the span (NaN when not measured).  When the ring is full, new
records are *dropped and counted* rather than overwriting history — a
truncated trace that says so beats a silently rewritten one.

All timestamps come from ``time.perf_counter()``: on every platform we
target it is a system-wide monotonic clock, so spans recorded in
different processes share a time base; the assembler subtracts the
run's origin so traces start at t=0.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.hardware.timeline import Phase, Timeline
from repro.parallel.shm import SharedArray, SharedArraySpec

#: stable wire codes for phases (enum order is part of the ring format)
PHASE_CODES: dict[Phase, int] = {phase: i for i, phase in enumerate(Phase)}
CODE_PHASES: dict[int, Phase] = {i: phase for phase, i in PHASE_CODES.items()}

_HEADER = 2  # [0] = records written, [1] = records dropped
_FIELDS = 5  # code, epoch, start, end, cpu


@dataclass(frozen=True)
class SpanRecord:
    """One drained ring entry (times are absolute perf_counter seconds)."""

    phase: Phase
    epoch: int
    start: float
    end: float
    #: which recovery attempt the record belongs to (a per-ring
    #: property: rings are created fresh for every backend open)
    attempt: int = 0
    #: process CPU seconds inside the span (``time.process_time``), or
    #: None when the writer did not measure it
    cpu: "float | None" = None


@dataclass(frozen=True)
class SpanRingSpec:
    """Everything a worker process needs to attach to a span ring."""

    array: SharedArraySpec
    worker: str
    attempt: int = 0

    @property
    def capacity(self) -> int:
        return (self.array.shape[0] - _HEADER) // _FIELDS


class SpanRing:
    """Single-writer span buffer over a shared float64 array."""

    def __init__(self, shm: SharedArray, worker: str, attempt: int = 0):
        self._shm = shm
        self.worker = worker
        self.attempt = attempt
        self.spec = SpanRingSpec(shm.spec, worker, attempt)
        self.capacity = self.spec.capacity

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(cls, capacity: int, worker: str, attempt: int = 0) -> "SpanRing":
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        arr = SharedArray.create((_HEADER + capacity * _FIELDS,), "float64")
        try:
            return cls(arr, worker, attempt)
        except BaseException:  # pragma: no cover - ctor cannot really fail
            arr.unlink()
            raise

    @classmethod
    def attach(cls, spec: SpanRingSpec) -> "SpanRing":
        arr = SharedArray.attach(spec.array)
        try:
            return cls(arr, spec.worker, spec.attempt)
        except BaseException:  # pragma: no cover - ctor cannot really fail
            arr.close()
            raise

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        self._shm.unlink()

    def __enter__(self) -> "SpanRing":
        return self

    def __exit__(self, *exc) -> None:
        if self._shm.owner:
            self.unlink()
        else:
            self.close()

    # -- writing ---------------------------------------------------------
    def record(self, phase: Phase, epoch: int, start: float, end: float,
               cpu: "float | None" = None) -> None:
        buf = self._shm.array
        count = int(buf[0])
        if count >= self.capacity:
            buf[1] += 1
            return
        base = _HEADER + count * _FIELDS
        buf[base] = PHASE_CODES[phase]
        buf[base + 1] = epoch
        buf[base + 2] = start
        buf[base + 3] = end
        buf[base + 4] = math.nan if cpu is None else cpu
        buf[0] = count + 1

    # -- reading ---------------------------------------------------------
    @property
    def count(self) -> int:
        return int(self._shm.array[0])

    @property
    def dropped(self) -> int:
        return int(self._shm.array[1])

    def drain(self) -> list[SpanRecord]:
        """All records written so far, in write order.

        The attempt tag is the ring's, not stored per record: one ring
        serves exactly one backend open, so the wire format stays five
        fields per span.
        """
        buf = self._shm.array
        out: list[SpanRecord] = []
        for i in range(self.count):
            base = _HEADER + i * _FIELDS
            cpu = float(buf[base + 4])
            out.append(
                SpanRecord(
                    phase=CODE_PHASES[int(buf[base])],
                    epoch=int(buf[base + 1]),
                    start=float(buf[base + 2]),
                    end=float(buf[base + 3]),
                    attempt=self.attempt,
                    cpu=None if math.isnan(cpu) else cpu,
                )
            )
        return out


class SpanRecorder:
    """Worker-side convenience wrapper: timed context-managed spans."""

    def __init__(self, ring: SpanRing, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.process_time):
        self.ring = ring
        self.clock = clock
        self.cpu_clock = cpu_clock

    def record(self, phase: Phase, epoch: int, start: float, end: float,
               cpu: "float | None" = None) -> None:
        self.ring.record(phase, epoch, start, end, cpu)

    @contextmanager
    def span(self, phase: Phase, epoch: int):
        start = self.clock()
        cpu_start = self.cpu_clock()
        try:
            yield
        finally:
            self.ring.record(phase, epoch, start, self.clock(),
                             self.cpu_clock() - cpu_start)


def records_to_timeline(
    timeline: Timeline,
    worker: str,
    records: Iterable[SpanRecord],
    origin: float = 0.0,
    epoch_offset: int = 0,
) -> int:
    """Append drained records to a timeline, rebasing times to ``origin``.

    ``epoch_offset`` rebases ring-local epochs onto the run's global
    epoch numbering (recovery attempts count their epochs from zero).
    """
    n = 0
    for rec in records:
        timeline.add(worker, rec.phase, rec.start - origin, rec.end - origin,
                     rec.epoch + epoch_offset, rec.attempt, rec.cpu)
        n += 1
    return n


def assemble_timeline(
    rings: Sequence[SpanRing],
    server_spans: Iterable[tuple] = (),
    origin: float = 0.0,
    server_lane: str = "server",
    epoch_offset: int = 0,
) -> tuple[Timeline, int]:
    """Build the run's Timeline from worker rings plus server-side spans.

    Returns ``(timeline, dropped)`` where ``dropped`` counts ring
    records lost to capacity across all workers.  Server span tuples
    are ``(phase, epoch, start, end)`` with an optional trailing
    attempt tag; worker spans carry their ring's attempt.
    """
    timeline = Timeline()
    dropped = 0
    for ring in rings:
        records_to_timeline(timeline, ring.worker, ring.drain(), origin,
                            epoch_offset)
        dropped += ring.dropped
    for phase, epoch, start, end, *rest in server_spans:
        attempt = int(rest[0]) if rest else 0
        timeline.add(server_lane, phase, start - origin, end - origin,
                     epoch + epoch_offset, attempt)
    return timeline, dropped
