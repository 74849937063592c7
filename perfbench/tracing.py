"""Spans recorded by the benchmark around calls into the program.

The benchmark times each layer from outside: :class:`TimingProxy`
stands in for a compute backend and records one span per call into
it, and the serving workload records spans around its calls into the
store and the scorer.  Spans live in memory until the run ends, then
:meth:`Tracer.dump` lists them with their derived self times.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: backend calls the proxy times; the pipeline stages nest under an
#: epoch span, the rest under the run span
STAGE_CALLS = ("pull", "compute", "push", "sync", "evaluate")
RUN_CALLS = ("open", "finalize", "close")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to record from several threads."""

    def __init__(self):
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count(1)

    def begin(self, name: str, parent: int | None = None) -> int:
        sid = next(self._ids)
        now = time.perf_counter()
        self.spans[sid] = Span(sid, name, now, now, parent)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()

    def record(self, name: str, start: float, end: float,
               parent: int | None = None) -> int:
        sid = next(self._ids)
        self.spans[sid] = Span(sid, name, start, end, parent)
        return sid

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[int]:
        sid = self.begin(name, parent)
        try:
            yield sid
        finally:
            self.end(sid)

    def children(self, sid: int | None) -> list[Span]:
        return sorted(
            (s for s in self.spans.values() if s.parent == sid),
            key=lambda s: s.start,
        )

    def named(self, prefix: str) -> list[Span]:
        return sorted(
            (s for s in self.spans.values() if s.name.startswith(prefix)),
            key=lambda s: s.start,
        )

    def dump(self) -> list[dict]:
        """Every span with its derived self time, in recording order."""
        selfs = self_times(list(self.spans.values()))
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "self": selfs[s.id]}
            for s in sorted(self.spans.values(), key=lambda s: s.id)
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (threads) or run past the parent;
    only the union of their intervals clipped to the parent counts.
    """
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(kids.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


class TimingProxy:
    """A compute backend wrapped so every call into it becomes a span.

    The engine reads *and writes* attributes on its backend
    (``initial_model``, ``epoch_offset``, ``n_workers``,
    ``profile_dir``), so both directions forward to the wrapped
    object; only the calls named in ``calls`` (by default all of
    :data:`STAGE_CALLS` and :data:`RUN_CALLS`) are intercepted.  Spans:
    ``open`` / ``finalize`` / ``close`` under the run span, ``epoch[i]``
    under the run span from one epoch's ``pull`` to the next epoch's
    ``pull`` (or to ``finalize``), and each stage call under its epoch.
    """

    def __init__(self, backend, tracer: Tracer, run_span: int,
                 calls: tuple[str, ...] = STAGE_CALLS + RUN_CALLS):
        object.__setattr__(self, "_backend", backend)
        object.__setattr__(self, "_calls", frozenset(calls))
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_run_span", run_span)
        object.__setattr__(self, "_epoch_span", None)
        object.__setattr__(self, "_epochs_seen", 0)

    def __getattr__(self, name):
        value = getattr(self._backend, name)
        if name not in self._calls:
            return value
        if name in STAGE_CALLS:
            return self._timed_stage(name, value)
        return self._timed_run_call(name, value)

    def __setattr__(self, name, value):
        setattr(self._backend, name, value)

    def _close_epoch(self) -> None:
        if self._epoch_span is not None:
            self._tracer.end(self._epoch_span)
            object.__setattr__(self, "_epoch_span", None)

    def _timed_stage(self, name: str, method):
        def call(epoch, *args, **kwargs):
            if name == "pull":
                self._close_epoch()
                sid = self._tracer.begin(
                    f"epoch[{self._epochs_seen}]", self._run_span
                )
                object.__setattr__(self, "_epoch_span", sid)
                object.__setattr__(self, "_epochs_seen", self._epochs_seen + 1)
            with self._tracer.span(name, self._epoch_span):
                return method(epoch, *args, **kwargs)
        return call

    def _timed_run_call(self, name: str, method):
        def call(*args, **kwargs):
            if name != "open":
                self._close_epoch()
            with self._tracer.span(name, self._run_span):
                return method(*args, **kwargs)
        return call
