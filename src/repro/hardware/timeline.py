"""Execution timelines: the timing sequences of paper Figures 5, 6 and 8.

A :class:`Timeline` records :class:`Span` intervals per worker lane
(pull / computing / push / sync) for one or more epochs.  It backs

* Figure 5's three timing-sequence diagrams (via :meth:`ascii_gantt`),
* Figure 8's cumulative pull/compute/push stacks (via
  :meth:`phase_totals`), and
* the epoch-time computation ``T = max_i{T_i} + T_sync`` (Eq. 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class Phase(enum.Enum):
    """Lifecycle phases of a worker epoch (paper Figure 4 steps 4-7).

    The first four are the paper's modeled phases; BARRIER (a worker
    waiting for the epoch barrier) and EVAL (the server computing RMSE)
    come from the runtime telemetry plane (:mod:`repro.obs`) and have
    no cost-model term.
    """

    PULL = "pull"
    COMPUTE = "computing"
    PUSH = "push"
    SYNC = "sync"
    BARRIER = "barrier"
    EVAL = "eval"


@dataclass(frozen=True)
class Span:
    """One contiguous activity interval on a worker's lane."""

    worker: str
    phase: Phase
    start: float
    end: float
    epoch: int = 0
    #: which recovery attempt recorded the span (0 = the first open of
    #: the run's backend; bumped on every re-open after a failure)
    attempt: int = 0
    #: CPU seconds the recording process consumed inside the span, when
    #: measured (real runs).  Unlike ``duration`` it excludes time the
    #: host ran other work, so it prices the span's own work alone.
    cpu: "float | None" = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """An append-only record of spans across workers and epochs."""

    def __init__(self) -> None:
        self._spans: list[Span] = []

    def add(self, worker: str, phase: Phase, start: float, end: float,
            epoch: int = 0, attempt: int = 0,
            cpu: "float | None" = None) -> Span:
        span = Span(worker, phase, start, end, epoch, attempt, cpu)
        self._spans.append(span)
        return span

    def extend(self, spans: Iterable[Span]) -> None:
        for s in spans:
            if not isinstance(s, Span):
                raise TypeError(f"expected Span, got {type(s)}")
            self._spans.append(s)

    @property
    def spans(self) -> list[Span]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    def workers(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self._spans:
            seen.setdefault(s.worker, None)
        return list(seen)

    def span_of(self) -> tuple[float, float]:
        """(earliest start, latest end) across all spans."""
        if not self._spans:
            return (0.0, 0.0)
        return (
            min(s.start for s in self._spans),
            max(s.end for s in self._spans),
        )

    def makespan(self) -> float:
        lo, hi = self.span_of()
        return hi - lo

    def worker_end(self, worker: str) -> float:
        ends = [s.end for s in self._spans if s.worker == worker]
        if not ends:
            raise KeyError(f"no spans for worker {worker!r}")
        return max(ends)

    def phase_total(self, phase: Phase, worker: str | None = None) -> float:
        """Cumulative duration of a phase (optionally for one worker)."""
        return sum(
            s.duration
            for s in self._spans
            if s.phase is phase and (worker is None or s.worker == worker)
        )

    def phase_totals(self, worker: str | None = None) -> dict[Phase, float]:
        """Per-phase cumulative durations — Figure 8's stacked bars."""
        return {phase: self.phase_total(phase, worker) for phase in Phase}

    def epoch_spans(self, epoch: int) -> list[Span]:
        return [s for s in self._spans if s.epoch == epoch]

    def epoch_time(self, epoch: int) -> float:
        spans = self.epoch_spans(epoch)
        if not spans:
            raise KeyError(f"no spans for epoch {epoch}")
        return max(s.end for s in spans) - min(s.start for s in spans)

    # ------------------------------------------------------------------
    _GLYPH = {
        Phase.PULL: "<",
        Phase.COMPUTE: "#",
        Phase.PUSH: ">",
        Phase.SYNC: "S",
        Phase.BARRIER: ".",
        Phase.EVAL: "E",
    }

    def ascii_gantt(self, width: int = 72) -> str:
        """Render the timeline as a fixed-width Gantt chart.

        Lanes are workers; glyphs: ``<`` pull, ``#`` compute, ``>``
        push, ``S`` sync.  Reproduces the flavour of Figures 5 and 6.
        """
        if width < 10:
            raise ValueError("width too small")
        lo, hi = self.span_of()
        total = max(hi - lo, 1e-12)
        scale = width / total
        names = self.workers()
        label_w = max((len(n) for n in names), default=0) + 1
        lines = []
        for name in names:
            row = [" "] * width
            for s in self._spans:
                if s.worker != name or s.duration == 0:
                    continue
                a = int((s.start - lo) * scale)
                b = max(a + 1, int((s.end - lo) * scale))
                for i in range(a, min(b, width)):
                    row[i] = self._GLYPH.get(s.phase, "?")
            lines.append(f"{name:<{label_w}}|{''.join(row)}|")
        legend = "legend: < pull   # compute   > push   S sync   . barrier   E eval"
        return "\n".join([*lines, legend])
