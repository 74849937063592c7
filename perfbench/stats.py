"""Open-loop request timing and rung selection.

No clocks and no I/O of their own, so tests can script every input.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence


# ---------------------------------------------------------------------------
# open-loop request timing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One open-loop request, timed from when it was due to be sent."""

    index: int
    intended: float   # when the schedule said to send it
    start: float      # when the call began
    end: float        # when the call returned
    ok: bool
    version: int      # snapshot version that answered (0 on failure)
    late: float       # generator lateness the service did not cause

    @property
    def latency(self) -> float:
        """What a client sees: intended send to response."""
        return self.end - self.intended

    @property
    def queue(self) -> float:
        """Waiting behind earlier requests: intended send to call start."""
        return self.start - self.intended

    @property
    def service(self) -> float:
        return self.end - self.start


def run_open_loop(
    intended: Sequence[float],
    call: Callable[[int], int],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> list[Request]:
    """Call ``call(i)`` at each ``intended[i]`` (absolute clock times).

    The schedule never waits for the service: a request whose time has
    passed is sent at once, and its latency still counts from its
    intended time, so one stall delays every request queued behind it
    (no coordinated omission).  ``call`` returns the answering snapshot
    version and raises on failure, which is recorded, not propagated.
    """
    out: list[Request] = []
    prev_end = -math.inf
    for i, due in enumerate(intended):
        now = clock()
        if now < due:
            sleep(due - now)
        start = clock()
        try:
            version = call(i)
            ok = True
        except Exception:  # a failed request is counted, never fatal
            version, ok = 0, False
        end = clock()
        late = max(0.0, start - max(due, prev_end))
        out.append(Request(i, due, start, end, ok, version, late))
        prev_end = end
    return out


def backlog_grows(requests: Sequence[Request], limit_s: float) -> bool:
    """Does the queue still exceed the limit over the rung's last quarter?

    A sustainable rate drains the queue a swap stall builds; a rate
    beyond capacity leaves a queue that keeps growing to the end.
    """
    tail = requests[len(requests) * 3 // 4:]
    if not tail:
        return False
    return statistics.median([r.queue for r in tail]) > limit_s


@dataclass(frozen=True)
class Rung:
    """One rate of the ladder, summarized."""

    rate: float
    p99_ms: float
    backlog: bool
    failed: int

    def meets(self, limit_ms: float) -> bool:
        return self.failed == 0 and not self.backlog and self.p99_ms <= limit_ms


def max_rate(rungs: Sequence[Rung], limit_ms: float) -> float:
    """Highest sustainable rate: interpolated where p99 crosses the limit.

    Rungs are taken in rate order and the ladder stops at the first rung
    that misses (a failed request counts as missing).  Between the last
    rung that meets the limit and that first miss, the rate is
    interpolated linearly on p99, so the figure moves smoothly with the
    service instead of jumping a whole rung.  Returns 0 when even the
    lowest rung misses, and the top rate when none does.
    """
    ordered = sorted(rungs, key=lambda r: r.rate)
    best = None
    for rung in ordered:
        if not rung.meets(limit_ms):
            if best is None:
                return 0.0
            if rung.failed or rung.p99_ms <= max(limit_ms, best.p99_ms):
                return best.rate
            frac = (limit_ms - best.p99_ms) / (rung.p99_ms - best.p99_ms)
            return best.rate + frac * (rung.rate - best.rate)
        best = rung
    return best.rate if best is not None else 0.0
