"""Open-loop timing and rung selection, under a scripted clock."""

import pytest

from perfbench.stats import (
    Request,
    Rung,
    backlog_grows,
    max_rate,
    run_open_loop,
)


class ScriptedClock:
    """Time moves only when the code under test sleeps or is served."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def serve(clock, service_s):
    def call(i):
        clock.now += service_s[i]
        return 1
    return call


def test_one_stall_delays_the_requests_behind_it():
    clock = ScriptedClock()
    intended = [0.010 * i for i in range(6)]
    service = [0.001, 0.050, 0.001, 0.001, 0.001, 0.001]
    reqs = run_open_loop(intended, serve(clock, service), clock.clock, clock.sleep)

    # request 1 starts on time and runs 50 ms, so 2, 3 and 4 (due at
    # 20, 30, 40 ms) queue behind it and start back to back at 60 ms
    assert [round(r.start * 1e3, 6) for r in reqs] == [0, 10, 60, 61, 62, 63]
    assert [round(r.latency * 1e3, 6) for r in reqs] == [1, 50, 41, 32, 23, 14]
    assert [round(r.queue * 1e3, 6) for r in reqs] == [0, 0, 40, 31, 22, 13]
    # none of that waiting is the generator's fault
    assert [r.late for r in reqs] == pytest.approx([0.0] * 6, abs=1e-12)


def test_a_closed_loop_would_hide_the_stall():
    """Timed from the actual send, the queued requests look fast."""
    clock = ScriptedClock()
    intended = [0.010 * i for i in range(6)]
    service = [0.001, 0.050, 0.001, 0.001, 0.001, 0.001]
    reqs = run_open_loop(intended, serve(clock, service), clock.clock, clock.sleep)
    assert max(r.service for r in reqs[2:]) == pytest.approx(0.001)
    assert max(r.latency for r in reqs[2:]) == pytest.approx(0.041)


def test_generator_lateness_is_separated_from_queueing():
    clock = ScriptedClock()
    oversleep = [0.0, 0.004]

    def sleep(seconds):
        clock.now += seconds + oversleep.pop(0)

    reqs = run_open_loop([0.005, 0.010], serve(clock, [0.001, 0.001]),
                         clock.clock, sleep)
    assert reqs[0].late == pytest.approx(0.0)
    assert reqs[1].late == pytest.approx(0.004)
    assert reqs[1].queue == pytest.approx(0.004)


def test_failed_request_is_recorded_not_raised():
    clock = ScriptedClock()

    def call(i):
        clock.now += 0.001
        if i == 1:
            raise RuntimeError("boom")
        return 7

    reqs = run_open_loop([0.0, 0.01, 0.02], call, clock.clock, clock.sleep)
    assert [r.ok for r in reqs] == [True, False, True]
    assert [r.version for r in reqs] == [7, 0, 7]


def test_backlog_grows_only_when_the_tail_stays_queued():
    def req(i, queue):
        return Request(i, 0.0, queue, queue + 0.001, True, 1, 0.0)

    drained = [req(i, 0.2 if i < 2 else 0.0) for i in range(8)]
    growing = [req(i, 0.05 * i) for i in range(8)]
    assert not backlog_grows(drained, 0.1)
    assert backlog_grows(growing, 0.1)


def rung(rate, p99, backlog=False, failed=0):
    return Rung(rate, p99, backlog, failed)


def test_max_rate_interpolates_between_last_pass_and_first_miss():
    rungs = [rung(100, 10), rung(200, 40), rung(300, 100)]
    # 50 ms sits one sixth of the way from 40 to 100
    assert max_rate(rungs, 50.0) == pytest.approx(200 + 100 / 6)


def test_max_rate_when_every_rung_meets_the_limit():
    assert max_rate([rung(300, 20), rung(100, 5), rung(200, 9)], 50.0) == 300


def test_max_rate_is_zero_when_the_lowest_rung_misses():
    assert max_rate([rung(100, 80), rung(200, 20)], 50.0) == 0.0


def test_max_rate_stops_at_the_first_miss():
    rungs = [rung(100, 10), rung(200, 90), rung(300, 20)]
    assert max_rate(rungs, 50.0) == pytest.approx(100 + 100 * 40 / 80)


def test_failures_and_drained_backlog_do_not_interpolate():
    assert max_rate([rung(100, 10), rung(200, 20, failed=1)], 50.0) == 100
    # a growing backlog misses even under the p99 limit
    assert max_rate([rung(100, 10), rung(200, 30, backlog=True)], 50.0) == 100
    # over the limit with a growing backlog: interpolated on p99
    assert max_rate([rung(100, 10), rung(200, 90, backlog=True)], 50.0) == 150
