"""Tests of the benchmark's own helpers: statistics, the open-loop
generator and failure counting.  Run with
``python3 -m pytest perfbench/tests -q``."""

import statistics

import pytest

from common import TAIL_BEYOND, Spans, summarize, tail_rank
from loadgen import OpenLoop, counts


class FakeClock:
    """Deterministic time: ``sleep`` advances it, nothing else does."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, dt):
        self.now += max(dt, 0.0)


class FakeRequest:
    def __init__(self, clock, finish_at, error=None):
        self.clock = clock
        self.finish_at = finish_at
        self._error = error

    def done(self):
        return self.clock.now >= self.finish_at

    @property
    def error(self):
        return self._error if self.done() else None


class Refused(RuntimeError):
    pass


class Expired(TimeoutError):
    pass


# -- tail rule -------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    s = summarize(range(100))
    assert s["n"] == 100
    assert s["tail"] == 89.0  # 90..99 lie beyond it: exactly ten
    assert s["tail_pct"] == 90.0
    assert sum(1 for x in range(100) if x > s["tail"]) == TAIL_BEYOND
    assert s["p50"] == statistics.median(range(100))


def test_tail_absent_when_it_would_not_lie_above_the_median():
    for n in (1, 10, 11, 20):
        s = summarize(range(n))
        assert s["tail"] is None and s["tail_pct"] is None
        assert s["n"] == n
    assert tail_rank(21) == 10  # the first count with a tail above p50
    s = summarize(range(21))
    assert s["tail"] == 10.0 and s["tail"] > s["p50"] - 1


def test_summary_records_sample_count_and_ignores_order():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0] * 6
    a, b = summarize(xs), summarize(sorted(xs))
    assert a == b
    assert a["n"] == 30
    assert summarize([])["n"] == 0


# -- open-loop generator --------------------------------------------------------


def _loop(clock, schedule, submit, **kw):
    return OpenLoop(submit, schedule, clock=clock, sleep=clock.sleep,
                    poll_s=0.001, drain_s=10.0, **kw)


def test_latency_runs_from_due_time_across_a_generator_stall():
    clock = FakeClock()
    service = 0.05
    stall_at, stall = 3, 0.5

    def submit(item):
        if item == stall_at:  # the generator itself stalls before sending
            clock.now += stall
        return FakeRequest(clock, clock.now + service)

    sched = [(0.1 * k, "t", k) for k in range(6)]
    outs = _loop(clock, sched, submit).run()
    assert [o.status for o in outs] == ["ok"] * 6
    for o in outs[:stall_at]:
        assert o.late_s == pytest.approx(0.0, abs=1e-3)
        assert o.latency_s == pytest.approx(service, abs=2e-3)
    stalled = outs[stall_at]
    # the stall happens inside submit, after the send time is stamped, so
    # it shows in submit_s and in the latency from the due time
    assert stalled.submit_s == pytest.approx(stall)
    assert stalled.latency_s == pytest.approx(stall + service, abs=2e-3)
    # later requests went out late; their latency carries the lateness
    for o in outs[stall_at + 1:]:
        assert o.late_s > 0.2
        assert o.latency_s == pytest.approx(o.late_s + o.submit_s + service,
                                            abs=2e-3)
        assert o.latency_s > service + 0.2


def test_sends_follow_the_schedule_not_completions():
    clock = FakeClock()
    # every request takes 1 s, far longer than the 0.1 s spacing: an open
    # loop keeps sending on time regardless
    outs = _loop(clock, [(0.1 * k, "t", k) for k in range(5)],
                 lambda item: FakeRequest(clock, clock.now + 1.0)).run()
    assert max(o.late_s for o in outs) < 2e-3
    assert [round(o.sent - outs[0].sent, 3) for o in outs] == [0.0, 0.1, 0.2, 0.3, 0.4]


def test_fail_counts_typed_rejections_and_deadline_misses():
    clock = FakeClock()

    def submit(item):
        if item % 4 == 1:
            raise Refused("queue full")
        err = Expired("deadline") if item % 4 == 2 else None
        if item % 4 == 3:
            err = ValueError("bad")
        return FakeRequest(clock, clock.now + 0.01, error=err)

    outs = _loop(clock, [(0.05 * k, "t", k) for k in range(8)], submit,
                 rejected_types=(Refused,), expired_types=(Expired,)).run()
    assert [o.status for o in outs] == ["ok", "rejected", "expired", "failed"] * 2
    tally = counts(outs)
    assert tally["attempted"] == 8
    assert tally["failed"] == 6
    assert tally["by_status"] == {"ok": 2, "rejected": 2, "expired": 2, "failed": 2}
    assert outs[1].error == "Refused"
    assert outs[1].request is None


def test_requests_not_done_by_the_drain_limit_are_lost():
    clock = FakeClock()
    outs = OpenLoop(lambda item: FakeRequest(clock, float("inf")),
                    [(0.0, "t", 0)], clock=clock, sleep=clock.sleep,
                    drain_s=1.0).run()
    assert outs[0].status == "lost"
    assert counts(outs)["failed"] == 1


# -- spans -----------------------------------------------------------------------


def test_spans_nest_and_carry_ids():
    sp = Spans()
    with sp.span("outer", step=1) as outer:
        with sp.span("inner", step=1):
            pass
    inner_rec, outer_rec = sp.records
    assert inner_rec["name"] == "inner" and inner_rec["parent"] == outer
    assert outer_rec["parent"] is None and outer_rec["step"] == 1
    assert outer_rec["start_s"] <= inner_rec["start_s"] <= inner_rec["end_s"]
    assert inner_rec["end_s"] <= outer_rec["end_s"]
