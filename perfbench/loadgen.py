"""Open-loop request generator: one thread, a fixed schedule, due-time latency.

The generator sends request ``i`` at ``start + offsets[i]`` whatever the
state of earlier requests, so a slow server meets a growing queue rather
than a slower client.  Each latency runs from the request's *due* time,
not from when it was sent: if the generator itself stalls, the requests
it sends late carry that stall in their latency, and the lateness is
reported on its own (``late_s``).

Between sends the same thread polls outstanding requests and stamps the
moment each is found done, so completion times are known to within one
poll interval (``poll_s``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    index: int
    tag: object  #: caller's label (tenant, model, rate, ...)
    due: float
    sent: float | None = None
    done: float | None = None
    submit_s: float = 0.0
    #: "ok", "rejected" (refused at submit), "expired" (deadline missed),
    #: "failed" (any other error) or "lost" (not done by the drain limit)
    status: str = "pending"
    error: str | None = None
    request: object = None

    @property
    def late_s(self) -> float:
        return self.sent - self.due if self.sent is not None else 0.0

    @property
    def latency_s(self) -> float | None:
        return self.done - self.due if self.done is not None else None


def classify(error: BaseException | None, expired_types=(), rejected_types=()):
    if error is None:
        return "ok"
    if isinstance(error, tuple(expired_types)):
        return "expired"
    if isinstance(error, tuple(rejected_types)):
        return "rejected"
    return "failed"


class OpenLoop:
    """Drive ``submit(item) -> request`` on a fixed schedule.

    ``schedule`` is a list of ``(offset_s, tag, item)``, offsets relative
    to the start and non-decreasing.  A request object needs ``done()``
    and an ``error`` attribute (``None`` on success), as
    :class:`repro.serve.Request` has.  Exceptions of ``rejected_types``
    raised by ``submit`` count as typed rejections; a request whose
    ``error`` is one of ``expired_types`` counts as a deadline miss.
    ``clock`` and ``sleep`` are injectable for tests.
    """

    def __init__(self, submit, schedule, rejected_types=(), expired_types=(),
                 poll_s: float = 0.001, drain_s: float = 30.0,
                 clock=time.perf_counter, sleep=time.sleep):
        self.submit = submit
        self.schedule = list(schedule)
        self.rejected_types = tuple(rejected_types)
        self.expired_types = tuple(expired_types)
        self.poll_s = float(poll_s)
        self.drain_s = float(drain_s)
        self.clock = clock
        self.sleep = sleep

    def _sweep(self, pending: list, now: float) -> list:
        still = []
        for out in pending:
            req = out.request
            if req.done():
                out.done = now
                out.status = classify(
                    req.error, self.expired_types, self.rejected_types
                )
                if req.error is not None:
                    out.error = type(req.error).__name__
            else:
                still.append(out)
        return still

    def run(self) -> list[Outcome]:
        start = self.clock()
        outcomes = [
            Outcome(i, tag, start + off)
            for i, (off, tag, _item) in enumerate(self.schedule)
        ]
        pending: list[Outcome] = []
        for out, (_off, _tag, item) in zip(outcomes, self.schedule):
            while True:
                now = self.clock()
                pending = self._sweep(pending, now)
                if now >= out.due:
                    break
                self.sleep(min(self.poll_s, out.due - now))
            out.sent = self.clock()
            try:
                out.request = self.submit(item)
            except self.rejected_types as err:
                out.status = "rejected"
                out.error = type(err).__name__
            after = self.clock()
            out.submit_s = after - out.sent
            if out.request is not None:
                pending.append(out)
        limit = self.clock() + self.drain_s
        while pending:
            now = self.clock()
            pending = self._sweep(pending, now)
            if not pending or now >= limit:
                break
            self.sleep(self.poll_s)
        for out in pending:
            out.status = "lost"
        return outcomes


def counts(outcomes) -> dict:
    """Attempted / failed tallies; every non-``ok`` outcome is a failure."""
    by = {}
    for out in outcomes:
        by[out.status] = by.get(out.status, 0) + 1
    failed = sum(v for k, v in by.items() if k != "ok")
    return {"attempted": len(outcomes), "failed": failed, "by_status": by}
