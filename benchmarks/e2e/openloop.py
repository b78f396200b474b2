"""Open-loop request driver.

Independent users do not wait for each other, so requests are sent on a
schedule whether or not earlier ones have completed and a slow engine's queue
is allowed to grow.  Each request is timed from the moment it was *due*, which
charges a stall to every request the stall delayed (``TraceReplayer`` in
``repro.runtime.traffic`` times from submit and so hides that).

One generator thread — the caller's — sleeps to each due time and submits;
how late it ran is reported so a starved generator cannot pass for a fast
engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

__all__ = ["Sent", "OpenLoopResult", "run_open_loop"]


@dataclass
class Sent:
    """One request of the schedule."""

    index: int
    due: float                    #: absolute ``perf_counter`` time it was due
    submitted: float              #: when ``submit`` returned
    late: float                   #: how long after ``due`` submit was called
    future: object = None         #: ``None`` when submit itself raised
    error: Optional[str] = None   #: why it failed, if it did
    outputs: object = None

    @property
    def latency(self) -> Optional[float]:
        """Seconds from the due time to completion: the generator's lateness
        and the submit call, plus the engine's own enqueue-to-resolve wall
        latency.  ``None`` for a request that did not succeed."""
        if self.error is not None:
            return None
        return (self.submitted - self.due) + self.future.wall_latency


@dataclass
class OpenLoopResult:
    sent: List[Sent]
    drain_s: float                #: backlog left when the schedule ended

    @property
    def succeeded(self) -> List[Sent]:
        return [s for s in self.sent if s.error is None]

    @property
    def failed(self) -> List[Sent]:
        return [s for s in self.sent if s.error is not None]


def run_open_loop(submit: Callable[[int], object], due_offsets: Sequence[float],
                  hung_after_s: float) -> OpenLoopResult:
    """Send request ``i`` at ``start + due_offsets[i]`` via ``submit(i)``
    (which returns a future with ``result(timeout)``), then collect.

    A request whose submit raises, whose future raises, or that is still
    unresolved ``hung_after_s`` after the schedule ended, is failed.
    """
    sent: List[Sent] = []
    start = time.perf_counter()
    for index, offset in enumerate(due_offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        called = time.perf_counter()
        try:
            future, error = submit(index), None
        except Exception as exc:  # shed at admission: a failed request
            future, error = None, f"{type(exc).__name__}: {exc}"
        sent.append(Sent(index, due, time.perf_counter(), called - due,
                         future, error))
    schedule_end = time.perf_counter()
    give_up = schedule_end + hung_after_s
    for request in sent:
        if request.future is None:
            continue
        try:
            request.outputs = request.future.result(
                max(give_up - time.perf_counter(), 0.0))
        except Exception as exc:  # expired, failed or hung
            request.error = f"{type(exc).__name__}: {exc}"
    return OpenLoopResult(sent, time.perf_counter() - schedule_end)
