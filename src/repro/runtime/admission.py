"""Admission control of the serving engine: who waits, who is shed.

A submitted request becomes a :class:`_Request` holding an
:class:`InferenceFuture`; the :class:`_AdmissionQueue` is the bounded,
priority-ordered queue between the submitting callers and the engine's
per-device workers, and the *only* place a request waits: a worker whose
device is free pulls its next batch straight out of it
(:meth:`_AdmissionQueue.pop_batch`), so ``max_queue`` bounds the whole
backlog, ``depth()`` is the whole backlog, and a late high-priority request
overtakes (or evicts) everything that has not started executing.  Idle
workers take turns in arrival order and one batch fills at a time — a burst
becomes one full batch, not one partial batch per idle device — and the
coalescing window is anchored at admission: a batch stops filling
``window`` after its oldest member was admitted, so a request that already
waited behind a busy device never idles the device again.  Load is shed
with the typed errors defined here.  Nothing in this module knows how a
batch is sized or where it executes.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

__all__ = ["InferenceFuture", "ServingError", "QueueFull", "DeadlineExceeded",
           "RequestCancelled"]


class ServingError(RuntimeError):
    """Base error of the serving engine's admission/SLO machinery."""


class QueueFull(ServingError):
    """The bounded admission queue is full and this request lost the shed
    comparison (it is the lowest-priority/newest candidate)."""


class DeadlineExceeded(ServingError):
    """The request's ``deadline_ms`` passed before it executed; it was shed
    without running."""


class RequestCancelled(ServingError):
    """The caller cancelled the request before it started executing."""


class InferenceFuture:
    """Handle to one submitted request; resolves to the request's outputs.

    A caller that gives up (e.g. after :meth:`result` raised
    ``TimeoutError``) can :meth:`cancel` the request: if it has not started
    executing it never will, and it is not counted in the engine's serving
    statistics.
    """

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._outputs: Optional[List[np.ndarray]] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._claimed = False
        #: engine callback fired once on successful cancellation (stats)
        self._cancel_hook = None
        #: filled at completion: the size in requests of the batch that
        #: served this request, and observed wall latency (split into
        #: admission-queue wait and batch execution)
        self.batch_size: Optional[int] = None
        self.wall_latency: Optional[float] = None
        self.queue_wait: Optional[float] = None
        self.execute_latency: Optional[float] = None

    def done(self) -> bool:
        return self._event.is_set()

    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> bool:
        """Cancel the request if it has not started executing.

        Returns ``True`` if the request is (now) cancelled — it will never
        execute and :meth:`result` raises :class:`RequestCancelled` — and
        ``False`` if it already started executing or completed.
        """
        with self._lock:
            if self._cancelled:
                return True
            if self._claimed or self._event.is_set():
                return False
            self._cancelled = True
        hook = self._cancel_hook
        if hook is not None:
            hook()
        self._reject(RequestCancelled(
            "request cancelled by the caller before execution"))
        return True

    def result(self, timeout: Optional[float] = None) -> List[np.ndarray]:
        if not self._event.wait(timeout):
            raise TimeoutError("Inference request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._outputs

    # -- engine side -----------------------------------------------------------
    def _claim(self) -> bool:
        """Mark execution as started; cancellation loses the race from here."""
        with self._lock:
            if self._cancelled or self._event.is_set():
                return False
            self._claimed = True
            return True

    def _resolve(self, outputs: List[np.ndarray]) -> None:
        self._outputs = outputs
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Request:
    __slots__ = ("inputs", "future", "enqueued_at", "deadline", "priority",
                 "seq")

    def __init__(self, inputs: Dict[str, np.ndarray],
                 deadline: Optional[float] = None, priority: int = 0):
        self.inputs = inputs
        self.future = InferenceFuture()
        self.enqueued_at = time.monotonic()
        self.deadline = deadline        #: absolute monotonic time, or None
        self.priority = priority        #: higher pops first; ties FIFO
        self.seq = -1                   #: admission order (set by the queue)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


def _reject_all(requests: List[_Request], error: BaseException) -> None:
    """Reject every request of ``requests`` that has not resolved yet."""
    for request in requests:
        if not request.future.done():
            request.future._reject(error)


class _AdmissionQueue:
    """Bounded, priority-ordered admission queue with load shedding.

    ``pop_batch`` hands a worker the highest-priority, earliest-admitted
    live requests.  When full, ``put`` sheds: expired requests first (most
    expired first), then the lowest-priority/newest candidate — which may be
    the incoming request itself, in which case :class:`QueueFull` propagates
    to the submitting caller.  Cancelled entries are dropped on sight;
    expired entries are rejected with :class:`DeadlineExceeded`.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        #: the workers inside :meth:`pop_batch`, in arrival order, each as
        #: the condition it waits on; only the head of the line pops, and it
        #: stays the head until its batch is complete
        self._line: Deque[threading.Condition] = collections.deque()
        self._items: List[_Request] = []
        self._seq = 0
        #: why puts are refused (set by :meth:`close`); None while open
        self._closed: Optional[str] = None
        self.shed_queue_full = 0
        self.shed_expired = 0

    # Caller holds the lock for every _-method below.
    def _purge(self, now: float) -> None:
        kept = []
        for request in self._items:
            if request.future.cancelled():
                continue
            if request.expired(now):
                self.shed_expired += 1
                request.future._reject(DeadlineExceeded(
                    f"deadline passed after "
                    f"{now - request.enqueued_at:.3f}s in the admission "
                    f"queue; the request was shed, not executed"))
                continue
            kept.append(request)
        self._items = kept

    def _pop_best(self) -> _Request:
        best = max(self._items, key=lambda r: (r.priority, -r.seq))
        self._items.remove(best)
        return best

    def _wake_head(self) -> None:
        if self._line:
            self._line[0].notify()

    def put(self, request: _Request) -> None:
        with self._lock:
            if self._closed is not None:
                raise ServingError(self._closed)
            request.seq = self._seq
            self._seq += 1
            if len(self._items) >= self.maxsize:
                self._purge(time.monotonic())
            if len(self._items) >= self.maxsize:
                victim = min(self._items + [request],
                             key=lambda r: (r.priority, -r.seq))
                self.shed_queue_full += 1
                if victim is request:
                    raise QueueFull(
                        f"admission queue is full ({self.maxsize} queued) "
                        f"and every queued request has priority >= "
                        f"{request.priority}")
                self._items.remove(victim)
                victim.future._reject(QueueFull(
                    f"shed from a full admission queue ({self.maxsize} "
                    f"queued) by a higher-priority request"))
            self._items.append(request)
            self._wake_head()

    def pop_batch(self, max_batch: int, window_s: float,
                  choose: Optional[Callable[[Sequence[Optional[float]]],
                                            int]] = None
                  ) -> Optional[List[_Request]]:
        """Block until it is this worker's turn (arrival order, one batch
        filling at a time) and a live request waits, then return it with the
        batchmates that join it; ``None`` once closed and empty.

        The batch is limited to ``max_batch`` requests or, given ``choose``,
        to ``choose(headrooms)`` — the seconds each waiting request has left
        until its deadline (``None`` = no deadline), in pop order, read
        under the same lock as the pop.  It fills from the queue until the
        limit or until ``window_s`` after its oldest member was *admitted*.
        """
        turn = threading.Condition(self._lock)
        with self._lock:
            self._line.append(turn)
            try:
                while True:
                    now = time.monotonic()
                    if self._line[0] is turn:
                        self._purge(now)
                        if self._items:
                            break
                        if self._closed is not None:
                            return None
                    turn.wait()
                if choose is not None:
                    waiting = sorted(self._items,
                                     key=lambda r: (-r.priority, r.seq))
                    max_batch = choose(
                        [None if request.deadline is None
                         else request.deadline - now for request in waiting])
                batch = [self._pop_best()]
                window_end = batch[0].enqueued_at + window_s
                while len(batch) < max_batch:
                    if self._items:     # purged just now: all live
                        batch.append(self._pop_best())
                        window_end = min(window_end,
                                         batch[-1].enqueued_at + window_s)
                        continue
                    now = time.monotonic()
                    if self._closed is not None or now >= window_end:
                        break
                    turn.wait(window_end - now)
                    self._purge(time.monotonic())
                return batch
            finally:                    # leaving the line: next worker's turn
                self._line.remove(turn)
                if self._items or self._closed is not None:
                    self._wake_head()

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def note_expired(self) -> None:
        """Record a request shed for expiry after it left the queue."""
        with self._lock:
            self.shed_expired += 1

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {"shed_queue_full": self.shed_queue_full,
                    "shed_expired": self.shed_expired}

    def close(self, reason: str = "InferenceEngine has been shut down",
              backlog_error: Optional[ServingError] = None) -> None:
        """Refuse further puts (they raise ``ServingError(reason)``) and
        wake every waiting worker.  The backlog stays to be drained — or,
        given ``backlog_error``, is rejected with it."""
        with self._lock:
            if self._closed is None:
                self._closed = reason
            items = []
            if backlog_error is not None:
                items, self._items = self._items, []
            self._wake_head()       # each worker leaving wakes the next
        _reject_all(items, backlog_error)
