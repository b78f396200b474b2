"""Admission control of the serving engine: who waits, who is shed.

A submitted request becomes a :class:`_Request` holding an
:class:`InferenceFuture`; the :class:`_AdmissionQueue` is the bounded,
priority-ordered queue between the submitting callers and the engine's
batcher, shedding load with the typed errors defined here when it is full.
Nothing in this module knows how a batch is sized or where it executes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

__all__ = ["InferenceFuture", "ServingError", "QueueFull", "DeadlineExceeded",
           "RequestCancelled"]

#: returned by :meth:`_AdmissionQueue.pop` once the queue is closed and empty
_SHUTDOWN = object()


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
        #: filled at completion: simulated seconds of the batch that served
        #: this request, its size in requests, and observed wall latency
        #: (split into admission-queue wait and batch execution)
        self.simulated_latency: Optional[float] = None
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

    ``pop`` returns the highest-priority, earliest-admitted live request.
    When full, ``put`` sheds: expired requests first (most expired first),
    then the lowest-priority/newest candidate — which may be the incoming
    request itself, in which case :class:`QueueFull` propagates to the
    submitting caller.  Cancelled entries are dropped on sight; expired
    entries are rejected with :class:`DeadlineExceeded`.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._cond = threading.Condition()
        self._items: List[_Request] = []
        self._seq = 0
        self._closed = False
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

    def put(self, request: _Request) -> None:
        with self._cond:
            if self._closed:
                raise ServingError("InferenceEngine has been shut down")
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
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None):
        """The best live request, ``None`` on timeout, or the shutdown
        sentinel once closed and empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                self._purge(now)
                if self._items:
                    best = max(self._items,
                               key=lambda r: (r.priority, -r.seq))
                    self._items.remove(best)
                    return best
                if self._closed:
                    return _SHUTDOWN
                remaining = None if deadline is None else deadline - now
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    def deadline_headrooms(self, now: float) -> List[Optional[float]]:
        """Remaining seconds until each live queued request's deadline
        (``None`` = no deadline), in pop order — the adaptive batcher's
        view of how much slack the queue has."""
        with self._cond:
            live = [request for request in self._items
                    if not request.future.cancelled()
                    and not request.expired(now)]
        live.sort(key=lambda r: (-r.priority, r.seq))
        return [None if request.deadline is None else request.deadline - now
                for request in live]

    def note_expired(self) -> None:
        """Record a request shed for expiry after it left the queue."""
        with self._cond:
            self.shed_expired += 1

    def counters(self) -> Dict[str, int]:
        with self._cond:
            return {"shed_queue_full": self.shed_queue_full,
                    "shed_expired": self.shed_expired}

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_rejecting(self, error: BaseException) -> None:
        with self._cond:
            items, self._items = self._items, []
        _reject_all(items, error)
