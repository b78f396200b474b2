"""Batching policy of the serving engine: how big a batch is.

:func:`_choose_batch_size` is the adaptive policy (``max_batch="adaptive"``):
a pure function of batch estimates in *wall* seconds (the clock deadlines
are in), learned per size by the engine and priced by
:func:`_wall_batch_time`, the waiting requests' deadline headrooms and the
two limits.  Nothing in this module touches a queue, a thread or a device.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

#: engine internals — the public serving names live in ``repro.runtime.serving``
__all__: List[str] = []


def _wall_batch_time(means: Dict[int, float]) -> Callable[[int], float]:
    """Wall seconds of a batch of ``size`` from ``means`` (measured mean per
    size seen, non-empty): an unseen size costs ``size ×`` the cheapest
    per-request mean, as the back-ends run a batch request by request."""
    per_request = min(seconds / size for size, seconds in means.items())
    return lambda size: means.get(size, size * per_request)


def _choose_batch_size(batch_time: Callable[[int], float],
                       headrooms: Sequence[Optional[float]],
                       max_batch: int,
                       p99_target_s: Optional[float]) -> int:
    """The batch-size limit that maximises estimated goodput
    (deadline-meeting requests per wall second).

    ``batch_time(size)`` is the wall seconds of one batch of ``size``
    requests; ``headrooms`` lists, in pop order, the seconds each waiting
    request has left until its deadline (``None`` = no deadline).  The
    policy never waits for requests that have not arrived (candidate sizes
    stop at ``len(headrooms)``), a request whose slack is smaller than the
    batch estimate cannot contribute goodput, and candidates whose estimate
    exceeds ``p99_target_s`` are rejected outright — except size one, which
    is the only way to serve at all.  A larger size must beat the best so
    far by more than a relative 1e-9, so ties (``k`` requests in ``k ×``
    solo) keep the smaller size instead of being decided by float rounding.
    """
    cap = max(1, min(max_batch, len(headrooms)))
    best_size, best_goodput = 1, -1.0
    for size in range(1, cap + 1):
        seconds = batch_time(size)
        if p99_target_s is not None and seconds > p99_target_s and size > 1:
            break           # a larger batch is not expected to be faster
        served = sum(1 for headroom in headrooms[:size]
                     if headroom is None or headroom >= seconds)
        goodput = served / seconds if seconds > 0 else float(served)
        if goodput > best_goodput * (1 + 1e-9):
            best_goodput, best_size = goodput, size
    return best_size
