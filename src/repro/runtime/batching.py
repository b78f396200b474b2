"""Batching policy of the serving engine: how big a batch is, and what it costs.

:func:`_choose_batch_size` is the adaptive policy (``max_batch="adaptive"``):
a pure function of batch estimates in *wall* seconds (the clock deadlines
are in), learned per size by the engine and priced by
:func:`_wall_batch_time`, the waiting requests' deadline headrooms and the
two limits.  :class:`_BatchCostModel` prices a batch on the simulated clock
for accounting only (``stats()["simulated"]``); no decision reads it.
Nothing in this module touches a queue, a thread or a device.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compiler.module import CompiledModule

#: engine internals — the public serving names live in ``repro.runtime.serving``
__all__: List[str] = []


class _BatchCostModel:
    """Simulated per-batch latency of the module at coalesced batch sizes.

    For the module's native batch size the recorded kernel times are used
    verbatim (including tuned provenance).  Larger coalesced batches are
    re-estimated by cloning the optimized graph, scaling the batch axis and
    asking the operator-level cost model for each fused kernel — i.e. exactly
    the per-batch estimate a compile at that batch size would produce (with
    the untuned fallback heuristic).  Results are memoised per batch size.
    """

    def __init__(self, module: CompiledModule, data_inputs: Sequence[str],
                 native_rows: int):
        from .artifact import graph_to_json

        self.module = module
        self._data_inputs = set(data_inputs)
        self.native_rows = native_rows
        self._graph_json = graph_to_json(module.graph)
        self._lock = threading.Lock()
        self._cache: Dict[int, Tuple[float, List[Tuple[str, float]]]] = {
            native_rows: (module.total_time,
                          [(k.name, k.time_seconds) for k in module.kernels]),
        }
        self._targets = {module.target.name: module.target}

    def _target_for(self, name: str):
        from ..hardware.target import create_target

        if name not in self._targets:
            self._targets[name] = create_target(name,
                                                seed=self.module.target.seed)
        return self._targets[name]

    def times_for(self, rows: int) -> Tuple[float, List[Tuple[str, float]]]:
        """``(total_seconds, [(kernel name, seconds)])`` at ``rows`` total
        batch rows across the coalesced requests."""
        with self._lock:
            if rows in self._cache:
                return self._cache[rows]
        total, per_kernel = self._estimate(rows)
        with self._lock:
            self._cache[rows] = (total, per_kernel)
        return total, per_kernel

    def _estimate(self, rows: int) -> Tuple[float, List[Tuple[str, float]]]:
        from ..compiler.driver import fused_kernel_time
        from .artifact import graph_from_json

        scale = rows // self.native_rows
        clone = graph_from_json(self._graph_json)
        for node in clone.input_nodes:
            if node.name in self._data_inputs:
                node.shape = (node.shape[0] * scale,) + tuple(node.shape[1:])
        clone.infer_shapes({})
        nodes_by_name = {node.name: node for node in clone.nodes}

        per_kernel: List[Tuple[str, float]] = []
        total = 0.0
        for kernel in self.module.kernels:
            master = kernel.group.master.name
            _, seconds = fused_kernel_time(
                nodes_by_name[master],
                [nodes_by_name[member.name] for member in kernel.group.nodes
                 if member.name != master],
                self._target_for(kernel.device))
            per_kernel.append((kernel.name, seconds))
            total += seconds
        return total, per_kernel


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
