"""Per-operator kernel time estimation on a target.

For the heavy operators (conv2d, depthwise conv2d, dense, transposed conv)
the estimate comes from actually lowering a scheduled tensor-expression
implementation — using the best configuration found by the autotuner when a
tuning database is supplied, or the template's fallback configuration
otherwise — and asking the target's hardware model for its latency.  Light
(injective / reduction) operators are estimated from their memory traffic.

Results are memoised per (workload, target) since networks reuse layer shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import te, tir
from ..autotvm.database import TuningDatabase
from ..autotvm.space import ConfigSpace
from ..autotvm.task import Task
from ..hardware.target import Target
from ..hardware.vdla import VDLAAccelerator
from ..topi import nn as topi_nn
from ..topi.reference import _pair
from ..topi.schedules import cpu as cpu_sched
from ..topi.schedules import gpu as gpu_sched
from ..topi.schedules import vdla as vdla_sched
from .ir import Node
from .ops import OP_REGISTRY

__all__ = ["workload_key", "is_templated", "kernel_time", "TimeEstimate",
           "make_task_for_node", "task_name_for_node", "fallback_search",
           "fallback_config_for_node", "clear_timing_cache", "KERNEL_TIME_CACHE"]

KERNEL_TIME_CACHE: Dict[Tuple, "TimeEstimate"] = {}

#: memoised (best_time, best_config_index) of the fallback heuristic
_FALLBACK_CACHE: Dict[Tuple, Tuple[float, int]] = {}


def clear_timing_cache() -> None:
    """Forget every estimate, fallback search and shared evaluation-cache
    entry (features and verification verdicts) — the next compile is cold."""
    from ..autotvm.eval_cache import clear_eval_caches

    KERNEL_TIME_CACHE.clear()
    _FALLBACK_CACHE.clear()
    clear_eval_caches()


@dataclass(frozen=True)
class TimeEstimate:
    """A kernel-latency estimate and how it was obtained."""

    time: float
    tuned: bool = False                 #: came from a tuning-history entry
    config_index: Optional[int] = None  #: config used (tuned path only)


def workload_key(node: Node, target: Target) -> Tuple:
    """Cache / tuning-database key for an operator workload on a target."""
    shapes = tuple(tuple(p.shape) for p in node.inputs)
    attrs = tuple(sorted((k, str(v)) for k, v in node.attrs.items()
                         if k in ("strides", "padding", "pool_size", "alpha")))
    return (node.op, shapes, attrs, target.name, node.dtype)


# ---------------------------------------------------------------------------
# Template construction per operator / target
# ---------------------------------------------------------------------------

def _conv2d_template(target: Target):
    gpu_like = target.device_type in ("gpu", "mali")

    def template(cfg, n, ci, h, w, co, kh, kw, stride, padding, dtype):
        data = te.placeholder((n, ci, h, w), name="data", dtype=dtype)
        kernel = te.placeholder((co, ci, kh, kw), name="kernel", dtype=dtype)
        conv = topi_nn.conv2d_nchw(data, kernel, stride, padding)
        if gpu_like:
            return gpu_sched.conv2d_gpu_template(cfg, data, kernel, conv)
        return cpu_sched.conv2d_cpu_template(cfg, data, kernel, conv)

    return template


def _depthwise_template(target: Target):
    gpu_like = target.device_type in ("gpu", "mali")

    def template(cfg, n, c, h, w, kh, kw, stride, padding, dtype):
        data = te.placeholder((n, c, h, w), name="data", dtype=dtype)
        kernel = te.placeholder((c, 1, kh, kw), name="kernel", dtype=dtype)
        conv = topi_nn.depthwise_conv2d_nchw(data, kernel, stride, padding)
        if gpu_like:
            return gpu_sched.depthwise_conv2d_gpu_template(cfg, data, kernel, conv)
        return cpu_sched.depthwise_conv2d_cpu_template(cfg, data, kernel, conv)

    return template


def _dense_template(target: Target):
    gpu_like = target.device_type in ("gpu", "mali")

    def template(cfg, batch, in_dim, out_dim, dtype):
        data = te.placeholder((batch, in_dim), name="data", dtype=dtype)
        weight = te.placeholder((out_dim, in_dim), name="weight", dtype=dtype)
        out = topi_nn.dense(data, weight)
        if gpu_like:
            return gpu_sched.dense_gpu_template(cfg, data, weight, out)
        return cpu_sched.dense_cpu_template(cfg, data, weight, out)

    return template


def _task_signature(node: Node) -> Optional[Tuple[str, Tuple]]:
    """``(template kind, workload args)`` of a heavy operator node, or None."""
    dtype = node.dtype or "float32"
    if node.op == "conv2d_transpose":
        # A strided transposed convolution is compiled as the equivalent
        # unit-stride convolution over the zero-dilated input.
        (n, ci, h, w) = node.inputs[0].shape
        (_ic, co, kh, kw) = node.inputs[1].shape
        sh, _sw = _pair(node.attrs.get("strides", 1))
        ph, _pw = _pair(node.attrs.get("padding", 0))
        dil_h = h + (h - 1) * (sh - 1)
        dil_w = w + (w - 1) * (sh - 1)
        return "conv2d", (n, ci, dil_h, dil_w, co, kh, kw, 1, kh - 1 - ph, dtype)
    if node.op == "conv2d":
        (n, ci, h, w) = node.inputs[0].shape
        (co, _ci, kh, kw) = node.inputs[1].shape
        sh, _sw = _pair(node.attrs.get("strides", 1))
        ph, _pw = _pair(node.attrs.get("padding", 0))
        return "conv2d", (n, ci, h, w, co, kh, kw, sh, ph, dtype)
    if node.op == "depthwise_conv2d":
        (n, c, h, w) = node.inputs[0].shape
        (_c, _m, kh, kw) = node.inputs[1].shape
        sh, _sw = _pair(node.attrs.get("strides", 1))
        ph, _pw = _pair(node.attrs.get("padding", 0))
        return "depthwise", (n, c, h, w, kh, kw, sh, ph, dtype)
    if node.op == "dense":
        (batch, in_dim) = node.inputs[0].shape
        (out_dim, _in) = node.inputs[1].shape
        return "dense", (batch, in_dim, out_dim, dtype)
    return None


_TEMPLATE_FACTORIES = {
    "conv2d": _conv2d_template,
    "depthwise": _depthwise_template,
    "dense": _dense_template,
}


def task_name_for_node(node: Node) -> Optional[str]:
    """The tuning-task / database name of a heavy operator node, without
    paying for task construction (used for history lookups)."""
    signature = _task_signature(node)
    if signature is None:
        return None
    kind, args = signature
    return f"{kind}_{args}"


def make_task_for_node(node: Node, target: Target) -> Optional[Task]:
    """Create an autotvm task for a heavy operator node, or None."""
    signature = _task_signature(node)
    if signature is None:
        return None
    kind, args = signature
    # ``workload=kind`` normalizes the shared-cache identity: any task that
    # lowers the same (template kind, args, target) — regardless of the
    # task's display name — shares lowering/featurisation cache entries.
    return Task(f"{kind}_{args}", _TEMPLATE_FACTORIES[kind](target), args, target,
                workload=kind)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def _memory_bound_time(node: Node, target: Target, fused: bool = False) -> float:
    """Traffic-based estimate for light operators."""
    params = target.model.params
    elem_bytes = tir.dtype_bytes(node.dtype)
    out_elems = float(np.prod(node.shape))
    in_elems = sum(float(np.prod(p.shape)) for p in node.inputs)
    traffic = (out_elems + in_elems) * elem_bytes
    bandwidth = params.dram_bandwidth
    time = traffic / bandwidth
    spec = OP_REGISTRY[node.op]
    flops = spec.flops([tuple(p.shape) for p in node.inputs], tuple(node.shape),
                       node.attrs)
    time = max(time, flops / params.peak_flops * 4.0)
    if not fused:
        time += params.launch_overhead
    return time


def _vdla_conv_time(node: Node, target: Target) -> float:
    """Estimate a convolution offloaded to the VDLA via its GEMM mapping."""
    (n, ci, h, w) = node.inputs[0].shape
    (co, _ci, kh, kw) = node.inputs[1].shape
    sh, _sw = _pair(node.attrs.get("strides", 1))
    ph, _pw = _pair(node.attrs.get("padding", 0))
    m, n_dim, k = vdla_sched.conv2d_as_gemm_workload(n, ci, h, w, co, kh, sh, ph)
    schedule, tensors = vdla_sched.schedule_gemm_vdla(m, n_dim, k, vthreads=2)
    func = tir.lower(schedule, tensors, name=f"vdla_conv_{m}x{n_dim}x{k}")
    from ..tir.transforms import inject_virtual_threads

    func = inject_virtual_threads(func)
    model: VDLAAccelerator = target.model  # type: ignore[assignment]
    return model.estimate_func(func, latency_hiding=True)


#: operators tuned through schedule templates (everything else is estimated
#: from memory traffic)
_TEMPLATED_OPS = ("conv2d", "depthwise_conv2d", "dense", "conv2d_transpose")


def is_templated(node: Node, target: Target) -> bool:
    """Whether ``node`` compiles through a tunable schedule template on
    ``target``.  VDLA convolutions do not: they map onto the accelerator's
    fixed GEMM schedule and never consult tuning history."""
    if target.device_type == "vdla" and node.op == "conv2d":
        return False
    return node.op in _TEMPLATED_OPS


def kernel_time(node: Node, target: Target,
                tuning_db: Optional[TuningDatabase] = None,
                fused: bool = False) -> TimeEstimate:
    """Kernel latency of one operator node, with provenance.

    ``fused=True`` means the node executes inside a fused kernel anchored by
    another operator, so it contributes no extra kernel launch and its global
    memory round-trip is elided (only its arithmetic is counted).

    ``tuning_db`` may be a :class:`TuningDatabase` or any object with its
    ``best(task_name, target_name)`` interface (e.g.
    :class:`~repro.autotvm.apply_history.ApplyHistoryBest`, which counts the
    lookups).  The history lookup happens before the memoisation check and
    the hit extends the cache key, so tuned and untuned estimates of the
    same workload never collide in the cache.
    """
    base_key = workload_key(node, target) + (fused,)

    templated = is_templated(node, target)
    entry = None
    if tuning_db is not None and templated:
        entry = tuning_db.best(task_name_for_node(node), target.name)
    key = base_key if entry is None else base_key + ("tuned", entry.config_index)
    if key in KERNEL_TIME_CACHE:
        return KERNEL_TIME_CACHE[key]

    spec = OP_REGISTRY[node.op]
    if fused and spec.pattern == "injective":
        flops = spec.flops([tuple(p.shape) for p in node.inputs], tuple(node.shape),
                           node.attrs)
        estimate = TimeEstimate(flops / target.model.params.peak_flops * 2.0)
        KERNEL_TIME_CACHE[key] = estimate
        return estimate

    if not templated:
        if node.op == "conv2d":     # vdla: offloaded through the GEMM mapping
            estimate = TimeEstimate(_vdla_conv_time(node, target))
        else:
            estimate = TimeEstimate(_memory_bound_time(node, target, fused=fused))
        KERNEL_TIME_CACHE[key] = estimate
        return estimate

    # Pick the configuration: tuned if available, otherwise run the compiler's
    # fallback heuristic (a short model-guided local search over the space).
    if entry is not None:
        task = make_task_for_node(node, target)
        try:
            best_time = target.model.estimate(
                task.features_of(entry.config_index))
        except Exception:
            best_time = float("inf")
        tuned, config_index = True, entry.config_index
    else:
        best_time, config_index = fallback_config_for_node(node, target)
        tuned = False
    if not math.isfinite(best_time):
        best_time = _memory_bound_time(node, target, fused=fused)
        tuned, config_index = False, None
    estimate = TimeEstimate(best_time, tuned=tuned, config_index=config_index)
    KERNEL_TIME_CACHE[key] = estimate
    return estimate


def fallback_config_for_node(node: Node, target: Target) -> Tuple[float, int]:
    """``(best_time, best_config_index)`` of the compiler's untuned fallback
    heuristic for a heavy operator node (memoised, deterministic).

    This is exactly what an untuned build uses for the node, which is what
    lets the tuning session guarantee its recorded configs never regress a
    compilation (see ``TuningOptions.ensure_no_regression``).
    """
    import zlib

    key = workload_key(node, target)
    if key in _FALLBACK_CACHE:
        return _FALLBACK_CACHE[key]
    task = make_task_for_node(node, target)
    if task is None:
        raise ValueError(f"Node {node.name!r} ({node.op}) has no schedule template")
    # ``(False,)``: the seed every recorded search was drawn with
    seed = zlib.crc32(repr(key + (False,)).encode())
    result = fallback_search(task, target, seed=seed)
    _FALLBACK_CACHE[key] = result
    return result


#: hill-climb seeds kept per round of :func:`fallback_search`
_FALLBACK_TOP_K = 3


def fallback_search(task: Task, target: Target, n_random: int = 24,
                    climb_rounds: int = 2, seed: int = 0) -> Tuple[float, int]:
    """Model-guided fallback configuration search (no tuning log available).

    Samples ``n_random`` configurations, then hill-climbs from the best
    ``_FALLBACK_TOP_K`` by toggling one knob at a time, scoring every candidate with the
    target's hardware model.  Returns ``(best_time, best_config_index)``.
    This is the deterministic heuristic the compiler uses when the user has
    not run the autotuner; the autotuner (Section 5) explores the same space
    with real measurements and an ML cost model instead.
    """
    import random as _random

    space = task.config_space
    rng = _random.Random(seed)
    scored: Dict[int, float] = {}

    def score_batch(indices) -> None:
        """Featurise (through the shared evaluation cache) and score one
        round of candidates as a single hardware-model batch call."""
        todo = []
        pending = set()
        for index in indices:
            if index not in scored and index not in pending:
                pending.add(index)
                todo.append(index)
        if not todo:
            return
        features = []
        for index in todo:
            try:
                features.append(task.features_of(index))
            except Exception:
                features.append(None)    # scores inf in the batch call
        times = target.model.estimate_batch(features)
        for index, time in zip(todo, times):
            scored[index] = float(time)

    score_batch(c.index for c in space.sample(max(n_random, 1), rng=rng))

    # Knob geometry is memoized on the space; neighbours are mapped to flat
    # indices arithmetically so already-scored ones are skipped before any
    # knob-dict construction or lowering happens.
    dims = space.dims
    for _ in range(max(climb_rounds, 0)):
        seeds = sorted(scored, key=scored.get)[:_FALLBACK_TOP_K]
        round_batch = []
        for index in seeds:
            knobs = space.knob_indices(index)
            for pos in range(len(knobs)):
                if dims[pos] <= 1:
                    continue
                for delta in (-1, 1):
                    neighbor = list(knobs)
                    neighbor[pos] = (neighbor[pos] + delta) % dims[pos]
                    round_batch.append(space.flat_index(neighbor))
        score_batch(round_batch)

    best_index = min(scored, key=scored.get)
    return scored[best_index], best_index
