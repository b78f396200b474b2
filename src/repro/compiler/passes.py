"""The standard graph-optimization passes, registered by name.

Each pass wraps one of the rewrites in :mod:`repro.graph.passes` /
:mod:`repro.graph.simplify` with the :class:`~repro.compiler.pass_manager.Pass`
interface: a registry name, an opt-level gate, and required/invalidated
analyses so the pass manager re-infers shapes automatically after rewrites.

Opt-level gates:

* level >= 1 — ``fold_constants``
* level >= 2 — ``simplify_inference``, ``alter_layout``, ``fuse_ops``
* always     — ``plan_memory`` (disable by name to ablate storage reuse)

``eliminate_common_subexpr`` and ``dead_code_elimination`` are registered but
not part of the default pipeline; enable them per-compilation via
``PassContext(extra_passes=["eliminate_common_subexpr"])``.
"""

from __future__ import annotations

from ..graph.passes import alter_layout as _alter_layout
from ..graph.passes import fold_constants as _fold_constants
from ..graph.passes import fuse_ops as _fuse_ops
from ..graph.passes import plan_memory as _plan_memory
from ..graph.simplify import dead_code_elimination as _dead_code_elimination
from ..graph.simplify import eliminate_common_subexpr as _eliminate_common_subexpr
from ..graph.simplify import simplify_inference as _simplify_inference
from .pass_context import PassContext
from .pass_manager import CompileState, register_pass

__all__ = ["fold_constants", "simplify_inference", "alter_layout", "fuse_ops",
           "plan_memory", "eliminate_common_subexpr", "dead_code_elimination"]


@register_pass("fold_constants", opt_level=1, invalidates=("shapes",))
def fold_constants(state: CompileState, ctx: PassContext) -> None:
    """Pre-compute sub-graphs that depend only on parameters."""
    state.graph, state.params = _fold_constants(state.graph, state.params)
    state.stats["fold_count"] = getattr(state.graph, "fold_count", 0)


@register_pass("simplify_inference", opt_level=2, invalidates=("shapes",))
def simplify_inference(state: CompileState, ctx: PassContext) -> None:
    """Fold batch norms into producers and drop inference no-ops."""
    state.graph, state.params, folded = _simplify_inference(state.graph,
                                                            state.params)
    state.stats["bn_folds"] = folded


@register_pass("alter_layout", opt_level=2, invalidates=("shapes",))
def alter_layout(state: CompileState, ctx: PassContext) -> None:
    """Annotate back-end preferred layouts, inserting transform nodes."""
    state.graph, inserted = _alter_layout(state.graph, state.target.device_type)
    state.stats["layout_transforms"] = inserted


@register_pass("fuse_ops", opt_level=2)
def fuse_ops(state: CompileState, ctx: PassContext) -> None:
    """Partition operators into fused kernels (Section 3's four rules).

    When this pass is disabled — low opt level or
    ``PassContext(disabled_passes=["fuse_ops"])``, the paper's "TVM w/o graph
    opt" ablation — the code generator falls back to one kernel per operator.
    """
    state.groups = _fuse_ops(state.graph, enabled=True)
    state.stats["fused_groups"] = len(state.groups)


@register_pass("plan_memory", opt_level=0)
def plan_memory(state: CompileState, ctx: PassContext) -> None:
    """Static memory planning: liveness analysis + greedy storage reuse."""
    state.memory_plan = _plan_memory(state.graph)


@register_pass("eliminate_common_subexpr", opt_level=2, invalidates=("shapes",))
def eliminate_common_subexpr(state: CompileState, ctx: PassContext) -> None:
    """Merge structurally identical operator nodes."""
    state.graph, merged = _eliminate_common_subexpr(state.graph)
    state.stats["cse_merged"] = merged


@register_pass("dead_code_elimination", opt_level=2, invalidates=("shapes",))
def dead_code_elimination(state: CompileState, ctx: PassContext) -> None:
    """Drop operator nodes that cannot reach a graph output."""
    state.graph, removed = _dead_code_elimination(state.graph)
    state.stats["dce_removed"] = removed
