"""The standard graph-optimization passes, as :class:`Pass` records.

Each pass wraps one of the rewrites in :mod:`repro.graph.passes` /
:mod:`repro.graph.simplify` with a name, an opt-level gate, and whether it
rewrites the graph (so the pipeline re-infers shapes after it).

Opt-level gates:

* level >= 1 — ``fold_constants``
* level >= 2 — ``simplify_inference``, ``alter_layout``, ``fuse_ops``
* always     — ``plan_memory`` (disable by name to ablate storage reuse)

``eliminate_common_subexpr`` is not part of :data:`DEFAULT_PIPELINE`; enable
it per compilation via ``PassContext(extra_passes=["eliminate_common_subexpr"])``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..graph.passes import alter_layout as _alter_layout
from ..graph.passes import fold_constants as _fold_constants
from ..graph.passes import fuse_ops as _fuse_ops
from ..graph.passes import plan_memory as _plan_memory
from ..graph.simplify import eliminate_common_subexpr as _eliminate_common_subexpr
from ..graph.simplify import simplify_inference as _simplify_inference
from .pass_context import PassContext
from .pass_manager import CompileState, Pass

__all__ = ["fold_constants", "simplify_inference", "alter_layout", "fuse_ops",
           "plan_memory", "eliminate_common_subexpr", "DEFAULT_PIPELINE",
           "PASS_REGISTRY"]


def _fold(state: CompileState, ctx: PassContext) -> None:
    """Pre-compute sub-graphs that depend only on parameters."""
    state.graph, state.params = _fold_constants(state.graph, state.params)


def _simplify(state: CompileState, ctx: PassContext) -> None:
    """Fold batch norms into producers and drop inference no-ops."""
    state.graph, state.params, _folded = _simplify_inference(state.graph,
                                                             state.params)


def _layout(state: CompileState, ctx: PassContext) -> None:
    """Annotate back-end preferred layouts, inserting transform nodes."""
    state.graph, state.layout_transforms = _alter_layout(
        state.graph, state.target.device_type)


def _fuse(state: CompileState, ctx: PassContext) -> None:
    """Partition operators into fused kernels (Section 3's four rules).

    When this pass is disabled — low opt level or
    ``PassContext(disabled_passes=["fuse_ops"])``, the paper's "TVM w/o graph
    opt" ablation — the code generator falls back to one kernel per operator.
    """
    state.groups = _fuse_ops(state.graph, enabled=True)


def _plan(state: CompileState, ctx: PassContext) -> None:
    """Static memory planning: liveness analysis + greedy storage reuse."""
    state.memory_plan = _plan_memory(state.graph)


def _cse(state: CompileState, ctx: PassContext) -> None:
    """Merge structurally identical operator nodes."""
    state.graph, _merged = _eliminate_common_subexpr(state.graph)


fold_constants = Pass("fold_constants", _fold, opt_level=1, rewrites=True)
simplify_inference = Pass("simplify_inference", _simplify, opt_level=2,
                          rewrites=True)
alter_layout = Pass("alter_layout", _layout, opt_level=2, rewrites=True)
fuse_ops = Pass("fuse_ops", _fuse, opt_level=2)
plan_memory = Pass("plan_memory", _plan)
eliminate_common_subexpr = Pass("eliminate_common_subexpr", _cse,
                                opt_level=2, rewrites=True)

#: the passes ``repro.compile`` runs, in order
DEFAULT_PIPELINE: Tuple[Pass, ...] = (fold_constants, simplify_inference,
                                      alter_layout, fuse_ops, plan_memory)

#: every standard pass by name — what ``extra_passes`` names resolve against
PASS_REGISTRY: Dict[str, Pass] = {
    pass_.name: pass_ for pass_ in DEFAULT_PIPELINE + (eliminate_common_subexpr,)}
