"""The graph-level pass pipeline behind :func:`repro.compile`.

The paper presents compilation as a fixed sequence of graph rewrites
(Section 3) feeding operator-level code generation.  Here that sequence is
plain data: a :class:`Pass` is a frozen ``(name, fn, opt_level, rewrites)``
record, the standard passes and :data:`~repro.compiler.passes.DEFAULT_PIPELINE`
live in :mod:`repro.compiler.passes`, and :func:`run_pipeline` runs them in
order under a :class:`~repro.compiler.pass_context.PassContext` — gating on
opt level, honouring ``disabled_passes``, re-inferring shapes after a
rewrite, timing every executed pass and, on request, verifying the graph
after each one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from .module import PassRecord
from .pass_context import PassContext

if TYPE_CHECKING:
    from ..graph.ir import Graph
    from ..graph.passes import FusedGroup, MemoryPlan
    from ..hardware.target import Target

__all__ = ["CompileState", "Pass"]


@dataclass
class CompileState:
    """Mutable state threaded through the pass pipeline.

    Passes rewrite ``graph``/``params`` in place or replace them; fusion and
    memory planning deposit their results in ``groups``/``memory_plan`` for
    the code generator.  ``shapes_valid`` is false once a rewriting pass ran
    and until shape inference has been re-run on its result.
    """

    graph: "Graph"
    params: Dict[str, np.ndarray]
    target: "Target"
    input_shapes: Dict[str, Tuple[int, ...]]
    groups: Optional[List["FusedGroup"]] = None
    memory_plan: Optional["MemoryPlan"] = None
    layout_transforms: int = 0
    shapes_valid: bool = False

    def ensure_shapes(self) -> None:
        """(Re-)run shape inference if a rewrite left it stale."""
        if not self.shapes_valid:
            self.graph.infer_shapes(self.input_shapes)
            self.shapes_valid = True


@dataclass(frozen=True)
class Pass:
    """A named graph-level rewrite ``fn(state) -> None``.

    It runs when the active :class:`PassContext` has at least ``opt_level``
    and does not disable it by name; ``rewrites`` says it may change the
    graph, so shapes are re-inferred before anything reads them again.
    """

    name: str
    fn: Callable[[CompileState], None]
    opt_level: int = 0
    rewrites: bool = False


def run_pipeline(state: CompileState, ctx: PassContext,
                 verify: bool) -> List[PassRecord]:
    """Run :data:`~repro.compiler.passes.DEFAULT_PIPELINE` over ``state``
    and return a :class:`PassRecord` (wall time, node and parameter counts)
    per executed pass.

    Every executed pass sees shape-valid state.  With ``verify`` the graph
    is checked by :func:`~repro.analysis.graph_verify.verify_graph` before
    the first executed pass, so a malformed *input* graph is not blamed on
    a pass, and after every pass, naming it in the error.
    """
    from .passes import DEFAULT_PIPELINE

    # A typo'd name in disabled_passes would otherwise silently run the
    # pass it meant to ablate — fail loudly instead.
    known = {pass_.name for pass_ in DEFAULT_PIPELINE}
    unknown = ctx.disabled_passes - known
    if unknown:
        raise KeyError(f"disabled_passes {sorted(unknown)} match no pipeline "
                       f"pass; known passes: {sorted(known)}")
    if verify:
        from ..analysis.graph_verify import verify_graph
    records: List[PassRecord] = []
    for pass_ in DEFAULT_PIPELINE:
        if pass_.name in ctx.disabled_passes or ctx.opt_level < pass_.opt_level:
            continue
        state.ensure_shapes()
        if verify and not records:
            verify_graph(state.graph, groups=state.groups,
                         memory_plan=state.memory_plan)
        nodes_before, params_before = len(state.graph.nodes), len(state.params)
        started = time.perf_counter()
        pass_.fn(state)
        elapsed = time.perf_counter() - started
        if pass_.rewrites:
            state.shapes_valid = False
        records.append(PassRecord(pass_.name, elapsed, nodes_before,
                                  len(state.graph.nodes), params_before,
                                  len(state.params)))
        if verify:
            verify_graph(state.graph, groups=state.groups,
                         memory_plan=state.memory_plan, pass_name=pass_.name)
    state.ensure_shapes()
    return records
