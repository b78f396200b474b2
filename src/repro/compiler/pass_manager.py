"""The graph-level pass pipeline behind :func:`repro.compile`.

The paper presents compilation as a fixed sequence of graph rewrites
(Section 3) feeding operator-level code generation.  Here that sequence is
plain data: a :class:`Pass` is a frozen ``(name, fn, opt_level, rewrites)``
record, the standard passes and :data:`~repro.compiler.passes.DEFAULT_PIPELINE`
live in :mod:`repro.compiler.passes`, and :func:`run_pipeline` runs them in
order under a :class:`~repro.compiler.pass_context.PassContext` — gating on
opt level, honouring ``disabled_passes``, splicing in ``extra_passes``,
re-inferring shapes after a rewrite and driving the context's instruments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    """A named graph-level rewrite ``fn(state, ctx) -> None``.

    It runs when the active :class:`PassContext` has at least ``opt_level``
    and does not disable it by name; ``rewrites`` says it may change the
    graph, so shapes are re-inferred before anything reads them again.
    """

    name: str
    fn: Callable[[CompileState, PassContext], None]
    opt_level: int = 0
    rewrites: bool = False


def _as_pass(entry) -> Pass:
    """An ``extra_passes`` entry: a :class:`Pass`, a standard pass's name, or
    a bare ``fn(state, ctx)`` run as an always-on pass of that name."""
    from .passes import PASS_REGISTRY

    if isinstance(entry, Pass):
        return entry
    if isinstance(entry, str):
        try:
            return PASS_REGISTRY[entry]
        except KeyError:
            raise KeyError(f"Unknown pass {entry!r}; standard passes: "
                           f"{sorted(PASS_REGISTRY)}") from None
    if callable(entry):
        return Pass(getattr(entry, "__name__", "anonymous"), entry)
    raise TypeError(f"Cannot interpret {entry!r} as a pass")


def _run_hook(instrument, hook: str, pass_name: str, *args) -> None:
    """Run one instrument hook, distinguishing *reports* from *crashes*.

    A :class:`~repro.analysis.errors.VerifierError` is the instrument doing
    its job (the IR is broken — the error already names the pass) and
    propagates untouched.  Anything else is the instrument itself failing,
    which would otherwise masquerade as a compiler bug of the surrounding
    pass — it is wrapped in :class:`InstrumentError` naming the instrument,
    the hook and the pass, with the original as ``__cause__``.
    """
    from ..analysis.errors import VerifierError
    from .instruments import InstrumentError

    try:
        getattr(instrument, hook)(*args)
    except VerifierError:
        raise
    except Exception as exc:
        name = getattr(instrument, "name", type(instrument).__name__)
        raise InstrumentError(name, pass_name, hook, exc) from exc


def run_pipeline(state: CompileState, ctx: PassContext,
                 instruments: Sequence) -> None:
    """Run the default pipeline plus ``ctx.extra_passes`` over ``state``.

    Extra passes run after the graph rewrites and before ``fuse_ops``, so
    their rewrites reach the generated kernels.  Every executed pass sees
    shape-valid state and is bracketed by each instrument's
    ``run_before_pass`` / ``run_after_pass``.
    """
    from .passes import DEFAULT_PIPELINE, PASS_REGISTRY

    cut = DEFAULT_PIPELINE.index(PASS_REGISTRY["fuse_ops"])
    pipeline = (DEFAULT_PIPELINE[:cut]
                + tuple(_as_pass(extra) for extra in ctx.extra_passes)
                + DEFAULT_PIPELINE[cut:])
    # A typo'd name in disabled_passes would otherwise silently run the
    # pass it meant to ablate — fail loudly instead.
    known = set(PASS_REGISTRY) | {pass_.name for pass_ in pipeline}
    unknown = ctx.disabled_passes - known
    if unknown:
        raise KeyError(f"disabled_passes {sorted(unknown)} match no "
                       f"standard or pipeline pass; known passes: "
                       f"{sorted(known)}")
    for pass_ in pipeline:
        if pass_.name in ctx.disabled_passes or ctx.opt_level < pass_.opt_level:
            continue
        state.ensure_shapes()
        for instrument in instruments:
            _run_hook(instrument, "run_before_pass", pass_.name, pass_, state)
        started = time.perf_counter()
        pass_.fn(state, ctx)
        elapsed = time.perf_counter() - started
        if pass_.rewrites:
            state.shapes_valid = False
        for instrument in instruments:
            _run_hook(instrument, "run_after_pass", pass_.name, pass_, state,
                      elapsed)
    state.ensure_shapes()
