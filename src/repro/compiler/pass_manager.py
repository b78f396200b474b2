"""Composable pass infrastructure for the graph-level compiler.

The paper presents compilation as a pipeline of graph rewriting passes
(Section 3) feeding operator-level code generation.  This module provides the
machinery that makes that pipeline explicit and recomposable:

* :class:`Pass` — a named, opt-level-gated rewrite over a
  :class:`CompileState`, declaring which analyses it requires and which it
  invalidates.
* a process-wide registry (:func:`register_pass`, :func:`get_pass`,
  :func:`list_passes`) so pipelines and ablations refer to passes by name.
* :class:`Sequential` — the pass manager: runs passes in order under a
  :class:`~repro.compiler.pass_context.PassContext`, automatically re-runs
  shape inference between passes that invalidate it, and drives the
  context's instruments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from .pass_context import PassContext

if TYPE_CHECKING:
    from ..graph.ir import Graph
    from ..graph.passes import FusedGroup, MemoryPlan
    from ..hardware.target import Target

__all__ = ["CompileState", "Pass", "PassInfo", "Sequential", "register_pass",
           "get_pass", "list_passes", "DEFAULT_PIPELINE"]

#: the analysis name tracked by the automatic re-inference machinery
SHAPE_ANALYSIS = "shapes"


@dataclass
class CompileState:
    """Mutable state threaded through the pass pipeline.

    Passes rewrite ``graph``/``params`` in place or replace them; fusion and
    memory planning deposit their results in ``groups``/``memory_plan`` for
    the code generator; ``stats`` accumulates per-pass counters surfaced on
    the final module; ``analyses`` is the set of currently-valid analyses
    (shape inference is re-run automatically when a pass invalidated it).
    """

    graph: "Graph"
    params: Dict[str, np.ndarray]
    target: "Target"
    input_shapes: Dict[str, Tuple[int, ...]]
    groups: Optional[List["FusedGroup"]] = None
    memory_plan: Optional["MemoryPlan"] = None
    stats: Dict[str, float] = field(default_factory=dict)
    analyses: Set[str] = field(default_factory=set)

    def invalidate(self, analysis: str) -> None:
        self.analyses.discard(analysis)

    def ensure_shapes(self) -> None:
        """(Re-)run shape inference if a pass invalidated it."""
        if SHAPE_ANALYSIS not in self.analyses:
            self.graph.infer_shapes(self.input_shapes)
            self.analyses.add(SHAPE_ANALYSIS)


@dataclass(frozen=True)
class PassInfo:
    """Static metadata of a pass."""

    name: str
    opt_level: int = 0
    required: Tuple[str, ...] = (SHAPE_ANALYSIS,)
    invalidates: Tuple[str, ...] = ()


class Pass:
    """A named graph-level rewrite: ``fn(state, ctx) -> None``.

    ``opt_level`` gates execution (the pass only runs when the active
    :class:`PassContext` has at least that level); ``required`` lists the
    analyses that must be valid before the pass runs (the pass manager
    recomputes them if needed) and ``invalidates`` the ones its rewrite
    destroys.
    """

    def __init__(self, fn: Callable[[CompileState, PassContext], None],
                 info: PassInfo):
        self._fn = fn
        self.info = info

    @property
    def name(self) -> str:
        return self.info.name

    def __call__(self, state: CompileState,
                 ctx: Optional[PassContext] = None) -> CompileState:
        ctx = ctx or PassContext.current()
        self._fn(state, ctx)
        for analysis in self.info.invalidates:
            state.invalidate(analysis)
        return state

    def __repr__(self) -> str:
        return f"Pass({self.info.name}, opt_level={self.info.opt_level})"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

PASS_REGISTRY: Dict[str, Pass] = {}

#: pass names executed, in order, by the default ``repro.compile`` pipeline
DEFAULT_PIPELINE: Tuple[str, ...] = (
    "fold_constants",
    "simplify_inference",
    "alter_layout",
    "fuse_ops",
    "plan_memory",
)


def register_pass(name: str, opt_level: int = 0,
                  required: Sequence[str] = (SHAPE_ANALYSIS,),
                  invalidates: Sequence[str] = ()) -> Callable:
    """Decorator registering ``fn(state, ctx)`` as a named pass."""

    def decorator(fn: Callable[[CompileState, PassContext], None]) -> Pass:
        info = PassInfo(name=name, opt_level=opt_level,
                        required=tuple(required), invalidates=tuple(invalidates))
        pass_ = Pass(fn, info)
        PASS_REGISTRY[name] = pass_
        return pass_

    return decorator


def get_pass(name: str) -> Pass:
    """Look up a registered pass by name."""
    try:
        return PASS_REGISTRY[name]
    except KeyError:
        raise KeyError(f"Unknown pass {name!r}; registered passes: "
                       f"{sorted(PASS_REGISTRY)}") from None


def list_passes() -> List[str]:
    """Names of all registered passes."""
    return sorted(PASS_REGISTRY)


def _as_pass(entry: Union[str, Pass, Callable]) -> Pass:
    if isinstance(entry, Pass):
        return entry
    if isinstance(entry, str):
        return get_pass(entry)
    if callable(entry):  # bare function: wrap as an always-on anonymous pass
        name = getattr(entry, "__name__", "anonymous")
        return Pass(entry, PassInfo(name=name))
    raise TypeError(f"Cannot interpret {entry!r} as a pass")


# ---------------------------------------------------------------------------
# The pass manager
# ---------------------------------------------------------------------------

def _run_hook(instrument, hook: str, pass_name: str, fn, *args) -> None:
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
        fn(*args)
    except VerifierError:
        raise
    except Exception as exc:
        name = getattr(instrument, "name", type(instrument).__name__)
        raise InstrumentError(name, pass_name, hook, exc) from exc


class Sequential:
    """Runs a list of passes in order under a :class:`PassContext`.

    Passes disabled by the context (opt-level gate or ``disabled_passes``)
    are skipped; the context's ``extra_passes`` are appended after the
    configured list.  Between passes the manager re-establishes required
    analyses — in practice, shape inference after any rewriting pass — and
    notifies every instrument around each executed pass.
    """

    #: passes that feed code generation directly; extra graph-rewrite passes
    #: must run before these or their rewrites never reach the kernels
    CODEGEN_PASSES = ("fuse_ops", "plan_memory")

    def __init__(self, passes: Optional[Sequence[Union[str, Pass, Callable]]] = None):
        entries = DEFAULT_PIPELINE if passes is None else passes
        self.passes: List[Pass] = [_as_pass(entry) for entry in entries]

    def _with_extras(self, extras: List[Pass]) -> List[Pass]:
        """Splice context extra passes in before fusion/memory planning."""
        if not extras:
            return list(self.passes)
        cut = len(self.passes)
        for index, pass_ in enumerate(self.passes):
            if pass_.info.name in self.CODEGEN_PASSES:
                cut = index
                break
        return self.passes[:cut] + extras + self.passes[cut:]

    def __call__(self, state: CompileState,
                 ctx: Optional[PassContext] = None,
                 instruments: Optional[Sequence] = None) -> CompileState:
        ctx = ctx or PassContext.current()
        instruments = list(ctx.instruments if instruments is None else instruments)
        pipeline = self._with_extras([_as_pass(extra) for extra in ctx.extra_passes])
        # A typo'd name in disabled_passes would otherwise silently run the
        # pass it meant to ablate — fail loudly instead.
        known = set(PASS_REGISTRY) | {p.info.name for p in pipeline}
        unknown = ctx.disabled_passes - known
        if unknown:
            raise KeyError(f"disabled_passes {sorted(unknown)} match no "
                           f"registered or pipeline pass; known passes: "
                           f"{sorted(known)}")
        executed: List[str] = []
        for pass_ in pipeline:
            if not ctx.pass_enabled(pass_):
                continue
            if SHAPE_ANALYSIS in pass_.info.required:
                state.ensure_shapes()
            for instrument in instruments:
                _run_hook(instrument, "run_before_pass", pass_.info.name,
                          instrument.run_before_pass, pass_.info, state)
            started = time.perf_counter()
            state = pass_(state, ctx)
            elapsed = time.perf_counter() - started
            for instrument in instruments:
                _run_hook(instrument, "run_after_pass", pass_.info.name,
                          instrument.run_after_pass, pass_.info, state,
                          elapsed)
            executed.append(pass_.info.name)
        state.stats["passes_executed"] = executed  # type: ignore[assignment]
        state.ensure_shapes()
        return state

    def __repr__(self) -> str:
        return f"Sequential([{', '.join(p.info.name for p in self.passes)}])"
