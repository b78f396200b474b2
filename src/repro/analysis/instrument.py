"""Pass-pipeline integration of the graph verifier.

:class:`VerifyInstrument` is a
:class:`~repro.compiler.instruments.PassInstrument` that re-checks every
graph-level invariant after each executed pass, so a pass that corrupts the
IR is caught *immediately* — the raised
:class:`~repro.analysis.errors.VerifierError` names both the failing check
and the pass that produced the broken state, instead of the corruption
surfacing as a confusing failure many passes later (or as silently wrong
simulated latencies).

Enable it per compilation with ``repro.compile(..., verify=True)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..compiler.instruments import PassInstrument
from .graph_verify import verify_graph

if TYPE_CHECKING:
    from ..compiler.pass_manager import CompileState, Pass

__all__ = ["VerifyInstrument"]


class VerifyInstrument(PassInstrument):
    """Runs :func:`~repro.analysis.graph_verify.verify_graph` after every
    pass (and once on the initial graph, via ``run_before_pass`` of the first
    pass) so the offending pass is named in the error."""

    name = "verify"

    def __init__(self) -> None:
        self.passes_verified = 0
        self._checked_initial = False

    def _verify(self, state: "CompileState",
                pass_name: Optional[str]) -> None:
        verify_graph(state.graph, groups=state.groups,
                     memory_plan=state.memory_plan, pass_name=pass_name)

    def run_before_pass(self, pass_: "Pass", state: "CompileState") -> None:
        if not self._checked_initial:
            # Catch a malformed *input* graph before blaming the first pass.
            self._checked_initial = True
            self._verify(state, None)

    def run_after_pass(self, pass_: "Pass", state: "CompileState",
                       seconds: float) -> None:
        self._verify(state, pass_.name)
        self.passes_verified += 1
