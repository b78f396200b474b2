"""Pass instrumentation hooks (mirrors TVM's ``PassInstrument``).

Instruments observe the pass pipeline without changing it: the pipeline
calls :meth:`PassInstrument.run_before_pass` / ``run_after_pass`` around every
executed pass, and nothing else.  A crashing hook surfaces as an
:class:`InstrumentError` naming the pass.

:class:`TimingInstrument` is the built-in instrument the driver always
attaches: it records wall time plus node/parameter counts per pass and its
records end up on :attr:`CompiledModule.pass_records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from .pass_manager import CompileState, Pass

__all__ = ["InstrumentError", "PassInstrument", "PassRecord",
           "TimingInstrument", "aggregate_timings"]


class InstrumentError(RuntimeError):
    """An instrument hook itself crashed (distinct from an instrument
    *reporting* a problem, e.g. a
    :class:`~repro.analysis.errors.VerifierError`, which propagates as-is).

    Carries which instrument failed around which pass, with the original
    exception as ``__cause__``.
    """

    def __init__(self, instrument_name: str, pass_name: str, hook: str,
                 original: BaseException):
        self.instrument_name = instrument_name
        self.pass_name = pass_name
        self.hook = hook
        super().__init__(
            f"instrument {instrument_name!r} failed in {hook} around pass "
            f"{pass_name!r}: {type(original).__name__}: {original}")


def aggregate_timings(records) -> Dict[str, float]:
    """Fold pass records into total seconds per pass name."""
    result: Dict[str, float] = {}
    for record in records:
        result[record.name] = result.get(record.name, 0.0) + record.seconds
    return result


@dataclass
class PassRecord:
    """One executed pass, as observed by :class:`TimingInstrument`."""

    name: str
    seconds: float
    nodes_before: int
    nodes_after: int
    params_before: int
    params_after: int


class PassInstrument:
    """Base class for pipeline observers; both hooks default to no-ops."""

    name = "instrument"

    def run_before_pass(self, pass_: "Pass", state: "CompileState") -> None:
        """Called immediately before an enabled pass executes."""

    def run_after_pass(self, pass_: "Pass", state: "CompileState",
                       seconds: float) -> None:
        """Called after a pass executed; ``seconds`` is its wall time."""


class TimingInstrument(PassInstrument):
    """Records per-pass wall time and node/param counts."""

    name = "timing"

    def __init__(self) -> None:
        self.records: List[PassRecord] = []
        self._nodes_before = 0
        self._params_before = 0

    def run_before_pass(self, pass_: "Pass", state: "CompileState") -> None:
        self._nodes_before = len(state.graph.nodes)
        self._params_before = len(state.params)

    def run_after_pass(self, pass_: "Pass", state: "CompileState",
                       seconds: float) -> None:
        self.records.append(PassRecord(
            name=pass_.name,
            seconds=seconds,
            nodes_before=self._nodes_before,
            nodes_after=len(state.graph.nodes),
            params_before=self._params_before,
            params_after=len(state.params),
        ))

    @property
    def timings(self) -> Dict[str, float]:
        return aggregate_timings(self.records)
