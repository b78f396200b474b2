"""The deployable compilation artefact returned by :func:`repro.compile`.

A :class:`CompiledModule` is the *single* object the new compilation pipeline
hands back: optimized graph, per-group kernels, bound parameters, the static
memory plan, and the per-pass records (wall time, node and parameter
counts) gathered while the module was built.  It also knows how to persist
itself as a versioned artifact bundle (``export``, restored by
``repro.load``); it executes through ``repro.Executor(module, device)``.

This module deliberately has no eager intra-package imports: it sits below
both :mod:`repro.graph` and :mod:`repro.runtime` in the import graph, which
is what lets ``repro.graph`` re-export these classes without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # imports for annotations only — see module docstring
    from ..graph.ir import Graph
    from ..graph.passes import FusedGroup, MemoryPlan
    from ..hardware.target import Target

__all__ = ["CompiledKernel", "CompiledModule", "PassRecord"]


@cache
def _op_registry():
    """``repro.graph.ops.OP_REGISTRY``, imported on first use (see the
    module docstring) instead of on every kernel call."""
    from ..graph.ops import OP_REGISTRY

    return OP_REGISTRY


@dataclass
class PassRecord:
    """One executed graph pass: its wall time and the node and parameter
    counts of the graph before and after it."""

    name: str
    seconds: float
    nodes_before: int
    nodes_after: int
    params_before: int
    params_after: int


@dataclass
class CompiledKernel:
    """One fused group compiled for the target."""

    group: "FusedGroup"
    time_seconds: float
    device: str
    #: the master operator's schedule came from the tuning history
    tuned: bool = False
    #: flat index of the schedule configuration used for the master operator
    #: (tuned or fallback), recorded for artifact provenance
    config_index: Optional[int] = None
    #: ``keep`` set -> the group's :meth:`_plan` for it
    _plans: Dict[AbstractSet[str], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.group.name

    def run(self, tensors: Dict[str, np.ndarray],
            keep: AbstractSet[str] = frozenset()) -> None:
        """Execute the group as one kernel with NumPy semantics.

        The first member computes a fresh array.  The members after it that
        have an ``out=`` form overwrite it in place, as its epilogue: per
        tile inside a tiled operator (``conv2d``), else on the whole output.
        They stop at a value ``keep`` names or at an operand of another
        dtype; the rest compute fresh arrays.  Only the group's output and
        the members in ``keep`` (graph outputs, values other kernels read)
        enter ``tensors``: fused members never do.
        """
        plan = self._plans.get(keep) or self._plans.setdefault(
            keep, self._plan(keep))
        spec, attrs, names, outputs, members, count = plan
        inputs = [tensors[name] for name in names]
        steps = None
        if count and spec.tiled:    # a tile has its data's dtype
            steps = [(compute, member_attrs,
                      [None if read is None else tensors[read] for read in reads])
                     for compute, member_attrs, reads, _ in members[:count]]
            if any(x is not None and x.dtype != inputs[0].dtype
                   for *_, operands in steps for x in operands):
                steps = None
        if steps:
            value = spec.compute(*inputs, attrs,
                                 epilogue=partial(_epilogue, steps))
            name, members, count = outputs[count], members[count:], 0
        else:
            value = spec.compute(*inputs, attrs)
            name = outputs[0]
        for compute, member_attrs, reads, member in members:
            args = [value if read is None else tensors[read] for read in reads]
            # numpy's promotion could widen a fresh result: not in place then
            if count and all(x.dtype == value.dtype for x in args):
                compute(*args, member_attrs, out=value)
                count -= 1
            else:
                count = 0
                if name in keep:
                    tensors[name] = value
                value = compute(*args, member_attrs)
            name = member
        tensors[name] = value

    def _plan(self, keep: AbstractSet[str]) -> tuple:
        """The first member's spec, attrs and input names; every member's
        name; per later member its compute, attrs, input names (``None``:
        the value before it) and name; and how many of those may overwrite
        the value before them."""
        registry = _op_registry()
        head, *rest = nodes = self.group.nodes
        members = [(registry[node.op].compute, node.attrs,
                    [None if p.name == prev.name else p.name
                     for p in node.inputs], node.name)
                   for prev, node in zip(nodes, rest)]
        count = 0       # a view (flatten, reshape, slice) shares its input's buffer
        if registry[head.op].pattern != "injective" or registry[head.op].inplace:
            for prev, node in zip(nodes, rest):
                if (prev.name in keep or node.shape != prev.shape
                        or not registry[node.op].inplace):
                    break
                count += 1
        return (registry[head.op], head.attrs, [p.name for p in head.inputs],
                [node.name for node in nodes], members, count)


def _epilogue(steps: list, out: np.ndarray, index: Tuple[slice, ...]) -> None:
    """Apply ``steps`` — ``(compute, attrs, operands)``, ``None`` for the
    value itself — in place on ``out[index]``."""
    tile = out[index]
    for compute, attrs, operands in steps:
        compute(*[tile if x is None else _part(x, index, out.shape)
                  for x in operands], attrs, out=tile)


def _part(operand: np.ndarray, index: Tuple[slice, ...],
          shape: Tuple[int, ...]) -> np.ndarray:
    """What of ``operand`` meets ``out[index]`` when ``operand`` broadcasts
    against an ``out`` of ``shape``."""
    skip = len(shape) - operand.ndim
    return operand[tuple(slice(None) if operand.shape[axis - skip] == 1 else part
                         for axis, part in enumerate(index) if axis >= skip)]


@dataclass
class CompiledModule:
    """A deployable module: optimized graph + kernels + parameters."""

    graph: "Graph"
    kernels: List[CompiledKernel]
    params: Dict[str, np.ndarray]
    target: "Target"
    memory_plan: "MemoryPlan"
    opt_level: int
    layout_transforms: int = 0
    pass_records: List[PassRecord] = field(default_factory=list)

    # ------------------------------------------------------------- reporting
    @property
    def total_time(self) -> float:
        return sum(k.time_seconds for k in self.kernels)

    @property
    def tuned_kernels(self) -> int:
        """How many kernels used a configuration from the tuning history."""
        return sum(1 for k in self.kernels if getattr(k, "tuned", False))

    def pass_timings(self) -> Dict[str, float]:
        """Wall-clock seconds spent in each executed compilation pass."""
        timings: Dict[str, float] = {}
        for record in self.pass_records:
            timings[record.name] = timings.get(record.name, 0.0) + record.seconds
        return timings

    def pass_summary(self) -> str:
        """Human-readable table of the per-pass records."""
        if not self.pass_records:
            return "(no pass records)"
        lines = [f"{'pass':<26} {'wall (us)':>10} {'nodes':>12} {'params':>12}"]
        for r in self.pass_records:
            lines.append(f"{r.name:<26} {r.seconds * 1e6:10.1f} "
                         f"{r.nodes_before:>5} ->{r.nodes_after:>4} "
                         f"{r.params_before:>5} ->{r.params_after:>4}")
        return "\n".join(lines)

    # ------------------------------------------------------------- persistence
    def export(self, path) -> str:
        """Write the module as a versioned, self-contained artifact bundle.

        The bundle (graph JSON + params + target spec + tuned-config
        provenance + schema version) restores through ``repro.load`` with no
        recompilation; see :mod:`repro.runtime.artifact` for the format.
        """
        from ..runtime.artifact import export_module

        return export_module(self, path)

    def __repr__(self) -> str:
        return (f"CompiledModule(target={self.target.name}, kernels={len(self.kernels)}, "
                f"est_time={self.total_time * 1e3:.3f} ms)")
