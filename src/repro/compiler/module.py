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
from functools import cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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

    @property
    def name(self) -> str:
        return self.group.name

    def run(self, tensors: Dict[str, np.ndarray]) -> None:
        """Execute the group's operators with NumPy semantics.

        ``tensors`` maps node names to arrays; results are stored back by
        node name.
        """
        registry = _op_registry()
        for node in self.group.nodes:
            inputs = [tensors[p.name] for p in node.inputs]
            spec = registry[node.op]
            tensors[node.name] = spec.compute(*inputs, node.attrs)


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
