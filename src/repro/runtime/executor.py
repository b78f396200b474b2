"""Stateless, thread-safe module execution (the deployable runtime call path).

:class:`Executor` is the one-call execution front door: bind it to a
:class:`~repro.compiler.module.CompiledModule` and a :class:`Device`, then
call it with the graph inputs — positionally in graph input order, as one
dict, or as keyword arguments — and get the outputs back.  Every call builds
its own tensor map, so one executor can serve many threads concurrently.  A
fused group runs as one kernel: only its output (and a member that is a
graph output or read by another kernel) enters that map — fused members
never do; an intermediate leaves it after the last kernel that reads it (the
liveness ``plan_memory`` plans with); and module parameters are mapped in as
read-only views: an in-place kernel or a caller mutating a returned tensor
raises instead of silently corrupting the module's weights across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler.module import CompiledModule
from ..graph.passes import last_use
from .ndarray import Device, DeviceLike, NDArray, device as as_device

__all__ = ["Executor", "ExecutionResult", "InputSpec"]


@dataclass(frozen=True)
class InputSpec:
    """Name, shape and dtype of one graph input the caller must provide."""

    name: str
    shape: Optional[Tuple[int, ...]]
    dtype: str

    def __str__(self) -> str:
        shape = "?" if self.shape is None else str(tuple(self.shape))
        return f"{self.name}: {shape} {self.dtype}"


@dataclass
class ExecutionResult:
    """Outputs plus the simulated-latency accounting of one execution."""

    outputs: List[np.ndarray]
    total_time: float                       #: simulated end-to-end seconds
    per_kernel: List[Tuple[str, float]]     #: (kernel name, seconds)


def _readonly_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Executor:
    """Stateless callable executor over a compiled module.

    ``outputs = executor({"data": x})`` or ``executor(x)`` (positional, in
    graph input order) or ``executor(data=x)``.  Outputs are a list of
    :class:`NDArray` on the executor's device, one per graph output.  Each
    kernel is a fused group: only its output, and a member that is a graph
    output or another kernel's input, enters the tensor map.
    """

    def __init__(self, module: CompiledModule, device: Optional[DeviceLike] = None):
        self.module = module
        if device is None:
            self.device = Device(module.target.device_type, 0)
        else:
            self.device = as_device(device)
        # Read-only views: the tensor map never aliases the module's writable
        # parameter arrays (defensive copy-on-write — a write attempt raises,
        # and callers copy explicitly if they need a mutable tensor).
        self._param_views = {name: _readonly_view(value)
                             for name, value in module.params.items()}
        self._input_names = [n.name for n in module.graph.input_nodes]
        self._specs = [InputSpec(n.name, tuple(n.shape) if n.shape else None,
                                 n.dtype)
                       for n in module.graph.input_nodes
                       if n.name not in module.params]
        # ``FusedGroup.name`` joins its members' op names on every access
        self._kernel_names = [kernel.name for kernel in module.kernels]
        step_of = {node.name: step for step, kernel in enumerate(module.kernels)
                   for node in kernel.group.nodes}
        # A kernel stores its group's output and, named in its `keep` set,
        # the members that are graph outputs or read by another kernel.
        outside = {parent.name for node in module.graph.nodes for parent in
                   node.inputs if step_of.get(parent.name) != step_of[node.name]}
        outside.update(node.name for node in module.graph.outputs)
        fused = {node.name for kernel in module.kernels
                 for node in kernel.group.nodes[:-1]} - outside
        self._keep = [frozenset(node.name for node in kernel.group.nodes[:-1])
                      - fused for kernel in module.kernels]
        # Names to drop after each kernel: every tensor in the map but the
        # parameters, at the last kernel that reads it.  Graph outputs' last
        # use is the horizon — the extra bucket, which no kernel reaches.
        self._dead_after: List[List[str]] = [
            [] for _ in range(len(module.kernels) + 1)]
        for name, step in last_use(module.graph, step_of).items():
            if name not in module.params and name not in fused:
                self._dead_after[step].append(name)

    # ------------------------------------------------------------------ inputs
    @property
    def input_specs(self) -> List[InputSpec]:
        """The non-parameter graph inputs a call must provide."""
        return list(self._specs)

    def describe_inputs(self) -> str:
        return "; ".join(str(spec) for spec in self._specs) or "(none)"

    @staticmethod
    def _as_numpy(value) -> np.ndarray:
        if isinstance(value, NDArray):
            return value.asnumpy()
        return np.asarray(value)

    def _validate(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        known = set(self._input_names)
        unknown = sorted(set(inputs) - known)
        if unknown:
            raise ValueError(
                f"Unknown graph input(s) {unknown} passed to executor of "
                f"{self.module!r}; expected inputs: {self.describe_inputs()}")
        missing = [spec for spec in self._specs if spec.name not in inputs]
        if missing:
            raise ValueError(
                "Missing graph input(s) " +
                ", ".join(f"{s.name!r}" for s in missing) +
                f"; expected inputs: {self.describe_inputs()}")
        return inputs

    # ------------------------------------------------------------------ execution
    def _execute(self, inputs: Dict[str, np.ndarray]) -> ExecutionResult:
        """Run the kernels over a fresh tensor map (no instance state)."""
        tensors: Dict[str, np.ndarray] = {}
        for node in self.module.graph.input_nodes:
            if node.name in inputs:
                tensors[node.name] = self._as_numpy(inputs[node.name])
            else:       # callers validate: what is not given is a parameter
                tensors[node.name] = self._param_views[node.name]
        total_time = 0.0
        per_kernel: List[Tuple[str, float]] = []
        for kernel, kernel_name, keep, dead in zip(
                self.module.kernels, self._kernel_names, self._keep,
                self._dead_after):
            kernel.run(tensors, keep)
            for name in dead:
                del tensors[name]
            total_time += kernel.time_seconds
            per_kernel.append((kernel_name, kernel.time_seconds))
        outputs = [tensors[node.name] for node in self.module.graph.outputs]
        return ExecutionResult(outputs, total_time, per_kernel)

    def run(self, inputs: Dict[str, np.ndarray]) -> ExecutionResult:
        """Validated execution returning outputs plus timing accounting."""
        return self._execute(self._validate(dict(inputs)))

    def __call__(self, *args, **kwargs) -> List[NDArray]:
        """Execute the graph; returns one :class:`NDArray` per graph output.

        Accepts a single dict of inputs, positional arrays in graph input
        order (the order of :attr:`input_specs`), keyword arrays, or a mix:
        keywords merge into the dict or the positional inputs.
        """
        if len(args) == 1 and isinstance(args[0], dict):
            inputs = dict(args[0])
        else:
            if len(args) > len(self._specs):
                raise ValueError(
                    f"Too many positional inputs: got {len(args)}, the graph "
                    f"takes {len(self._specs)}: {self.describe_inputs()}")
            inputs = {spec.name: value
                      for spec, value in zip(self._specs, args)}
        overlap = sorted(set(inputs) & set(kwargs))
        if overlap:
            raise ValueError(f"Input(s) {overlap} given both positionally "
                             f"and by name")
        inputs.update(kwargs)
        result = self.run(inputs)
        return [NDArray(value, self.device) for value in result.outputs]


class _ExecutorBackend:
    """The serving engine's in-process back-end: one :class:`Executor` per
    device.  Same surface as
    :class:`~repro.runtime.procpool.ModuleWorkerPool` (``run_batch`` /
    ``shutdown`` / ``stats``), so the engine never asks which kind of
    back-end it holds."""

    def __init__(self, module: CompiledModule, devices: Sequence[DeviceLike]):
        self._executors = [Executor(module, dev) for dev in devices]

    def run_batch(self, index: int, requests: Sequence[Dict[str, np.ndarray]]
                  ) -> List[Union[List[np.ndarray], Exception]]:
        """Execute ``requests`` on device ``index``; one entry per request
        — its output arrays or its error."""
        executor = self._executors[index]
        outcomes: List[Union[List[np.ndarray], Exception]] = []
        for inputs in requests:
            try:
                outcomes.append(executor._execute(inputs).outputs)
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def shutdown(self) -> None:
        """Nothing to release: the executors live and die with the engine."""

    def stats(self) -> List[Dict[str, float]]:
        """Per-worker-process statistics: none, the workers are threads."""
        return []
