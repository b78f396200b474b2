"""The single front door of the compiler: :func:`repro.compile`.

Accepts a graph (or a frontend model — a ``(graph, params, input_shapes)``
tuple from :mod:`repro.frontend.models`, or a model-zoo name), runs the
graph-optimization pass pipeline under the active
:class:`~repro.compiler.pass_context.PassContext`, generates one kernel per
fused group with the operator-level compiler, and returns a single
:class:`~repro.compiler.module.CompiledModule` carrying everything the
runtime and the benchmarks need — including a record of each executed
pass's wall time and node counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autotvm.apply_history import ApplyHistoryBest
from ..autotvm.database import TuningDatabase
from ..autotvm.task import _verify_once
from ..graph.ir import Graph
from ..graph.op_timing import (TimeEstimate, _task_signature, is_templated,
                               kernel_time, make_task_for_node)
from ..graph.passes import MemoryPlan, fuse_ops as _fuse_ops_raw
from ..hardware.target import Target, create_target
from .module import CompiledKernel, CompiledModule
from .pass_context import PassContext
from .pass_manager import CompileState, run_pipeline

__all__ = ["compile", "framework_overhead"]

#: model inputs accepted by :func:`compile`
ModelLike = Union[Graph, str, Tuple, List]


def framework_overhead(target: Target) -> float:
    """Per-kernel dispatch overhead of the runtime on ``target``.

    Dispatching a packed function through the runtime costs roughly half of
    the device's full kernel-launch overhead, so the value comes from the
    target's hardware profile rather than a global constant: fast CPUs pay
    less than a driver round-trip on a mobile GPU or an accelerator.
    """
    params = target.model.params
    return float(getattr(params, "dispatch_overhead",
                         0.5 * params.launch_overhead))


def fused_kernel_time(master, members: Sequence, target: Target,
                      tuning_db: Optional[TuningDatabase] = None
                      ) -> Tuple[TimeEstimate, float]:
    """What one fused kernel costs on ``target``: the master operator's
    estimate (returned too, for its tuned/config provenance), plus each
    fused ``members`` node at its fused rate, plus the per-kernel
    :func:`framework_overhead`.  The compiler and the serving engine's batch
    cost model both price kernels here, so they cannot drift apart."""
    estimate = kernel_time(master, target, tuning_db=tuning_db, fused=False)
    fused_time = sum(
        kernel_time(node, target, tuning_db=tuning_db, fused=True).time
        for node in members)
    return estimate, estimate.time + fused_time + framework_overhead(target)


def _resolve_target(target: Union[Target, str, None]) -> Target:
    if isinstance(target, Target):
        return target
    if isinstance(target, str):
        return create_target(target)
    raise TypeError(f"target must be a Target or a target name, got {target!r}")


def _resolve_model(model: ModelLike,
                   params: Optional[Dict[str, np.ndarray]],
                   input_shapes: Optional[Dict[str, Tuple[int, ...]]]
                   ) -> Tuple[Graph, Dict[str, np.ndarray], Dict[str, Tuple[int, ...]]]:
    """Normalise the accepted model forms to ``(graph, params, shapes)``."""
    model_shapes: Dict[str, Tuple[int, ...]] = {}
    if isinstance(model, str):
        from ..frontend.models import get_model

        graph, model_params, model_shapes = get_model(model)
        params = model_params if params is None else params
    elif isinstance(model, Graph):
        graph = model
    elif isinstance(model, (tuple, list)) and len(model) in (2, 3):
        graph = model[0]
        if not isinstance(graph, Graph):
            raise TypeError(f"Expected a Graph first in {type(model).__name__} "
                            f"model, got {type(graph).__name__}")
        params = dict(model[1]) if params is None else params
        if len(model) == 3:
            model_shapes = dict(model[2])
    else:
        raise TypeError(
            "model must be a Graph, a frontend model tuple "
            "(graph, params[, input_shapes]) or a model-zoo name; got "
            f"{type(model).__name__}")

    shapes = dict(model_shapes)
    for node in graph.input_nodes:
        if node.shape is not None:
            shapes.setdefault(node.name, tuple(node.shape))
    if input_shapes:
        shapes.update({name: tuple(shape) for name, shape in input_shapes.items()})
    return graph, dict(params or {}), shapes


def _verify_kernel_program(node, target: Target,
                           config_index: Optional[int]) -> None:
    """Statically verify the lowered loop program of one templated kernel.

    Raises the typed :class:`~repro.analysis.errors.TIRVerifierError` when
    the chosen schedule configuration produces an illegal program (e.g. a
    compacted-buffer writeback that misindexes when a fused tile crosses a
    row boundary) instead of simulating its latency as if it were sound.
    The verdict is the one :meth:`~repro.autotvm.Task.verify` memoises, so a
    program verified while tuning is not verified again here.
    """
    if config_index is None or not is_templated(node, target):
        return
    # The key of the node's Task (template kind, args, target, index), built
    # from the node's signature: building the Task materialises its whole
    # config space, which would cost more than the memo hit it looks up.
    kind, args = _task_signature(node)
    _verify_once((kind, repr(args), target.name, config_index),
                 lambda: make_task_for_node(node, target))


def _generate_kernels(state: CompileState,
                      tuning_db: Optional[TuningDatabase],
                      heterogeneous_targets: Optional[Dict[str, Target]],
                      verify: bool = False) -> List[CompiledKernel]:
    """Operator-level compilation: one kernel per fused group."""
    groups = state.groups
    if groups is None:  # fusion disabled: one kernel per operator
        groups = _fuse_ops_raw(state.graph, enabled=False)
    kernels: List[CompiledKernel] = []
    for group in groups:
        node_target = state.target
        if heterogeneous_targets and group.master.op in heterogeneous_targets:
            node_target = heterogeneous_targets[group.master.op]
        master, total = fused_kernel_time(
            group.master,
            [node for node in group.nodes if node is not group.master],
            node_target, tuning_db=tuning_db)
        if verify:
            _verify_kernel_program(group.master, node_target,
                                   master.config_index)
        kernels.append(CompiledKernel(group, total, node_target.name,
                                      tuned=master.tuned,
                                      config_index=master.config_index))
    return kernels


def _unplanned_memory(graph: Graph) -> MemoryPlan:
    """Fallback plan when ``plan_memory`` is disabled: no storage reuse."""
    from ..tir.stmt import dtype_bytes

    storage_of: Dict[str, int] = {}
    token_bytes: Dict[int, int] = {}
    for token, node in enumerate(graph.op_nodes):
        storage_of[node.name] = token
        token_bytes[token] = int(np.prod(node.shape)) * dtype_bytes(node.dtype)
    return MemoryPlan(storage_of, token_bytes, sum(token_bytes.values()))


def compile(model: ModelLike, target: Union[Target, str, None] = None, *,
            params: Optional[Dict[str, np.ndarray]] = None,
            input_shapes: Optional[Dict[str, Tuple[int, ...]]] = None,
            opt_level: Optional[int] = None,
            heterogeneous_targets: Optional[Dict[str, Union[Target, str]]] = None,
            verify: bool = False
            ) -> CompiledModule:
    """Compile a model for a target and return a :class:`CompiledModule`.

    Tuning history is picked up from the innermost active
    :class:`~repro.autotvm.apply_history.ApplyHistoryBest` context
    (``with report.apply_history_best(): repro.compile(...)``).

    Parameters
    ----------
    model:
        A :class:`~repro.graph.ir.Graph`, a frontend model tuple
        ``(graph, params[, input_shapes])`` as returned by the model zoo, or
        a model-zoo name such as ``"resnet-18"``.
    target:
        A :class:`~repro.hardware.target.Target` or a short name
        (``"cuda"``, ``"arm_cpu"``, ``"mali"``, ``"vdla"``).
    params / input_shapes:
        Override or supplement whatever the model form provided.
    opt_level:
        Shortcut overriding the active :class:`PassContext`'s level; prefer
        configuring a ``PassContext`` for anything beyond that.
    heterogeneous_targets:
        Optional operator-name -> target mapping (the CPU+FPGA offloading
        experiment of Figure 21).
    verify:
        Run the static IR verifier (:mod:`repro.analysis`) after every pass
        and over every generated kernel's lowered program; broken IR raises
        a typed :class:`~repro.analysis.errors.VerifierError` naming the
        offending pass and node.
    """
    graph, params, shapes = _resolve_model(model, params, input_shapes)
    resolved_target = _resolve_target(target)
    het_targets = None
    if heterogeneous_targets:
        het_targets = {op: _resolve_target(t)
                       for op, t in heterogeneous_targets.items()}

    ctx = PassContext.current()
    if opt_level is not None:
        ctx = ctx.cloned(opt_level=opt_level)

    state = CompileState(graph=graph, params=params, target=resolved_target,
                         input_shapes=shapes)
    pass_records = run_pipeline(state, ctx, verify)

    if state.memory_plan is None:
        state.memory_plan = _unplanned_memory(state.graph)
    if verify:
        # Final check: the post-pipeline graph together with the artifacts
        # codegen consumes (fusion groups, possibly the fallback memory plan
        # built above, which no pass ever saw).
        from ..analysis.graph_verify import verify_graph

        verify_graph(state.graph, groups=state.groups,
                     memory_plan=state.memory_plan, pass_name="codegen")
    return CompiledModule(
        graph=state.graph,
        kernels=_generate_kernels(state, ApplyHistoryBest.current(),
                                  het_targets, verify=verify),
        params=state.params,
        target=resolved_target,
        memory_plan=state.memory_plan,
        opt_level=ctx.opt_level,
        layout_transforms=state.layout_transforms,
        pass_records=pass_records,
    )
