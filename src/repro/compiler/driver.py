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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..autotvm.apply_history import ApplyHistoryBest
from ..autotvm.database import TuningDatabase
from ..graph.ir import Graph
from ..graph.op_timing import (TimeEstimate, fallback_configs, is_templated,
                               kernel_time)
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


def _resolve_graph(model: ModelLike,
                   input_shapes: Optional[Dict[str, Tuple[int, ...]]]
                   ) -> Tuple[Graph, Mapping[str, np.ndarray],
                              Dict[str, Tuple[int, ...]]]:
    """Normalise the accepted model forms to ``(graph, the model's own
    params, shapes)``, reading no param."""
    model_params: Mapping[str, np.ndarray] = {}
    model_shapes: Dict[str, Tuple[int, ...]] = {}
    if isinstance(model, str):
        from ..frontend.models import get_model

        graph, model_params, model_shapes = get_model(model)
    elif isinstance(model, Graph):
        graph = model
    elif isinstance(model, (tuple, list)) and len(model) in (2, 3):
        graph, model_params = model[0], model[1]
        if not isinstance(graph, Graph):
            raise TypeError(f"Expected a Graph first in {type(model).__name__} "
                            f"model, got {type(graph).__name__}")
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
    return graph, model_params, shapes


def _resolve_model(model: ModelLike,
                   params: Optional[Dict[str, np.ndarray]],
                   input_shapes: Optional[Dict[str, Tuple[int, ...]]]
                   ) -> Tuple[Graph, Dict[str, np.ndarray], Dict[str, Tuple[int, ...]]]:
    """:func:`_resolve_graph`, with the model's params that the graph's input
    nodes read (a lazily drawn weight nothing reads stays undrawn) and
    ``params`` on top of them."""
    graph, model_params, shapes = _resolve_graph(model, input_shapes)
    read = {node.name for node in graph.input_nodes}
    resolved = {name: model_params[name] for name in model_params
                if name in read}
    resolved.update(params or {})
    return graph, resolved, shapes


def _generate_kernels(state: CompileState,
                      tuning_db: Optional[TuningDatabase],
                      heterogeneous_targets: Optional[Dict[str, Target]]
                      ) -> List[CompiledKernel]:
    """Operator-level compilation: one kernel per fused group.  Every chosen
    config is one the TIR verifier accepts (see
    :func:`~repro.graph.op_timing.kernel_time`)."""
    groups = state.groups
    if groups is None:  # fusion disabled: one kernel per operator
        groups = _fuse_ops_raw(state.graph, enabled=False)
    targets = [(heterogeneous_targets or {}).get(group.master.op, state.target)
               for group in groups]
    if tuning_db is None:   # history counts each lookup: kernels ask alone
        fallback_configs((group.master, node_target)
                         for group, node_target in zip(groups, targets)
                         if is_templated(group.master, node_target))
    kernels: List[CompiledKernel] = []
    for group, node_target in zip(groups, targets):
        master, total = fused_kernel_time(
            group.master,
            [node for node in group.nodes if node is not group.master],
            node_target, tuning_db=tuning_db)
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
        Override or supplement whatever the model form provided.  Of a
        model's own params, only those the graph reads are read (a zoo
        model's weights are drawn then, not when it is built).
    opt_level:
        Shortcut overriding the active :class:`PassContext`'s level; prefer
        configuring a ``PassContext`` for anything beyond that.
    heterogeneous_targets:
        Optional operator-name -> target mapping (the CPU+FPGA offloading
        experiment of Figure 21).
    verify:
        Run the static graph verifier
        (:func:`~repro.analysis.graph_verify.verify_graph`) on the input
        graph, after every pass and once more before codegen; broken IR
        raises a typed :class:`~repro.analysis.errors.VerifierError` naming
        the offending pass and node.  Every kernel's lowered program is
        verified whatever this says: a config the TIR verifier rejects is
        never chosen.
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
    # Bind only what the graph reads (simplify_inference keeps folded weights)
    bound = {node.name for node in state.graph.input_nodes}
    return CompiledModule(
        graph=state.graph,
        kernels=_generate_kernels(state, ApplyHistoryBest.current(),
                                  het_targets),
        params={name: value for name, value in state.params.items()
                if name in bound},
        target=resolved_target,
        memory_plan=state.memory_plan,
        opt_level=ctx.opt_level,
        layout_transforms=state.layout_transforms,
        pass_records=pass_records,
    )
