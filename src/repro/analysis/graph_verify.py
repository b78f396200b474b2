"""Graph-IR verifier (the static-analysis layer's high-level half).

:func:`verify_graph` certifies a :class:`~repro.graph.ir.Graph` — optionally
together with the fusion groups and memory plan derived from it — without
mutating anything:

* **well-formedness** — unique node names, topological node order, no
  dangling input references, every operator registered;
* **shape/dtype agreement** — re-runs shape and dtype inference per node and
  compares against the stored annotations;
* **fused-group legality** — every operator in exactly one group, absorbed
  members injective and chained off the group, opaque operators isolated,
  and operand availability (dominance) across the group execution order;
* **layout consistency** — after ``alter_layout``, producers and consumers
  agree on data layout or are bridged by a ``layout_transform`` node;
* **memory-plan alias audit** — no two simultaneously-live tensors share a
  storage token (graph outputs stay live to function exit) and every token
  is at least as large as the dtype-aware size of each tensor placed on it.

All failures raise a typed :class:`~repro.analysis.errors.VerifierError`
subclass naming the failing check, the offending node and (when supplied)
the pass after which verification ran.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.ir import Graph, Node
from ..graph.ops import OP_REGISTRY, OpPattern
from ..tir.stmt import dtype_bytes as _dtype_bytes
from .errors import (
    DanglingInputError,
    DtypeMismatchError,
    DuplicateNodeNameError,
    FusionLegalityError,
    LayoutError,
    MemoryAliasError,
    ShapeMismatchError,
    StorageSizeError,
    TopologicalOrderError,
    UnknownOperatorError,
)

__all__ = ["verify_graph", "verify_well_formed", "verify_shapes",
           "verify_fusion", "verify_layout", "verify_memory_plan"]


def verify_well_formed(graph: Graph, *, pass_name: Optional[str] = None) -> None:
    """Unique names, topological order, no dangling refs, known operators."""
    seen_names: Dict[str, Node] = {}
    for node in graph.nodes:
        if node.name in seen_names and seen_names[node.name] is not node:
            raise DuplicateNodeNameError(
                f"two distinct nodes share the name {node.name!r}",
                node=node.name, pass_name=pass_name)
        seen_names[node.name] = node

    position = {id(n): i for i, n in enumerate(graph.nodes)}
    for index, node in enumerate(graph.nodes):
        for parent in node.inputs:
            parent_pos = position.get(id(parent))
            if parent_pos is None:
                raise DanglingInputError(
                    f"node {node.name!r} reads {parent.name!r}, which is not "
                    f"in the graph's node list", node=node.name,
                    pass_name=pass_name)
            if parent_pos >= index:
                raise TopologicalOrderError(
                    f"node {node.name!r} (position {index}) reads "
                    f"{parent.name!r} (position {parent_pos}) which has not "
                    f"executed yet", node=node.name, pass_name=pass_name)
        if not node.is_variable and node.op not in OP_REGISTRY:
            raise UnknownOperatorError(
                f"operator {node.op!r} of node {node.name!r} is not "
                f"registered", node=node.name, pass_name=pass_name)
    for out in graph.outputs:
        if id(out) not in position:
            raise DanglingInputError(
                f"graph output {out.name!r} is not in the node list",
                node=out.name, pass_name=pass_name)


def verify_shapes(graph: Graph, *, pass_name: Optional[str] = None) -> None:
    """Re-infer every operator's shape and dtype; compare with the stored
    annotations.  Never mutates the graph."""
    for node in graph.nodes:
        if node.shape is None:
            raise ShapeMismatchError(
                f"node {node.name!r} has no shape annotation",
                node=node.name, pass_name=pass_name)
        if node.is_variable:
            continue
        spec = OP_REGISTRY.get(node.op)
        if spec is None:  # reported by verify_well_formed; skip here
            continue
        input_shapes = [tuple(p.shape) for p in node.inputs
                        if p.shape is not None]
        if len(input_shapes) != len(node.inputs):
            raise ShapeMismatchError(
                f"an input of node {node.name!r} has no shape annotation",
                node=node.name, pass_name=pass_name)
        try:
            expected = tuple(spec.infer_shape(input_shapes, node.attrs))
        except Exception as exc:
            raise ShapeMismatchError(
                f"shape inference of node {node.name!r} ({node.op}) failed "
                f"on input shapes {input_shapes}: {exc}",
                node=node.name, pass_name=pass_name) from exc
        if tuple(node.shape) != expected:
            raise ShapeMismatchError(
                f"node {node.name!r} ({node.op}) annotates shape "
                f"{tuple(node.shape)} but re-inference gives {expected}",
                node=node.name, pass_name=pass_name)
        expected_dtype = node.attrs.get(
            "out_dtype", node.inputs[0].dtype if node.inputs else "float32")
        if node.dtype != expected_dtype:
            raise DtypeMismatchError(
                f"node {node.name!r} ({node.op}) annotates dtype "
                f"{node.dtype!r} but re-inference gives {expected_dtype!r}",
                node=node.name, pass_name=pass_name)


def verify_fusion(graph: Graph, groups: Sequence, *,
                  pass_name: Optional[str] = None) -> None:
    """Check the legality of a fused-group partition of ``graph``."""
    in_graph = {id(n) for n in graph.nodes}
    membership: Dict[int, object] = {}
    for group in groups:
        if not group.nodes:
            raise FusionLegalityError("empty fused group",
                                      pass_name=pass_name)
        for node in group.nodes:
            if id(node) not in in_graph:
                raise FusionLegalityError(
                    f"group member {node.name!r} is not a graph node",
                    node=node.name, pass_name=pass_name)
            if node.is_variable:
                raise FusionLegalityError(
                    f"variable {node.name!r} cannot be fused into a kernel",
                    node=node.name, pass_name=pass_name)
            if id(node) in membership:
                raise FusionLegalityError(
                    f"node {node.name!r} belongs to more than one fused group",
                    node=node.name, pass_name=pass_name)
            membership[id(node)] = group
        if id(group.master) not in {id(n) for n in group.nodes}:
            raise FusionLegalityError(
                f"master {group.master.name!r} is not a member of its group",
                node=group.master.name, pass_name=pass_name)
        anchor = group.nodes[0]
        if OP_REGISTRY[anchor.op].pattern == OpPattern.OPAQUE \
                and len(group.nodes) > 1:
            raise FusionLegalityError(
                f"opaque operator {anchor.name!r} ({anchor.op}) fused with "
                f"other operators", node=anchor.name, pass_name=pass_name)
        for prev, node in zip(group.nodes, group.nodes[1:]):
            if OP_REGISTRY[node.op].pattern != OpPattern.INJECTIVE:
                raise FusionLegalityError(
                    f"absorbed member {node.name!r} ({node.op}) is not "
                    f"injective", node=node.name, pass_name=pass_name)
            if not any(p is prev for p in node.inputs):
                raise FusionLegalityError(
                    f"absorbed member {node.name!r} does not consume the "
                    f"preceding group member {prev.name!r}",
                    node=node.name, pass_name=pass_name)

    for node in graph.op_nodes:
        if id(node) not in membership:
            raise FusionLegalityError(
                f"operator {node.name!r} is not assigned to any fused group",
                node=node.name, pass_name=pass_name)

    # Operand availability (dominance): executing groups in list order, every
    # operand of every member must already have been produced — by a graph
    # input, an earlier group, or an earlier member of the same group.
    available = {id(n) for n in graph.input_nodes}
    for group in groups:
        for node in group.nodes:
            for parent in node.inputs:
                if id(parent) not in available:
                    raise FusionLegalityError(
                        f"node {node.name!r} in group {group.name!r} reads "
                        f"{parent.name!r} before it is produced (illegal "
                        f"fusion across a dominance frontier)",
                        node=node.name, pass_name=pass_name)
            available.add(id(node))


def verify_layout(graph: Graph, *, pass_name: Optional[str] = None) -> None:
    """Layout agreement between producers and consumers after
    ``alter_layout``."""
    for node in graph.op_nodes:
        if node.op == "layout_transform":
            src = node.attrs.get("src_layout")
            dst = node.attrs.get("dst_layout")
            if not src or not dst:
                raise LayoutError(
                    f"layout_transform {node.name!r} is missing "
                    f"src_layout/dst_layout attributes", node=node.name,
                    pass_name=pass_name)
            if len(node.inputs) != 1:
                raise LayoutError(
                    f"layout_transform {node.name!r} must have exactly one "
                    f"input", node=node.name, pass_name=pass_name)
            parent = node.inputs[0]
            parent_layout = parent.attrs.get("data_layout", src)
            if not parent.is_variable and parent_layout != src:
                raise LayoutError(
                    f"layout_transform {node.name!r} declares src_layout "
                    f"{src!r} but its producer {parent.name!r} is laid out "
                    f"{parent_layout!r}", node=node.name, pass_name=pass_name)
            continue
        layout = node.attrs.get("data_layout")
        if layout is None or layout == "NCHW":
            continue
        # A non-default layout was imposed by alter_layout: each operand must
        # already be in that layout or arrive through a transform node.
        for parent in node.inputs:
            if parent.is_variable:
                continue
            if parent.attrs.get("data_layout") == layout:
                continue
            if parent.op == "layout_transform" \
                    and parent.attrs.get("dst_layout") == layout:
                continue
            raise LayoutError(
                f"node {node.name!r} expects layout {layout!r} but input "
                f"{parent.name!r} is laid out "
                f"{parent.attrs.get('data_layout', 'NCHW')!r} with no "
                f"layout_transform in between", node=node.name,
                pass_name=pass_name)


def verify_memory_plan(graph: Graph, memory_plan, *,
                       pass_name: Optional[str] = None) -> None:
    """Alias audit of a memory plan against an independent liveness analysis.

    Like :func:`repro.graph.passes.plan_memory`, each tensor is sized from
    its node's dtype.
    """
    storage_of = memory_plan.storage_of
    token_bytes = memory_plan.token_bytes

    consumers = graph.consumers()
    order = {id(n): i for i, n in enumerate(graph.nodes)}
    horizon = len(graph.nodes)  # graph outputs stay live to function exit
    output_ids = {id(o) for o in graph.outputs}

    live: Dict[str, Tuple[int, int]] = {}
    for node in graph.op_nodes:
        token = storage_of.get(node.name)
        if token is None:
            raise MemoryAliasError(
                f"operator {node.name!r} has no storage token in the memory "
                f"plan", node=node.name, pass_name=pass_name)
        if token not in token_bytes:
            raise MemoryAliasError(
                f"node {node.name!r} is placed on token {token}, which has "
                f"no recorded size", node=node.name, pass_name=pass_name)
        definition = order[id(node)]
        if id(node) in output_ids:
            last = horizon
        else:
            last = max([order[id(u)] for u in consumers[id(node)]],
                       default=definition)
        live[node.name] = (definition, last)
        size = int(np.prod(node.shape)) * _dtype_bytes(node.dtype)
        if token_bytes[token] < size:
            raise StorageSizeError(
                f"token {token} holds {token_bytes[token]} bytes but node "
                f"{node.name!r} needs {size} bytes "
                f"({tuple(node.shape)} x {node.dtype})", node=node.name,
                pass_name=pass_name)

    by_token: Dict[int, List[str]] = {}
    for name, token in storage_of.items():
        by_token.setdefault(token, []).append(name)
    for token, names in by_token.items():
        intervals = sorted((live[name], name) for name in names if name in live)
        # Sorted by definition step, any overlap implies an adjacent overlap.
        for ((_, last_a), name_a), ((def_b, _), name_b) \
                in zip(intervals, intervals[1:]):
            if def_b <= last_a:
                raise MemoryAliasError(
                    f"tensors {name_a!r} and {name_b!r} share storage token "
                    f"{token} while both are live ({name_a!r} is used until "
                    f"step {last_a}, {name_b!r} is defined at step {def_b})",
                    node=name_b, pass_name=pass_name)


def verify_graph(graph: Graph, *, groups: Optional[Sequence] = None,
                 memory_plan=None, pass_name: Optional[str] = None) -> None:
    """Run every applicable graph-level check.

    ``groups`` and ``memory_plan`` are checked only when supplied, so the
    verifier can run after every pipeline pass — before fusion or memory
    planning has happened — as well as on the final compile state.
    """
    verify_well_formed(graph, pass_name=pass_name)
    verify_shapes(graph, pass_name=pass_name)
    verify_layout(graph, pass_name=pass_name)
    if groups is not None:
        verify_fusion(graph, groups, pass_name=pass_name)
    if memory_plan is not None:
        verify_memory_plan(graph, memory_plan, pass_name=pass_name)
