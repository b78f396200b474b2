"""High-level graph rewriting passes (paper Section 3).

* :func:`fuse_ops` — operator fusion using the paper's four-category rules:
  injective chains merge, reductions fuse their injective inputs,
  complex-out-fusable operators (conv2d, dense, ...) absorb element-wise
  consumers, opaque operators stay alone.
* :func:`fold_constants` — pre-computes sub-graphs that depend only on
  parameters.
* :func:`plan_memory` — static memory planning: liveness analysis plus greedy
  storage-token reuse for intermediate tensors.
* :func:`alter_layout` — data layout transformation: marks operators with a
  back-end-preferred layout and inserts explicit ``layout_transform`` nodes
  where producer and consumer disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ir import Graph, Node
from .ops import OP_REGISTRY, OpPattern

__all__ = ["FusedGroup", "fuse_ops", "fold_constants", "plan_memory",
           "MemoryPlan", "alter_layout", "ensure_layout_transform_registered"]


# ---------------------------------------------------------------------------
# Operator fusion
# ---------------------------------------------------------------------------

@dataclass
class FusedGroup:
    """A set of graph nodes executed as one kernel."""

    nodes: List[Node]
    master: Node               # the most expensive / anchoring operator

    @property
    def name(self) -> str:
        return "fused_" + "_".join(n.op for n in self.nodes)

    @property
    def pattern(self) -> str:
        return OP_REGISTRY[self.master.op].pattern

    def __repr__(self) -> str:
        return f"FusedGroup([{', '.join(n.name for n in self.nodes)}], master={self.master.name})"


def fuse_ops(graph: Graph, enabled: bool = True) -> List[FusedGroup]:
    """Partition operator nodes into fused execution groups.

    With ``enabled=False`` every operator becomes its own group (the
    "TVM w/o graph opt" baseline of Figures 14/16/19).
    """
    consumers = graph.consumers()
    groups: List[FusedGroup] = []
    assigned: Dict[int, FusedGroup] = {}

    def single_consumer(node: Node) -> Optional[Node]:
        outs = consumers[id(node)]
        return outs[0] if len(outs) == 1 else None

    for node in graph.op_nodes:
        if id(node) in assigned:
            continue
        spec = OP_REGISTRY[node.op]
        group = FusedGroup([node], node)
        assigned[id(node)] = group
        groups.append(group)
        if not enabled:
            continue
        pattern = spec.pattern
        if pattern == OpPattern.OPAQUE:
            continue
        # Greedily absorb a chain of element-wise consumers: valid for both
        # injective chains and complex-out-fusable anchors; reductions may
        # also fuse following injective ops (e.g. avg_pool -> scale).
        current = node
        while True:
            consumer = single_consumer(current)
            if consumer is None or consumer.is_variable or id(consumer) in assigned:
                break
            consumer_pattern = OP_REGISTRY[consumer.op].pattern
            if consumer_pattern != OpPattern.INJECTIVE:
                break
            # Only absorb the consumer if its other operands are already
            # available when this kernel runs: graph inputs, members of this
            # group, or nodes assigned to an earlier kernel.  Without this
            # check a residual add is pulled into the first branch's kernel
            # and executes before the second branch has produced its input
            # (TVM performs the equivalent dominance analysis).
            if not all(p.is_variable or id(p) in assigned
                       for p in consumer.inputs):
                break
            group.nodes.append(consumer)
            assigned[id(consumer)] = group
            current = consumer
        # Choose the master node: the highest-FLOP member.
        def node_flops(n: Node) -> float:
            sp = OP_REGISTRY[n.op]
            ins = [tuple(p.shape) for p in n.inputs]
            return sp.flops(ins, tuple(n.shape), n.attrs)

        group.master = max(group.nodes, key=node_flops)
    return groups


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold_constants(graph: Graph, params: Dict[str, np.ndarray]
                   ) -> Tuple[Graph, Dict[str, np.ndarray]]:
    """Evaluate operator nodes whose inputs are all parameters.

    Returns a rewritten graph and an updated parameter dictionary in which
    folded sub-graphs are replaced by new constant inputs.
    """
    params = dict(params)
    constant_nodes: Dict[int, np.ndarray] = {}
    for node in graph.nodes:
        if node.is_variable and node.name in params:
            constant_nodes[id(node)] = params[node.name]

    replacement: Dict[int, Node] = {}
    fold_count = 0
    for node in graph.op_nodes:
        inputs = [replacement.get(id(p), p) for p in node.inputs]
        if all(id(p) in constant_nodes for p in inputs) and inputs:
            spec = OP_REGISTRY[node.op]
            arrays = [constant_nodes[id(p)] for p in inputs]
            value = spec.compute(*arrays, node.attrs)
            const_name = f"{node.name}_folded"
            const_node = Node("null", const_name)
            const_node.shape = tuple(value.shape)
            const_node.dtype = str(value.dtype)
            params[const_name] = value
            constant_nodes[id(const_node)] = value
            replacement[id(node)] = const_node
            fold_count += 1
        elif any(id(p) != id(q) for p, q in zip(node.inputs, inputs)):
            node.inputs = inputs

    if not replacement:
        return graph, params

    # Rewire consumers of folded nodes.
    for node in graph.nodes:
        node.inputs = [replacement.get(id(p), p) for p in node.inputs]
    outputs = [replacement.get(id(o), o) for o in graph.outputs]
    new_graph = Graph(outputs)
    for node in new_graph.nodes:
        if node.shape is None and id(node) in constant_nodes:
            node.shape = tuple(constant_nodes[id(node)].shape)
    new_graph.attrs = getattr(graph, "attrs", {})
    new_graph.fold_count = fold_count  # type: ignore[attr-defined]
    return new_graph, params


# ---------------------------------------------------------------------------
# Static memory planning
# ---------------------------------------------------------------------------

@dataclass
class MemoryPlan:
    """Result of static memory planning."""

    storage_of: Dict[str, int]          # node name -> storage token
    token_bytes: Dict[int, int]         # storage token -> bytes
    naive_bytes: int

    @property
    def planned_bytes(self) -> int:
        return sum(self.token_bytes.values())

    @property
    def reuse_ratio(self) -> float:
        if self.planned_bytes == 0:
            return 1.0
        return self.naive_bytes / self.planned_bytes


def last_use(graph: Graph, step_of: Dict[str, int]) -> Dict[str, int]:
    """Node name -> the last step that reads its tensor, given the step each
    node executes at (its own step when nothing reads it).  Graph outputs
    are read by the caller: they live to the horizon, one past the last
    step.  The one liveness rule: :func:`plan_memory` steps by node, the
    executor by kernel."""
    last = dict(step_of)
    for node in graph.nodes:
        step = step_of.get(node.name)
        if step is not None:
            for parent in node.inputs:
                last[parent.name] = max(last.get(parent.name, step), step)
    horizon = max(step_of.values(), default=-1) + 1
    for node in graph.outputs:
        last[node.name] = horizon
    return last


def plan_memory(graph: Graph) -> MemoryPlan:
    """Greedy storage reuse for intermediate tensors (liveness based).

    Every tensor is sized from its node's inferred dtype, so fp16/int8
    graphs get correctly-sized storage tokens.
    """
    from ..tir.stmt import dtype_bytes

    release_step = last_use(graph, {n.name: i for i, n in enumerate(graph.nodes)})

    free_tokens: List[Tuple[int, int]] = []   # (bytes, token)
    token_bytes: Dict[int, int] = {}
    storage_of: Dict[str, int] = {}
    next_token = 0
    naive = 0
    active: Dict[int, Tuple[int, int]] = {}   # node id -> (token, release step)

    for step, node in enumerate(graph.nodes):
        # Release tokens whose producing tensor is dead.
        dead = [nid for nid, (_tok, release) in active.items() if release < step]
        for nid in dead:
            token, _ = active.pop(nid)
            free_tokens.append((token_bytes[token], token))
        if node.is_variable:
            continue
        size = int(np.prod(node.shape)) * dtype_bytes(node.dtype)
        naive += size
        # Best-fit reuse of a free token.
        free_tokens.sort()
        chosen = None
        for i, (bytes_avail, token) in enumerate(free_tokens):
            if bytes_avail >= size:
                chosen = token
                free_tokens.pop(i)
                break
        if chosen is None:
            chosen = next_token
            next_token += 1
            token_bytes[chosen] = size
        storage_of[node.name] = chosen
        active[id(node)] = (chosen, release_step[node.name])
    return MemoryPlan(storage_of, token_bytes, naive)


# ---------------------------------------------------------------------------
# Data layout transformation
# ---------------------------------------------------------------------------

_PREFERRED_LAYOUT = {
    "cpu": "NCHW",
    "gpu": "NCHW",
    "mali": "NCHW",
    "vdla": "NCHW16c",       # tiled layout matching the 16x16 tensor core
}


def ensure_layout_transform_registered() -> None:
    """Register the ``layout_transform`` operator on first use.

    Called by :func:`alter_layout` and by the artifact loader, which may
    deserialise a graph containing transform nodes before any layout pass ran
    in this process.
    """
    if "layout_transform" not in OP_REGISTRY:
        from .ops import register_op

        register_op("layout_transform", OpPattern.INJECTIVE,
                    lambda ins, attrs: tuple(ins[0]),
                    lambda data, attrs: data)


def alter_layout(graph: Graph, device_type: str) -> Tuple[Graph, int]:
    """Annotate operators with the back-end preferred data layout and insert
    ``layout_transform`` nodes between producers and consumers that disagree.

    Returns the rewritten graph and the number of transform nodes inserted.
    """
    preferred = _PREFERRED_LAYOUT.get(device_type, "NCHW")
    inserted = 0
    if preferred == "NCHW":
        for node in graph.op_nodes:
            if node.op in ("conv2d", "depthwise_conv2d", "conv2d_transpose"):
                node.attrs.setdefault("data_layout", "NCHW")
        return graph, 0

    ensure_layout_transform_registered()

    # Insert transforms around convolution-like nodes only (the tensor-core
    # layout applies to their inputs/outputs).
    consumers = graph.consumers()
    for node in list(graph.op_nodes):
        if node.op not in ("conv2d", "depthwise_conv2d"):
            continue
        node.attrs["data_layout"] = preferred
        new_inputs = []
        for parent in node.inputs:
            if parent.is_variable or parent.attrs.get("data_layout") == preferred:
                new_inputs.append(parent)
                continue
            transform = Node("layout_transform", f"{parent.name}_to_{preferred}",
                             [parent], {"src_layout": "NCHW", "dst_layout": preferred})
            transform.shape = parent.shape
            transform.dtype = parent.dtype
            new_inputs.append(transform)
            inserted += 1
        node.inputs = new_inputs
    graph.refresh()
    return graph, inserted
