"""Inference-time graph simplification passes (paper Section 3).

The paper's high-level graph rewriting covers more than fusion and constant
folding: frameworks also canonicalise the graph for inference before
operator-level code generation.  This module implements the passes that do
that canonicalisation:

* :func:`simplify_inference` — folds ``batch_norm`` layers into the weights
  and bias of the convolution / dense producer feeding them (inference-time
  batch norm is an affine transform per output channel), and removes
  inference no-ops such as ``dropout``.
* :func:`eliminate_common_subexpr` — merges operator nodes that apply the
  same operator with the same attributes to the same inputs.

There is no dead-code pass: a :class:`~repro.graph.ir.Graph`'s node list is
built from what its outputs reach (only the verifier's mutation harness,
:mod:`repro.analysis.mutate`, edits it by hand, to plant broken IR).

Each pass returns a rewritten :class:`~repro.graph.ir.Graph` (and, where
parameters change, an updated parameter dictionary) plus a small count of the
rewrites applied so callers and tests can verify the pass fired.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .ir import Graph, Node

__all__ = ["simplify_inference", "eliminate_common_subexpr"]

#: operators whose weights batch norm can be folded into
_FOLDABLE_PRODUCERS = ("conv2d", "depthwise_conv2d", "dense")
#: operators that are identity functions at inference time
_INFERENCE_NOOPS = ("dropout",)


def _clone_nodes(graph: Graph) -> Dict[int, Node]:
    """Structural copy of every node so passes never mutate the input graph."""
    clones: Dict[int, Node] = {}
    for node in graph.nodes:
        clone = Node(node.op, node.name, [], dict(node.attrs))
        clone.shape = node.shape
        clone.dtype = node.dtype
        clones[id(node)] = clone
    for node in graph.nodes:
        clones[id(node)].inputs = [clones[id(p)] for p in node.inputs]
    return clones


def _bn_scale_shift(params: Dict[str, np.ndarray], bn: Node
                    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-channel (scale, shift) implementing the batch norm at inference,
    with the node's own ``epsilon`` — the one its ``batch_norm`` compute
    (:mod:`repro.graph.ops`) reads, so folded and unfolded graphs agree."""
    if len(bn.inputs) < 5:
        return None
    gamma, beta, mean, var = (bn.inputs[1], bn.inputs[2], bn.inputs[3], bn.inputs[4])
    names = [gamma.name, beta.name, mean.name, var.name]
    if not all(name in params for name in names):
        return None
    gamma_v, beta_v, mean_v, var_v = (params[name] for name in names)
    scale = gamma_v / np.sqrt(var_v + bn.attrs.get("epsilon", 1e-5))
    shift = beta_v - mean_v * scale
    return scale.astype(gamma_v.dtype), shift.astype(beta_v.dtype)


def _scale_weight(weight: np.ndarray, scale: np.ndarray, op: str) -> np.ndarray:
    """Scale the producer's weight along its output-channel axis."""
    if op == "dense":
        return weight * scale[:, None]
    # conv2d weights are (O, I, KH, KW); depthwise weights are (C, 1, KH, KW).
    return weight * scale[:, None, None, None]


def simplify_inference(graph: Graph, params: Dict[str, np.ndarray]
                       ) -> Tuple[Graph, Dict[str, np.ndarray], int]:
    """Fold batch norms into producers and drop inference no-ops.

    A ``batch_norm`` whose data input is a convolution or dense operator with
    parameter weights (and which is that producer's only consumer) is folded
    into the producer: the weights are scaled per output channel and the
    shift becomes a ``bias_add``.  Remaining batch norms (e.g. ones following
    an ``add``) are left untouched.  The input graph is never mutated; a
    rewritten copy is returned.  Returns ``(graph, params, rewrites)``.
    """
    params = dict(params)
    consumer_counts = {key: len(values) for key, values in graph.consumers().items()}
    clones = _clone_nodes(graph)
    cloned_ops = [clones[id(n)] for n in graph.op_nodes]
    # Consumer counts keyed by the cloned producer nodes.
    consumers = {id(clones[key_id]): count
                 for key_id, count in
                 ((id(n), consumer_counts[id(n)]) for n in graph.nodes)}
    replacement: Dict[int, Node] = {}
    rewrites = 0

    for node in cloned_ops:
        node.inputs = [replacement.get(id(p), p) for p in node.inputs]

        if node.op in _INFERENCE_NOOPS:
            replacement[id(node)] = node.inputs[0]
            rewrites += 1
            continue

        if node.op != "batch_norm":
            continue
        producer = node.inputs[0]
        if producer.op not in _FOLDABLE_PRODUCERS:
            continue
        if consumers.get(id(producer), 0) != 1:
            continue
        weight_node = producer.inputs[1] if len(producer.inputs) > 1 else None
        if weight_node is None or weight_node.name not in params:
            continue
        scale_shift = _bn_scale_shift(params, node)
        if scale_shift is None:
            continue
        scale, shift = scale_shift

        folded_weight_name = f"{weight_node.name}_bnfold"
        params[folded_weight_name] = _scale_weight(params[weight_node.name],
                                                   scale, producer.op)
        folded_weight = Node("null", folded_weight_name)
        folded_weight.shape = weight_node.shape
        folded_weight.dtype = weight_node.dtype
        producer.inputs[1] = folded_weight

        bias_name = f"{node.name}_bnfold_bias"
        params[bias_name] = shift
        bias_node = Node("null", bias_name)
        bias_node.shape = tuple(shift.shape)
        bias_node.dtype = node.dtype
        bias_add = Node("bias_add", f"{node.name}_folded", [producer, bias_node], {})
        bias_add.shape = node.shape
        bias_add.dtype = node.dtype

        replacement[id(node)] = bias_add
        rewrites += 1

    if not rewrites:
        return graph, params, 0

    outputs = [replacement.get(id(clones[id(o)]), clones[id(o)])
               for o in graph.outputs]
    new_graph = Graph(outputs)
    for node in new_graph.op_nodes:
        node.inputs = [replacement.get(id(p), p) for p in node.inputs]
    new_graph.refresh()
    return new_graph, params, rewrites


def eliminate_common_subexpr(graph: Graph) -> Tuple[Graph, int]:
    """Merge operator nodes that are structurally identical.

    Two nodes are merged when they apply the same operator with equal
    attributes to the same input nodes.  The input graph is never mutated.
    Returns ``(graph, merged_count)``.
    """
    clones = _clone_nodes(graph)
    seen: Dict[Tuple, Node] = {}
    replacement: Dict[int, Node] = {}
    merged = 0
    for original in graph.op_nodes:
        node = clones[id(original)]
        node.inputs = [replacement.get(id(p), p) for p in node.inputs]
        key = (node.op, tuple(id(p) for p in node.inputs),
               tuple(sorted((k, repr(v)) for k, v in node.attrs.items())))
        if key in seen:
            replacement[id(node)] = seen[key]
            merged += 1
        else:
            seen[key] = node
    if not merged:
        return graph, 0
    outputs = [replacement.get(id(clones[id(o)]), clones[id(o)])
               for o in graph.outputs]
    new_graph = Graph(outputs)
    for node in new_graph.op_nodes:
        node.inputs = [replacement.get(id(p), p) for p in node.inputs]
    new_graph.refresh()
    return new_graph, merged
