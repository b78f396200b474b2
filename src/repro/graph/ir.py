"""Computational graph IR (paper Section 3, Figure 3).

A :class:`Graph` is a topologically ordered list of :class:`Node` objects.
Each node is either an input/parameter (``op == "null"``) or an operator
application with attributes; edges carry multi-dimensional tensors whose
shapes are inferred statically (the paper exploits shape specificity of DL
workloads).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Node", "Graph"]


class Node:
    """One node in the computational graph."""

    def __init__(self, op: str, name: str, inputs: Optional[List["Node"]] = None,
                 attrs: Optional[Dict[str, object]] = None):
        self.op = op
        self.name = name
        self.inputs: List[Node] = list(inputs or [])
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.shape: Optional[Tuple[int, ...]] = None
        self.dtype: str = "float32"

    @property
    def is_variable(self) -> bool:
        return self.op == "null"

    def __repr__(self) -> str:
        ins = ", ".join(i.name for i in self.inputs)
        shape = f" {self.shape}" if self.shape is not None else ""
        return f"Node({self.name}: {self.op}({ins}){shape})"


class Graph:
    """A dataflow graph over tensors."""

    def __init__(self, outputs: Sequence[Node]):
        self.outputs = list(outputs)
        self.nodes = self._topological(self.outputs)

    @staticmethod
    def _topological(outputs: Sequence[Node]) -> List[Node]:
        order: List[Node] = []
        seen: set = set()

        def visit(node: Node) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for parent in node.inputs:
                visit(parent)
            order.append(node)

        for out in outputs:
            visit(out)
        return order

    # ------------------------------------------------------------------ queries
    @property
    def input_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.is_variable]

    @property
    def op_nodes(self) -> List[Node]:
        return [n for n in self.nodes if not n.is_variable]

    def consumers(self) -> Dict[int, List[Node]]:
        """Map of node id -> nodes that consume its output."""
        result: Dict[int, List[Node]] = {id(n): [] for n in self.nodes}
        for node in self.nodes:
            for parent in node.inputs:
                result[id(parent)].append(node)
        return result

    def find(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"No node named {name!r}")

    def refresh(self) -> None:
        """Recompute the topological order after a pass rewires nodes."""
        self.nodes = self._topological(self.outputs)

    # ------------------------------------------------------------------ shapes
    def infer_shapes(self, input_shapes: Dict[str, Tuple[int, ...]],
                     dtypes: Optional[Dict[str, str]] = None) -> None:
        """Propagate shapes through the graph using the operator registry."""
        from .ops import OP_REGISTRY

        dtypes = dtypes or {}
        for node in self.nodes:
            if node.is_variable:
                if node.shape is None:
                    if node.name not in input_shapes:
                        raise ValueError(f"Missing shape for graph input {node.name!r}")
                    node.shape = tuple(input_shapes[node.name])
                node.dtype = dtypes.get(node.name, node.dtype)
            else:
                spec = OP_REGISTRY.get(node.op)
                input_shapes_list = [tuple(p.shape) for p in node.inputs]
                node.shape = spec.infer_shape(input_shapes_list, node.attrs)
                node.dtype = node.attrs.get("out_dtype", node.inputs[0].dtype
                                            if node.inputs else "float32")

    def __repr__(self) -> str:
        return f"Graph(nodes={len(self.nodes)}, outputs={[o.name for o in self.outputs]})"
