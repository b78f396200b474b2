"""Computational graph IR, high-level rewriting passes and the end-to-end compiler."""

from ..compiler.module import CompiledKernel, CompiledModule
from .ir import Graph, Node
from .op_timing import clear_timing_cache, make_task_for_node
from .ops import OP_REGISTRY, OpPattern, OpSpec, register_op
from .passes import (
    FusedGroup,
    MemoryPlan,
    alter_layout,
    fold_constants,
    fuse_ops,
    plan_memory,
)
from .simplify import eliminate_common_subexpr, simplify_inference

__all__ = [
    "CompiledKernel",
    "CompiledModule",
    "FusedGroup",
    "Graph",
    "MemoryPlan",
    "Node",
    "OP_REGISTRY",
    "OpPattern",
    "OpSpec",
    "alter_layout",
    "clear_timing_cache",
    "fold_constants",
    "fuse_ops",
    "make_task_for_node",
    "plan_memory",
    "register_op",
    "simplify_inference",
    "eliminate_common_subexpr",
]
