"""TIR-level transformation passes.

Implements the post-lowering transformations the paper relies on:

* ``inject_virtual_threads`` — Figure 8's virtual thread lowering: a loop
  bound to a ``vthread`` axis is expanded into per-thread copies whose
  load / execute / store operations are interleaved into a single stream and
  separated by explicit dependence push/pop tokens, so that a decoupled
  access-execute (DAE) accelerator can recover pipeline parallelism.
* ``inject_dae_synchronization`` — inserts RAW/WAR dependence tokens between
  pipeline stages of an already-flattened instruction sequence (Figure 9).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from ..te.expr import (Expr, ExprMutator, IntImm, Var, as_expr, simplify,
                       substitute)
from .stmt import (
    Allocate,
    AttrStmt,
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    DepPop,
    DepPush,
    Evaluate,
    For,
    ForKind,
    IfThenElse,
    IntrinsicStmt,
    LoweredFunc,
    SeqStmt,
    Stmt,
    seq,
    stmt_children,
)

__all__ = [
    "inject_virtual_threads",
    "inject_dae_synchronization",
    "substitute_stmt",
    "map_buffers",
    "count_statements",
]


# ---------------------------------------------------------------------------
# Generic statement rewriting helpers
# ---------------------------------------------------------------------------

def _rebuild(stmt: Stmt, transform, *state) -> Stmt:
    """Rebuild a statement, applying ``transform(child, *state)`` to each
    child statement."""
    if isinstance(stmt, SeqStmt):
        return SeqStmt([transform(s, *state) for s in stmt.stmts])
    if isinstance(stmt, For):
        return For(stmt.loop_var, stmt.min, stmt.extent,
                   transform(stmt.body, *state), stmt.kind, stmt.thread_tag)
    if isinstance(stmt, IfThenElse):
        else_body = (transform(stmt.else_body, *state)
                     if stmt.else_body is not None else None)
        return IfThenElse(stmt.condition, transform(stmt.then_body, *state),
                          else_body)
    if isinstance(stmt, Allocate):
        return Allocate(stmt.buffer, transform(stmt.body, *state))
    if isinstance(stmt, AttrStmt):
        return AttrStmt(stmt.key, stmt.node, stmt.value,
                        transform(stmt.body, *state))
    return stmt


def substitute_stmt(stmt: Stmt, mapping: Dict[Var, Expr]) -> Stmt:
    """Substitute variables in every expression of a statement tree."""

    if isinstance(stmt, BufferStore):
        return BufferStore(stmt.buffer,
                           [_sub_expr(i, mapping) for i in stmt.indices],
                           _sub_loads(stmt.value, mapping))
    if isinstance(stmt, IfThenElse):
        else_body = (substitute_stmt(stmt.else_body, mapping)
                     if stmt.else_body is not None else None)
        return IfThenElse(_sub_loads(stmt.condition, mapping),
                          substitute_stmt(stmt.then_body, mapping), else_body)
    if isinstance(stmt, For):
        return For(stmt.loop_var, _sub_expr(stmt.min, mapping),
                   _sub_expr(stmt.extent, mapping),
                   substitute_stmt(stmt.body, mapping), stmt.kind,
                   stmt.thread_tag)
    if isinstance(stmt, Evaluate):
        return Evaluate(_sub_loads(stmt.expr, mapping))
    if isinstance(stmt, IntrinsicStmt):
        return IntrinsicStmt(
            stmt.name, stmt.intrin, stmt.inputs, stmt.output,
            [[_sub_expr(i, mapping) for i in offs]
             for offs in stmt.input_offsets],
            [_sub_expr(i, mapping) for i in stmt.output_offset],
            stmt.reduction_update, stmt.pipeline_stage)
    return _rebuild(stmt, substitute_stmt, mapping)


def _sub_expr(expr: Expr, mapping: Dict[Var, Expr]) -> Expr:
    return simplify(substitute(expr, mapping))


class _LoadPreservingSubstituter(ExprMutator):
    def __init__(self, mapping: Dict[Var, Expr]):
        self.mapping = mapping

    def visit_var(self, node: Var) -> Expr:
        return self.mapping.get(node, node)

    def visit_bufferload(self, node: BufferLoad) -> Expr:  # type: ignore[override]
        return BufferLoad(node.buffer, [self.visit(i) for i in node.indices])


def _sub_loads(expr: Expr, mapping: Dict[Var, Expr]) -> Expr:
    """Substitute variables inside an expression, preserving BufferLoad nodes."""
    if isinstance(expr, BufferLoad):
        return BufferLoad(expr.buffer,
                          [simplify(substitute(_sub_loads(i, mapping), {}))
                           if isinstance(i, BufferLoad)
                           else _sub_expr(i, mapping)
                           for i in expr.indices])
    return simplify(_LoadPreservingSubstituter(mapping).visit(expr))


class _BufferRemapper(ExprMutator):
    def __init__(self, mapping: Dict[str, Buffer]):
        self.mapping = mapping

    def visit_bufferload(self, node: BufferLoad) -> Expr:  # type: ignore[override]
        buf = self.mapping.get(node.buffer.name, node.buffer)
        return BufferLoad(buf, [self.visit(i) for i in node.indices])


def map_buffers(stmt: Stmt, mapping: Dict[str, Buffer]) -> Stmt:
    """Replace buffer references by name (used by virtual-thread expansion)."""
    remap_expr = _BufferRemapper(mapping).visit
    if isinstance(stmt, BufferStore):
        buf = mapping.get(stmt.buffer.name, stmt.buffer)
        return BufferStore(buf, [remap_expr(i) for i in stmt.indices],
                           remap_expr(stmt.value))
    if isinstance(stmt, IntrinsicStmt):
        return IntrinsicStmt(
            stmt.name, stmt.intrin,
            [mapping.get(b.name, b) for b in stmt.inputs],
            mapping.get(stmt.output.name, stmt.output),
            stmt.input_offsets, stmt.output_offset,
            stmt.reduction_update, stmt.pipeline_stage)
    if isinstance(stmt, Allocate):
        buf = mapping.get(stmt.buffer.name, stmt.buffer)
        return Allocate(buf, map_buffers(stmt.body, mapping))
    if isinstance(stmt, Evaluate):
        return Evaluate(remap_expr(stmt.expr))
    return _rebuild(stmt, map_buffers, mapping)


# ---------------------------------------------------------------------------
# Virtual thread lowering (Figure 8)
# ---------------------------------------------------------------------------

def inject_virtual_threads(func: LoweredFunc) -> LoweredFunc:
    """Lower ``vthread`` loops into interleaved per-thread instruction streams.

    Each virtual thread receives a private copy of the buffers allocated
    inside the loop (the paper's ``CL[2][8]`` duplication), the loop body is
    duplicated per thread with the vthread index substituted, and explicit
    RAW/WAR dependence tokens are pushed/popped between the load (``ld``) and
    execute (``ex``) pipeline stages so the accelerator can overlap them.
    """
    new_allocations = list(func.allocations)
    body = _expand_vthreads(func.body, new_allocations)
    # Insert dependence tokens into every statement sequence so the DAE
    # pipeline can recover parallelism at whatever loop level the load /
    # execute / store operations ended up after interleaving.
    body = _apply_dae(body)
    return LoweredFunc(func.name, func.args, body, new_allocations)


def _expand_vthreads(node: Stmt, new_allocations: List[Buffer]) -> Stmt:
    """Expand every ``vthread`` loop under ``node``; the per-thread buffer
    clones are appended to ``new_allocations``."""
    if isinstance(node, For) and node.kind == ForKind.VTHREAD:
        try:
            extent = node.extent_value()
        except ValueError:
            extent = 1
        body = _expand_vthreads(node.body, new_allocations)
        copies: List[Stmt] = []
        for thread_id in range(extent):
            # Give this virtual thread its own copies of locally scoped
            # buffers so loads for thread i+1 can overlap execution of i.
            local_buffers = _collect_local_buffers(body)
            remap: Dict[str, Buffer] = {}
            for buf in local_buffers:
                clone = Buffer(f"{buf.name}.vt{thread_id}", buf.shape,
                               buf.dtype, buf.scope)
                remap[buf.name] = clone
                new_allocations.append(clone)
            thread_body = map_buffers(body, remap)
            thread_body = substitute_stmt(thread_body,
                                          {node.loop_var: as_expr(thread_id)})
            copies.append(AttrStmt("vthread_instance", node.loop_var,
                                   thread_id, thread_body))
        return _interleave_vthreads(copies)
    return _rebuild(node, _expand_vthreads, new_allocations)


def _apply_dae(node: Stmt) -> Stmt:
    node = _rebuild(node, _apply_dae)
    if isinstance(node, SeqStmt):
        return inject_dae_synchronization(node)
    return node


def _collect_local_buffers(stmt: Stmt) -> List[Buffer]:
    """Buffers written inside ``stmt`` that live in on-chip scopes."""
    found: Dict[str, Buffer] = {}
    stack = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, BufferStore) and node.buffer.scope != "global":
            found[node.buffer.name] = node.buffer
        if isinstance(node, IntrinsicStmt) and node.output.scope != "global":
            found[node.output.name] = node.output
        stack.extend(reversed(stmt_children(node)))
    return list(found.values())


def _interleave_vthreads(copies: Sequence[Stmt]) -> Stmt:
    """Interleave the top-level operations of each virtual thread copy.

    The per-thread bodies are flattened into operation lists; operations are
    then emitted round-robin (thread 0 op 0, thread 1 op 0, thread 0 op 1,
    ...), which matches Figure 8's final single instruction stream.
    """
    streams = [_flatten_ops(c) for c in copies]
    interleaved: List[Stmt] = []
    max_len = max((len(s) for s in streams), default=0)
    for index in range(max_len):
        for stream in streams:
            if index < len(stream):
                interleaved.append(stream[index])
    return seq(*interleaved)


def _flatten_ops(stmt: Stmt) -> List[Stmt]:
    """Flatten a virtual-thread body into a list of schedulable operations.

    Loops are kept intact (they are a single pipelined operation from the
    interleaver's point of view) unless they directly contain a sequence of
    operations, in which case the loop is preserved as one unit as well.
    """
    if isinstance(stmt, AttrStmt) and stmt.key == "vthread_instance":
        inner = _flatten_ops(stmt.body)
        return [AttrStmt(stmt.key, stmt.node, stmt.value, op) for op in inner]
    if isinstance(stmt, SeqStmt):
        ops: List[Stmt] = []
        for sub in stmt.stmts:
            ops.extend(_flatten_ops(sub))
        return ops
    return [stmt]


def _dae_stage(op: Stmt) -> Optional[str]:
    """Pipeline stage (``ld`` / ``ex`` / ``st``) of one operation, if any."""
    node = op
    while isinstance(node, AttrStmt):
        node = node.body
    if isinstance(node, IntrinsicStmt):
        return "ex"
    if isinstance(node, For):
        return _dae_stage(node.body)
    if isinstance(node, SeqStmt):
        for sub in node.stmts:
            result = _dae_stage(sub)
            if result is not None:
                return result
        return None
    if isinstance(node, BufferStore):
        scope = node.buffer.scope
        if scope in ("inp_buffer", "wgt_buffer", "shared"):
            return "ld"
        if scope in ("acc_buffer", "local"):
            return "ex"
        if scope == "global":
            return "st"
    return None


def inject_dae_synchronization(stmt: Stmt) -> Stmt:
    """Insert dependence push/pop tokens between DAE pipeline stages.

    Operations are classified as ``ld`` (stores into on-chip input/weight
    buffers), ``ex`` (intrinsic calls and stores into accumulation buffers)
    or ``st`` (stores back to global memory).  A RAW token is pushed from a
    producer stage to its consumer stage and popped by the consumer before it
    runs; a WAR token flows in the opposite direction, allowing bounded
    buffering exactly as in Figure 9.
    """
    if not isinstance(stmt, SeqStmt):
        return stmt

    result: List[Stmt] = []
    previous_stage: Optional[str] = None
    for op in stmt.stmts:
        stage = _dae_stage(op)
        if stage is not None and previous_stage is not None and stage != previous_stage:
            # RAW dependence from the previous stage to this one.
            result.append(DepPush(previous_stage, stage))
            result.append(DepPop(previous_stage, stage))
        result.append(op)
        if stage is not None:
            # WAR token back to the producer so it may reuse its buffer slot.
            if previous_stage is not None and stage != previous_stage:
                result.append(DepPush(stage, previous_stage))
            previous_stage = stage
    return SeqStmt(result)


# ---------------------------------------------------------------------------
# Misc passes
# ---------------------------------------------------------------------------

def count_statements(stmt: Stmt) -> Dict[str, int]:
    """Count statement node types (useful for tests and ablations)."""
    counts: Dict[str, int] = {}
    stack = [stmt]
    while stack:
        node = stack.pop()
        counts[type(node).__name__] = counts.get(type(node).__name__, 0) + 1
        stack.extend(reversed(stmt_children(node)))
    return counts
