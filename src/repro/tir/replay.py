"""Replaying one recorded lowering for every config of its structure class.

A lowering recorded with traced split factors (:mod:`repro.te.trace`) is
kept as a :class:`Replay`: the recorded tree as a flat program of plain
tuples (one per node, children first), each integer that came from a
factor an output of the tape, plus the tape and its path condition.  For
another config of the same template, :meth:`Replay.values` runs the tape on
that config's factors and returns None unless every recorded comparison
comes out the same.  If it does, the lowering would take exactly the
recorded steps, so :meth:`Replay.build` re-emits the tree with that
config's integers, every node, variable and buffer fresh, and
:meth:`Replay.features` gives that tree's features without building it, from
the class's :class:`~repro.tir.analysis.FeaturePlan`.

The program and the plan hold strings and integers (and the tensor
intrinsic a tensorized tree calls), so a cached class costs the collector
next to nothing: the recorded tree itself is not kept.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..te.expr import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    NE,
    Add,
    And,
    Call,
    Cast,
    Div,
    Expr,
    FloatImm,
    FloorDiv,
    IntImm,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Select,
    StringImm,
    Sub,
    Var,
)
from ..te.trace import SymInt, Tape, Trace, Untraceable
from .analysis import FeaturePlan, ProgramFeatures
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
    IfThenElse,
    IntrinsicStmt,
    LoweredFunc,
    SeqStmt,
    Stmt,
)

__all__ = ["Replay"]

#: binary nodes by the index a program names them with
_BINARY = (Add, Sub, Mul, Div, FloorDiv, Mod, Min, Max, EQ, NE, LT, LE, GT,
           GE, And, Or)
_BINARY_INDEX = {cls: index for index, cls in enumerate(_BINARY)}


class Replay:
    """A recorded lowering, re-emitted for any config meeting its path
    condition."""

    __slots__ = ("tape", "plan", "_size", "_program", "_args", "_body",
                 "_allocations")

    def __init__(self, func: LoweredFunc, trace: Trace):
        recorder = _Recorder()
        self._args = tuple(recorder.buffer(b) for b in func.args)
        self._body = recorder.stmt(func.body)
        self._allocations = tuple(recorder.buffer(b)
                                  for b in func.allocations)
        self.tape: Tape = trace.tape(recorder.outputs)
        self.plan = FeaturePlan(func, recorder.positions)
        self._size = len(recorder.program)
        self._program = tuple(recorder.program)

    def values(self, factors: Sequence[int]) -> Optional[List[int]]:
        """The recorded tree's integers for ``factors``, or None if the
        config's lowering would take another path."""
        return self.tape.evaluate(factors)

    def features(self, values: List[int]) -> ProgramFeatures:
        """The features of the tree :meth:`build` emits for ``values``,
        with no tree built."""
        return self.plan.evaluate(values)

    def build(self, values: List[int], name: str) -> LoweredFunc:
        """A fresh lowered function named ``name``: the recorded tree with
        the integers ``values`` (from :meth:`values`)."""
        objs: List[object] = [None] * self._size
        makers = _MAKERS
        for position, step in enumerate(self._program):
            objs[position] = makers[step[0]](step, objs, values)
        return LoweredFunc(name, [objs[i] for i in self._args],
                           objs[self._body],
                           [objs[i] for i in self._allocations])


# ------------------------------------------------------------------ the steps
# A step is a tuple ``(kind, fields...)`` whose positions name earlier
# steps' objects; a traced buffer dimension is ``~output`` (negative), the
# index of its tape output.

(_VAR, _INT, _TRACED_INT, _FLOAT, _STRING, _LITERAL, _BINOP, _NOT, _SELECT,
 _CALL, _CAST, _BUFFER, _LOAD, _STORE, _FOR, _IF, _SEQ, _ALLOCATE, _ATTR,
 _EVALUATE, _BARRIER, _DEP_PUSH, _DEP_POP, _INTRINSIC) = range(24)


def _dim(field: int, values: List[int]) -> int:
    return values[~field] if field < 0 else field


_MAKERS: Tuple[Callable, ...] = (
    lambda s, o, v: Var(s[1], s[2]),
    lambda s, o, v: IntImm(s[1], s[2]),
    lambda s, o, v: IntImm(v[s[1]], s[2]),
    lambda s, o, v: FloatImm(s[1], s[2]),
    lambda s, o, v: StringImm(s[1]),
    lambda s, o, v: s[1],
    lambda s, o, v: _BINARY[s[1]](o[s[2]], o[s[3]]),
    lambda s, o, v: Not(o[s[1]]),
    lambda s, o, v: Select(o[s[1]], o[s[2]], o[s[3]]),
    lambda s, o, v: Call(s[1], [o[i] for i in s[2]], s[3]),
    lambda s, o, v: Cast(o[s[1]], s[2]),
    lambda s, o, v: Buffer(s[1], [_dim(d, v) for d in s[2]], s[3], s[4]),
    lambda s, o, v: BufferLoad(o[s[1]], [o[i] for i in s[2]]),
    lambda s, o, v: BufferStore(o[s[1]], [o[i] for i in s[2]], o[s[3]]),
    lambda s, o, v: For(o[s[1]], o[s[2]], o[s[3]], o[s[4]], s[5], s[6]),
    lambda s, o, v: IfThenElse(o[s[1]], o[s[2]],
                               None if s[3] is None else o[s[3]]),
    lambda s, o, v: SeqStmt([o[i] for i in s[1]]),
    lambda s, o, v: Allocate(o[s[1]], o[s[2]]),
    lambda s, o, v: AttrStmt(s[1], o[s[2]], o[s[3]], o[s[4]]),
    lambda s, o, v: Evaluate(o[s[1]]),
    lambda s, o, v: Barrier(s[1]),
    lambda s, o, v: DepPush(s[1], s[2]),
    lambda s, o, v: DepPop(s[1], s[2]),
    lambda s, o, v: IntrinsicStmt(
        s[1], s[2], [o[i] for i in s[3]], o[s[4]],
        [[o[i] for i in offsets] for offsets in s[5]],
        [o[i] for i in s[6]], s[7], s[8]),
)


class _Recorder:
    """Walks a recorded tree once, writing one step per distinct node,
    children first, and the tape slots of its traced integers."""

    def __init__(self) -> None:
        self.program: List[Tuple] = []
        self.outputs: List[int] = []               # tape slots, in order
        self.positions: Dict[int, int] = {}        # tape slot -> output
        self._memo: Dict[int, int] = {}

    def _step(self, *step) -> int:
        self.program.append(step)
        return len(self.program) - 1

    def _output(self, slot: int) -> int:
        index = self.positions.get(slot)
        if index is None:
            index = self.positions[slot] = len(self.outputs)
            self.outputs.append(slot)
        return index

    def buffer(self, buffer: Buffer) -> int:
        position = self._memo.get(id(buffer))
        if position is None:
            shape = tuple(~self._output(dim.slot) if type(dim) is SymInt
                          else dim for dim in buffer.shape)
            position = self._memo[id(buffer)] = self._step(
                _BUFFER, buffer.name, shape, buffer.dtype, buffer.scope)
        return position

    def _value(self, value: object) -> int:
        """An attribute's node or value: an expression, a buffer, or an
        object kept as it is."""
        if isinstance(value, Expr):
            return self.expr(value)
        if isinstance(value, Buffer):
            return self.buffer(value)
        return self._step(_LITERAL, value)

    # ------------------------------------------------------------- expressions
    def expr(self, expr: Expr) -> int:
        position = self._memo.get(id(expr))
        if position is None:
            position = self._memo[id(expr)] = self._expr(expr)
        return position

    def _expr(self, expr: Expr) -> int:
        kind = _BINARY_INDEX.get(type(expr))
        if kind is not None:
            return self._step(_BINOP, kind, self.expr(expr.a),
                              self.expr(expr.b))
        if isinstance(expr, IntImm):
            if type(expr.value) is SymInt:
                return self._step(_TRACED_INT, self._output(expr.value.slot),
                                  expr.dtype)
            return self._step(_INT, expr.value, expr.dtype)
        if isinstance(expr, Var):
            return self._step(_VAR, expr.name, expr.dtype)
        if isinstance(expr, BufferLoad):
            return self._step(_LOAD, self.buffer(expr.buffer),
                              tuple(self.expr(i) for i in expr.indices))
        if isinstance(expr, FloatImm):
            return self._step(_FLOAT, expr.value, expr.dtype)
        if isinstance(expr, StringImm):
            return self._step(_STRING, expr.value)
        if isinstance(expr, Not):
            return self._step(_NOT, self.expr(expr.a))
        if isinstance(expr, Select):
            return self._step(_SELECT, self.expr(expr.condition),
                              self.expr(expr.true_value),
                              self.expr(expr.false_value))
        if isinstance(expr, Call):
            return self._step(_CALL, expr.name,
                              tuple(self.expr(a) for a in expr.args),
                              expr.dtype)
        if isinstance(expr, Cast):
            return self._step(_CAST, self.expr(expr.value), expr.dtype)
        raise Untraceable(f"no replay for a {type(expr).__name__} in a "
                          "lowered tree")

    # -------------------------------------------------------------- statements
    def stmt(self, stmt: Stmt) -> int:
        position = self._memo.get(id(stmt))
        if position is None:
            position = self._memo[id(stmt)] = self._stmt(stmt)
        return position

    def _stmt(self, stmt: Stmt) -> int:
        if isinstance(stmt, BufferStore):
            return self._step(_STORE, self.buffer(stmt.buffer),
                              tuple(self.expr(i) for i in stmt.indices),
                              self.expr(stmt.value))
        if isinstance(stmt, For):
            return self._step(_FOR, self.expr(stmt.loop_var),
                              self.expr(stmt.min), self.expr(stmt.extent),
                              self.stmt(stmt.body), stmt.kind,
                              stmt.thread_tag)
        if isinstance(stmt, IfThenElse):
            other = (None if stmt.else_body is None
                     else self.stmt(stmt.else_body))
            return self._step(_IF, self.expr(stmt.condition),
                              self.stmt(stmt.then_body), other)
        if isinstance(stmt, SeqStmt):
            return self._step(_SEQ, tuple(self.stmt(s) for s in stmt.stmts))
        if isinstance(stmt, Allocate):
            return self._step(_ALLOCATE, self.buffer(stmt.buffer),
                              self.stmt(stmt.body))
        if isinstance(stmt, AttrStmt):
            return self._step(_ATTR, stmt.key, self._value(stmt.node),
                              self._value(stmt.value), self.stmt(stmt.body))
        if isinstance(stmt, Evaluate):
            return self._step(_EVALUATE, self.expr(stmt.expr))
        if isinstance(stmt, Barrier):
            return self._step(_BARRIER, stmt.scope)
        if isinstance(stmt, (DepPush, DepPop)):
            return self._step(_DEP_PUSH if isinstance(stmt, DepPush)
                              else _DEP_POP, stmt.from_stage, stmt.to_stage)
        if isinstance(stmt, IntrinsicStmt):
            return self._step(
                _INTRINSIC, stmt.name, stmt.intrin,
                tuple(self.buffer(b) for b in stmt.inputs),
                self.buffer(stmt.output),
                tuple(tuple(self.expr(i) for i in offsets)
                      for offsets in stmt.input_offsets),
                tuple(self.expr(i) for i in stmt.output_offset),
                stmt.reduction_update, stmt.pipeline_stage)
        raise Untraceable(f"no replay for a {type(stmt).__name__} in a "
                          "lowered tree")
