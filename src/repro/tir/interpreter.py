"""Functional interpreter for lowered loop programs.

Executes a :class:`~repro.tir.stmt.LoweredFunc` against NumPy arrays.  The
interpreter is the semantic reference used by the test-suite to check that
schedule transformations (splitting, reordering, caching, tensorization,
virtual threading) preserve the program's meaning — the paper's requirement
that schedule primitives "preserve the program's logical equivalence".

Performance is irrelevant here (the hardware models estimate cost
analytically); correctness on small shapes is what matters.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..te.expr import (
    MATH_INTRINSICS,
    Add,
    And,
    BinaryOp,
    Call,
    Cast,
    Div,
    EQ,
    Expr,
    FloatImm,
    FloorDiv,
    GE,
    GT,
    IntImm,
    LE,
    LT,
    Max,
    Min,
    Mod,
    Mul,
    NE,
    Not,
    Or,
    Reduce,
    Select,
    StringImm,
    Sub,
    TensorRead,
    Var,
)
from ..te.tensor import ComputeOp, Tensor
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

__all__ = ["Interpreter", "run_lowered", "evaluate_expr"]

_NUMPY_DTYPES = {
    "float64": np.float64, "float32": np.float32, "float16": np.float16,
    "int64": np.int64, "int32": np.int32, "int16": np.int16, "int8": np.int8,
    "uint8": np.uint8, "bool": np.bool_,
    # sub-byte types are stored widened in the functional model
    "int4": np.int8, "int2": np.int8, "int1": np.int8,
}


def numpy_dtype(dtype: str) -> np.dtype:
    return np.dtype(_NUMPY_DTYPES.get(dtype, np.float32))


class EvalError(RuntimeError):
    """Raised when an expression or statement cannot be evaluated."""


_BINOP_EVAL = {
    Add: lambda a, b: a + b,
    Sub: lambda a, b: a - b,
    Mul: lambda a, b: a * b,
    Div: lambda a, b: a / b,
    FloorDiv: lambda a, b: a // b,
    Mod: lambda a, b: a % b,
    Min: min,
    Max: max,
    EQ: lambda a, b: a == b,
    NE: lambda a, b: a != b,
    LT: lambda a, b: a < b,
    LE: lambda a, b: a <= b,
    GT: lambda a, b: a > b,
    GE: lambda a, b: a >= b,
    And: lambda a, b: bool(a) and bool(b),
    Or: lambda a, b: bool(a) or bool(b),
}


def evaluate_expr(expr: Expr, env: Dict[Var, object],
                  buffers: Optional[Dict[str, np.ndarray]] = None) -> object:
    """Evaluate a scalar expression under a variable environment."""
    buffers = buffers or {}
    if isinstance(expr, Var):
        if expr not in env:
            raise EvalError(f"Unbound variable {expr}")
        return env[expr]
    if isinstance(expr, (IntImm, FloatImm)):
        return expr.value
    if isinstance(expr, StringImm):
        return expr.value
    if isinstance(expr, BinaryOp):
        a = evaluate_expr(expr.a, env, buffers)
        b = evaluate_expr(expr.b, env, buffers)
        result = _BINOP_EVAL[type(expr)](a, b)
        if isinstance(expr, (FloorDiv, Mod)) and isinstance(result, float):
            return int(result)
        return result
    if isinstance(expr, Not):
        return not bool(evaluate_expr(expr.a, env, buffers))
    if isinstance(expr, Select):
        cond = evaluate_expr(expr.condition, env, buffers)
        branch = expr.true_value if cond else expr.false_value
        return evaluate_expr(branch, env, buffers)
    if isinstance(expr, Cast):
        value = evaluate_expr(expr.value, env, buffers)
        if expr.dtype.startswith(("int", "uint")):
            return int(value)
        return float(value)
    if isinstance(expr, Call):
        args = [evaluate_expr(a, env, buffers) for a in expr.args]
        if expr.name in MATH_INTRINSICS:
            return MATH_INTRINSICS[expr.name](*args)
        raise EvalError(f"Unknown intrinsic call {expr.name}")
    if isinstance(expr, BufferLoad):
        array = buffers.get(expr.buffer.name)
        if array is None:
            raise EvalError(f"Buffer {expr.buffer.name} is not bound")
        idx = tuple(int(evaluate_expr(i, env, buffers)) for i in expr.indices)
        return array[idx]
    if isinstance(expr, TensorRead):
        tensor = expr.tensor
        name = getattr(tensor, "name", None)
        array = buffers.get(name)
        if array is None:
            raise EvalError(f"Tensor {name} has no bound array")
        idx = tuple(int(evaluate_expr(i, env, buffers)) for i in expr.indices)
        return array[idx]
    if isinstance(expr, Reduce):
        # Direct reduction evaluation (used when interpreting un-lowered
        # compute bodies, e.g. tensor intrinsic behaviours).
        acc = expr.identity
        axis_vars = [iv.var for iv in expr.axis]
        for point in itertools.product(
                *(range(iv.extent_value()) for iv in expr.axis)):
            env.update(zip(axis_vars, point))
            acc = expr.combine(acc, evaluate_expr(expr.source, env, buffers))
        return acc
    raise EvalError(f"Cannot evaluate expression of type {type(expr).__name__}")


class Interpreter:
    """Executes lowered functions for functional verification."""

    def __init__(self, func: LoweredFunc):
        self.func = func

    def run(self, *arrays: np.ndarray) -> None:
        """Execute the function; ``arrays`` bind positionally to ``func.args``
        and are modified in place (outputs are written)."""
        if len(arrays) != len(self.func.args):
            raise ValueError(
                f"{self.func.name} expects {len(self.func.args)} arguments, "
                f"got {len(arrays)}")
        buffers: Dict[str, np.ndarray] = {}
        for buf, array in zip(self.func.args, arrays):
            if tuple(array.shape) != buf.shape:
                raise ValueError(
                    f"Argument {buf.name} expects shape {buf.shape}, got {array.shape}")
            buffers[buf.name] = array
        for alloc in self.func.allocations:
            buffers[alloc.name] = np.zeros(alloc.shape, dtype=numpy_dtype(alloc.dtype))
        self._exec(self.func.body, {}, buffers)

    # ------------------------------------------------------------------ exec
    def _exec(self, stmt: Stmt, env: Dict[Var, object],
              buffers: Dict[str, np.ndarray]) -> None:
        if isinstance(stmt, SeqStmt):
            for sub in stmt.stmts:
                self._exec(sub, env, buffers)
            return
        if isinstance(stmt, For):
            start = int(evaluate_expr(stmt.min, env, buffers))
            extent = int(evaluate_expr(stmt.extent, env, buffers))
            for value in range(start, start + extent):
                env[stmt.loop_var] = value
                self._exec(stmt.body, env, buffers)
            return
        if isinstance(stmt, IfThenElse):
            if evaluate_expr(stmt.condition, env, buffers):
                self._exec(stmt.then_body, env, buffers)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body, env, buffers)
            return
        if isinstance(stmt, BufferStore):
            array = buffers.get(stmt.buffer.name)
            if array is None:
                array = np.zeros(stmt.buffer.shape, dtype=numpy_dtype(stmt.buffer.dtype))
                buffers[stmt.buffer.name] = array
            idx = tuple(int(evaluate_expr(i, env, buffers)) for i in stmt.indices)
            array[idx] = evaluate_expr(stmt.value, env, buffers)
            return
        if isinstance(stmt, Allocate):
            buffers.setdefault(
                stmt.buffer.name,
                np.zeros(stmt.buffer.shape, dtype=numpy_dtype(stmt.buffer.dtype)))
            self._exec(stmt.body, env, buffers)
            return
        if isinstance(stmt, AttrStmt):
            self._exec(stmt.body, env, buffers)
            return
        if isinstance(stmt, (Barrier, DepPush, DepPop)):
            return  # synchronisation has no functional effect in serial execution
        if isinstance(stmt, Evaluate):
            evaluate_expr(stmt.expr, env, buffers)
            return
        if isinstance(stmt, IntrinsicStmt):
            self._exec_intrinsic(stmt, env, buffers)
            return
        raise EvalError(f"Cannot execute statement {stmt!r}")

    def _exec_intrinsic(self, stmt: IntrinsicStmt, env: Dict[Var, object],
                        buffers: Dict[str, np.ndarray]) -> None:
        """Execute a tensorized region using the intrinsic's declared behaviour."""
        intrin = stmt.intrin
        op: ComputeOp = intrin.op
        out_shape = intrin.output_shape
        out_offset = [int(evaluate_expr(i, env, buffers)) for i in stmt.output_offset]
        out_array = buffers[stmt.output.name]

        # Bind the behaviour op's input placeholders to slices of the actual
        # input buffers at the computed offsets.
        local_buffers: Dict[str, np.ndarray] = {}
        for decl_input, buffer, offsets in zip(intrin.inputs, stmt.inputs,
                                               stmt.input_offsets):
            shape = decl_input.shape_values()
            start = [int(evaluate_expr(i, env, buffers)) for i in offsets]
            slices = tuple(slice(s, s + d) for s, d in zip(start, shape))
            local_buffers[decl_input.name] = buffers[buffer.name][slices]

        result = np.zeros(out_shape, dtype=out_array.dtype)
        axis_vars = [iv.var for iv in op.axis]
        for idx in itertools.product(*map(range, out_shape)):
            result[idx] = evaluate_expr(op.body, dict(zip(axis_vars, idx)),
                                        local_buffers)
        target = tuple(slice(o, o + d) for o, d in zip(out_offset, out_shape))
        if stmt.reduction_update:
            out_array[target] += result
        else:
            out_array[target] = result


def run_lowered(func: LoweredFunc, *arrays: np.ndarray) -> None:
    """Convenience wrapper: execute ``func`` over the given arrays in place."""
    Interpreter(func).run(*arrays)
