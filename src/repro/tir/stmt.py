"""Low-level loop program IR (TIR).

The lowering pipeline turns a scheduled tensor expression into a loop nest
built from the statement nodes in this module.  The IR is deliberately close
to the paper's "optimized low level loop program": explicit ``for`` loops
with annotations (parallel / vectorize / unroll / thread binding / virtual
thread), buffer allocations with memory scopes, stores, barriers, hardware
intrinsic calls, and the decoupled-access-execute dependence tokens used for
latency hiding (Section 4.4, Figures 8 and 9).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..te.expr import Call, Expr, ExprLike, IntImm, Var, as_expr, simplify
from ..te.intrin import TensorIntrin
from ..te.trace import SymInt

__all__ = [
    "Buffer",
    "BufferLoad",
    "Stmt",
    "BufferStore",
    "ForKind",
    "For",
    "IfThenElse",
    "SeqStmt",
    "Allocate",
    "AttrStmt",
    "Evaluate",
    "Barrier",
    "DepPush",
    "DepPop",
    "IntrinsicStmt",
    "LoweredFunc",
    "seq",
]


class Buffer:
    """A named, typed, multi-dimensional memory region with a scope."""

    _counter = itertools.count()

    def __init__(self, name: str, shape: Sequence[int], dtype: str = "float32",
                 scope: str = "global"):
        self.name = name
        self.shape = tuple(s if type(s) is SymInt else int(s) for s in shape)
        self.dtype = dtype
        self.scope = scope
        self.uid = next(Buffer._counter)

    @property
    def size(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    @property
    def dtype_bytes(self) -> int:
        return dtype_bytes(self.dtype)

    @property
    def size_bytes(self) -> int:
        return self.size * self.dtype_bytes

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"Buffer({self.name}[{dims}] {self.dtype} @{self.scope})"


def dtype_bytes(dtype: str) -> int:
    """Size in bytes of one element of ``dtype``."""
    table = {
        "float64": 8, "float32": 4, "float16": 2,
        "int64": 8, "int32": 4, "int16": 2, "int8": 1,
        "uint64": 8, "uint32": 4, "uint16": 2, "uint8": 1,
        "bool": 1, "int4": 1, "int2": 1, "int1": 1,
    }
    return table.get(dtype, 4)


class BufferLoad(Expr):
    """Load one element of a buffer at symbolic indices."""

    def __init__(self, buffer: Buffer, indices: Sequence[ExprLike]):
        self.buffer = buffer
        self.indices = [as_expr(i) for i in indices]
        self.dtype = buffer.dtype

    def __repr__(self) -> str:
        idx = ", ".join(repr(i) for i in self.indices)
        return f"{self.buffer.name}[{idx}]"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of all statements."""


class BufferStore(Stmt):
    """Store a value to one element of a buffer."""

    def __init__(self, buffer: Buffer, indices: Sequence[ExprLike], value: ExprLike):
        self.buffer = buffer
        self.indices = [as_expr(i) for i in indices]
        self.value = as_expr(value)

    def __repr__(self) -> str:
        idx = ", ".join(repr(i) for i in self.indices)
        return f"{self.buffer.name}[{idx}] = {self.value}"


class ForKind:
    """Loop annotation kinds."""

    SERIAL = "serial"
    PARALLEL = "parallel"
    VECTORIZED = "vectorized"
    UNROLLED = "unrolled"
    THREAD_BINDING = "thread_binding"
    VTHREAD = "vthread"
    TENSORIZED = "tensorized"


class For(Stmt):
    """A loop ``for loop_var in [min, min+extent)`` with an annotation kind."""

    def __init__(self, loop_var: Var, min_value: ExprLike, extent: ExprLike,
                 body: Stmt, kind: str = ForKind.SERIAL, thread_tag: str = ""):
        self.loop_var = loop_var
        self.min = as_expr(min_value)
        self.extent = as_expr(extent)
        self.body = body
        self.kind = kind
        self.thread_tag = thread_tag
        self._extent_value = None

    def extent_value(self) -> int:
        # Memoized: the extent expression is fixed at construction, and the
        # analysis/lowering passes query it once per enclosing-loop walk.
        # Symbolic extents memoize the message, not the exception instance,
        # so repeated raises don't pin or race on a shared traceback.
        cached = self._extent_value
        if cached is None:
            extent = simplify(self.extent)
            if isinstance(extent, IntImm):
                cached = extent.value
            else:
                cached = f"Loop {self.loop_var} has symbolic extent {extent}"
            self._extent_value = cached
        if isinstance(cached, str):
            raise ValueError(cached)
        return cached

    def __repr__(self) -> str:
        tag = f" [{self.thread_tag}]" if self.thread_tag else ""
        return f"for({self.loop_var}, {self.min}, {self.extent}, {self.kind}{tag})"


class IfThenElse(Stmt):
    def __init__(self, condition: Expr, then_body: Stmt, else_body: Optional[Stmt] = None):
        self.condition = condition
        self.then_body = then_body
        self.else_body = else_body

    def __repr__(self) -> str:
        return f"if({self.condition})"


class SeqStmt(Stmt):
    """A sequence of statements executed in order."""

    def __init__(self, stmts: Sequence[Stmt]):
        flattened: List[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, SeqStmt):
                flattened.extend(stmt.stmts)
            elif stmt is not None:
                flattened.append(stmt)
        self.stmts = flattened

    def __repr__(self) -> str:
        return f"SeqStmt({len(self.stmts)})"


class Allocate(Stmt):
    """Allocate a buffer for the duration of ``body``."""

    def __init__(self, buffer: Buffer, body: Stmt):
        self.buffer = buffer
        self.body = body

    def __repr__(self) -> str:
        return f"allocate {self.buffer!r}"


class AttrStmt(Stmt):
    """Attach an attribute (thread extent, storage scope, pragma...) to a body."""

    def __init__(self, key: str, node: object, value: object, body: Stmt):
        self.key = key
        self.node = node
        self.value = value
        self.body = body

    def __repr__(self) -> str:
        return f"attr[{self.key}] = {self.value}"


class Evaluate(Stmt):
    """Evaluate an expression for its side effects (intrinsic calls)."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def __repr__(self) -> str:
        return f"eval({self.expr})"


class Barrier(Stmt):
    """Memory synchronisation barrier among cooperating threads."""

    def __init__(self, scope: str = "shared"):
        self.scope = scope

    def __repr__(self) -> str:
        return f"barrier({self.scope})"


class DepPush(Stmt):
    """Push a dependence token from one pipeline stage to another (DAE sync)."""

    def __init__(self, from_stage: str, to_stage: str):
        self.from_stage = from_stage
        self.to_stage = to_stage

    def __repr__(self) -> str:
        return f"{self.from_stage}.push_dep_to({self.to_stage})"


class DepPop(Stmt):
    """Pop (wait for) a dependence token from another pipeline stage."""

    def __init__(self, from_stage: str, to_stage: str):
        self.from_stage = from_stage
        self.to_stage = to_stage

    def __repr__(self) -> str:
        return f"{self.to_stage}.pop_dep_from({self.from_stage})"


class IntrinsicStmt(Stmt):
    """A tensorized region replaced by a hardware intrinsic call.

    ``intrin``'s compute op is what the call means: the functional
    interpreter executes it, the verifier bounds-checks its operand tiles at
    the offsets given here, and the hardware models count its cost.
    """

    def __init__(self, name: str, intrin: TensorIntrin, inputs: Sequence[Buffer],
                 output: Buffer, input_offsets: Sequence[Sequence[ExprLike]],
                 output_offset: Sequence[ExprLike], reduction_update: bool = False,
                 pipeline_stage: str = "ex"):
        self.name = name
        self.intrin = intrin
        self.inputs = list(inputs)
        self.output = output
        self.input_offsets = [[as_expr(i) for i in offs] for offs in input_offsets]
        self.output_offset = [as_expr(i) for i in output_offset]
        self.reduction_update = reduction_update
        self.pipeline_stage = pipeline_stage

    def __repr__(self) -> str:
        return f"intrinsic {self.name}({', '.join(b.name for b in self.inputs)}) -> {self.output.name}"


class LoweredFunc:
    """A lowered operator: argument buffers plus the loop-nest body."""

    def __init__(self, name: str, args: Sequence[Buffer], body: Stmt,
                 allocations: Optional[Sequence[Buffer]] = None):
        self.name = name
        self.args = list(args)
        self.body = body
        self.allocations = list(allocations or [])

    def __repr__(self) -> str:
        return f"LoweredFunc({self.name}, args=[{', '.join(a.name for a in self.args)}])"


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def seq(*stmts: Optional[Stmt]) -> Stmt:
    """Build a sequence, dropping ``None`` entries and unwrapping singletons."""
    cleaned = [s for s in stmts if s is not None]
    if len(cleaned) == 1:
        return cleaned[0]
    return SeqStmt(cleaned)


def stmt_children(stmt: Stmt) -> List[Stmt]:
    if isinstance(stmt, For):
        return [stmt.body]
    if isinstance(stmt, IfThenElse):
        return [stmt.then_body] + ([stmt.else_body] if stmt.else_body is not None else [])
    if isinstance(stmt, SeqStmt):
        return list(stmt.stmts)
    if isinstance(stmt, (Allocate, AttrStmt)):
        return [stmt.body]
    return []
