"""Tensors, operations, and iteration variables for the tensor expression language.

Mirrors the declarative API shown in Section 4.1 of the paper::

    m, n, h = te.var('m'), te.var('n'), te.var('h')
    A = te.placeholder((m, h), name='A')
    B = te.placeholder((n, h), name='B')
    k = te.reduce_axis((0, h), name='k')
    C = te.compute((m, n), lambda y, x: te.sum(A[k, y] * B[k, x], axis=k))
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .expr import (
    Expr,
    ExprLike,
    IntImm,
    Range,
    Reduce,
    TensorRead,
    Var,
    as_expr,
    collect_vars,
    expr_children,
    simplify,
)

__all__ = [
    "IterVar",
    "IterVarType",
    "Tensor",
    "Operation",
    "PlaceholderOp",
    "ComputeOp",
    "placeholder",
    "compute",
    "reduce_axis",
    "var",
    "sum",
    "max",
    "thread_axis",
]


class IterVarType:
    """Kinds of iteration variables."""

    DATA_PARALLEL = "data_par"
    REDUCE = "reduce"
    THREAD_INDEX = "thread_index"
    VIRTUAL_THREAD = "vthread"
    UNROLLED = "unrolled"
    VECTORIZED = "vectorized"
    PARALLELIZED = "parallelized"
    TENSORIZED = "tensorized"


class IterVar:
    """An iteration variable with a domain and an iteration kind."""

    _counter = itertools.count()

    def __init__(self, dom: Optional[Range], name: str,
                 iter_type: str = IterVarType.DATA_PARALLEL,
                 thread_tag: str = ""):
        self.dom = dom
        self.var = Var(name, "int32")
        self.iter_type = iter_type
        self.thread_tag = thread_tag
        self.uid = next(IterVar._counter)

    @property
    def name(self) -> str:
        return self.var.name

    @property
    def extent(self) -> Expr:
        if self.dom is None:
            raise ValueError(f"IterVar {self.name} has no domain")
        return self.dom.extent

    def extent_value(self) -> int:
        extent = simplify(self.extent)
        if isinstance(extent, IntImm):
            return extent.value
        raise ValueError(f"IterVar {self.name} has symbolic extent {extent}")

    def __repr__(self) -> str:
        dom = f"{self.dom}" if self.dom is not None else "?"
        tag = f", tag={self.thread_tag}" if self.thread_tag else ""
        return f"IterVar({self.name}: {dom}, {self.iter_type}{tag})"

    # arithmetic convenience so IterVars can appear directly in expressions
    def __add__(self, other: ExprLike) -> Expr:
        return self.var + other

    def __radd__(self, other: ExprLike) -> Expr:
        return as_expr(other) + self.var

    def __sub__(self, other: ExprLike) -> Expr:
        return self.var - other

    def __rsub__(self, other: ExprLike) -> Expr:
        return as_expr(other) - self.var

    def __mul__(self, other: ExprLike) -> Expr:
        return self.var * other

    def __rmul__(self, other: ExprLike) -> Expr:
        return as_expr(other) * self.var

    def __floordiv__(self, other: ExprLike) -> Expr:
        return self.var // other

    def __mod__(self, other: ExprLike) -> Expr:
        return self.var % other


class Tensor:
    """A symbolic multi-dimensional tensor produced by an operation."""

    def __init__(self, shape: Sequence[ExprLike], dtype: str, op: "Operation",
                 value_index: int = 0):
        self.shape = tuple(as_expr(s) for s in shape)
        self.dtype = dtype
        self.op = op
        self.value_index = value_index

    @property
    def name(self) -> str:
        return self.op.name

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def shape_values(self) -> Tuple[int, ...]:
        """Concrete integer shape; raises if any dimension is symbolic."""
        values = []
        for dim in self.shape:
            dim = simplify(dim)
            if not isinstance(dim, IntImm):
                raise ValueError(f"Tensor {self.name} has symbolic dimension {dim}")
            values.append(dim.value)
        return tuple(values)

    def __getitem__(self, indices: Union[ExprLike, Tuple[ExprLike, ...]]) -> TensorRead:
        if not isinstance(indices, tuple):
            indices = (indices,)
        if len(indices) != len(self.shape):
            raise ValueError(
                f"Tensor {self.name} has {len(self.shape)} dimensions, "
                f"got {len(indices)} indices"
            )
        return TensorRead(self, [as_expr(i) for i in indices])

    def __call__(self, *indices: ExprLike) -> TensorRead:
        return self[tuple(indices)]

    def __repr__(self) -> str:
        return f"Tensor({self.name}, shape={self.shape}, dtype={self.dtype})"

    def __hash__(self) -> int:
        return hash((id(self.op), self.value_index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tensor)
            and other.op is self.op
            and other.value_index == self.value_index
        )


class Operation:
    """Base class for all operations that produce tensors."""

    def __init__(self, name: str):
        self.name = name

    @property
    def num_outputs(self) -> int:
        return 1

    def output(self, index: int = 0) -> Tensor:
        raise NotImplementedError

    def input_tensors(self) -> List[Tensor]:
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PlaceholderOp(Operation):
    """An external input tensor."""

    def __init__(self, name: str, shape: Sequence[ExprLike], dtype: str):
        super().__init__(name)
        self.shape = tuple(as_expr(s) for s in shape)
        self.dtype = dtype

    def output(self, index: int = 0) -> Tensor:
        if index != 0:
            raise IndexError("PlaceholderOp has a single output")
        return Tensor(self.shape, self.dtype, self)


class ComputeOp(Operation):
    """An operation defined by an index expression over output coordinates."""

    def __init__(self, name: str, axis: Sequence[IterVar], body: Expr,
                 shape: Sequence[ExprLike], dtype: str):
        super().__init__(name)
        self.axis = list(axis)
        self.body = body
        self.shape = tuple(as_expr(s) for s in shape)
        self.dtype = dtype
        self._inputs: Tuple[Optional[Expr], List[Tensor]] = (None, [])

    @property
    def reduce_axis(self) -> List[IterVar]:
        if isinstance(self.body, Reduce):
            return list(self.body.axis)
        return []

    def output(self, index: int = 0) -> Tensor:
        if index != 0:
            raise IndexError("ComputeOp has a single output")
        return Tensor(self.shape, self.dtype, self)

    def input_tensors(self) -> List[Tensor]:
        # Memoised on the identity of the body: ``cache_read`` and
        # ``cache_write`` assign ``op.body``, which is what invalidates it.
        body, tensors = self._inputs
        if body is not self.body:
            body, tensors = self.body, []
            stack = [body]
            while stack:
                expr = stack.pop()
                if isinstance(expr, TensorRead):
                    tensor = expr.tensor
                    if isinstance(tensor, Tensor) and tensor not in tensors:
                        tensors.append(tensor)
                stack.extend(reversed(expr_children(expr)))
            self._inputs = (body, tensors)
        return list(tensors)


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

_name_counter: Dict[str, int] = {}


def _unique_name(prefix: str) -> str:
    count = _name_counter.get(prefix, 0)
    _name_counter[prefix] = count + 1
    return prefix if count == 0 else f"{prefix}_{count}"


def var(name: str = "v", dtype: str = "int32") -> Var:
    """Create a free symbolic variable."""
    return Var(name, dtype)


def placeholder(shape: Sequence[ExprLike], dtype: str = "float32",
                name: str = "placeholder") -> Tensor:
    """Declare an input tensor."""
    op = PlaceholderOp(_unique_name(name), shape, dtype)
    return op.output(0)


def reduce_axis(dom: Union[Range, Tuple[ExprLike, ExprLike]],
                name: str = "rv") -> IterVar:
    """Create a reduction iteration variable over ``dom``.

    ``dom`` may be a :class:`Range` or a ``(min, extent_end)`` tuple matching
    the paper's ``t.reduce_axis((0, h))`` API (interpreted as ``[min, end)``).
    """
    if isinstance(dom, tuple):
        low, high = dom
        dom = Range(low, simplify(as_expr(high) - as_expr(low)))
    return IterVar(dom, name, IterVarType.REDUCE)


def thread_axis(extent_or_tag: Union[str, Tuple[ExprLike, ExprLike]] = "",
                tag: str = "") -> IterVar:
    """Create a thread index iteration variable (e.g. ``threadIdx.x``)."""
    if isinstance(extent_or_tag, str):
        tag = extent_or_tag
        dom = None
    else:
        low, high = extent_or_tag
        dom = Range(low, simplify(as_expr(high) - as_expr(low)))
    if not tag:
        raise ValueError("thread_axis requires a thread tag such as 'threadIdx.x'")
    iter_type = (IterVarType.VIRTUAL_THREAD if tag.startswith("vthread")
                 else IterVarType.THREAD_INDEX)
    return IterVar(dom, tag, iter_type, thread_tag=tag)


def compute(shape: Sequence[ExprLike], fcompute: Callable[..., ExprLike],
            name: str = "compute", dtype: Optional[str] = None) -> Tensor:
    """Construct a new tensor by computing each element with ``fcompute``."""
    shape = tuple(as_expr(s) for s in shape)
    axis = [IterVar(Range.from_extent(dim), f"i{idx}") for idx, dim in enumerate(shape)]
    body = as_expr(fcompute(*[iv.var for iv in axis]))
    if dtype is None:
        dtype = body.dtype if body.dtype not in ("bool", "handle") else "float32"
    op = ComputeOp(_unique_name(name), axis, body, shape, dtype)
    return op.output(0)


def sum(expr: ExprLike, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Sum reduction over one or more reduction axes."""
    axes = axis if isinstance(axis, (list, tuple)) else [axis]
    return Reduce("sum", as_expr(expr), list(axes))


def max(expr: ExprLike, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:  # noqa: A001
    """Max reduction over one or more reduction axes."""
    axes = axis if isinstance(axis, (list, tuple)) else [axis]
    return Reduce("max", as_expr(expr), list(axes))
