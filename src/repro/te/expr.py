"""Scalar expression IR for the tensor expression language.

This module implements the index-formula expression language described in
Section 4.1 of the TVM paper.  Expressions are small immutable trees built
from variables, constants, arithmetic operators, comparisons, selections,
math intrinsic calls, casts, reductions, and tensor element reads.

The expression nodes overload the Python arithmetic operators so that
operator bodies can be written naturally inside ``te.compute`` lambdas::

    C = te.compute((m, n), lambda y, x: te.sum(A[k, y] * B[k, x], axis=k))
"""

from __future__ import annotations

import math
import operator
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Expr",
    "Var",
    "IntImm",
    "FloatImm",
    "StringImm",
    "BinaryOp",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "CmpOp",
    "EQ",
    "NE",
    "LT",
    "LE",
    "GT",
    "GE",
    "And",
    "Or",
    "Not",
    "Select",
    "Call",
    "Cast",
    "Reduce",
    "TensorRead",
    "Range",
    "const",
    "as_expr",
    "ExprMutator",
    "simplify",
    "substitute",
    "collect_vars",
    "BOUNDS_OF",
    "VALUE_OF",
    "scale_bounds",
    "compile_bounds",
    "eval_bounds",
    "expr_bounds",
]

ExprLike = Union["Expr", int, float, bool]


class Expr:
    """Base class for all scalar expressions."""

    dtype: str = "float32"

    # -- operator overloading -------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Div(as_expr(other), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(self, as_expr(other))

    def __rfloordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(as_expr(other), self)

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod(self, as_expr(other))

    def __rmod__(self, other: ExprLike) -> "Expr":
        return Mod(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Sub(const(0, self.dtype), self)

    # Comparison operators intentionally return expression nodes; equality of
    # nodes as Python objects is ``is`` (or ``structural_equal``).
    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        return EQ(self, as_expr(other))

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        return NE(self, as_expr(other))

    def __lt__(self, other: ExprLike) -> "Expr":
        return LT(self, as_expr(other))

    def __le__(self, other: ExprLike) -> "Expr":
        return LE(self, as_expr(other))

    def __gt__(self, other: ExprLike) -> "Expr":
        return GT(self, as_expr(other))

    def __ge__(self, other: ExprLike) -> "Expr":
        return GE(self, as_expr(other))

    def __hash__(self) -> int:
        return id(self)

    def __bool__(self) -> bool:
        raise TypeError(
            "Cannot convert a symbolic expression to bool; "
            "use explicit comparison helpers instead."
        )


class Var(Expr):
    """A named scalar variable (loop index or symbolic dimension)."""

    _counter = 0

    def __init__(self, name: str = "v", dtype: str = "int32"):
        if not name:
            Var._counter += 1
            name = f"v{Var._counter}"
        self.name = name
        self.dtype = dtype

    def __repr__(self) -> str:
        return self.name


class IntImm(Expr):
    """Integer immediate."""

    def __init__(self, value: int, dtype: str = "int32"):
        self.value = int(value)
        self.dtype = dtype

    def __repr__(self) -> str:
        return str(self.value)


class FloatImm(Expr):
    """Floating point immediate."""

    def __init__(self, value: float, dtype: str = "float32"):
        self.value = float(value)
        self.dtype = dtype

    def __repr__(self) -> str:
        return repr(self.value)


class StringImm(Expr):
    """String immediate, used for pragma values and intrinsic names."""

    def __init__(self, value: str):
        self.value = value
        self.dtype = "handle"

    def __repr__(self) -> str:
        return repr(self.value)


class BinaryOp(Expr):
    """Base class of binary arithmetic operators."""

    op_name = "?"

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self.dtype = a.dtype if a.dtype != "int32" else b.dtype

    def __repr__(self) -> str:
        return f"({self.a} {self.op_name} {self.b})"


class Add(BinaryOp):
    op_name = "+"


class Sub(BinaryOp):
    op_name = "-"


class Mul(BinaryOp):
    op_name = "*"


class Div(BinaryOp):
    op_name = "/"


class FloorDiv(BinaryOp):
    op_name = "//"


class Mod(BinaryOp):
    op_name = "%"


class Min(BinaryOp):
    op_name = "min"

    def __repr__(self) -> str:
        return f"min({self.a}, {self.b})"


class Max(BinaryOp):
    op_name = "max"

    def __repr__(self) -> str:
        return f"max({self.a}, {self.b})"


class CmpOp(BinaryOp):
    """Base class of comparison operators; result dtype is boolean."""

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b)
        self.dtype = "bool"


class EQ(CmpOp):
    op_name = "=="


class NE(CmpOp):
    op_name = "!="


class LT(CmpOp):
    op_name = "<"


class LE(CmpOp):
    op_name = "<="


class GT(CmpOp):
    op_name = ">"


class GE(CmpOp):
    op_name = ">="


class And(CmpOp):
    op_name = "and"


class Or(CmpOp):
    op_name = "or"


class Not(Expr):
    def __init__(self, a: Expr):
        self.a = a
        self.dtype = "bool"

    def __repr__(self) -> str:
        return f"(not {self.a})"


class Select(Expr):
    """Ternary select: ``condition ? true_value : false_value``."""

    def __init__(self, condition: Expr, true_value: Expr, false_value: Expr):
        self.condition = condition
        self.true_value = true_value
        self.false_value = false_value
        self.dtype = true_value.dtype

    def __repr__(self) -> str:
        return f"select({self.condition}, {self.true_value}, {self.false_value})"


#: Math intrinsics the expression language understands, mapped to evaluators.
MATH_INTRINSICS: Dict[str, Callable[..., float]] = {
    "exp": math.exp,
    "log": lambda x: math.log(x) if x > 0 else float("-inf"),
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "tanh": math.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "abs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "popcount": lambda x: bin(int(x) & 0xFFFFFFFF).count("1"),
}


class Call(Expr):
    """Call to a math intrinsic (:data:`MATH_INTRINSICS`)."""

    def __init__(self, name: str, args: Sequence[Expr], dtype: str = "float32"):
        self.name = name
        self.args = [as_expr(a) for a in args]
        self.dtype = dtype

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({args})"


class Cast(Expr):
    """Type conversion."""

    def __init__(self, value: Expr, dtype: str):
        self.value = value
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"{self.dtype}({self.value})"


class Reduce(Expr):
    """Commutative reduction over one or more reduction axes.

    ``combiner`` is ``"sum"`` or ``"max"``.  ``axis`` holds
    the :class:`~repro.te.tensor.IterVar` objects being reduced.
    """

    IDENTITY = {"sum": 0.0, "max": float("-inf")}

    def __init__(self, combiner: str, source: Expr, axis: Sequence[object],
                 init: Optional[Expr] = None):
        if combiner not in self.IDENTITY:
            raise ValueError(f"Unsupported reduction combiner: {combiner}")
        self.combiner = combiner
        self.source = source
        self.axis = list(axis)
        self.init = init
        self.dtype = source.dtype

    def combine(self, acc: float, value: float) -> float:
        if self.combiner == "sum":
            return acc + value
        return max(acc, value)

    @property
    def identity(self) -> float:
        return self.IDENTITY[self.combiner]

    def __repr__(self) -> str:
        axes = ", ".join(str(iv.var) for iv in self.axis)
        return f"{self.combiner}({self.source}, axis=[{axes}])"


class TensorRead(Expr):
    """Read of a tensor element at symbolic indices (producer load)."""

    def __init__(self, tensor: object, indices: Sequence[ExprLike]):
        self.tensor = tensor
        self.indices = [as_expr(i) for i in indices]
        self.dtype = getattr(tensor, "dtype", "float32")

    def __repr__(self) -> str:
        idx = ", ".join(repr(i) for i in self.indices)
        return f"{getattr(self.tensor, 'name', 'tensor')}[{idx}]"


class Range:
    """A half-open integer range ``[min, min + extent)``."""

    def __init__(self, min_value: ExprLike, extent: ExprLike):
        self.min = as_expr(min_value)
        self.extent = as_expr(extent)

    @staticmethod
    def from_extent(extent: ExprLike) -> "Range":
        return Range(0, extent)

    def __repr__(self) -> str:
        return f"range(min={self.min}, extent={self.extent})"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

#: interned small int32 immediates — loop bounds and indices allocate the
#: same handful of constants millions of times on the lowering fast path.
#: IntImm nodes are immutable, so sharing is observationally equivalent.
_SMALL_INTS: Dict[int, "IntImm"] = {}


def const(value: Union[int, float, bool], dtype: Optional[str] = None) -> Expr:
    """Create an immediate expression from a Python number."""
    if isinstance(value, bool):
        return IntImm(int(value), dtype or "bool")
    if isinstance(value, int):
        if (dtype is None or dtype == "int32") and -64 <= value <= 1024:
            imm = _SMALL_INTS.get(value)
            if imm is None:
                imm = IntImm(value, "int32")
                _SMALL_INTS[value] = imm
            return imm
        return IntImm(value, dtype or "int32")
    return FloatImm(float(value), dtype or "float32")


def as_expr(value: object) -> Expr:
    """Coerce a Python value into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, bool)):
        return const(value)
    if isinstance(value, str):
        return StringImm(value)
    # IterVar quacks like a variable via its ``var`` attribute.
    var = getattr(value, "var", None)
    if isinstance(var, Var):
        return var
    raise TypeError(f"Cannot convert {value!r} to an expression")


# ---------------------------------------------------------------------------
# Visitors
# ---------------------------------------------------------------------------

def _dispatch(visitor: object, node: object):
    """Resolve ``visit_<nodetype>`` once per (visitor class, node class).

    The per-node ``getattr(self, f"visit_{...}")`` string build dominated
    visitor dispatch cost on the hot lowering/featurisation path; the result
    is memoized in a dict stored on the visitor class itself (so short-lived
    local visitor classes take their cache with them when collected).
    """
    cls = type(visitor)
    cache = cls.__dict__.get("_dispatch_cache")
    if cache is None:
        cache = {}
        cls._dispatch_cache = cache
    node_cls = type(node)
    try:
        return cache[node_cls]
    except KeyError:
        method = getattr(cls, f"visit_{node_cls.__name__.lower()}", None)
        cache[node_cls] = method
        return method


class ExprMutator:
    """Generic rebuild-on-the-way-up mutation of an expression tree."""

    def visit(self, expr: Expr) -> Expr:
        method = _dispatch(self, expr)
        if method is not None:
            return method(self, expr)
        return self.generic_visit(expr)

    # Leaf fast paths: immediates and variables have no children, so the
    # default mutation is the identity.  Subclasses that rewrite leaves
    # (e.g. the substituter's ``visit_var``) override these as usual.
    def visit_var(self, expr: Expr) -> Expr:
        return expr

    def visit_intimm(self, expr: Expr) -> Expr:
        return expr

    def visit_floatimm(self, expr: Expr) -> Expr:
        return expr

    def visit_stringimm(self, expr: Expr) -> Expr:
        return expr

    def generic_visit(self, expr: Expr) -> Expr:
        if isinstance(expr, BinaryOp):
            a = self.visit(expr.a)
            b = self.visit(expr.b)
            if a is expr.a and b is expr.b:
                return expr
            return type(expr)(a, b)
        if isinstance(expr, Not):
            a = self.visit(expr.a)
            return expr if a is expr.a else Not(a)
        if isinstance(expr, Select):
            c = self.visit(expr.condition)
            t = self.visit(expr.true_value)
            f = self.visit(expr.false_value)
            if c is expr.condition and t is expr.true_value and f is expr.false_value:
                return expr
            return Select(c, t, f)
        if isinstance(expr, Call):
            args = [self.visit(a) for a in expr.args]
            if all(n is o for n, o in zip(args, expr.args)):
                return expr
            return Call(expr.name, args, expr.dtype)
        if isinstance(expr, Cast):
            v = self.visit(expr.value)
            return expr if v is expr.value else Cast(v, expr.dtype)
        if isinstance(expr, Reduce):
            src = self.visit(expr.source)
            if src is expr.source:
                return expr
            return Reduce(expr.combiner, src, expr.axis, expr.init)
        if isinstance(expr, TensorRead):
            indices = [self.visit(i) for i in expr.indices]
            if all(n is o for n, o in zip(indices, expr.indices)):
                return expr
            return TensorRead(expr.tensor, indices)
        return expr


def expr_children(expr: Expr) -> List[Expr]:
    """Return the immediate sub-expressions of ``expr``."""
    if isinstance(expr, BinaryOp):
        return [expr.a, expr.b]
    if isinstance(expr, Not):
        return [expr.a]
    if isinstance(expr, Select):
        return [expr.condition, expr.true_value, expr.false_value]
    if isinstance(expr, Call):
        return list(expr.args)
    if isinstance(expr, Cast):
        return [expr.value]
    if isinstance(expr, Reduce):
        return [expr.source]
    if isinstance(expr, TensorRead):
        return list(expr.indices)
    return []


def _walk_vars(expr: Expr, seen: Dict[int, "Var"]) -> None:
    """Add the vars of ``expr`` to ``seen`` (id -> var: identity dedup that
    keeps first-seen order)."""
    if isinstance(expr, Var):
        seen.setdefault(id(expr), expr)
        return
    for child in expr_children(expr):
        _walk_vars(child, seen)
    if isinstance(expr, Reduce):
        for iv in expr.axis:
            seen.setdefault(id(iv.var), iv.var)


def collect_vars(expr: Expr) -> List[Var]:
    """Collect all distinct :class:`Var` nodes appearing in ``expr``."""
    seen: Dict[int, Var] = {}
    _walk_vars(expr, seen)
    return list(seen.values())


class _Substituter(ExprMutator):
    def __init__(self, mapping: Dict[Var, Expr]):
        self.mapping = mapping

    def visit_var(self, expr: Var) -> Expr:
        return self.mapping.get(expr, expr)


def substitute(expr: Expr, mapping: Dict[Var, ExprLike]) -> Expr:
    """Substitute variables in ``expr`` using ``mapping``."""
    for value in mapping.values():
        if not isinstance(value, Expr):
            cleaned: Dict[Var, Expr] = {k: as_expr(v) for k, v in mapping.items()}
            break
    else:
        cleaned = mapping
    return _Substituter(cleaned).visit(expr)


# ---------------------------------------------------------------------------
# Simplification (constant folding of arithmetic on immediates)
# ---------------------------------------------------------------------------

def _imm_value(expr: Expr) -> Optional[Union[int, float]]:
    if isinstance(expr, (IntImm, FloatImm)):
        return expr.value
    return None


class _Simplifier(ExprMutator):
    def __init__(self) -> None:
        #: results by node identity.  Expression nodes are immutable and
        #: substitution splices shared subtrees into many parents, so one
        #: lowering simplifies the same object again and again — and hands
        #: the feature extractor, which compiles an index's bounds once per
        #: node, the same result object each time.  An entry pins its node,
        #: so the id stays that node's for as long as the memo lives.
        self.memo: Dict[int, Tuple[Expr, Expr]] = {}

    def visit(self, expr: Expr) -> Expr:
        memo = self.memo
        key = id(expr)
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        # Specialized hot path: loop-index expressions are almost entirely
        # binary arithmetic over variables and immediates, so handle those
        # without the generic dispatch/rebuild machinery.
        if isinstance(expr, BinaryOp):
            a = self.visit(expr.a)
            b = self.visit(expr.b)
            if a is not expr.a or b is not expr.b:
                result = self._fold(type(expr)(a, b))
            else:
                result = self._fold(expr)
        elif isinstance(expr, (Var, IntImm, FloatImm, StringImm)):
            return expr
        else:
            result = super().visit(expr)
        memo[key] = (expr, result)
        return result

    def generic_visit(self, expr: Expr) -> Expr:
        expr = super().generic_visit(expr)
        if isinstance(expr, BinaryOp):
            return self._fold(expr)
        return expr

    def _fold(self, expr: BinaryOp) -> Expr:
        a, b = _imm_value(expr.a), _imm_value(expr.b)
        if a is None and b is None:
            return expr        # every rule below needs an immediate operand
        if a is not None and b is not None:
            try:
                value = VALUE_OF[type(expr)](a, b)
            except ArithmeticError:
                return expr    # e.g. a zero divisor: what it means is a fault
            if isinstance(value, float):
                return FloatImm(value)
            return IntImm(value)
        # algebraic identities
        if isinstance(expr, Add):
            if a == 0:
                return expr.b
            if b == 0:
                return expr.a
        if isinstance(expr, Sub) and b == 0:
            return expr.a
        if isinstance(expr, Mul):
            if a == 1:
                return expr.b
            if b == 1:
                return expr.a
            if a == 0 or b == 0:
                return IntImm(0) if expr.dtype.startswith("int") else FloatImm(0.0)
        if isinstance(expr, (Div, FloorDiv)) and b == 1:
            return expr.a
        return expr


def structural_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of two expressions (same shape and leaf values)."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a is b
    if isinstance(a, (IntImm, FloatImm, StringImm)):
        return a.value == b.value
    if isinstance(a, Call) and a.name != b.name:
        return False
    children_a, children_b = expr_children(a), expr_children(b)
    if len(children_a) != len(children_b):
        return False
    return all(structural_equal(x, y) for x, y in zip(children_a, children_b))


#: per thread: the simplifier of the ``simplify_scope`` it is inside, if any
_SCOPE = threading.local()


@contextmanager
def simplify_scope():
    """Let this thread's ``simplify`` calls inside the block share one memo.

    Node ids are fresh in every lowering, so a memo never hits across two of
    them: it lives for one and is dropped, with every node it pins, on the
    way out.  Outside a scope each ``simplify`` call has its own.
    """
    _SCOPE.simplifier = _Simplifier()
    try:
        yield
    finally:
        _SCOPE.simplifier = None


def simplify(expr: ExprLike) -> Expr:
    """Constant-fold and apply simple algebraic identities."""
    expr = as_expr(expr)
    if isinstance(expr, (Var, IntImm, FloatImm, StringImm)):
        return expr    # leaves are already in simplest form
    simplifier = getattr(_SCOPE, "simplifier", None) or _Simplifier()
    result = simplifier.visit(expr)
    # Cancel exact self-subtraction produced by buffer rebasing: (x + e) - e.
    if isinstance(result, Sub):
        if structural_equal(result.a, result.b):
            return IntImm(0)
        if isinstance(result.a, Add) and structural_equal(result.a.b, result.b):
            return result.a.a
        if isinstance(result.a, Add) and structural_equal(result.a.a, result.b):
            return result.a.b
    return result


# ---------------------------------------------------------------------------
# Interval arithmetic — the one definition lowering (buffer sizing), feature
# extraction (bytes touched per loop level) and the TIR verifier stand on.
# An interval is a plain closed ``(low, high)`` tuple.
# ---------------------------------------------------------------------------

def _bounds_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _bounds_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _bounds_mul(a, b):
    candidates = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(candidates), max(candidates))


def _magnitude(a):
    """``a / b`` never exceeds ``max|a|`` in magnitude for an integer
    ``|b| >= 1`` — the bound left when the divisor interval contains 0."""
    m = max(abs(a[0]), abs(a[1]))
    return (-m, m)


def _bounds_div(a, b):
    if b[0] <= 0 <= b[1]:
        return _magnitude(a)
    # sign-definite divisor: the quotient is monotone in each operand
    candidates = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return (min(candidates), max(candidates))


def _bounds_floordiv(a, b):
    if b[0] <= 0 <= b[1]:
        return _magnitude(a)
    floor = math.floor
    candidates = (floor(a[0] / b[0]), floor(a[0] / b[1]),
                  floor(a[1] / b[0]), floor(a[1] / b[1]))
    return (min(candidates), max(candidates))


def _bounds_mod(a, b):
    if b[0] == b[1] and b[0] > 0:
        divisor = b[0]
        # When the numerator stays within one quotient block, the result
        # is simply the shifted interval (important for the fuse-then-
        # split index patterns produced by schedules).
        if math.floor(a[0] / divisor) == math.floor(a[1] / divisor):
            return (a[0] % divisor, a[1] % divisor)
        return (0, divisor - 1)
    # floor-mod takes the divisor's sign and stays below it in magnitude
    return (min(b[0] + 1, 0), max(b[1] - 1, 0))


def _bounds_min(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]))


def _bounds_max(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


#: transfer function of every binary node the analysis bounds precisely
BOUNDS_OF: Dict[type, Callable] = {
    Add: _bounds_add, Sub: _bounds_sub, Mul: _bounds_mul, Div: _bounds_div,
    FloorDiv: _bounds_floordiv, Mod: _bounds_mod, Min: _bounds_min,
    Max: _bounds_max,
}


#: what every binary node computes on concrete values — the one meaning the
#: simplifier folds immediates with and the interpreter evaluates with
VALUE_OF: Dict[type, Callable] = {
    Add: operator.add, Sub: operator.sub, Mul: operator.mul,
    Div: operator.truediv, FloorDiv: operator.floordiv, Mod: operator.mod,
    Min: min, Max: max,
    EQ: operator.eq, NE: operator.ne, LT: operator.lt, LE: operator.le,
    GT: operator.gt, GE: operator.ge,
    And: lambda a, b: bool(a) and bool(b),
    Or: lambda a, b: bool(a) or bool(b),
}


def scale_bounds(interval, coeff):
    """Scale an interval by a constant (0 * inf == 0 here)."""
    if coeff == 0:
        return (0.0, 0.0)
    lo, hi = interval[0] * coeff, interval[1] * coeff
    return (lo, hi) if coeff > 0 else (hi, lo)


_B_VAR, _B_CONST, _B_BINOP, _B_UNION = range(4)


def _emit_bounds(node: Expr, program: List[Tuple[int, object]],
                 seen: Dict[int, Var]) -> None:
    """Append the postorder bounds program of ``node`` to ``program`` and
    its vars to ``seen``."""
    if isinstance(node, Var):
        seen.setdefault(id(node), node)
        program.append((_B_VAR, node))
        return
    if isinstance(node, (IntImm, FloatImm)):
        program.append((_B_CONST, (node.value, node.value)))
        return
    handler = BOUNDS_OF.get(type(node))
    if handler is not None:
        _emit_bounds(node.a, program, seen)
        _emit_bounds(node.b, program, seen)
        program.append((_B_BINOP, handler))
        return
    if isinstance(node, Cast):
        _emit_bounds(node.value, program, seen)
        return
    if isinstance(node, Select):
        # either arm may be taken; the condition only contributes vars
        _walk_vars(node.condition, seen)
        children = [node.true_value, node.false_value]
    else:
        children = expr_children(node)
        if not children:
            program.append((_B_CONST, (0, 0)))
            return
    for child in children:
        _emit_bounds(child, program, seen)
    if isinstance(node, Reduce):
        for iv in node.axis:
            seen.setdefault(id(iv.var), iv.var)
    program.append((_B_UNION, len(children)))


def compile_bounds(expr: Expr) -> Tuple[List[Var], List[Tuple[int, object]]]:
    """Compile ``expr`` into ``(free vars, postorder bounds program)``.

    The free variables are exactly ``collect_vars(expr)`` (select conditions
    and reduce axes included, though the program never evaluates them), so
    one traversal serves callers that need both.  Only the affine subset
    (plus min/max/floordiv/mod/select) is bounded precisely; any other node
    takes the union of its operands' intervals.
    """
    program: List[Tuple[int, object]] = []
    seen: Dict[int, Var] = {}
    _emit_bounds(expr, program, seen)
    return list(seen.values()), program


def eval_bounds(program: List[Tuple[int, object]],
                var_ranges: Dict[Var, Tuple]) -> Tuple:
    """Replay a compiled bounds program against per-variable intervals;
    a free variable without a range is a ``KeyError`` naming it."""
    stack: List[Tuple] = []
    push = stack.append
    for code, payload in program:
        if code == _B_VAR:
            push(var_ranges[payload])
        elif code == _B_CONST:
            push(payload)
        elif code == _B_BINOP:
            b = stack.pop()
            a = stack.pop()
            push(payload(a, b))
        else:  # _B_UNION
            parts = stack[-payload:]
            del stack[-payload:]
            low, high = parts[0]
            for part in parts[1:]:
                low = min(low, part[0])
                high = max(high, part[1])
            push((low, high))
    return stack[-1]


def expr_bounds(expr: Expr, var_ranges: Dict[Var, Tuple]) -> Tuple:
    """Conservative ``(low, high)`` interval of ``expr``, given the interval
    of each of its free variables."""
    return eval_bounds(compile_bounds(expr)[1], var_ranges)
