"""Unit tests for the scalar expression IR."""

import pytest

from repro import te
from repro.te.expr import (
    Add,
    FloatImm,
    IntImm,
    Mul,
    Select,
    Sub,
    Var,
    collect_vars,
    expr_bounds,
    simplify,
    structural_equal,
    substitute,
)
from repro.tir.interpreter import evaluate_expr


def test_const_types():
    assert isinstance(te.const(3), IntImm)
    assert isinstance(te.const(3.5), FloatImm)
    assert te.const(3).value == 3
    assert te.const(3.5).value == 3.5


def test_operator_overloading_builds_tree():
    x = Var("x")
    expr = x * 2 + 1
    assert isinstance(expr, Add)
    assert isinstance(expr.a, Mul)


def test_as_expr_rejects_unknown():
    with pytest.raises(TypeError):
        te.as_expr(object())


def test_bool_conversion_raises():
    x = Var("x")
    with pytest.raises(TypeError):
        bool(x < 3)


def test_simplify_constant_folding():
    expr = simplify(te.const(2) * 3 + 4)
    assert isinstance(expr, IntImm)
    assert expr.value == 10


def test_simplify_identities():
    x = Var("x")
    assert simplify(x + 0) is x
    assert simplify(x * 1) is x
    assert simplify(x - 0) is x
    zero = simplify(x * 0)
    assert isinstance(zero, IntImm) and zero.value == 0


def test_simplify_self_subtraction_cancels():
    x = Var("x")
    expr = simplify((x * 4 + 3) - (x * 4 + 3))
    assert isinstance(expr, IntImm)
    assert expr.value == 0


def test_simplify_add_offset_cancellation():
    x = Var("x")
    expr = simplify(Sub(Add(x * 8, Var("i")), x * 8))
    assert isinstance(expr, Var)


def test_structural_equal():
    x = Var("x")
    assert structural_equal(x * 2 + 1, x * 2 + 1)
    assert not structural_equal(x * 2 + 1, x * 2 + 2)
    assert not structural_equal(x * 2, Var("x") * 2)  # different variables


def test_substitute():
    x, y = Var("x"), Var("y")
    expr = substitute(x * 2 + y, {x: te.const(3)})
    value = evaluate_expr(expr, {y: 4})
    assert value == 10


def test_collect_vars():
    x, y = Var("x"), Var("y")
    found = collect_vars(x * 2 + y * x)
    assert set(v.name for v in found) == {"x", "y"}


def test_collect_vars_includes_reduce_axis():
    k = te.reduce_axis((0, 4), "k")
    expr = te.sum(k.var * 1, axis=k)
    names = {v.name for v in collect_vars(expr)}
    assert "k" in names


def test_select_evaluation():
    x = Var("x")
    expr = Select(x > 2, te.const(1.0), te.const(0.0))
    assert evaluate_expr(expr, {x: 5}) == 1.0
    assert evaluate_expr(expr, {x: 1}) == 0.0


def test_math_intrinsic_evaluation():
    x = Var("x", "float32")
    expr = te.Call("exp", [x])
    assert abs(evaluate_expr(expr, {x: 0.0}) - 1.0) < 1e-9


def test_expr_bounds_affine():
    x, y = Var("x"), Var("y")
    assert expr_bounds(x * 8 + y, {x: (0, 3), y: (0, 7)}) == (0, 31)


def test_expr_bounds_subtraction_and_mul():
    x = Var("x")
    assert expr_bounds(10 - x * 2, {x: (0, 3)}) == (4, 10)


def test_expr_bounds_floordiv_mod():
    x = Var("x")
    assert expr_bounds(x // 4, {x: (0, 15)}) == (0, 3)
    assert expr_bounds(x % 4, {x: (0, 15)}) == (0, 3)


def test_expr_bounds_missing_var_raises():
    x = Var("x")
    with pytest.raises(KeyError, match="x"):
        expr_bounds(x + 1, {})


def test_range_from_extent():
    rng = te.Range.from_extent(16)
    assert simplify(rng.extent).value == 16
    assert simplify(rng.min).value == 0


def test_evaluate_floor_division_returns_int():
    x = Var("x")
    assert evaluate_expr(x // 4, {x: 13}) == 3
    assert evaluate_expr(x % 4, {x: 13}) == 1
