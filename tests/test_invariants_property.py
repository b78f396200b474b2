"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import te, tir
from repro.autotvm import rank_correlation
from repro.autotvm.space import ConfigSpace, _factorizations
from repro.graph.ir import Graph, Node
from repro.graph.passes import plan_memory
from repro.topi import nn as topi_nn


# ---------------------------------------------------------------------------
# Configuration space
# ---------------------------------------------------------------------------

@given(extent=st.integers(min_value=1, max_value=512),
       parts=st.integers(min_value=2, max_value=4))
def test_factorizations_multiply_back_to_extent(extent, parts):
    for sizes in _factorizations(extent, parts):
        assert len(sizes) == parts
        product = 1
        for value in sizes:
            assert value >= 1
            product *= value
        assert product == extent


@given(extent_a=st.integers(min_value=2, max_value=64),
       extent_b=st.integers(min_value=2, max_value=64),
       index_fraction=st.floats(min_value=0.0, max_value=0.999))
def test_config_space_index_round_trip(extent_a, extent_b, index_fraction):
    space = ConfigSpace()
    space.define_split("tile_a", extent_a, num_outputs=2)
    space.define_split("tile_b", extent_b, num_outputs=2)
    space.define_knob("flag", [0, 1])
    index = int(index_fraction * len(space))
    knobs = space.knob_indices(index)
    rebuilt = space.index_of({name: knobs[i]
                              for i, name in enumerate(space.knob_names)})
    assert rebuilt == index
    config = space.get(index)
    assert config.index == index


@given(count=st.integers(min_value=1, max_value=30),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_config_space_sampling_is_unique_and_in_range(count, seed):
    import random

    space = ConfigSpace()
    space.define_split("tile", 64, num_outputs=2)
    space.define_knob("unroll", [0, 1])
    sample = space.sample(count, rng=random.Random(seed))
    indices = [c.index for c in sample]
    assert len(indices) == len(set(indices))
    assert all(0 <= i < len(space) for i in indices)


# ---------------------------------------------------------------------------
# Rank correlation
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=40))
def test_rank_correlation_is_bounded(values):
    noise = np.linspace(0.0, 1.0, len(values))
    result = rank_correlation(values, list(noise))
    assert -1.0 - 1e-9 <= result <= 1.0 + 1e-9


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=3, max_size=30, unique=True))
def test_rank_correlation_of_monotone_transform_is_one(values):
    transformed = [3.0 * v + 7.0 for v in values]
    assert rank_correlation([float(v) for v in values],
                            transformed) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Static memory planning
# ---------------------------------------------------------------------------

def _chain_graph(sizes):
    data = Node("null", "data")
    data.shape = (1, int(sizes[0]))
    node = data
    for i, size in enumerate(sizes[1:]):
        weight = Node("null", f"w{i}")
        weight.shape = (int(size), int(node.shape[1]))
        node_new = Node("dense", f"dense{i}", [node, weight], {})
        node_new.shape = (1, int(size))
        node = node_new
    return Graph([node])


@given(st.lists(st.integers(min_value=1, max_value=256), min_size=2, max_size=10))
@settings(max_examples=40)
def test_memory_plan_never_exceeds_naive(sizes):
    graph = _chain_graph(sizes)
    plan = plan_memory(graph)
    assert plan.planned_bytes <= plan.naive_bytes
    assert plan.reuse_ratio >= 1.0


@given(st.lists(st.integers(min_value=1, max_value=128), min_size=3, max_size=8))
@settings(max_examples=40)
def test_memory_plan_tokens_fit_their_tensors(sizes):
    graph = _chain_graph(sizes)
    plan = plan_memory(graph)
    for node in graph.op_nodes:
        token = plan.storage_of[node.name]
        needed = int(np.prod(node.shape)) * 4
        assert plan.token_bytes[token] >= needed


def test_memory_plan_respects_liveness():
    """Two simultaneously-live tensors never share a storage token."""
    data = Node("null", "data")
    data.shape = (1, 64)
    left = Node("relu", "left", [data], {})
    left.shape = data.shape
    right = Node("tanh", "right", [data], {})
    right.shape = data.shape
    out = Node("add", "out", [left, right], {})
    out.shape = data.shape
    plan = plan_memory(Graph([out]))
    assert plan.storage_of["left"] != plan.storage_of["right"]


# ---------------------------------------------------------------------------
# Feature extraction: register-reuse counting invariant
# ---------------------------------------------------------------------------

@given(tile_y=st.sampled_from([2, 4, 8]), tile_x=st.sampled_from([2, 4, 8]),
       unroll=st.booleans())
@settings(max_examples=20, deadline=None)
def test_memory_access_counts_never_exceed_trip_counts(tile_y, tile_x, unroll):
    """Register-reuse-aware load counting can only reduce traffic, and the
    arithmetic (which really executes once per iteration) stays at the full
    trip count."""
    size = 32
    A = te.placeholder((size, size), name="A")
    B = te.placeholder((size, size), name="B")
    C = topi_nn.matmul(A, B)
    s = te.create_schedule(C.op)
    y, x = s[C].op.axis
    k = s[C].op.reduce_axis[0]
    yo, yi = s[C].split(y, factor=tile_y)
    xo, xi = s[C].split(x, factor=tile_x)
    s[C].reorder(yo, xo, k, yi, xi)
    if unroll:
        s[C].unroll(yi)
        s[C].unroll(xi)
    func = tir.lower(s, [A, B, C], name="mm")
    features = tir.extract_features(func)

    total_macs = size * size * size
    assert features.flops == pytest.approx(2 * total_macs)
    for access in features.buffer_access.values():
        assert access.load_count <= total_macs + size * size
        # At most one store per reduction update plus the initialisation pass.
        assert access.store_count <= total_macs + size * size


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_unrolling_never_increases_counted_traffic(factor):
    size = 16
    A = te.placeholder((size, size), name="A")
    B = te.placeholder((size, size), name="B")
    C = topi_nn.matmul(A, B)

    def traffic(unrolled):
        s = te.create_schedule(C.op)
        y, x = s[C].op.axis
        xo, xi = s[C].split(x, factor=min(2 ** factor, size))
        if unrolled:
            s[C].unroll(xi)
        func = tir.lower(s, [A, B, C], name="mm")
        return sum(a.total_bytes
                   for a in tir.extract_features(func).buffer_access.values())

    assert traffic(True) <= traffic(False)


# ---------------------------------------------------------------------------
# Interval arithmetic (te.expr) and the verifier's refinement vs ground truth:
# every index is enumerated over its (small) variable grid with the TIR
# interpreter, which shares no code with either.
# ---------------------------------------------------------------------------

_BOUND_VARS = [te.Var(name) for name in ("i", "j", "k")]

# by index: sampled_from would compare the (symbolic) Vars
_bound_var = st.integers(min_value=0, max_value=2).map(_BOUND_VARS.__getitem__)
_grid_ranges = st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                                  st.integers(min_value=0, max_value=3)),
                        min_size=3, max_size=3)


def _enumerate(expr, ranges, guard=None):
    """``(per-var intervals, every value expr takes without faulting where
    guard holds)``."""
    import itertools

    from repro.tir.interpreter import evaluate_expr

    intervals = {var: (low, low + span)
                 for var, (low, span) in zip(_BOUND_VARS, ranges)}
    values = []
    for point in itertools.product(*(range(low, high + 1)
                                     for low, high in intervals.values())):
        env = dict(zip(_BOUND_VARS, point))
        try:
            if guard is None or evaluate_expr(guard, env):
                values.append(evaluate_expr(expr, env))
        except ZeroDivisionError:
            pass
    return intervals, values


def _bounds_exprs():
    """Random affine/min/max/floordiv/mod/select/cast index expressions:
    divisors are positive constants (what split/fuse lowering emits),
    negative constants, bare variables and arbitrary sub-expressions.
    Comparisons appear as select conditions only — a node the analysis does
    not model takes the union of its operands, a heuristic and not a bound."""
    from repro.te import expr as E

    leaves = st.one_of(
        _bound_var, st.integers(min_value=-8, max_value=8).map(E.IntImm))
    binary = st.sampled_from([E.Add, E.Sub, E.Mul, E.FloorDiv, E.Mod, E.Min,
                              E.Max])
    divisors = st.one_of(
        st.integers(min_value=1, max_value=9).map(E.IntImm),
        st.integers(min_value=-9, max_value=-1).map(E.IntImm), _bound_var)

    def extend(children):
        return st.one_of(
            st.builds(lambda op, a, b: op(a, b), binary, children, children),
            st.builds(lambda op, a, b: op(a, b),
                      st.sampled_from([E.FloorDiv, E.Mod]), children, divisors),
            st.builds(lambda c, t, f: E.Select(E.LT(c, t), t, f),
                      children, children, children),
            st.builds(lambda a: E.Cast(a, "int64"), children))

    return st.recursive(leaves, extend, max_leaves=12)


@st.composite
def _single_use_affine(draw, variables=None):
    """``+`` / ``-`` / ``* const`` over distinct variables, each used once,
    plus a constant: interval arithmetic must be *exact* on these."""
    from repro.te.expr import IntImm

    if variables is None:
        variables = draw(st.lists(_bound_var, min_size=1, max_size=3,
                                  unique_by=id))
    expr = IntImm(draw(st.integers(min_value=-8, max_value=8)))
    for var in variables:
        term = var * draw(st.integers(min_value=-4, max_value=4))
        expr = expr + term if draw(st.booleans()) else expr - term
    return expr


@given(expr=_bounds_exprs(), ranges=_grid_ranges)
@settings(max_examples=250, deadline=None)
def test_expr_bounds_contain_every_enumerated_value(expr, ranges):
    from repro.te.expr import collect_vars, compile_bounds, eval_bounds

    intervals, values = _enumerate(expr, ranges)
    free, program = compile_bounds(expr)
    assert [id(v) for v in free] == [id(v) for v in collect_vars(expr)]
    low, high = eval_bounds(program, intervals)
    for value in values:
        assert low <= value <= high, (expr, intervals, value, (low, high))


@given(expr=_single_use_affine(), ranges=_grid_ranges,
       divisor=st.integers(min_value=1, max_value=9))
@settings(max_examples=150, deadline=None)
def test_expr_bounds_are_exact_on_single_use_affine_indices(expr, ranges,
                                                            divisor):
    # exactness keeps soundness honest: (-inf, inf) is sound too.  Floor
    # division by a positive constant is monotone, so it stays exact.
    from repro.te.expr import expr_bounds

    for index in (expr, expr // divisor):
        intervals, values = _enumerate(index, ranges)
        assert expr_bounds(index, intervals) == (min(values), max(values))


@st.composite
def _lowered_index_shapes(draw):
    """``(index, guard or None)`` over the shapes lowering emits around
    fused axes and compacted buffers: ``f // W``, ``f % W + i``, ``idx -
    offset``, ``(base + inner) // K - base // K`` and its ``%`` twin, a
    strided ``(a * c) % K``, the same negatively scaled (plus a variable,
    and plus a constant under a ``%``), and a guarded quotient less the fill offset (an imperfect
    split's guard keeps ``(base + inner) // K + k`` whole)."""
    i, j, k = _BOUND_VARS
    base = draw(_single_use_affine(variables=[i]))
    inner = draw(_single_use_affine(variables=[j, k]))
    width = draw(st.integers(min_value=1, max_value=9))
    stride = draw(st.integers(min_value=1, max_value=6))
    limit = draw(st.integers(min_value=-4, max_value=8))
    scale = draw(st.integers(min_value=1, max_value=4))
    lift = draw(st.integers(min_value=0, max_value=9))
    guarded = (base + inner) // width + k
    negated = ((j * stride) % width) * -scale
    return draw(st.sampled_from([
        ((base + inner) // width, None),
        ((base + inner) % width + i, None),
        ((base + inner) - base, None),
        ((base + inner) // width - base // width, None),
        ((base + inner) % width - base % width, None),
        ((inner * stride) % width + i, None),
        (negated + i, None),
        ((negated + lift) % width, None),
        ((guarded * stride + j) - (base // width) * stride, guarded < limit),
    ]))


@given(shape=_lowered_index_shapes(), ranges=_grid_ranges)
@settings(max_examples=200, deadline=None)
def test_a_tile_holds_every_value_of_each_sub_index(shape, ranges):
    # The region model both the lowering and the verifier read: with every
    # variable spanning its range, each value of each sub-index lies in
    # [start, start + last] and is congruent to start modulo the step.
    from repro.te.expr import expr_children, simplify, tile_of
    from repro.tir.interpreter import evaluate_expr

    pending = [shape[0]]
    while pending:
        expr = pending.pop()
        pending.extend(expr_children(expr))
        intervals, values = _enumerate(expr, ranges)
        tile = tile_of(expr, intervals)
        if tile is None:
            continue
        start = evaluate_expr(simplify(tile.start), {})
        for value in values:
            assert start <= value <= start + tile.last, (expr, intervals)
            assert (value - start) % tile.step == 0 if tile.step \
                else value == start, (expr, intervals)


@given(shape=_lowered_index_shapes(), ranges=_grid_ranges)
@settings(max_examples=200, deadline=None)
def test_verifier_bounds_sit_between_ground_truth_and_plain_bounds(shape, ranges):
    # The bound an access check takes: the guard-refined linear interval
    # met with the index's tile.  Every value where the guard holds lies
    # inside it, and a meet of refinements is never wider than the plain
    # interval.
    from repro.analysis.tir_verify import _TIRVerifier, _meet
    from repro.te.expr import expr_bounds

    expr, guard = shape
    intervals, values = _enumerate(expr, ranges, guard)
    if not values:
        return                  # the guard holds nowhere on this grid
    verifier = _TIRVerifier(tir.LoweredFunc("oracle", [], tir.SeqStmt([])))
    constraints = ({} if guard is None
                   else verifier._refine(guard, intervals, {}))
    low, high = _meet(verifier.bounds(expr, intervals, constraints),
                      verifier.tile_bounds(expr, intervals, constraints))
    assert low <= min(values) and max(values) <= high, (expr, intervals)
    plain_low, plain_high = expr_bounds(expr, intervals)
    assert plain_low <= low and high <= plain_high, (expr, intervals)
