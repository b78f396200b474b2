"""TIR (loop-program) verifier — the static-analysis layer's low-level half.

:func:`verify_func` certifies a lowered :class:`~repro.tir.stmt.LoweredFunc`
on the interval arithmetic of :mod:`repro.te.expr` (``BOUNDS_OF`` — the
same transfer functions lowering sizes buffers with and feature extraction
measures touched bytes with), refined here by linearisation and guard
conditions, and met with the tile model lowering sizes compacted buffers
with (:func:`~repro.te.expr.tile_of`):

* **def-before-use** — every loop variable appearing in an index, extent or
  condition is bound by an enclosing loop, and every buffer accessed is a
  function argument or a recorded allocation;
* **static out-of-bounds detection** — per-dimension interval analysis of
  every load/store index, refined by the guard conditions the lowering
  emits for imperfect splits (``IfThenElse``) and by padding ``Select``
  conditions, so guarded accesses are *not* false positives.  Each index's
  interval is met with its tile: the variables of a subtracted term (a
  compacted buffer's rebase offset) stay symbolic so the tile's start
  cancels against it, every other variable spans its loop, and a ``%``
  keeps its numerator's residue class.  Accesses are checked per
  dimension, as the interpreter checks them: a fused index that steps past
  a row's end is out of bounds even where its flat offset is not.  A
  tensor intrinsic's operands are checked as whole tiles of the shapes its
  compute op declares, and a tile whose rank is not its buffer's is out of
  bounds;
* **parallel-hazard detection** — ``parallel``/``vectorize``-annotated
  loops must carry no cross-iteration dependence: a store whose indices do
  not depend on the loop variable is a write-write race (the classic
  parallelized-reduction bug), and a loop-invariant read of a buffer
  written in the same loop body whose region overlaps the written region
  is a read-after-write race.

Thread-bound and virtual-thread loops are exempt from the hazard check:
their cooperative semantics are synchronised by barriers, which this
IR-level analysis does not model.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..te.expr import (
    BOUNDS_OF,
    Add,
    And,
    Cast,
    EQ,
    Expr,
    FloatImm,
    GE,
    GT,
    IntImm,
    LE,
    LT,
    Mod,
    Select,
    Sub,
    Mul,
    Var,
    collect_vars,
    expr_children,
    simplify,
    tile_of,
)
from ..tir.stmt import (
    Allocate,
    AttrStmt,
    Buffer,
    BufferLoad,
    BufferStore,
    Evaluate,
    For,
    ForKind,
    IfThenElse,
    IntrinsicStmt,
    LoweredFunc,
    SeqStmt,
    Stmt,
)
from .errors import OutOfBoundsError, ParallelHazardError, UseBeforeDefError

__all__ = ["verify_func"]

#: interval for values the analysis cannot bound (e.g. loaded data)
_UNBOUNDED = (-math.inf, math.inf)

#: loop kinds whose iterations run concurrently without synchronisation
_HAZARD_KINDS = (ForKind.PARALLEL, ForKind.VECTORIZED)

Interval = Tuple[float, float]


def _meet(interval: Interval, other: Optional[Interval]) -> Interval:
    """``interval`` narrowed by ``other``; both bound every value the
    expression takes, so an empty meet only comes of a contradictory guard,
    and then ``interval`` stands."""
    if other is None:
        return interval
    low, high = max(interval[0], other[0]), min(interval[1], other[1])
    return interval if low > high else (low, high)


class _Access:
    """One buffer access collected under a concurrent loop."""

    __slots__ = ("buffer", "indices", "env", "guard_vars")

    def __init__(self, buffer: Buffer, indices: Sequence[Expr],
                 env: Dict[Var, Interval], guard_vars: Set[Var]):
        self.buffer = buffer
        self.indices = list(indices)
        self.env = env
        self.guard_vars = guard_vars


class _TIRVerifier:
    def __init__(self, func: LoweredFunc, pass_name: Optional[str] = None):
        self.func = func
        self.pass_name = pass_name
        # id -> (expr, free vars, spans -> its tile's simplified start and
        # last offset): the expr reference keeps ids stable
        self._expr_cache: Dict[int, Tuple[Expr, Tuple[Var, ...], Dict]] = {}

    # ------------------------------------------------------------------ errors
    def _oob(self, message: str, node: str) -> OutOfBoundsError:
        return OutOfBoundsError(f"{message} in {self.func.name!r}",
                                node=node, pass_name=self.pass_name)

    def _undef(self, message: str, node: str) -> UseBeforeDefError:
        return UseBeforeDefError(f"{message} in {self.func.name!r}",
                                 node=node, pass_name=self.pass_name)

    # ------------------------------------------------------------- intervals
    def free_vars(self, expr: Expr) -> Tuple[Var, ...]:
        cached = self._expr_cache.get(id(expr))
        if cached is None or cached[0] is not expr:
            cached = (expr, tuple(collect_vars(expr)), {})
            self._expr_cache[id(expr)] = cached
        return cached[1]

    def _linearize(self, expr: Expr, constraints: Dict[str, Interval],
                   terms: Dict[str, List], scale: float) -> float:
        """Accumulate ``scale * expr`` into the linear form ``terms`` (a map
        ``repr(atom) -> [coefficient, atom]``) and return the constant part.

        Affine structure (``+``, ``-``, ``*`` by a constant) is distributed
        so that syntactically identical atoms cancel exactly — this is what
        makes compacted-buffer indices of the form ``idx - offset`` (emitted
        by ``BufferBinding.rebase``) evaluate to their true narrow range
        instead of the naive interval difference.  A sub-expression that a
        guard constrains is kept opaque so the refinement stays applicable.
        """
        if isinstance(expr, (IntImm, FloatImm)):
            return scale * expr.value
        if repr(expr) not in constraints:
            if isinstance(expr, Add):
                return (self._linearize(expr.a, constraints, terms, scale)
                        + self._linearize(expr.b, constraints, terms, scale))
            if isinstance(expr, Sub):
                return (self._linearize(expr.a, constraints, terms, scale)
                        + self._linearize(expr.b, constraints, terms, -scale))
            if isinstance(expr, Mul):
                if isinstance(expr.a, (IntImm, FloatImm)):
                    return self._linearize(expr.b, constraints, terms,
                                           scale * expr.a.value)
                if isinstance(expr.b, (IntImm, FloatImm)):
                    return self._linearize(expr.a, constraints, terms,
                                           scale * expr.b.value)
            if isinstance(expr, Cast):
                return self._linearize(expr.value, constraints, terms, scale)
        entry = terms.get(repr(expr))
        if entry is None:
            terms[repr(expr)] = [scale, expr]
        else:
            entry[0] += scale
        return 0.0

    def bounds(self, expr: Expr, env: Dict[Var, Interval],
               constraints: Dict[str, Interval]) -> Interval:
        """Interval of ``expr`` under loop ranges ``env``, refined by the
        guard ``constraints``, via the linear normal form."""
        terms: Dict[str, List] = {}
        low = high = self._linearize(expr, constraints, terms, 1.0)
        for coeff, atom in terms.values():
            atom_low, atom_high = self._atom_bounds(atom, env, constraints)
            if coeff == 0:
                continue  # cancelled — evaluated anyway for def-before-use
            low += min(coeff * atom_low, coeff * atom_high)
            high += max(coeff * atom_low, coeff * atom_high)
        if constraints:
            refined = constraints.get(repr(expr))
            if refined is not None:
                clipped = (max(low, refined[0]), min(high, refined[1]))
                if clipped[0] > clipped[1]:  # contradictory: path unreachable
                    return refined
                low, high = clipped
        return (low, high)

    def tile_bounds(self, expr: Expr, env: Dict[Var, Interval],
                    constraints: Dict[str, Interval]) -> Optional[Interval]:
        """Interval of ``expr`` on the lowering's model,
        :func:`~repro.te.expr.tile_of`: the variables of subtracted terms (a
        compacted buffer's rebase offset) stay symbolic, so the tile's start
        cancels them, and every other variable spans its loop.  None when
        no variable spans or the index is not one the model covers."""
        held: Set[Var] = set()
        self._subtracted_vars(expr, 1.0, held)
        spans: Dict[Var, Tuple[int, int]] = {}
        for var in self.free_vars(expr):
            if var not in held:
                low, high = env.get(var, _UNBOUNDED)
                if math.isinf(low) or math.isinf(high):
                    return None
                spans[var] = (int(low), int(high))
        tiles = self._expr_cache[id(expr)][2]   # filled by free_vars above
        key = tuple(spans.values())
        if key not in tiles:
            tile = tile_of(expr, spans) if spans else None
            tiles[key] = None if tile is None else (simplify(tile.start),
                                                    tile.last)
        if tiles[key] is None:
            return None
        start, last = tiles[key]
        low, high = self.bounds(start, env, constraints)
        return (low, high + last)

    def _subtracted_vars(self, expr: Expr, sign: float,
                         held: Set[Var]) -> None:
        """Add to ``held`` the variables of the terms the affine skeleton
        of ``expr`` subtracts."""
        if isinstance(expr, (Add, Sub)):
            self._subtracted_vars(expr.a, sign, held)
            self._subtracted_vars(
                expr.b, -sign if isinstance(expr, Sub) else sign, held)
        elif isinstance(expr, Mul) and isinstance(expr.b, (IntImm, FloatImm)):
            self._subtracted_vars(expr.a, sign * expr.b.value, held)
        elif sign < 0:
            held.update(self.free_vars(expr))

    def _atom_bounds(self, expr: Expr, env: Dict[Var, Interval],
                     constraints: Dict[str, Interval]) -> Interval:
        """Structural interval of one non-affine atom; children re-enter the
        linear :meth:`bounds` so cancellation still applies below e.g. a
        ``floordiv``."""
        if isinstance(expr, Var):
            interval = env.get(expr)
            if interval is None:
                raise self._undef(
                    f"variable {expr.name!r} used before any enclosing loop "
                    f"defines it", node=expr.name)
        elif isinstance(expr, (IntImm, FloatImm)):
            interval = (expr.value, expr.value)
        elif isinstance(expr, BufferLoad):
            interval = _UNBOUNDED  # data-dependent value
        elif isinstance(expr, Select):
            then_cons = self._refine(expr.condition, env, constraints)
            t = self.bounds(expr.true_value, env, then_cons)
            f = self.bounds(expr.false_value, env, constraints)
            interval = (min(t[0], f[0]), max(t[1], f[1]))
        elif isinstance(expr, Cast):
            interval = self.bounds(expr.value, env, constraints)
        else:
            handler = BOUNDS_OF.get(type(expr))
            if handler is not None:
                interval = handler(self.bounds(expr.a, env, constraints),
                                   self.bounds(expr.b, env, constraints))
                if isinstance(expr, Mod):
                    # a ``%`` keeps its numerator's residue class
                    interval = _meet(interval, self.tile_bounds(
                        expr, env, constraints))
            else:
                children = expr_children(expr)
                if not children:
                    interval = (0, 0)
                else:
                    parts = [self.bounds(c, env, constraints) for c in children]
                    interval = (min(p[0] for p in parts),
                                max(p[1] for p in parts))
        if constraints:
            refined = constraints.get(repr(expr))
            if refined is not None:
                low = max(interval[0], refined[0])
                high = min(interval[1], refined[1])
                if low > high:     # contradictory guard: path unreachable
                    return refined
                interval = (low, high)
        return interval

    def _refine(self, condition: Expr, env: Dict[Var, Interval],
                constraints: Dict[str, Interval]) -> Dict[str, Interval]:
        """Constraints implied by ``condition`` holding, merged over the
        current set.  Conservative: only conjunctions of comparisons narrow
        anything; other predicates contribute nothing."""
        merged = dict(constraints)

        def narrow(key: str, low: float, high: float) -> None:
            old = merged.get(key, _UNBOUNDED)
            merged[key] = (max(old[0], low), min(old[1], high))

        def walk(cond: Expr) -> None:
            if isinstance(cond, And):
                walk(cond.a)
                walk(cond.b)
                return
            if not isinstance(cond, (LT, LE, GT, GE, EQ)):
                return
            a_bounds = self.bounds(cond.a, env, constraints)
            b_bounds = self.bounds(cond.b, env, constraints)
            if isinstance(cond, LT):
                narrow(repr(cond.a), -math.inf, b_bounds[1] - 1)
                narrow(repr(cond.b), a_bounds[0] + 1, math.inf)
            elif isinstance(cond, LE):
                narrow(repr(cond.a), -math.inf, b_bounds[1])
                narrow(repr(cond.b), a_bounds[0], math.inf)
            elif isinstance(cond, GT):
                narrow(repr(cond.a), b_bounds[0] + 1, math.inf)
                narrow(repr(cond.b), -math.inf, a_bounds[1] - 1)
            elif isinstance(cond, GE):
                narrow(repr(cond.a), b_bounds[0], math.inf)
                narrow(repr(cond.b), -math.inf, a_bounds[1])
            else:  # EQ
                narrow(repr(cond.a), b_bounds[0], b_bounds[1])
                narrow(repr(cond.b), a_bounds[0], a_bounds[1])

        walk(condition)
        return merged

    # ------------------------------------------------------------ access check
    def check_access(self, buffer: Buffer, indices: Sequence[Expr],
                     env: Dict[Var, Interval],
                     constraints: Dict[str, Interval],
                     defined: Set[int], *, is_store: bool,
                     tile: Optional[Sequence[int]] = None) -> None:
        kind = "store to" if is_store else "load from"
        if buffer.uid not in defined:
            raise self._undef(
                f"{kind} buffer {buffer.name!r} which is neither an argument "
                f"nor an allocation of the function", node=buffer.name)
        if len(indices) != len(buffer.shape):
            raise self._oob(
                f"{kind} {buffer.name!r} uses {len(indices)} indices for a "
                f"{len(buffer.shape)}-dimensional buffer", node=buffer.name)
        for dim, index in enumerate(indices):
            span = tile[dim] if tile is not None else 1
            low, high = self.bounds(index, env, constraints)
            if low < 0 or high + span > buffer.shape[dim]:
                # the tile only narrows, so it is met where bounds fall short
                low, high = _meet((low, high), self.tile_bounds(
                    index, env, constraints))
            low_int = math.ceil(low)
            high_int = math.floor(high) + span - 1
            if low_int < 0 or high_int > buffer.shape[dim] - 1:
                raise self._oob(
                    f"{kind} {buffer.name!r} dimension {dim} spans "
                    f"[{low_int}, {high_int}] but the extent is "
                    f"{buffer.shape[dim]}", node=buffer.name)

    def check_expr(self, expr: Expr, env: Dict[Var, Interval],
                   constraints: Dict[str, Interval], defined: Set[int]) -> None:
        """Find and bounds-check every buffer load inside a value expression,
        threading Select conditions into the refinement set."""
        if isinstance(expr, BufferLoad):
            self.check_access(expr.buffer, expr.indices, env, constraints,
                              defined, is_store=False)
            return
        if isinstance(expr, Select):
            self.check_expr(expr.condition, env, constraints, defined)
            then_cons = self._refine(expr.condition, env, constraints)
            self.check_expr(expr.true_value, env, then_cons, defined)
            self.check_expr(expr.false_value, env, constraints, defined)
            return
        for child in expr_children(expr):
            self.check_expr(child, env, constraints, defined)

    # --------------------------------------------------------------- traversal
    def verify(self) -> None:
        defined = {b.uid for b in self.func.args}
        defined.update(b.uid for b in self.func.allocations)
        self.visit(self.func.body, {}, {}, defined)

    def visit(self, stmt: Stmt, env: Dict[Var, Interval],
              constraints: Dict[str, Interval], defined: Set[int]) -> None:
        if isinstance(stmt, SeqStmt):
            for child in stmt.stmts:
                self.visit(child, env, constraints, defined)
        elif isinstance(stmt, For):
            min_bounds = self.bounds(stmt.min, env, constraints)
            extent_bounds = self.bounds(stmt.extent, env, constraints)
            inner_env = dict(env)
            inner_env[stmt.loop_var] = (min_bounds[0],
                                        min_bounds[1] + extent_bounds[1] - 1)
            if stmt.kind in _HAZARD_KINDS and extent_bounds[1] > 1:
                self.check_hazards(stmt, inner_env)
            self.visit(stmt.body, inner_env, constraints, defined)
        elif isinstance(stmt, IfThenElse):
            self.check_expr(stmt.condition, env, constraints, defined)
            then_cons = self._refine(stmt.condition, env, constraints)
            self.visit(stmt.then_body, env, then_cons, defined)
            if stmt.else_body is not None:
                self.visit(stmt.else_body, env, constraints, defined)
        elif isinstance(stmt, BufferStore):
            self.check_access(stmt.buffer, stmt.indices, env, constraints,
                              defined, is_store=True)
            self.check_expr(stmt.value, env, constraints, defined)
        elif isinstance(stmt, Allocate):
            inner = set(defined)
            inner.add(stmt.buffer.uid)
            self.visit(stmt.body, env, constraints, inner)
        elif isinstance(stmt, AttrStmt):
            self.visit(stmt.body, env, constraints, defined)
        elif isinstance(stmt, Evaluate):
            self.check_expr(stmt.expr, env, constraints, defined)
        elif isinstance(stmt, IntrinsicStmt):
            self.check_intrinsic(stmt, env, constraints, defined)
        # Barrier / DepPush / DepPop carry no accesses.

    def check_intrinsic(self, stmt: IntrinsicStmt, env: Dict[Var, Interval],
                        constraints: Dict[str, Interval],
                        defined: Set[int]) -> None:
        tiles = [tuple(t.shape_values()) for t in stmt.intrin.inputs]
        tiles.append(tuple(stmt.intrin.output_shape))
        buffers = stmt.inputs + [stmt.output]
        if len(tiles) != len(buffers):
            raise self._oob(
                f"intrinsic {stmt.name!r} declares {len(tiles) - 1} operands "
                f"but is called with {len(buffers) - 1}", node=stmt.name)
        operands = zip(buffers, stmt.input_offsets + [stmt.output_offset],
                       tiles)
        for position, (buffer, offsets, tile) in enumerate(operands):
            if len(tile) != len(buffer.shape):
                raise self._oob(
                    f"intrinsic {stmt.name!r} applies a tile of shape {tile} "
                    f"to {buffer.name!r} of shape {tuple(buffer.shape)}",
                    node=buffer.name)
            self.check_access(buffer, offsets, env, constraints, defined,
                              is_store=position == len(tiles) - 1, tile=tile)

    # ----------------------------------------------------------------- hazards
    def check_hazards(self, loop: For, env: Dict[Var, Interval]) -> None:
        """Race check for one parallel/vectorized loop."""
        var = loop.loop_var
        stores: List[_Access] = []
        loads: List[_Access] = []
        self._collect_accesses(loop.body, dict(env), set(), stores, loads)

        stored_buffers: Dict[int, List[_Access]] = {}
        for store in stores:
            stored_buffers.setdefault(store.buffer.uid, []).append(store)

        for store in stores:
            if var in self._access_vars(store) or var in store.guard_vars:
                continue
            raise ParallelHazardError(
                f"{loop.kind} loop over {var.name!r} writes "
                f"{store.buffer.name!r} at indices independent of the loop "
                f"variable — every iteration races on the same elements "
                f"(e.g. a parallelized reduction) in {self.func.name!r}",
                node=store.buffer.name, pass_name=self.pass_name)

        for load in loads:
            writers = stored_buffers.get(load.buffer.uid)
            if not writers:
                continue
            if var in self._access_vars(load) or var in load.guard_vars:
                continue
            for store in writers:
                if self._regions_overlap(load, store):
                    raise ParallelHazardError(
                        f"{loop.kind} loop over {var.name!r} reads "
                        f"{load.buffer.name!r} at loop-invariant indices "
                        f"while other iterations write an overlapping "
                        f"region (cross-iteration read-after-write) in "
                        f"{self.func.name!r}",
                        node=load.buffer.name, pass_name=self.pass_name)

    def _access_vars(self, access: _Access) -> Set[Var]:
        result: Set[Var] = set()
        for index in access.indices:
            result.update(self.free_vars(index))
        return result

    def _regions_overlap(self, a: _Access, b: _Access) -> bool:
        for index_a, index_b in zip(a.indices, b.indices):
            try:
                low_a, high_a = self.bounds(index_a, a.env, {})
                low_b, high_b = self.bounds(index_b, b.env, {})
            except UseBeforeDefError:
                return True  # cannot prove disjoint: assume overlap
            if high_a < low_b or high_b < low_a:
                return False
        return True

    def _collect_accesses(self, stmt: Stmt, env: Dict[Var, Interval],
                          guard_vars: Set[Var], stores: List[_Access],
                          loads: List[_Access]) -> None:
        if isinstance(stmt, SeqStmt):
            for child in stmt.stmts:
                self._collect_accesses(child, env, guard_vars, stores, loads)
        elif isinstance(stmt, For):
            inner_env = dict(env)
            try:
                min_bounds = self.bounds(stmt.min, env, {})
                extent_high = self.bounds(stmt.extent, env, {})[1]
            except UseBeforeDefError:
                min_bounds, extent_high = _UNBOUNDED, math.inf
            inner_env[stmt.loop_var] = (min_bounds[0],
                                        min_bounds[1] + extent_high - 1)
            self._collect_accesses(stmt.body, inner_env, guard_vars,
                                   stores, loads)
        elif isinstance(stmt, IfThenElse):
            inner_guards = guard_vars | set(self.free_vars(stmt.condition))
            self._collect_accesses(stmt.then_body, env, inner_guards,
                                   stores, loads)
            if stmt.else_body is not None:
                self._collect_accesses(stmt.else_body, env, inner_guards,
                                       stores, loads)
        elif isinstance(stmt, BufferStore):
            stores.append(_Access(stmt.buffer, stmt.indices, env, guard_vars))
            self._collect_loads(stmt.value, env, guard_vars, loads)
        elif isinstance(stmt, (Allocate, AttrStmt)):
            self._collect_accesses(stmt.body, env, guard_vars, stores, loads)
        elif isinstance(stmt, Evaluate):
            self._collect_loads(stmt.expr, env, guard_vars, loads)
        elif isinstance(stmt, IntrinsicStmt):
            # Offsets stand in for the whole tile: the hazard tests only
            # need loop-var dependence and coarse region bounds, for which
            # the tile's start corner is a sound proxy at offset granularity.
            stores.append(_Access(stmt.output, stmt.output_offset,
                                  env, guard_vars))
            for buffer, offsets in zip(stmt.inputs, stmt.input_offsets):
                loads.append(_Access(buffer, offsets, env, guard_vars))

    def _collect_loads(self, expr: Expr, env: Dict[Var, Interval],
                       guard_vars: Set[Var], loads: List[_Access]) -> None:
        if isinstance(expr, BufferLoad):
            loads.append(_Access(expr.buffer, expr.indices, env, guard_vars))
        for child in expr_children(expr):
            self._collect_loads(child, env, guard_vars, loads)


def verify_func(func: LoweredFunc, *, pass_name: Optional[str] = None) -> None:
    """Verify one lowered function; raises a typed
    :class:`~repro.analysis.errors.TIRVerifierError` on the first violation.
    """
    _TIRVerifier(func, pass_name=pass_name).verify()
