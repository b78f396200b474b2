"""TIR (loop-program) verifier — the static-analysis layer's low-level half.

:func:`verify_func` certifies a lowered :class:`~repro.tir.stmt.LoweredFunc`
on the interval arithmetic of :mod:`repro.te.expr` (``BOUNDS_OF`` — the
same transfer functions lowering sizes buffers with and feature extraction
measures touched bytes with), refined here by linearisation and div/mod
congruences:

* **def-before-use** — every loop variable appearing in an index, extent or
  condition is bound by an enclosing loop, and every buffer accessed is a
  function argument or a recorded allocation;
* **static out-of-bounds detection** — per-dimension interval analysis of
  every load/store index, refined by the guard conditions the lowering
  emits for imperfect splits (``IfThenElse``) and by padding ``Select``
  conditions, so guarded accesses are *not* false positives.  A
  per-dimension overflow falls back to bounding the flattened row-major
  offset — fused flat loop axes legitimately step across row boundaries
  (``y = f // W``, ``x = f % W``), and after storage flattening only the
  flat offset determines memory safety;
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
    FloorDiv,
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
    scale_bounds,
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


def _safe_floor(value: float) -> float:
    """``math.floor`` that passes infinities through."""
    return value if math.isinf(value) else math.floor(value)


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
        # id -> (expr, free vars): the expr reference keeps ids stable
        self._free_cache: Dict[int, Tuple[Expr, Tuple[Var, ...]]] = {}

    # ------------------------------------------------------------------ errors
    def _oob(self, message: str, node: str) -> OutOfBoundsError:
        return OutOfBoundsError(f"{message} in {self.func.name!r}",
                                node=node, pass_name=self.pass_name)

    def _undef(self, message: str, node: str) -> UseBeforeDefError:
        return UseBeforeDefError(f"{message} in {self.func.name!r}",
                                 node=node, pass_name=self.pass_name)

    # ------------------------------------------------------------- intervals
    def free_vars(self, expr: Expr) -> Tuple[Var, ...]:
        cached = self._free_cache.get(id(expr))
        if cached is None or cached[0] is not expr:
            cached = (expr, tuple(collect_vars(expr)))
            self._free_cache[id(expr)] = cached
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
        const = self._linearize(expr, constraints, terms, 1.0)
        const += self._recombine(terms, constraints)
        low = high = const
        pair_low, pair_high = self._pair_bounds(terms, env, constraints)
        low += pair_low
        high += pair_high
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

    def _congruence(self, expr: Expr, modulus: float
                    ) -> Optional[Tuple[int, int]]:
        """Prove ``expr ≡ r (mod g)`` from its linear form, where ``g`` is
        the gcd of the modulus and every term coefficient.  Returns
        ``(g, r)`` with ``0 <= r < g``, or ``None`` when the form has
        non-integer parts.  ``g == modulus`` means ``expr % modulus`` is the
        exact constant ``r``."""
        if modulus <= 0 or not float(modulus).is_integer():
            return None
        terms: Dict[str, List] = {}
        const = self._linearize(expr, {}, terms, 1.0)
        if not float(const).is_integer():
            return None
        g = int(modulus)
        for coeff, _atom in terms.values():
            if not float(coeff).is_integer():
                return None
            g = math.gcd(g, int(abs(coeff)))
        return g, int(const) % g if g else 0

    def _residue(self, expr: Expr, modulus: float) -> Optional[float]:
        """``expr % modulus`` as an exact constant when the linear form of
        ``expr`` proves it, else ``None``."""
        congruence = self._congruence(expr, modulus)
        if congruence is None or congruence[0] != int(modulus):
            return None
        return float(congruence[1])

    def _recombine(self, terms: Dict[str, List],
                   constraints: Dict[str, Interval]) -> float:
        """Apply the exact identity ``t*K*(a//K) + t*(a%K) == t*a`` to the
        linear form: matched quotient/remainder atoms over the same numerator
        are replaced by the numerator itself, re-linearized.  This recovers
        the correlation between the row and column indices of a flattened
        fused loop axis (``y = f // W``, ``x = f % W``), which a flat-offset
        bound needs to be tight.  Returns the constant part contributed by
        the re-linearized numerators."""
        div_atoms: Dict[Tuple[str, float], List[List]] = {}
        mod_atoms: Dict[Tuple[str, float], List[List]] = {}
        for entry in list(terms.values()):
            atom = entry[1]
            if (isinstance(atom, (FloorDiv, Mod))
                    and isinstance(atom.b, (IntImm, FloatImm))
                    and atom.b.value > 0):
                key = (repr(atom.a), atom.b.value)
                group = div_atoms if isinstance(atom, FloorDiv) else mod_atoms
                group.setdefault(key, []).append(entry)
        const = 0.0
        for key, div_entries in div_atoms.items():
            mod_entries = mod_atoms.get(key)
            if not mod_entries:
                continue
            modulus = key[1]
            for div_entry in div_entries:
                for mod_entry in mod_entries:
                    quotient_share = div_entry[0] / modulus
                    if quotient_share == 0 or mod_entry[0] == 0:
                        continue
                    if (quotient_share > 0) != (mod_entry[0] > 0):
                        continue
                    transfer = math.copysign(
                        min(abs(quotient_share), abs(mod_entry[0])),
                        quotient_share)
                    div_entry[0] -= transfer * modulus
                    mod_entry[0] -= transfer
                    const += self._linearize(mod_entry[1].a, constraints,
                                             terms, transfer)
        return const

    def _pair_bounds(self, terms: Dict[str, List],
                     env: Dict[Var, Interval],
                     constraints: Dict[str, Interval]) -> Interval:
        """Consume matched ``+a//K / -b//K`` (and ``%K``) term pairs from the
        linear form, bounding each pair through the *difference* of its
        numerators instead of the difference of its own intervals.

        The compacted-buffer indices the lowering emits have exactly this
        shape — ``(base + inner) // K - base // K`` — whose numerator
        difference cancels linearly to the small ``inner`` range, while the
        naive interval difference spans the whole buffer.
        """
        groups: Dict[Tuple[type, float], List[List]] = {}
        for entry in terms.values():
            atom = entry[1]
            if (isinstance(atom, (FloorDiv, Mod))
                    and isinstance(atom.b, (IntImm, FloatImm))
                    and atom.b.value > 0):
                groups.setdefault((type(atom), atom.b.value), []).append(entry)
        # First match pos/neg pairs within each (kind, K) group and pool the
        # transferred weight per *numerator pair*, so a ``//K`` pair and a
        # ``%K`` pair over the same (a, b) are bounded jointly below.
        pairs: Dict[Tuple[str, str, float], Dict] = {}
        for (kind, modulus), entries in groups.items():
            positive = [e for e in entries if e[0] > 0]
            negative = [e for e in entries if e[0] < 0]
            for pos in positive:
                for neg in negative:
                    transfer = min(pos[0], -neg[0])
                    if transfer <= 0:
                        continue
                    key = (repr(pos[1].a), repr(neg[1].a), modulus)
                    rec = pairs.setdefault(
                        key, {"a": pos[1].a, "b": neg[1].a,
                              "div": 0.0, "mod": 0.0})
                    rec["div" if kind is FloorDiv else "mod"] += transfer
                    pos[0] -= transfer
                    neg[0] += transfer
        low = high = 0.0
        add = BOUNDS_OF[Add]
        for (_ra, _rb, modulus), rec in pairs.items():
            delta = Sub(rec["a"], rec["b"])
            delta_low, delta_high = self.bounds(delta, env, constraints)
            residue = self._residue(delta, modulus)
            if delta_low == 0 and delta_high == 0:
                residue = 0  # numerators provably equal pointwise
            # Partial congruences refine the residue windows: b ≡ rb
            # (mod gb) pins b % K inside [rb, K - gb + rb], likewise for a.
            gb, rb = self._congruence(rec["b"], modulus) or (1, 0)
            ga, ra = self._congruence(rec["a"], modulus) or (1, 0)
            # Q bounds the quotient difference, via the pointwise identity
            # q = a//K - b//K == (b%K + delta) // K.
            if residue == 0:
                quot = (delta_low / modulus, delta_high / modulus)
            else:
                quot = (_safe_floor((rb + delta_low) / modulus),
                        _safe_floor((modulus - gb + rb + delta_high)
                                    / modulus))
            # M bounds the mod difference a%K - b%K == delta - K*q.
            if residue is not None:
                # delta == K*m + residue pointwise, so the mod difference
                # is residue or residue - K exactly
                moddiff = ((residue - modulus, residue)
                           if residue else (0.0, 0.0))
            elif quot[0] == quot[1] and not math.isinf(quot[0]):
                # the quotient difference is a known constant, so the mod
                # difference is exactly delta - K*q
                moddiff = (delta_low - modulus * quot[0],
                           delta_high - modulus * quot[0])
            else:
                moddiff = (max(delta_low - modulus * quot[1],
                               ra - (modulus - gb + rb)),
                           min(delta_high - modulus * quot[0],
                               modulus - ga + ra - rb))
            tq, tm = rec["div"], rec["mod"]
            # The pair contributes V = tq*q + tm*m with m == delta - K*q
            # pointwise.  Two sound bounds, intersected: the direct form
            # tq*Q + tm*M, and the substituted form tm*D + (tq - tm*K)*Q,
            # which is *exact* when tq == tm*K (flattened row/col indices
            # of a compacted tile recombine to the plain fused offset).
            direct = add(scale_bounds(quot, tq), scale_bounds(moddiff, tm))
            subst = add(scale_bounds((delta_low, delta_high), tm),
                        scale_bounds(quot, tq - tm * modulus))
            low += max(direct[0], subst[0])
            high += min(direct[1], subst[1])
        return (low, high)

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
        elif (isinstance(expr, Mod)
              and isinstance(expr.b, (IntImm, FloatImm))
              and (congruence := self._congruence(expr.a, expr.b.value))
              is not None):
            # the numerator is ≡ r (mod g) for g dividing the modulus, so
            # the mod stays in that congruence class: tile offsets that step
            # by a fixed factor never reach the last g-1 slots
            modulus = expr.b.value
            g, r = congruence
            interval = (r, modulus - g + r) if g else (0, modulus - 1)
            numerator = self.bounds(expr.a, env, constraints)
            if not (math.isinf(numerator[0]) or math.isinf(numerator[1])):
                structural = BOUNDS_OF[Mod](numerator, (modulus, modulus))
                interval = (max(interval[0], structural[0]),
                            min(interval[1], structural[1]))
        else:
            handler = BOUNDS_OF.get(type(expr))
            if handler is not None:
                interval = handler(self.bounds(expr.a, env, constraints),
                                   self.bounds(expr.b, env, constraints))
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
        violation = None
        for dim, index in enumerate(indices):
            low, high = self.bounds(index, env, constraints)
            span = (tile[dim] if tile is not None and dim < len(tile) else 1)
            low_int = math.ceil(low)
            high_int = math.floor(high) + span - 1
            if low_int < 0 or high_int > buffer.shape[dim] - 1:
                violation = (dim, low_int, high_int)
                break
        if violation is None:
            return
        # A per-dimension overflow may still be a legal access: fused flat
        # loop axes tile the row-major address space, so an index pair like
        # (f // W, f % W + i) can step past a row end while staying inside
        # the allocation.  Verify the flattened offset instead — this is the
        # semantics storage flattening gives the buffer.
        strides = []
        stride = 1
        for extent in reversed(buffer.shape):
            strides.append(stride)
            stride *= extent
        strides.reverse()
        flat: Optional[Expr] = None
        for index, dim_stride in zip(indices, strides):
            term = index if dim_stride == 1 else Mul(index, IntImm(dim_stride))
            flat = term if flat is None else Add(flat, term)
        flat_low, flat_high = self.bounds(flat, env, constraints)
        tile_extra = 0
        if tile is not None:
            tile_extra = sum((tile[dim] - 1) * strides[dim]
                             for dim in range(min(len(tile), len(strides))))
        if (math.ceil(flat_low) < 0
                or math.floor(flat_high) + tile_extra > buffer.size - 1):
            dim, low_int, high_int = violation
            raise self._oob(
                f"{kind} {buffer.name!r} dimension {dim} spans "
                f"[{low_int}, {high_int}] but the extent is "
                f"{buffer.shape[dim]}, and the flattened offset "
                f"[{math.ceil(flat_low)}, {math.floor(flat_high) + tile_extra}]"
                f" escapes the allocation of {buffer.size} elements",
                node=buffer.name)

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
        tiles = _intrin_tiles(stmt)
        for buffer, offsets, tile in zip(stmt.inputs, stmt.input_offsets,
                                         tiles[:-1]):
            self.check_access(buffer, offsets, env, constraints, defined,
                              is_store=False, tile=tile)
        self.check_access(stmt.output, stmt.output_offset, env, constraints,
                          defined, is_store=True, tile=tiles[-1])

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


def _intrin_tiles(stmt: IntrinsicStmt) -> List[Optional[Tuple[int, ...]]]:
    """Per-operand tile shapes of an intrinsic call (inputs then output),
    ``None`` when the intrinsic does not declare them."""
    intrin = stmt.intrin
    tiles: List[Optional[Tuple[int, ...]]] = []
    declared = getattr(intrin, "inputs", None) or []
    for position in range(len(stmt.inputs)):
        if position < len(declared):
            try:
                tiles.append(tuple(declared[position].shape_values()))
                continue
            except Exception:
                pass
        tiles.append(None)
    output_shape = getattr(intrin, "output_shape", None)
    tiles.append(tuple(int(s) for s in output_shape)
                 if output_shape is not None else None)
    return tiles


def verify_func(func: LoweredFunc, *, pass_name: Optional[str] = None) -> None:
    """Verify one lowered function; raises a typed
    :class:`~repro.analysis.errors.TIRVerifierError` on the first violation.
    """
    _TIRVerifier(func, pass_name=pass_name).verify()
