"""Loop-program feature extraction (paper Section 5.2, Figure 13).

The ML-based cost model "takes the lowered loop program as input and predicts
its running time".  The features extracted here follow the paper's
description of the gradient-boosted-tree model: memory access counts and
reuse ratios of each buffer at each loop level, plus one-hot style encodings
of loop annotations ("vectorize", "unroll", "parallel", thread bindings,
virtual threads).  The same features drive the analytic hardware models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..te.expr import (BinaryOp, Call, Expr, compile_bounds, eval_bounds,
                       expr_children)
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
    dtype_bytes,
)

__all__ = ["BufferAccess", "ProgramFeatures", "extract_features", "FEATURE_NAMES"]


@dataclass
class AccessRegion:
    """Per-access loop-level touch statistics.

    For one buffer access inside a loop nest, ``touched_bytes[i]`` is the
    number of distinct bytes touched by one iteration of the ``i``-th
    enclosing loop (deeper loops spanning their full extent), and
    ``trips_outside[i]`` is how many times that loop body executes in total.
    These are the paper's "memory access count and reuse ratio of each memory
    buffer at each loop level" features, and they drive the analytic cache
    model used by the CPU/GPU simulators.
    """

    buffer_name: str
    scope: str
    dtype: str
    is_store: bool
    touched_bytes: List[float]
    trips_outside: List[float]
    total_accesses: float

    def cache_traffic(self, cache_bytes: float) -> float:
        """Estimated DRAM traffic for this access given a cache of
        ``cache_bytes``: the outermost loop level whose touched region fits in
        the cache is streamed once per execution of the loops outside it."""
        if not self.touched_bytes:
            return self.total_accesses * dtype_bytes(self.dtype)
        best = self.total_accesses * dtype_bytes(self.dtype)
        for level in range(len(self.touched_bytes)):
            if self.touched_bytes[level] <= cache_bytes:
                best = min(best, self.trips_outside[level] * self.touched_bytes[level])
                break
        else:
            # Nothing fits: innermost level still benefits from spatial reuse.
            best = min(best, self.trips_outside[-1] * self.touched_bytes[-1])
        return max(best, dtype_bytes(self.dtype))


@dataclass
class BufferAccess:
    """Aggregate access statistics for one buffer."""

    buffer_name: str
    scope: str
    dtype: str
    unique_bytes: float = 0.0
    load_count: float = 0.0
    store_count: float = 0.0

    @property
    def total_bytes(self) -> float:
        return (self.load_count + self.store_count) * dtype_bytes(self.dtype)

    @property
    def reuse_ratio(self) -> float:
        if self.unique_bytes <= 0:
            return 0.0
        return self.total_bytes / self.unique_bytes


@dataclass
class ProgramFeatures:
    """Summary statistics of a lowered loop program."""

    flops: float = 0.0
    int_ops: float = 0.0
    intrinsic_calls: float = 0.0
    intrinsic_flops: float = 0.0
    #: per memory scope: total bytes moved and unique bytes resident
    scope_bytes: Dict[str, float] = field(default_factory=dict)
    scope_unique_bytes: Dict[str, float] = field(default_factory=dict)
    buffer_access: Dict[str, BufferAccess] = field(default_factory=dict)
    #: per-access loop-level touch regions (paper Figure 13 features)
    access_regions: List[AccessRegion] = field(default_factory=list)
    #: loop annotation aggregates
    vector_lanes: float = 1.0
    unroll_product: float = 1.0
    parallel_extent: float = 1.0
    thread_extents: Dict[str, float] = field(default_factory=dict)
    vthread_extent: float = 1.0
    barrier_count: float = 0.0
    dep_token_count: float = 0.0
    serial_trip_count: float = 1.0
    max_loop_depth: int = 0
    allocation_bytes: Dict[str, float] = field(default_factory=dict)
    store_count: float = 0.0

    # -- derived quantities ---------------------------------------------------
    @property
    def num_threads(self) -> float:
        """Threads per block (product of threadIdx extents)."""
        product = 1.0
        for tag, extent in self.thread_extents.items():
            if tag.startswith("threadIdx"):
                product *= extent
        return product

    @property
    def num_blocks(self) -> float:
        product = 1.0
        for tag, extent in self.thread_extents.items():
            if tag.startswith("blockIdx"):
                product *= extent
        return product

    @property
    def total_flops(self) -> float:
        return self.flops + self.intrinsic_flops

    def bytes_in_scope(self, scope: str) -> float:
        return self.scope_bytes.get(scope, 0.0)

    def unique_bytes_in_scope(self, scope: str) -> float:
        return self.scope_unique_bytes.get(scope, 0.0)

    @property
    def arithmetic_intensity(self) -> float:
        global_bytes = max(self.bytes_in_scope("global"), 1.0)
        return self.total_flops / global_bytes

    def working_set_bytes(self, scopes: Tuple[str, ...] = ("shared", "local",
                                                           "acc_buffer",
                                                           "inp_buffer",
                                                           "wgt_buffer")) -> float:
        return sum(self.allocation_bytes.get(s, 0.0) for s in scopes)

    def cache_aware_traffic(self, cache_bytes: float, scope: str = "global") -> float:
        """Estimated off-chip traffic for accesses to ``scope`` buffers given a
        hardware-managed cache of ``cache_bytes`` (CPU L1/L2, GPU L2)."""
        regions = [r for r in self.access_regions if r.scope == scope]
        if not regions:
            return self.bytes_in_scope(scope)
        return sum(r.cache_traffic(cache_bytes) for r in regions)

    # -- vectorisation for the ML cost model -----------------------------------
    def vector(self) -> "np.ndarray":
        """Memoized read-only ndarray form of :meth:`to_vector`.

        Feature vectors are re-read constantly on the tuning fast path (cost
        model scoring, training-set assembly, database records); the list is
        built and converted once per :class:`ProgramFeatures` instance.
        """
        import numpy as np

        vec = self.__dict__.get("_vector")
        if vec is None:
            vec = np.asarray(self.to_vector(), dtype=np.float64)
            vec.setflags(write=False)
            self.__dict__["_vector"] = vec
        return vec

    def to_vector(self) -> List[float]:
        def log1(x: float) -> float:
            return math.log(max(x, 0.0) + 1.0)

        vec = [
            log1(self.flops),
            log1(self.intrinsic_flops),
            log1(self.intrinsic_calls),
            log1(self.bytes_in_scope("global")),
            log1(self.unique_bytes_in_scope("global")),
            log1(self.bytes_in_scope("shared")),
            log1(self.unique_bytes_in_scope("shared")),
            log1(self.bytes_in_scope("local")),
            log1(self.bytes_in_scope("acc_buffer") + self.bytes_in_scope("inp_buffer")
                 + self.bytes_in_scope("wgt_buffer")),
            log1(self.vector_lanes),
            log1(self.unroll_product),
            log1(self.parallel_extent),
            log1(self.num_threads),
            log1(self.num_blocks),
            log1(self.vthread_extent),
            log1(self.barrier_count),
            log1(self.serial_trip_count),
            float(self.max_loop_depth),
            log1(self.arithmetic_intensity),
            log1(self.working_set_bytes()),
            log1(self.store_count),
            log1(sum(a.reuse_ratio for a in self.buffer_access.values())),
            log1(self.cache_aware_traffic(32 * 1024)),
            log1(self.cache_aware_traffic(256 * 1024)),
        ]
        # Per-buffer reuse features for up to 6 buffers (sorted by traffic).
        accesses = sorted(self.buffer_access.values(),
                          key=lambda a: -a.total_bytes)[:6]
        for access in accesses:
            vec.extend([log1(access.total_bytes), log1(access.unique_bytes),
                        log1(access.reuse_ratio)])
        while len(vec) < 24 + 6 * 3:
            vec.append(0.0)
        return vec


FEATURE_NAMES: List[str] = [
    "log_flops", "log_intrin_flops", "log_intrin_calls",
    "log_global_bytes", "log_global_unique", "log_shared_bytes",
    "log_shared_unique", "log_local_bytes", "log_accel_bytes",
    "log_vector_lanes", "log_unroll", "log_parallel", "log_threads",
    "log_blocks", "log_vthreads", "log_barriers", "log_serial_trip",
    "loop_depth", "log_arith_intensity", "log_working_set", "log_stores",
    "log_reuse_sum", "log_traffic_32k", "log_traffic_256k",
] + [f"buf{i}_{k}" for i in range(6) for k in ("bytes", "unique", "reuse")]


def _count_ops(expr: Expr) -> Tuple[int, int]:
    """Count (floating point ops, integer/index ops) in an expression."""
    flops = 0
    iops = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp):
            if node.dtype.startswith("float"):
                flops += 1
            else:
                iops += 1
        elif isinstance(node, Call):
            flops += 4  # transcendental calls cost several flops
        stack.extend(expr_children(node))
    return flops, iops


#: shared "fixed at zero" interval for bound queries
_ZERO_BOUNDS = (0, 0)


class _FeatureExtractor:
    """Single-pass statement walker.

    The walker maintains the *effective* loop stack incrementally — the
    enclosing loops with re-bound thread tags deduplicated (outermost binding
    wins) and their extents pre-evaluated — instead of re-deriving it for
    every buffer access, and compiles each index expression's bounds program
    once.
    The features produced are bit-identical to a naive per-access recompute.
    """

    def __init__(self) -> None:
        self.features = ProgramFeatures()
        self._loop_stack: List[For] = []
        self._thread_tags: List[str] = []
        # Effective (tag-deduplicated) loop stack, maintained in _visit_for.
        self._eff_loops: List[For] = []
        self._eff_extents: List[float] = []     # float extent, 1.0 if symbolic
        self._eff_full: List[Tuple] = []        # (0, extent - 1) interval
        self._eff_level: Dict[object, int] = {} # loop_var -> eff stack index
        self._eff_added: List[bool] = []        # per _loop_stack entry
        self._active_tags: Set[str] = set()
        self._trip_products: List[float] = [1.0]  # prefix products of extents
        self._index_cache: Dict[int, Tuple[Expr, List, List]] = {}

    def _index_info(self, expr: Expr) -> Tuple[List, List]:
        """Memoized ``(free vars, compiled bounds program)`` of an index
        expression (the expr is pinned in the value to keep ids stable)."""
        cached = self._index_cache.get(id(expr))
        if cached is None:
            free, program = compile_bounds(expr)
            cached = (expr, free, program)
            self._index_cache[id(expr)] = cached
        return cached[1], cached[2]

    # Effective iteration multiplier for the current loop nest.  Loops bound
    # to a thread tag already active in an enclosing loop re-use the same
    # hardware thread (cooperative fetching pattern) and therefore do not
    # multiply the per-thread trip count.
    def _trip_count(self) -> float:
        return self._trip_products[-1]

    def _effective_access_count(self, indices: List[Expr]) -> float:
        """Number of times this access actually reaches the memory system.

        The raw trip count of the enclosing loop nest overstates traffic
        because real code generators perform loop-invariant code motion and
        keep values loaded in unrolled/vectorized loops in registers (scalar
        replacement).  A loop therefore does not multiply the access count
        when the access is independent of its loop variable and either

        * every loop nested deeper is also independent (classic LICM hoists
          the access above it), or
        * the loop is unrolled or vectorized (the register allocator keeps
          the value live across its iterations).

        Thread-bound loops re-using an already bound tag are skipped exactly
        as in :meth:`_trip_count`.
        """
        index_vars = set()
        for index in indices:
            try:
                index_vars.update(self._index_info(index)[0])
            except Exception:
                return self._trip_count()

        count = 1.0
        all_deeper_independent = True
        for pos in range(len(self._eff_loops) - 1, -1, -1):
            loop = self._eff_loops[pos]
            extent = self._eff_extents[pos]
            independent = loop.loop_var not in index_vars
            registers_carry = loop.kind in (ForKind.UNROLLED, ForKind.VECTORIZED)
            if independent and (all_deeper_independent or registers_carry):
                pass  # hoisted or kept in registers: does not multiply traffic
            else:
                count *= max(extent, 1.0)
            all_deeper_independent = all_deeper_independent and independent
        return count

    def _record_region(self, buffer: Buffer, indices: List[Expr],
                       is_store: bool) -> None:
        """Record loop-level touch statistics for one buffer access."""
        loops = self._eff_loops
        extents = self._eff_extents
        n_loops = len(loops)

        # Per-index extent multiplier at each level.  The bounds of an index
        # only change at levels that fix one of its free loop vars, so the
        # compiled program runs once per (index, free loop) instead of per
        # level.
        per_index: List[List[float]] = []
        eff_level = self._eff_level
        eff_full = self._eff_full
        for index in indices:
            try:
                free, program = self._index_info(index)
            except Exception:
                per_index.append([1.0] * (n_loops + 1))
                continue
            # Resolve each free var's loop position once per access; bounds
            # only change at the levels that fix one of those loops.
            free_pos = [(v, eff_level.get(v)) for v in free]
            recompute = {pos + 1 for _v, pos in free_pos if pos is not None}
            vals: List[float] = []
            current = None
            for level in range(n_loops + 1):
                if current is None or level in recompute:
                    try:
                        env = {}
                        for v, pos in free_pos:
                            if pos is None or pos < level:
                                env[v] = _ZERO_BOUNDS
                            else:
                                env[v] = eff_full[pos]
                        low, high = eval_bounds(program, env)
                        current = max(1.0, float(high - low + 1))
                    except Exception:
                        current = 1.0
                vals.append(current)
            per_index.append(vals)

        elem = dtype_bytes(buffer.dtype)
        size_bytes = float(buffer.size_bytes)
        touched: List[float] = []
        trips: List[float] = []
        trip = 1.0
        for level in range(n_loops + 1):
            region = elem
            for vals in per_index:
                region *= vals[level]
            touched.append(min(region, size_bytes))
            trips.append(trip)
            if level < n_loops:
                trip *= extents[level]

        total = trips[-1] if trips else 1.0
        self.features.access_regions.append(AccessRegion(
            buffer_name=buffer.name, scope=buffer.scope, dtype=buffer.dtype,
            is_store=is_store, touched_bytes=touched, trips_outside=trips,
            total_accesses=total))

    def _record_access(self, buffer: Buffer, count: float, is_store: bool) -> None:
        access = self.features.buffer_access.setdefault(
            buffer.name,
            BufferAccess(buffer.name, buffer.scope, buffer.dtype,
                         unique_bytes=float(buffer.size_bytes)))
        if is_store:
            access.store_count += count
        else:
            access.load_count += count
        bytes_moved = count * dtype_bytes(buffer.dtype)
        self.features.scope_bytes[buffer.scope] = (
            self.features.scope_bytes.get(buffer.scope, 0.0) + bytes_moved)
        self.features.scope_unique_bytes[buffer.scope] = max(
            self.features.scope_unique_bytes.get(buffer.scope, 0.0),
            float(buffer.size_bytes))

    def _visit_expr_loads(self, expr: Expr, count: float) -> None:
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, BufferLoad):
                effective = min(count, self._effective_access_count(node.indices))
                self._record_access(node.buffer, effective, is_store=False)
                self._record_region(node.buffer, node.indices, is_store=False)
            stack.extend(expr_children(node))

    # ------------------------------------------------------------------ walk
    def visit(self, stmt: Stmt) -> None:
        if isinstance(stmt, SeqStmt):
            for sub in stmt.stmts:
                self.visit(sub)
            return
        if isinstance(stmt, For):
            self._visit_for(stmt)
            return
        if isinstance(stmt, IfThenElse):
            self.visit(stmt.then_body)
            if stmt.else_body is not None:
                self.visit(stmt.else_body)
            return
        if isinstance(stmt, (Allocate, AttrStmt)):
            if isinstance(stmt, Allocate):
                scope = stmt.buffer.scope
                self.features.allocation_bytes[scope] = (
                    self.features.allocation_bytes.get(scope, 0.0)
                    + stmt.buffer.size_bytes)
            self.visit(stmt.body)
            return
        if isinstance(stmt, Barrier):
            self.features.barrier_count += self._trip_count()
            return
        if isinstance(stmt, (DepPush, DepPop)):
            self.features.dep_token_count += self._trip_count()
            return
        if isinstance(stmt, Evaluate):
            return
        if isinstance(stmt, BufferStore):
            count = self._trip_count()
            self.features.store_count += count
            effective = min(count, self._effective_access_count(stmt.indices))
            self._record_access(stmt.buffer, effective, is_store=True)
            self._record_region(stmt.buffer, stmt.indices, is_store=True)
            self._visit_expr_loads(stmt.value, count)
            for index in stmt.indices:
                _, iops = _count_ops(index)
                self.features.int_ops += iops * count
            flops, iops = _count_ops(stmt.value)
            self.features.flops += flops * count
            self.features.int_ops += iops * count
            return
        if isinstance(stmt, IntrinsicStmt):
            count = self._trip_count()
            self.features.intrinsic_calls += count
            self.features.intrinsic_flops += count * stmt.intrin.flop
            # Intrinsic reads its inputs and writes its output once per call.
            out_shape = stmt.intrin.output_shape
            out_elems = 1
            for dim in out_shape:
                out_elems *= dim
            self._record_access(stmt.output, count * out_elems, is_store=True)
            for decl_input, buffer in zip(stmt.intrin.inputs, stmt.inputs):
                elems = 1
                for dim in decl_input.shape_values():
                    elems *= dim
                self._record_access(buffer, count * elems, is_store=False)
            return
        raise TypeError(f"Unhandled statement in feature extraction: {stmt!r}")

    def _visit_for(self, loop: For) -> None:
        try:
            extent = loop.extent_value()
        except ValueError:
            extent = 1
        if loop.kind == ForKind.VECTORIZED:
            self.features.vector_lanes = max(self.features.vector_lanes, float(extent))
        elif loop.kind == ForKind.UNROLLED:
            self.features.unroll_product *= float(extent)
        elif loop.kind == ForKind.PARALLEL:
            self.features.parallel_extent *= float(extent)
        elif loop.kind == ForKind.THREAD_BINDING and loop.thread_tag:
            if loop.thread_tag not in self._active_tags:
                current = self.features.thread_extents.get(loop.thread_tag, 1.0)
                self.features.thread_extents[loop.thread_tag] = current * float(extent)
        elif loop.kind == ForKind.VTHREAD:
            self.features.vthread_extent *= float(extent)
        else:
            self.features.serial_trip_count *= float(max(extent, 1))

        # Push onto the effective (tag-deduplicated) stack unless an
        # enclosing loop already binds the same thread tag.
        added = not (loop.thread_tag and loop.thread_tag in self._active_tags)
        if added:
            ext = float(extent)
            if loop.thread_tag:
                self._active_tags.add(loop.thread_tag)
            self._eff_loops.append(loop)
            self._eff_extents.append(ext)
            self._eff_full.append((0, max(ext - 1, 0)))
            self._eff_level[loop.loop_var] = len(self._eff_loops) - 1
            self._trip_products.append(self._trip_products[-1] * ext)
        self._eff_added.append(added)

        self._loop_stack.append(loop)
        self.features.max_loop_depth = max(self.features.max_loop_depth,
                                           len(self._loop_stack))
        self.visit(loop.body)
        self._loop_stack.pop()
        if self._eff_added.pop():
            self._eff_loops.pop()
            self._eff_extents.pop()
            self._eff_full.pop()
            self._trip_products.pop()
            self._eff_level.pop(loop.loop_var, None)
            if loop.thread_tag:
                self._active_tags.discard(loop.thread_tag)


def extract_features(func_or_stmt) -> ProgramFeatures:
    """Extract :class:`ProgramFeatures` from a lowered function or statement."""
    extractor = _FeatureExtractor()
    if isinstance(func_or_stmt, LoweredFunc):
        for alloc in func_or_stmt.allocations:
            extractor.features.allocation_bytes[alloc.scope] = (
                extractor.features.allocation_bytes.get(alloc.scope, 0.0)
                + alloc.size_bytes)
        extractor.visit(func_or_stmt.body)
    else:
        extractor.visit(func_or_stmt)
    return extractor.features
