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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..te.expr import (BinaryOp, Call, Expr, compile_bounds, eval_bounds,
                       expr_children, keeps_points, rekey_bounds)
from ..te.trace import SymInt, Untraceable
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

__all__ = ["BufferAccess", "FeaturePlan", "ProgramFeatures", "extract_features",
           "FEATURE_NAMES"]


@dataclass(slots=True)
class AccessRegion:
    """Per-access loop-level touch statistics of one global-buffer access.

    For one buffer access inside a loop nest, ``touched_bytes[i]`` is the
    number of distinct bytes touched by one iteration of the ``i``-th
    enclosing loop (deeper loops spanning their full extent), and
    ``trips_outside[i]`` is how many times that loop body executes in total.
    These are the paper's "memory access count and reuse ratio of each memory
    buffer at each loop level" features, and they drive the analytic cache
    model used by the CPU/GPU simulators.

    Only accesses to ``global`` buffers are recorded: the one reader,
    :meth:`ProgramFeatures.cache_aware_traffic`, models a hardware-managed
    cache in front of off-chip memory, and ``shared`` / ``local`` buffers
    are on-chip already.  The regions of one loop nest share their
    ``trips_outside`` tuple.
    """

    elem_bytes: int
    touched_bytes: List[float]
    trips_outside: Tuple[float, ...]
    total_accesses: float

    def cache_traffic(self, cache_bytes: float) -> float:
        """Estimated DRAM traffic for this access given a cache of
        ``cache_bytes``: the outermost loop level whose touched region fits in
        the cache is streamed once per execution of the loops outside it."""
        best = self.total_accesses * self.elem_bytes
        for level, touched in enumerate(self.touched_bytes):
            if touched <= cache_bytes:
                best = min(best, self.trips_outside[level] * touched)
                break
        else:
            # Nothing fits: innermost level still benefits from spatial reuse.
            best = min(best, self.trips_outside[-1] * self.touched_bytes[-1])
        return max(best, self.elem_bytes)


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    #: per-access loop-level touch regions of global buffers (paper Figure 13
    #: features)
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
    #: memo of :meth:`vector`
    _vector: Optional["np.ndarray"] = field(default=None, init=False,
                                            repr=False, compare=False)

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

    def cache_aware_traffic(self, cache_bytes: float) -> float:
        """Estimated off-chip traffic for accesses to global buffers given a
        hardware-managed cache of ``cache_bytes`` (CPU L1/L2, GPU L2).

        Only global buffers live behind such a cache (``shared`` / ``local``
        are explicitly managed on-chip memory), so only their accesses carry
        :class:`AccessRegion` records."""
        if not self.access_regions:
            return self.bytes_in_scope("global")
        return sum(r.cache_traffic(cache_bytes) for r in self.access_regions)

    # -- vectorisation for the ML cost model -----------------------------------
    def vector(self) -> "np.ndarray":
        """Memoized read-only ndarray form of :meth:`to_vector`.

        Feature vectors are re-read constantly on the tuning fast path (cost
        model scoring, training-set assembly, database records); the list is
        built and converted once per :class:`ProgramFeatures` instance.
        """
        import numpy as np

        vec = self._vector
        if vec is None:
            vec = np.asarray(self.to_vector(), dtype=np.float64)
            vec.setflags(write=False)
            self._vector = vec
        return vec

    def to_vector(self) -> List[float]:
        def log1(x: float) -> float:
            return math.log(max(x, 0.0) + 1.0)

        # One pass over the regions for both cache sizes, and each buffer's
        # total bytes read once; builtin sum() adds the same terms in the
        # same order as before (and compensates them alike on Python 3.12).
        traffic_32k = traffic_256k = self.bytes_in_scope("global")
        if self.access_regions:
            small, large = [], []
            for region in self.access_regions:
                small.append(region.cache_traffic(32 * 1024))
                large.append(region.cache_traffic(256 * 1024))
            traffic_32k, traffic_256k = sum(small), sum(large)
        accesses = []
        for access in self.buffer_access.values():
            total = access.total_bytes
            unique = access.unique_bytes
            accesses.append((total, unique,
                             total / unique if unique > 0 else 0.0))
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
            log1(sum(reuse for _total, _unique, reuse in accesses)),
            log1(traffic_32k),
            log1(traffic_256k),
        ]
        # Per-buffer reuse features for up to 6 buffers (sorted by traffic).
        accesses.sort(key=lambda a: -a[0])
        for total, unique, reuse in accesses[:6]:
            vec.extend([log1(total), log1(unique), log1(reuse)])
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

#: the features a plan sums over its statements, each term a count times
#: a loop nest's trip count
_SUMS = ("flops", "int_ops", "intrinsic_calls", "intrinsic_flops",
         "barrier_count", "dep_token_count", "store_count")
#: loop kinds whose iterations keep a loaded value in registers
_REGISTER_KINDS = (ForKind.UNROLLED, ForKind.VECTORIZED)
#: loop kinds with a feature of their own (any other counts as serial)
_ANNOTATED = (ForKind.VECTORIZED, ForKind.UNROLLED, ForKind.PARALLEL,
              ForKind.VTHREAD)


def _flat(records: List[Tuple]) -> Tuple:
    return tuple(field for record in records for field in record)


def _records(flat: Tuple, width: int):
    """The ``width``-field records of a :func:`_flat` tuple, in order."""
    fields = iter(flat)
    return zip(*[fields] * width)


def _width(program: Tuple, ranges: Tuple) -> float:
    """How many values an index takes over ``ranges`` (at least 1.0, and
    1.0 if its bounds cannot be evaluated)."""
    try:
        low, high = eval_bounds(program, ranges)
        return max(1.0, float(high - low + 1))
    except Exception:
        return 1.0


class FeaturePlan:
    """The features of a loop program as arithmetic on its integers.

    Compiling walks the tree once and keeps what its integers do not
    decide: the effective loop nest (a loop re-binding a thread tag an
    enclosing loop binds runs on the same hardware thread and is dropped),
    each access's buffer and the loops that multiply its count, the bounds
    program of each global-buffer index, every statement's op counts, and
    the allocations.  Every integer is a position in ``values`` — the tape
    outputs of a recorded lowering (:class:`~repro.tir.replay.Replay`),
    whose slots ``outputs`` maps to positions — or in the plan's own
    constants, so one plan featurises every config of a structure class.
    :meth:`evaluate` does the float operations a walk of the tree built from
    ``values`` does, in its order: the features are bit-identical.
    """

    __slots__ = ("_consts", "_depth", "_loops", "_buffers", "_allocations",
                 "_accesses", "_widths", "_regions", "_sums")

    def __init__(self, tree, outputs: Optional[Dict[int, int]] = None):
        compiler = _PlanCompiler(outputs)
        if isinstance(tree, LoweredFunc):
            compiler.allocations.extend(compiler.buffer(alloc)
                                        for alloc in tree.allocations)
            tree = tree.body
        compiler.stmt(tree)
        self._consts = list(compiler.consts)
        self._depth = compiler.depth
        # records kept flat: a recorded class keeps its plan for as long
        # as the cache keeps the class
        self._loops = _flat(compiler.loops)
        self._buffers = tuple(compiler.buffers)
        self._allocations = tuple(compiler.allocations)
        self._accesses = _flat(compiler.accesses)
        self._widths = _flat(compiler.widths)
        self._regions = _flat(compiler.regions)
        self._sums = tuple((name, _flat(terms))
                           for name, terms in compiler.sums.items() if terms)

    def evaluate(self, values: Sequence[int] = ()) -> ProgramFeatures:
        """The :class:`ProgramFeatures` of the program with ``values``."""
        v = [*values, *self._consts]
        f = ProgramFeatures(max_loop_depth=self._depth)
        threads = f.thread_extents
        # Per nest (0 is outside every loop): the prefix products of the
        # effective extents, shared by the nest's regions, and each loop's
        # full ``(0, extent - 1)`` interval.
        trips = [(1.0,)]
        fulls = [()]
        carried = []            # per effective loop: max(extent, 1.0)
        for kind, ref, tag, outer in _records(self._loops, 4):
            extent = v[ref]
            if kind == ForKind.VECTORIZED:
                f.vector_lanes = max(f.vector_lanes, float(extent))
            elif kind == ForKind.UNROLLED:
                f.unroll_product *= float(extent)
            elif kind == ForKind.PARALLEL:
                f.parallel_extent *= float(extent)
            elif kind == ForKind.THREAD_BINDING:
                threads[tag] = threads.get(tag, 1.0) * float(extent)
            elif kind == ForKind.VTHREAD:
                f.vthread_extent *= float(extent)
            elif kind == ForKind.SERIAL:
                f.serial_trip_count *= float(max(extent, 1))
            if outer is not None:
                extent = float(extent)
                outer_trips = trips[outer]
                trips.append(outer_trips + (outer_trips[-1] * extent,))
                fulls.append(fulls[outer] + ((0, max(extent - 1, 0)),))
                carried.append(max(extent, 1.0))
        counts = [nest[-1] for nest in trips]
        for name, terms in self._sums:
            total = 0.0
            for nest, factor in _records(terms, 2):
                total += factor * counts[nest]
            setattr(f, name, total)

        buffers = self._buffers
        sizes = []
        for _name, _scope, _dtype, elem, dims in buffers:
            sizes.append(math.prod([v[dim] for dim in dims]) * elem)
        allocation = f.allocation_bytes
        for buf in self._allocations:
            scope = buffers[buf][1]
            allocation[scope] = allocation.get(scope, 0.0) + sizes[buf]

        by_name = f.buffer_access
        scope_bytes = f.scope_bytes
        scope_unique = f.scope_unique_bytes
        for nest, buf, is_store, multiplier in _records(self._accesses, 4):
            count = counts[nest]
            if type(multiplier) is tuple:     # the loops that multiply it
                effective = 1.0
                for loop in multiplier:
                    effective *= carried[loop]
                count = min(count, effective)
            elif multiplier is not None:      # a tensor intrinsic's operand
                count = count * multiplier
            name, scope, dtype, elem, _dims = buffers[buf]
            size = float(sizes[buf])
            access = by_name.get(name)
            if access is None:
                access = by_name[name] = BufferAccess(name, scope, dtype,
                                                      unique_bytes=size)
            if is_store:
                access.store_count += count
            else:
                access.load_count += count
            scope_bytes[scope] = scope_bytes.get(scope, 0.0) + count * elem
            scope_unique[scope] = max(scope_unique.get(scope, 0.0), size)

        # Per-level extent multiplier of each global index: bounds change
        # only at the levels that fix one of its loops, so each run of
        # levels evaluates once.
        widths = []
        for program, tail, segments, nest, last in _records(self._widths, 5):
            full = fulls[nest]
            # traced constants, at the end of the ranges (keys ~0, ~1, ...)
            constants = tuple([(v[ref], v[ref]) for ref in tail])
            vals: List[float] = []
            level = 0
            for length in segments:
                if last is None or level + length <= len(full):
                    current = _width(program, (_ZERO_BOUNDS,) * level
                                     + full[level:] + constants)
                else:
                    current = last
                vals += [current] * length
                level += length
            widths.append(vals)
        regions = f.access_regions
        for nest, buf, jobs in _records(self._regions, 3):
            per_index = [widths[job] for job in jobs]
            elem = buffers[buf][3]
            size = float(sizes[buf])
            touched: List[float] = []
            previous = None
            for level in range(len(trips[nest])):
                region = elem
                for vals in per_index:
                    region *= vals[level]
                region = min(region, size)
                if region != previous:      # else repeat the previous float
                    previous = region
                touched.append(previous)
            regions.append(AccessRegion(elem, touched, trips[nest],
                                        counts[nest]))
        return f


class _PlanCompiler:
    """One walk of a tree, writing the parts of a :class:`FeaturePlan`."""

    def __init__(self, outputs: Optional[Dict[int, int]]):
        self.outputs = outputs or {}
        self.consts: Dict[int, int] = {}        # constant -> position
        self.depth = 0
        # (kind, extent, tag, enclosing nest) per loop; no nest (None) for a
        # loop re-binding an enclosing thread tag
        self.loops: List[Tuple] = []
        self.buffers: List[Tuple] = []
        self.allocations: List[int] = []
        self.accesses: List[Tuple] = []
        self.widths: List[Tuple] = []
        self.regions: List[Tuple] = []
        self.sums: Dict[str, List[Tuple[int, float]]] = {n: [] for n in _SUMS}
        # the walk's state: the current nest, and its effective loops as
        # (loop, id of its var, kind) with each var's level
        self._nest = 0
        self._effective = 0
        self._stack: List[Tuple[int, int, str]] = []
        self._level: Dict[int, int] = {}       # by id(var): Expr hashes slowly
        self._tags: Set[str] = set()
        self._nesting = 0
        self._buffer_ids: Dict[int, int] = {}
        self._bounds: Dict[int, Tuple] = {}
        self._programs: Dict[Tuple, Tuple] = {}
        # a recorded class's plan (one with outputs) lives as long as the
        # class: it shares its equal tuples
        self._shared: Optional[Dict[Tuple, Tuple]] = (
            None if outputs is None else {})
        self._width_ids: Dict[Tuple[int, int], int] = {}

    def ref(self, value: int) -> int:
        """The position of an integer in ``values + constants``."""
        if type(value) is SymInt:
            position = self.outputs.get(value.slot)
            if position is None:
                raise Untraceable("an integer the recording does not output")
            return position
        position = self.consts.get(value)
        if position is None:
            position = self.consts[value] = len(self.outputs) + len(self.consts)
        return position

    def buffer(self, buffer: Buffer) -> int:
        buf = self._buffer_ids.get(id(buffer))
        if buf is None:
            buf = self._buffer_ids[id(buffer)] = len(self.buffers)
            self.buffers.append((buffer.name, buffer.scope, buffer.dtype,
                                 dtype_bytes(buffer.dtype),
                                 self.share(tuple(self.ref(dim)
                                                  for dim in buffer.shape))))
        return buf

    def add(self, name: str, factor: float) -> None:
        if factor:                      # a zero term leaves the sum as it is
            self.sums[name].append((self._nest, factor))

    def bounds(self, index: Expr) -> Tuple[Optional[List], Optional[List]]:
        """Memoized ``compile_bounds(index)``, ``(None, None)`` if it
        raises."""
        cached = self._bounds.get(id(index))
        if cached is None:
            try:
                cached = compile_bounds(index)
            except Exception:
                cached = (None, None)
            self._bounds[id(index)] = cached
        return cached

    def access(self, buffer: Buffer, indices: List[Expr],
               is_store: bool) -> None:
        """One access: how often it reaches the memory system, and the
        region a global one touches per loop level.

        The raw trip count of the enclosing loop nest overstates traffic
        because real code generators perform loop-invariant code motion and
        keep values loaded in unrolled/vectorized loops in registers (scalar
        replacement).  A loop therefore does not multiply the access count
        when the access is independent of its loop variable and either

        * every loop nested deeper is also independent (classic LICM hoists
          the access above it), or
        * the loop is unrolled or vectorized (the register allocator keeps
          the value live across its iterations).
        """
        index_vars: Set[int] = set()
        multiplier: Optional[Tuple[int, ...]] = None
        for index in indices:
            free = self.bounds(index)[0]
            if free is None:
                break
            index_vars.update(map(id, free))
        else:
            loops = []
            deeper_independent = True
            for loop, var, kind in reversed(self._stack):
                independent = var not in index_vars    # an id
                if not (independent and (deeper_independent
                                         or kind in _REGISTER_KINDS)):
                    loops.append(loop)
                deeper_independent = deeper_independent and independent
            multiplier = self.share(tuple(loops))
        buf = self.buffer(buffer)
        self.accesses.append((self._nest, buf, is_store, multiplier))
        if buffer.scope == "global":    # see AccessRegion for why
            self.regions.append((self._nest, buf, tuple(
                self.width(index) for index in indices)))

    def width(self, index: Expr) -> int:
        """The plan's per-level width job of ``index`` in this nest: its
        program and the lengths of the segments of levels over which its
        bounds do not change."""
        key = (id(index), self._nest)
        job = self._width_ids.get(key)
        if job is None:
            free, program = self.bounds(index)
            tail: Tuple[int, ...] = ()
            starts = {0}
            if program is not None:
                levels = tuple([self._level.get(id(var)) for var in free])
                starts.update(level + 1 for level in levels
                              if level is not None)
                program, tail = self.rekeyed(index, program, levels)
            # The last run, past every loop the index reads, fixes them all
            # at 0, and a traced constant is a point: its width is known now,
            # unless the program can widen points.
            last = (1.0 if program is None or keeps_points(program)
                    else None if tail else _width(
                        program, (_ZERO_BOUNDS,) * len(self._stack)))
            bounds = sorted(starts) + [len(self._stack) + 1]
            self.widths.append((program, tail, self.share(tuple(
                end - start for start, end in zip(bounds, bounds[1:]))),
                self._nest, last))
            job = self._width_ids[key] = len(self.widths) - 1
        return job

    def rekeyed(self, index: Expr, program: List,
                levels: Tuple) -> Tuple[Tuple, Tuple[int, ...]]:
        """``index``'s bounds program over loop levels, and the positions
        of its traced constants (``~0, ~1, ...`` in the program)."""
        key = (id(index), levels)
        cached = self._programs.get(key)
        if cached is None:
            tail: List[int] = []

            def constant_key(value):
                if type(value) is not SymInt:
                    return None
                tail.append(self.ref(value))
                return ~(len(tail) - 1)

            program = rekey_bounds(program,
                                   lambda var: self._level.get(id(var)),
                                   constant_key)
            if self._shared is not None:
                program = tuple(self.share(step, step if type(step[1])
                                           is not tuple
                                           else (step, type(step[1][0])))
                                for step in program)
                program = self.share(program, tuple(map(id, program)))
            cached = self._programs[key] = (program,
                                            self.share(tuple(reversed(tail))))
        return cached

    def share(self, value: Tuple, key: Optional[Tuple] = None) -> Tuple:
        """``value``, or the equal tuple the plan already holds (``key``,
        if given, tells equal ones apart: ``1`` and ``1.0`` are equal)."""
        if self._shared is None:
            return value
        return self._shared.setdefault((key or value,), value)

    # ------------------------------------------------------------------ walk
    def stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, SeqStmt):
            for sub in stmt.stmts:
                self.stmt(sub)
        elif isinstance(stmt, For):
            self.loop(stmt)
        elif isinstance(stmt, IfThenElse):
            self.stmt(stmt.then_body)
            if stmt.else_body is not None:
                self.stmt(stmt.else_body)
        elif isinstance(stmt, (Allocate, AttrStmt)):
            if isinstance(stmt, Allocate):
                self.allocations.append(self.buffer(stmt.buffer))
            self.stmt(stmt.body)
        elif isinstance(stmt, Barrier):
            self.add("barrier_count", 1)
        elif isinstance(stmt, (DepPush, DepPop)):
            self.add("dep_token_count", 1)
        elif isinstance(stmt, Evaluate):
            pass
        elif isinstance(stmt, BufferStore):
            self.add("store_count", 1)
            self.access(stmt.buffer, stmt.indices, True)
            stack = [stmt.value]
            while stack:
                node = stack.pop()
                if isinstance(node, BufferLoad):
                    self.access(node.buffer, node.indices, False)
                stack.extend(expr_children(node))
            for index in stmt.indices:
                self.add("int_ops", _count_ops(index)[1])
            flops, iops = _count_ops(stmt.value)
            self.add("flops", flops)
            self.add("int_ops", iops)
        elif isinstance(stmt, IntrinsicStmt):
            self.add("intrinsic_calls", 1)
            self.add("intrinsic_flops", stmt.intrin.flop)
            # reads its inputs and writes its output once per call
            self.accesses.append((self._nest, self.buffer(stmt.output),
                                  True, math.prod(stmt.intrin.output_shape)))
            for decl_input, buffer in zip(stmt.intrin.inputs, stmt.inputs):
                self.accesses.append((self._nest, self.buffer(buffer), False,
                                      math.prod(decl_input.shape_values())))
        else:
            raise TypeError(
                f"Unhandled statement in feature extraction: {stmt!r}")

    def loop(self, loop: For) -> None:
        try:
            extent = self.ref(loop.extent_value())
        except ValueError:
            extent = self.ref(1)
        kind, tag = loop.kind, loop.thread_tag
        rebound = bool(tag) and tag in self._tags
        if kind == ForKind.THREAD_BINDING and tag:
            if rebound:
                kind = None     # the enclosing binding counts it
        elif kind not in _ANNOTATED:
            kind = ForKind.SERIAL
        self.loops.append((kind, extent, tag, None if rebound else self._nest))
        self._nesting += 1
        self.depth = max(self.depth, self._nesting)
        outer = self._nest
        if not rebound:
            if tag:
                self._tags.add(tag)
            self._level[id(loop.loop_var)] = len(self._stack)
            self._stack.append((self._effective, id(loop.loop_var),
                                loop.kind))
            self._effective += 1
            self._nest = self._effective
        self.stmt(loop.body)
        self._nesting -= 1
        if not rebound:
            self._stack.pop()
            self._level.pop(id(loop.loop_var), None)
            self._nest = outer
            if tag:
                self._tags.discard(tag)


def extract_features(func_or_stmt) -> ProgramFeatures:
    """Extract :class:`ProgramFeatures` from a lowered function or statement
    (its :class:`FeaturePlan`, evaluated once)."""
    return FeaturePlan(func_or_stmt).evaluate()
