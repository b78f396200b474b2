"""Tests for loop-program feature extraction and the hardware models."""

import dataclasses
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from repro import te, tir
from repro.te.expr import compile_bounds, eval_bounds, expr_children
from repro.tir.stmt import (Allocate, AttrStmt, BufferLoad, BufferStore, For, IfThenElse,
                            SeqStmt, dtype_bytes)
from repro.hardware import (
    EmbeddedCPU,
    MobileGPU,
    ServerGPU,
    VDLAAccelerator,
    arm_cpu,
    create_target,
    cuda,
    mali,
    vdla,
)
from repro.topi import nn
from repro.topi.schedules import gpu as gpu_sched


def _tiled_matmul_features(size=256, tile=16, vectorize=False, parallel=False):
    A = te.placeholder((size, size), name="A")
    B = te.placeholder((size, size), name="B")
    k = te.reduce_axis((0, size), name="k")
    C = te.compute((size, size), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k),
                   name="C")
    s = te.create_schedule(C.op)
    i, j = s[C].op.axis
    io, jo, ii, ji = s[C].tile(i, j, tile, tile)
    ko, ki = s[C].split(k, factor=tile)
    s[C].reorder(io, jo, ko, ii, ji, ki)
    if vectorize:
        s[C].vectorize(ji)
    if parallel:
        s[C].parallel(io)
    return tir.extract_features(tir.lower(s, [A, B, C]))


def test_flop_count_matches_analytic():
    size = 64
    features = _tiled_matmul_features(size=size, tile=8)
    expected = 2.0 * size ** 3
    assert features.flops == pytest.approx(expected, rel=0.01)


def test_cache_traffic_prefers_moderate_tiles():
    small = _tiled_matmul_features(size=256, tile=2).cache_aware_traffic(32 * 1024)
    good = _tiled_matmul_features(size=256, tile=32).cache_aware_traffic(32 * 1024)
    huge = _tiled_matmul_features(size=256, tile=128).cache_aware_traffic(32 * 1024)
    assert good < small
    assert good < huge


def test_annotation_features_detected():
    features = _tiled_matmul_features(vectorize=True, parallel=True)
    assert features.vector_lanes > 1
    assert features.parallel_extent > 1
    plain = _tiled_matmul_features()
    assert plain.vector_lanes == 1.0
    assert plain.parallel_extent == 1.0


def test_feature_vector_fixed_length():
    a = _tiled_matmul_features(size=64)
    b = _tiled_matmul_features(size=256, vectorize=True)
    assert len(a.to_vector()) == len(b.to_vector()) == len(tir.FEATURE_NAMES)


#: sha256 prefix of :func:`_features_fingerprint` — the ``ProgramFeatures``
#: the hardware models and the GBT are told a program has, over every
#: template's sampled configs on small shapes
FEATURES_FINGERPRINT = "f9bd37e437e0f46f"


def _template_candidates(channels=4, size=6, units=12):
    """``(op, target name, task, config, lowered func)`` over every
    template x target, 8 seeded configs each; the defaults are small
    shapes."""
    from repro.frontend import ModelBuilder
    from repro.graph.op_timing import is_templated, make_task_for_node

    for op in ("conv2d", "depthwise_conv2d", "dense"):
        b = ModelBuilder("fingerprint", seed=0)
        if op == "dense":
            out = b.dense(b.input("data", (2, units)), units // 2, name="op")
        else:
            data = b.input("data", (1, channels, size, size))
            out = (b.conv2d(data, channels * 3 // 2, 3, 2, 1, name="op")
                   if op == "conv2d"
                   else b.depthwise_conv2d(data, 3, 1, 1, name="op"))
        node = b.finalize(out)[0].find("op")
        for name in ("cuda", "mali", "arm_cpu", "pynq_cpu", "vdla"):
            target = create_target(name)
            if not is_templated(node, target):
                continue
            task = make_task_for_node(node, target)
            for config in task.config_space.sample(8, random.Random(3)):
                yield op, name, task, config, task.lower(config)


def _features_fingerprint(planned: bool = False) -> str:
    """The digest of the sampled configs' features: of each lowered tree,
    or (``planned``) ``Task.features_of`` once all the task's configs have
    been lowered — a config of a recorded structure class is featurised from
    the class's plan, with no tree."""
    from repro.autotvm import clear_eval_caches

    clear_eval_caches()
    digest = hashlib.sha256()
    candidates = itertools.chain.from_iterable(
        list(group) for _task, group in itertools.groupby(
            _template_candidates(), key=lambda candidate: candidate[2]))
    for op, name, task, config, func in candidates:
        f = (task.features_of(config.index) if planned
             else tir.extract_features(func))
        digest.update(repr((
            op, name, config.index, f.to_vector(), f.flops, f.int_ops,
            f.intrinsic_flops, f.store_count,
            sorted(f.scope_bytes.items()),
            sorted(f.scope_unique_bytes.items()),
            sorted(f.allocation_bytes.items()))).encode())
    return digest.hexdigest()[:16]


def test_program_features_fingerprint():
    """The features of a fixed config set per (template, target) are pinned:
    a rewrite of lowering, simplification or feature extraction that is
    meant to compute the same features must keep this hash, along both
    paths."""
    assert _features_fingerprint() == FEATURES_FINGERPRINT
    assert _features_fingerprint(planned=True) == FEATURES_FINGERPRINT


class _ReferenceRegion:
    """One access's loop-level touch statistics, any scope, as the per-level
    reference computes them."""

    def __init__(self, scope, dtype, touched_bytes, trips_outside,
                 total_accesses):
        self.scope = scope
        self.dtype = dtype
        self.touched_bytes = touched_bytes
        self.trips_outside = trips_outside
        self.total_accesses = total_accesses

    def cache_traffic(self, cache_bytes):
        elem = dtype_bytes(self.dtype)
        if not self.touched_bytes:
            return self.total_accesses * elem
        best = self.total_accesses * elem
        for level in range(len(self.touched_bytes)):
            if self.touched_bytes[level] <= cache_bytes:
                best = min(best,
                           self.trips_outside[level] * self.touched_bytes[level])
                break
        else:
            best = min(best, self.trips_outside[-1] * self.touched_bytes[-1])
        return max(best, elem)


class _ReferenceFeatures(tir.ProgramFeatures):
    """Features whose cache model reads the reference regions."""

    __slots__ = ("reference_regions",)

    def __init__(self):
        super().__init__()
        self.reference_regions = []

    def cache_aware_traffic(self, cache_bytes):
        regions = [r for r in self.reference_regions if r.scope == "global"]
        if not regions:
            return self.bytes_in_scope("global")
        return sum(r.cache_traffic(cache_bytes) for r in regions)


class _ReferenceRegions:
    """The per-level, all-scope region recorder, as a walk of the tree of its
    own: every access's widths evaluated afresh at every level, one trip list
    per access."""

    def __init__(self):
        self.regions = []
        self._loops = []            # effective (tag-deduplicated) loops
        self._tags = set()

    def visit(self, stmt):
        if isinstance(stmt, SeqStmt):
            for sub in stmt.stmts:
                self.visit(sub)
        elif isinstance(stmt, For):
            try:
                extent = stmt.extent_value()
            except ValueError:
                extent = 1
            tag = stmt.thread_tag
            added = not (tag and tag in self._tags)
            if added:
                self._tags.add(tag)
                self._loops.append((stmt.loop_var, float(extent)))
            self.visit(stmt.body)
            if added:
                self._loops.pop()
                self._tags.discard(tag)
        elif isinstance(stmt, IfThenElse):
            self.visit(stmt.then_body)
            if stmt.else_body is not None:
                self.visit(stmt.else_body)
        elif isinstance(stmt, (Allocate, AttrStmt)):
            self.visit(stmt.body)
        elif isinstance(stmt, BufferStore):
            self._record(stmt.buffer, stmt.indices)
            stack = [stmt.value]
            while stack:
                node = stack.pop()
                if isinstance(node, BufferLoad):
                    self._record(node.buffer, node.indices)
                stack.extend(expr_children(node))

    def _record(self, buffer, indices):
        n_loops = len(self._loops)
        level_of = {id(var): pos for pos, (var, _) in enumerate(self._loops)}
        per_index = []
        for index in indices:
            try:
                free, program = compile_bounds(index)
            except Exception:
                per_index.append([1.0] * (n_loops + 1))
                continue
            vals = []
            for level in range(n_loops + 1):
                env = {}
                for var in free:
                    pos = level_of.get(id(var))
                    env[var] = ((0, 0) if pos is None or pos < level
                                else (0, max(self._loops[pos][1] - 1, 0)))
                try:
                    low, high = eval_bounds(program, env)
                    vals.append(max(1.0, float(high - low + 1)))
                except Exception:
                    vals.append(1.0)
            per_index.append(vals)
        touched = []
        trips = []
        trip = 1.0
        for level in range(n_loops + 1):
            region = dtype_bytes(buffer.dtype)
            for vals in per_index:
                region *= vals[level]
            touched.append(min(region, float(buffer.size_bytes)))
            trips.append(trip)
            if level < n_loops:
                trip *= self._loops[level][1]
        self.regions.append(_ReferenceRegion(
            buffer.scope, buffer.dtype, touched, trips, trips[-1]))


def _reference_features(func):
    """``func``'s features, with the regions the reference records."""
    features = tir.extract_features(func)
    reference = _ReferenceFeatures()
    for f in dataclasses.fields(features):
        if f.compare:
            setattr(reference, f.name, getattr(features, f.name))
    walk = _ReferenceRegions()
    walk.visit(func.body)
    reference.reference_regions = walk.regions
    return reference


def test_cache_traffic_matches_the_per_level_reference():
    """Regions of global buffers only, widths evaluated once per segment of
    levels and shared trip tuples give bitwise the cache traffic and the
    estimates of the per-level, all-scope reference walk."""
    sizes = [1, 4 << 10, 32 << 10, 256 << 10, 512 << 10, 3 << 20, 1e12]
    checked = 0
    candidates = itertools.chain(
        _template_candidates(),
        _template_candidates(channels=32, size=28, units=256))
    for _op, _name, task, _config, func in candidates:
        target = task.target
        features = tir.extract_features(func)
        reference = _reference_features(func)
        params = target.model.params
        model_sizes = [getattr(params, name) for name in ("l1_bytes",
                                                          "l2_bytes")
                       if hasattr(params, name)]
        for cache_bytes in sizes + model_sizes:
            assert (features.cache_aware_traffic(cache_bytes)
                    == reference.cache_aware_traffic(cache_bytes))
        assert target.model.estimate(features) == \
            target.model.estimate(reference)
        assert all(region.elem_bytes in (1, 2, 4, 8)
                   for region in features.access_regions)
        checked += 1
    assert checked == 2 * 14 * 8


def test_gpu_model_rewards_parallelism():
    gpu = ServerGPU()
    A = te.placeholder((256, 256), name="A")
    B = te.placeholder((256, 256), name="B")
    C = nn.matmul(A, B)
    threaded = gpu_sched.schedule_matmul_gpu(A, B, C, use_shared=False,
                                             tile=8, threads=8)
    t_threaded = gpu.estimate(tir.extract_features(tir.lower(threaded, [A, B, C])))
    serial = te.create_schedule(C.op)
    t_serial = gpu.estimate(tir.extract_features(tir.lower(serial, [A, B, C])))
    assert t_threaded < t_serial


def test_gpu_model_rejects_oversized_shared_memory():
    gpu = ServerGPU()
    features = tir.ProgramFeatures()
    features.allocation_bytes["shared"] = 10 * (1 << 20)
    assert math.isinf(gpu.estimate(features))


def test_cpu_model_rewards_parallel_and_vectorize():
    cpu = EmbeddedCPU()
    base = cpu.estimate(_tiled_matmul_features(size=128, tile=16))
    improved = cpu.estimate(_tiled_matmul_features(size=128, tile=16,
                                                   vectorize=True, parallel=True))
    assert improved < base


def test_measurement_noise_is_deterministic_and_bounded():
    cpu = EmbeddedCPU()
    features = _tiled_matmul_features(size=64)
    first = cpu.measure(features, 3, np.random.default_rng(5))
    second = cpu.measure(features, 3, np.random.default_rng(5))
    base = cpu.estimate(features)
    assert first.valid and second.valid
    assert first.mean_time == pytest.approx(second.mean_time)
    assert abs(first.mean_time - base) / base < 0.5


def test_vdla_latency_hiding_reduces_time():
    from repro.topi.schedules import vdla as vdla_sched

    accel = VDLAAccelerator()
    s1, t1 = vdla_sched.schedule_gemm_vdla(64, 64, 64, vthreads=1)
    s2, t2 = vdla_sched.schedule_gemm_vdla(64, 64, 64, vthreads=2)
    f1 = tir.inject_virtual_threads(tir.lower(s1, t1))
    f2 = tir.inject_virtual_threads(tir.lower(s2, t2))
    without = accel.estimate_func(f1, latency_hiding=False)
    with_hiding = accel.estimate_func(f2, latency_hiding=True)
    assert with_hiding <= without
    assert accel.compute_utilization(f2, True) >= accel.compute_utilization(f1, False)


def test_vdla_instruction_trace_contains_all_stages():
    from repro.hardware import build_instruction_trace
    from repro.topi.schedules import vdla as vdla_sched

    s, tensors = vdla_sched.schedule_gemm_vdla(64, 64, 64, vthreads=2)
    func = tir.inject_virtual_threads(tir.lower(s, tensors))
    trace = build_instruction_trace(func)
    stages = {instr.stage for instr in trace}
    assert {"ld", "ex", "st"} <= stages


def test_targets_expose_primitive_support():
    assert cuda().primitive_support["special_memory_scope"]
    assert vdla().primitive_support["latency_hiding"]
    assert not arm_cpu().primitive_support["latency_hiding"]
    assert mali().device_type == "mali"
    with pytest.raises(ValueError):
        create_target("tpu-v9000")
    assert create_target("cuda").name == "cuda"
