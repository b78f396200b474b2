"""Tests for loop-program feature extraction and the hardware models."""

import hashlib
import math
import random

import numpy as np
import pytest

from repro import te, tir
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
FEATURES_FINGERPRINT = "1b3efa576b03aa0a"


def _features_fingerprint() -> str:
    from repro.frontend import ModelBuilder
    from repro.graph.op_timing import is_templated, make_task_for_node

    digest = hashlib.sha256()
    for op in ("conv2d", "depthwise_conv2d", "dense"):
        b = ModelBuilder("fingerprint", seed=0)
        if op == "dense":
            out = b.dense(b.input("data", (2, 12)), 6, name="op")
        else:
            data = b.input("data", (1, 4, 6, 6))
            out = (b.conv2d(data, 6, 3, 2, 1, name="op") if op == "conv2d"
                   else b.depthwise_conv2d(data, 3, 1, 1, name="op"))
        node = b.finalize(out)[0].find("op")
        for name in ("cuda", "mali", "arm_cpu", "pynq_cpu", "vdla"):
            target = create_target(name)
            if not is_templated(node, target):
                continue
            task = make_task_for_node(node, target)
            for config in task.config_space.sample(8, random.Random(3)):
                f = tir.extract_features(task.lower(config))
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
    meant to compute the same features must keep this hash."""
    assert _features_fingerprint() == FEATURES_FINGERPRINT


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
    cpu = EmbeddedCPU(seed=3)
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
