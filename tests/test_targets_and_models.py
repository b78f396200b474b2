"""Tests for targets, simulated hardware models and the Table 2 workloads."""

import math

import numpy as np
import pytest

from repro import te, tir
from repro.hardware import (
    SCHEDULE_PRIMITIVE_SUPPORT,
    EmbeddedCPU,
    MobileGPU,
    ServerGPU,
    arm_a53_params,
    arm_cpu,
    cortex_a9_params,
    create_target,
    cuda,
    mali,
    mali_t860_params,
    pynq_cpu,
    titan_x_params,
    vdla,
)
from repro.topi import nn as topi_nn
from repro.topi.schedules.cpu import conv2d_cpu_template, dense_cpu_template
from repro.topi.schedules.gpu import schedule_matmul_gpu
from repro.workloads import (
    MOBILENET_DEPTHWISE_WORKLOADS,
    RESNET_CONV_WORKLOADS,
    all_workloads,
)


class TestTargets:
    @pytest.mark.parametrize("name,device_type", [
        ("cuda", "gpu"), ("arm_cpu", "cpu"), ("mali", "mali"),
        ("vdla", "vdla"), ("pynq_cpu", "cpu"),
    ])
    def test_create_target_by_name(self, name, device_type):
        assert create_target(name).device_type == device_type

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            create_target("tpu_v4")

    def test_primitive_support_matches_figure6(self):
        """Figure 6: memory scopes for GPU/accel, latency hiding only on accel."""
        assert SCHEDULE_PRIMITIVE_SUPPORT["cpu"]["special_memory_scope"] is False
        assert SCHEDULE_PRIMITIVE_SUPPORT["gpu"]["special_memory_scope"] is True
        assert SCHEDULE_PRIMITIVE_SUPPORT["gpu"]["latency_hiding"] is False
        assert SCHEDULE_PRIMITIVE_SUPPORT["accel"]["latency_hiding"] is True
        for backend in SCHEDULE_PRIMITIVE_SUPPORT.values():
            assert backend["loop_transformations"] is True
            assert backend["tensorization"] is True

    def test_target_properties(self):
        assert cuda().max_threads_per_block == 1024
        assert arm_cpu().num_cores == 4
        assert pynq_cpu().num_cores == 2

    def test_device_parameters_are_distinct(self):
        assert titan_x_params().peak_flops > mali_t860_params().peak_flops
        assert arm_a53_params().peak_flops > cortex_a9_params().peak_flops


def _matmul_features(size=1024, use_shared=True, tile=8, threads=8):
    A = te.placeholder((size, size), name="A")
    B = te.placeholder((size, size), name="B")
    C = topi_nn.matmul(A, B)
    schedule = schedule_matmul_gpu(A, B, C, use_shared=use_shared, tile=tile,
                                   threads=threads)
    func = tir.lower(schedule, [A, B, C], name="mm")
    return tir.extract_features(func)


class TestServerGPUModel:
    def test_cooperative_fetching_helps(self):
        """Figure 7's mechanism: shared-memory staging beats shared-nothing."""
        model = ServerGPU()
        coop = model.estimate(_matmul_features(use_shared=True))
        nothing = model.estimate(_matmul_features(use_shared=False))
        assert coop < nothing

    def test_excessive_shared_memory_is_invalid(self):
        from repro.tir.analysis import ProgramFeatures

        features = ProgramFeatures(flops=1e6)
        features.allocation_bytes["shared"] = 1 << 20   # 1 MB > 48 kB limit
        assert math.isinf(ServerGPU().estimate(features))

    def test_too_many_threads_per_block_is_invalid(self):
        from repro.tir.analysis import ProgramFeatures

        features = ProgramFeatures(flops=1e6)
        features.thread_extents["threadIdx.x"] = 4096.0
        assert math.isinf(ServerGPU().estimate(features))

    def test_mobile_gpu_slower_than_server(self):
        features = _matmul_features()
        assert MobileGPU().estimate(features) > ServerGPU().estimate(features)

    def test_measurement_noise_is_bounded(self):
        model = ServerGPU()
        features = _matmul_features()
        base = model.estimate(features)
        result = model.measure(features, 5, np.random.default_rng(0))
        assert result.valid
        assert 0.5 * base <= result.mean_time <= 1.5 * base


def _conv_cpu_features():
    from repro.autotvm.space import ConfigSpace

    data = te.placeholder((1, 16, 28, 28), name="data")
    kernel = te.placeholder((32, 16, 3, 3), name="kernel")
    conv = topi_nn.conv2d_nchw(data, kernel, 1, 1)
    schedule, tensors = conv2d_cpu_template(ConfigSpace(), data, kernel, conv)
    func = tir.lower(schedule, tensors, name="conv_cpu")
    return tir.extract_features(func)


class TestEmbeddedCPUModel:
    def test_parallel_extent_speeds_up(self):
        """Multi-core ``parallel`` annotations lower the simulated latency."""
        import copy

        model = EmbeddedCPU()
        serial = _conv_cpu_features()
        serial.parallel_extent = 1.0
        parallel = copy.deepcopy(serial)
        parallel.parallel_extent = 4.0
        assert model.estimate(parallel) < model.estimate(serial)

    def test_vector_lanes_speed_up(self):
        import copy

        model = EmbeddedCPU()
        scalar = _conv_cpu_features()
        scalar.vector_lanes = 1.0
        vectorized = copy.deepcopy(scalar)
        vectorized.vector_lanes = 4.0
        assert model.estimate(vectorized) < model.estimate(scalar)

    def test_cortex_a9_slower_than_a53(self):
        features = _conv_cpu_features()
        a53 = EmbeddedCPU(arm_a53_params()).estimate(features)
        a9 = EmbeddedCPU(cortex_a9_params()).estimate(features)
        assert a9 > a53


class TestTable2Workloads:
    def test_counts_match_paper(self):
        assert len(RESNET_CONV_WORKLOADS) == 12
        assert len(MOBILENET_DEPTHWISE_WORKLOADS) == 9

    def test_c1_is_the_stem_conv(self):
        c1 = RESNET_CONV_WORKLOADS[0]
        assert (c1.height, c1.width) == (224, 224)
        assert (c1.in_channels, c1.out_channels) == (3, 64)
        assert (c1.kernel, c1.stride) == (7, 2)

    def test_c7_matches_paper_row(self):
        c7 = RESNET_CONV_WORKLOADS[6]
        assert (c7.height, c7.in_channels, c7.out_channels, c7.kernel, c7.stride) \
            == (28, 128, 256, 3, 2)

    def test_depthwise_channels_grow_as_resolution_shrinks(self):
        d1 = MOBILENET_DEPTHWISE_WORKLOADS[0]
        d9 = MOBILENET_DEPTHWISE_WORKLOADS[-1]
        assert d1.height > d9.height
        assert d1.channels < d9.channels

    def test_all_workloads_index(self):
        table = all_workloads()
        assert "C1" in table and "D9" in table
        assert len(table) == 21

    @pytest.mark.parametrize("workload", RESNET_CONV_WORKLOADS)
    def test_conv_workloads_use_same_padding(self, workload):
        """Table 2: every operator uses 'SAME' padding."""
        assert workload.padding == workload.kernel // 2
