"""Tests for the VDLA accelerator simulator and its schedules (Section 6.4)."""

import numpy as np
import pytest

from repro import te, tir
from repro.autotvm.space import ConfigSpace
from repro.hardware import pynq_vdla_params, vdla
from repro.hardware.vdla import (
    VDLAAccelerator,
    VDLAInstruction,
    build_instruction_trace,
)
from repro.tir.transforms import inject_virtual_threads
from repro.topi.schedules import vdla as vdla_sched


def _gemm_func(m=64, n=2048, k=128, vthreads=2):
    schedule, tensors = vdla_sched.schedule_gemm_vdla(m, n, k, vthreads=vthreads)
    func = tir.lower(schedule, tensors, name=f"gemm_{m}_{n}_{k}_{vthreads}")
    return inject_virtual_threads(func)


class TestConv2dAsGemm:
    def test_shapes_match_im2col(self):
        m, n, k = vdla_sched.conv2d_as_gemm_workload(1, 64, 56, 56, 64, 3, 1, 1)
        assert m == 64
        assert n == 56 * 56
        assert k == 64 * 9

    def test_stride_reduces_output_pixels(self):
        _m, n, _k = vdla_sched.conv2d_as_gemm_workload(1, 64, 56, 56, 128, 3, 2, 1)
        assert n == 28 * 28


class TestGemmTemplate:
    def test_accumulator_tile_fits_on_chip(self):
        params = pynq_vdla_params()
        cfg = ConfigSpace()
        schedule, _tensors = vdla_sched.gemm_vdla_template(cfg, 64, 3136, 576)
        acc_stage = [s for s in schedule.stages if s.scope == "acc_buffer"]
        assert acc_stage, "accumulator cache stage missing"
        # The macro-tile is bounded by the 128 kB accumulator buffer.
        func = tir.lower(schedule, _tensors, name="check")
        features = tir.extract_features(func)
        assert features.allocation_bytes.get("acc_buffer", 0) <= params.acc_buffer_bytes

    def test_uses_all_three_memory_scopes(self):
        func = _gemm_func()
        features = tir.extract_features(func)
        for scope in ("acc_buffer", "inp_buffer", "wgt_buffer"):
            assert features.allocation_bytes.get(scope, 0) > 0

    def test_tensorized_intrinsic_calls_present(self):
        func = _gemm_func()
        features = tir.extract_features(func)
        assert features.intrinsic_calls > 0
        assert features.intrinsic_flops > 0

    def test_vthread_knob_controls_binding(self):
        # Before the virtual-thread lowering pass the vthread loop is still a
        # loop; the pass then interleaves it into a single instruction stream
        # (Figure 8), which is what the other tests exercise.
        def raw_features(vthreads):
            schedule, tensors = vdla_sched.schedule_gemm_vdla(64, 2048, 128,
                                                              vthreads=vthreads)
            return tir.extract_features(tir.lower(schedule, tensors, name="g"))

        assert raw_features(2).vthread_extent > raw_features(1).vthread_extent


class TestInstructionTrace:
    def test_copy_loops_are_coalesced(self):
        func = _gemm_func()
        trace = build_instruction_trace(func, pynq_vdla_params())
        # Far fewer instructions than data elements: DMA loops collapse into
        # single dma_copy2d-style micro-ops.
        loads = [i for i in trace if i.stage == "ld"]
        assert loads
        # One DMA instruction per staged tile, not one per element: the data
        # matrix alone has >260k elements, yet the load instruction count is
        # orders of magnitude smaller.
        assert len(loads) < 2000
        assert all(i.cycles > 0 for i in trace)

    def test_trace_contains_compute_and_loads(self):
        func = _gemm_func()
        trace = build_instruction_trace(func, pynq_vdla_params())
        stages = {i.stage for i in trace}
        assert "ld" in stages and "ex" in stages

    def test_vthread_instructions_tagged(self):
        func = _gemm_func(vthreads=2)
        trace = build_instruction_trace(func, pynq_vdla_params())
        assert {i.vthread for i in trace} >= {0, 1}


class TestPipelineSimulation:
    def test_latency_hiding_reduces_time(self):
        model = VDLAAccelerator()
        func = _gemm_func(vthreads=2)
        hidden = model.estimate_func(func, latency_hiding=True)
        serial = model.estimate_func(func, latency_hiding=False)
        assert hidden < serial

    def test_latency_hiding_increases_utilisation(self):
        model = VDLAAccelerator()
        func = _gemm_func(vthreads=2)
        util_hidden = model.compute_utilization(func, latency_hiding=True)
        util_serial = model.compute_utilization(func, latency_hiding=False)
        assert 0.0 < util_serial < util_hidden <= 1.0

    def test_utilisation_in_papers_range(self):
        """Figure 10: ~70% without latency hiding, ~88% with, for ResNet layers."""
        model = VDLAAccelerator()
        m, n, k = vdla_sched.conv2d_as_gemm_workload(1, 64, 56, 56, 64, 3, 1, 1)
        schedule, tensors = vdla_sched.schedule_gemm_vdla(m, n, k, vthreads=2)
        func = inject_virtual_threads(tir.lower(schedule, tensors, name="c2"))
        util = model.compute_utilization(func, latency_hiding=True)
        assert util > 0.6

    def test_simulate_trace_overlap_semantics(self):
        model = VDLAAccelerator()
        # Two independent load/execute pairs linked by dependence tokens:
        # with latency hiding the second load overlaps the first execute.
        trace = [
            VDLAInstruction("ld", 10.0, pushes=["ld->ex"]),
            VDLAInstruction("ld", 10.0, pushes=["ld->ex"]),
            VDLAInstruction("ex", 10.0, pops=["ld->ex"]),
            VDLAInstruction("ex", 10.0, pops=["ld->ex"]),
        ]
        overlapped = model.simulate_trace(trace, latency_hiding=True)
        serial = model.simulate_trace(trace, latency_hiding=False)
        assert overlapped.total_cycles < serial.total_cycles
        assert serial.total_cycles == pytest.approx(40.0)

    def test_empty_trace(self):
        result = VDLAAccelerator().simulate_trace([], latency_hiding=True)
        assert result.total_cycles == 0.0
        assert result.instructions == 0

    def test_utilization_bounds(self):
        result = VDLAAccelerator().simulate_trace(
            [VDLAInstruction("ex", 5.0)], latency_hiding=True)
        assert 0.0 <= result.utilization("ex") <= 1.0


class TestRoofline:
    def test_target_factory(self):
        target = vdla()
        assert target.device_type == "vdla"
        assert target.primitive_support["latency_hiding"] is True
