"""Simulated embedded CPU back-end (ARM Cortex A53, paper Section 6.2).

The model computes latency from the lowered loop program:

* compute time — floating point work divided by achievable throughput, which
  depends on vectorization (NEON lanes), unrolling (instruction-level
  parallelism), and multi-core ``parallel`` annotations;
* memory time — cache-aware DRAM traffic (using the per-loop-level touch
  regions extracted from the program) divided by memory bandwidth, plus an
  L2-level term so that tiling for both cache levels matters;
* low-precision work — bit-serial operations executed through tensorized
  micro-kernels get credited with a higher effective throughput, mirroring
  the paper's ultra low-precision operators (Figure 18).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..tir.analysis import ProgramFeatures
from .base import HardwareModel, HardwareParams

__all__ = ["CPUParams", "EmbeddedCPU", "arm_a53_params", "cortex_a9_params"]


@dataclass
class CPUParams(HardwareParams):
    """CPU-specific capability description."""

    frequency: float = 1.2e9
    num_cores: int = 4
    simd_lanes: int = 4           # 128-bit NEON, fp32
    fma_per_cycle: int = 1        # fused multiply-add pipes per core
    l1_bytes: float = 32 << 10
    l2_bytes: float = 512 << 10
    l2_bandwidth: float = 12e9
    scalar_efficiency: float = 0.45   # non-vectorized issue efficiency
    bitserial_speedup: float = 5.0    # credit for tensorized bit-serial kernels


def cortex_a9_params() -> CPUParams:
    """Parameters approximating the PYNQ board's dual-core ARM Cortex A9 @ 667 MHz.

    This is the host CPU of the paper's FPGA platform (Section 6.4 /
    Figure 21): an in-order NEON pipeline without fused multiply-add, sharing
    its modest DDR3 bandwidth with the FPGA fabric.
    """
    return CPUParams(
        name="arm-cortex-a9",
        frequency=667e6,
        num_cores=2,
        simd_lanes=4,
        fma_per_cycle=1,
        peak_flops=667e6 * 2 * 4,          # freq * cores * lanes (no FMA)
        dram_bandwidth=0.8e9,
        onchip_bandwidth=6e9,
        cache_bytes=512 << 10,
        l1_bytes=32 << 10,
        l2_bandwidth=5e9,
        scalar_efficiency=0.35,
        launch_overhead=4e-6,
        noise_std=0.05,
    )


def arm_a53_params() -> CPUParams:
    """Parameters approximating a quad-core ARM Cortex A53 @ 1.2 GHz."""
    return CPUParams(
        name="arm-cortex-a53",
        frequency=1.2e9,
        num_cores=4,
        simd_lanes=4,
        fma_per_cycle=1,
        peak_flops=1.2e9 * 4 * 4 * 2,      # freq * cores * lanes * fma
        dram_bandwidth=3.2e9,
        onchip_bandwidth=16e9,
        cache_bytes=512 << 10,
        l1_bytes=32 << 10,
        launch_overhead=2e-6,
        noise_std=0.04,
    )


class EmbeddedCPU(HardwareModel):
    """Analytic model of a small multi-core CPU with SIMD units."""

    device_type = "cpu"

    def __init__(self, params: Optional[CPUParams] = None):
        super().__init__(params or arm_a53_params())
        self.cpu: CPUParams = self.params  # type: ignore[assignment]

    # ------------------------------------------------------------------ model
    def estimate(self, features: ProgramFeatures) -> float:
        cpu = self.cpu

        # --- compute throughput ------------------------------------------------
        cores_used = 1.0
        if features.parallel_extent > 1:
            cores_used = min(features.parallel_extent, cpu.num_cores)
        parallel_eff = self._parallel_efficiency(cores_used, cpu.num_cores) \
            * cpu.num_cores  # scale back to "cores worth of throughput"

        if features.vector_lanes > 1:
            vector_eff = min(features.vector_lanes, cpu.simd_lanes) / cpu.simd_lanes
        else:
            vector_eff = cpu.scalar_efficiency / cpu.simd_lanes

        # Unrolling exposes instruction-level parallelism; saturate at 4x.
        ilp_eff = 0.6 + 0.4 * min(features.unroll_product, 4.0) / 4.0

        per_core_flops = cpu.frequency * cpu.simd_lanes * 2 * cpu.fma_per_cycle
        effective_flops = per_core_flops * parallel_eff * vector_eff * ilp_eff
        effective_flops = max(effective_flops, 1.0)

        scalar_flops = features.flops
        intrinsic_flops = features.intrinsic_flops
        compute_time = scalar_flops / effective_flops
        if intrinsic_flops:
            # Tensorized micro-kernels (e.g. bit-serial GEMV) run at a higher
            # effective rate because they use hand-written SIMD sequences.
            compute_time += intrinsic_flops / (
                per_core_flops * parallel_eff * cpu.bitserial_speedup)

        # Integer/index overhead matters for poorly unrolled inner loops.
        # Vectorized loops share one address computation per vector, and the
        # code generator strength-reduces and hoists most of the remaining
        # index arithmetic, so the raw count is amortised accordingly.
        addr_amortise = (max(features.vector_lanes, 1.0)
                         * min(max(features.unroll_product, 1.0), 8.0) * 2.0)
        effective_int_ops = features.int_ops / addr_amortise
        compute_time += effective_int_ops / (cpu.frequency * 2 * max(parallel_eff, 0.25))

        # --- memory hierarchy ---------------------------------------------------
        dram_traffic = features.cache_aware_traffic(cpu.l2_bytes)
        l2_traffic = features.cache_aware_traffic(cpu.l1_bytes)
        dram_time = dram_traffic / cpu.dram_bandwidth
        l2_time = l2_traffic / cpu.l2_bandwidth

        # On-chip buffers explicitly introduced by cache_read/cache_write.
        onchip_time = (features.bytes_in_scope("local")
                       + features.bytes_in_scope("shared")) / cpu.onchip_bandwidth

        memory_time = max(dram_time, l2_time) + onchip_time

        # Memory and compute partially overlap thanks to hardware prefetching
        # and out-of-order-ish dual issue: use a soft-max combination.
        overlap = 0.7
        total = max(compute_time, memory_time) + overlap * min(compute_time, memory_time) * 0.3
        total += cpu.launch_overhead
        # Thread launch/join overhead for parallel regions.
        if cores_used > 1:
            total += 5e-6
        return total
