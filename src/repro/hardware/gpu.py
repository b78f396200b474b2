"""Simulated GPU back-ends (server-class Titan X and mobile Mali, Sections 6.1/6.3).

The model reproduces the mechanisms the paper's GPU schedules exploit:

* massive thread-level parallelism — blocks × threads must be large enough to
  occupy the streaming multiprocessors, otherwise utilisation collapses;
* cooperative fetching through ``shared`` memory scopes — data staged into
  shared memory by a thread block is charged at on-chip bandwidth, while
  global traffic is reduced structurally by the cache stages in the IR
  (Figure 7);
* thread-local registers (``local`` scope) for accumulators;
* synchronisation barriers between cooperative stages;
* resource limits (shared memory per block, threads per block, register
  usage) that invalidate over-aggressive schedules, exactly the way real
  measurement on hardware would fail or slow down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..tir.analysis import ProgramFeatures
from .base import HardwareModel, HardwareParams

__all__ = ["GPUParams", "ServerGPU", "MobileGPU", "titan_x_params", "mali_t860_params"]


@dataclass
class GPUParams(HardwareParams):
    """GPU-specific capability description."""

    num_sms: int = 28
    max_threads_per_block: int = 1024
    max_shared_per_block: float = 48 << 10
    max_registers_per_thread: int = 255
    shared_bandwidth: float = 5e12
    #: sustained bandwidth of the hardware-managed cache path (L2/texture);
    #: much lower than shared-memory bandwidth, which is why cooperative
    #: fetching matters (Figure 7)
    l2_bandwidth: float = 1.0e12
    l2_bytes: float = 3 << 20
    warp_size: int = 32
    #: total resident threads needed to keep the SMs busy; ~4 warps per SM is
    #: enough once the inner loops expose instruction-level parallelism
    target_occupancy_threads: float = 3584.0
    fp16_multiplier: float = 2.0


def titan_x_params() -> GPUParams:
    """Parameters approximating an NVIDIA Titan X (Pascal)."""
    return GPUParams(
        name="nvidia-titan-x",
        peak_flops=6.1e12,
        dram_bandwidth=336e9,
        onchip_bandwidth=5e12,
        shared_bandwidth=5e12,
        cache_bytes=3 << 20,
        l2_bytes=3 << 20,
        l1_bytes=48 << 10,
        num_sms=28,
        l2_bandwidth=1.5e12,
        launch_overhead=6e-6,
        target_occupancy_threads=3584.0,
        noise_std=0.03,
    )


def mali_t860_params() -> GPUParams:
    """Parameters approximating an ARM Mali-T860MP4 mobile GPU."""
    return GPUParams(
        name="arm-mali-t860mp4",
        peak_flops=47e9,
        dram_bandwidth=6.4e9,
        onchip_bandwidth=60e9,
        shared_bandwidth=60e9,
        cache_bytes=256 << 10,
        l2_bytes=256 << 10,
        l1_bytes=16 << 10,
        num_sms=4,
        l2_bandwidth=30e9,
        max_threads_per_block=256,
        max_shared_per_block=32 << 10,
        launch_overhead=40e-6,
        target_occupancy_threads=512.0,
        fp16_multiplier=2.0,
        noise_std=0.05,
    )


class ServerGPU(HardwareModel):
    """Analytic model of a server-class GPU."""

    device_type = "gpu"

    def __init__(self, params: Optional[GPUParams] = None, seed: int = 0):
        super().__init__(params or titan_x_params(), seed)
        self.gpu: GPUParams = self.params  # type: ignore[assignment]

    # ------------------------------------------------------------------ model
    def estimate(self, features: ProgramFeatures) -> float:
        gpu = self.gpu
        threads_per_block = max(features.num_threads, 1.0)
        num_blocks = max(features.num_blocks, 1.0)
        total_threads = threads_per_block * num_blocks

        # --- resource limits -> invalid schedule --------------------------------
        shared_per_block = features.allocation_bytes.get("shared", 0.0)
        if shared_per_block > gpu.max_shared_per_block:
            return float("inf")
        if threads_per_block > gpu.max_threads_per_block:
            return float("inf")
        local_bytes = features.allocation_bytes.get("local", 0.0)
        registers_per_thread = local_bytes / 4.0
        register_spill = 1.0
        if registers_per_thread > gpu.max_registers_per_thread:
            register_spill = 1.0 + (registers_per_thread
                                    / gpu.max_registers_per_thread - 1.0) * 2.0

        # --- occupancy / utilisation --------------------------------------------
        if total_threads <= 1.0:
            occupancy = 1.0 / gpu.target_occupancy_threads
        else:
            occupancy = min(1.0, total_threads / gpu.target_occupancy_threads)
        # Poor block granularity: fewer blocks than SMs leaves SMs idle.
        if num_blocks < gpu.num_sms:
            occupancy *= max(num_blocks / gpu.num_sms, 1.0 / gpu.num_sms)

        ilp = 0.55 + 0.45 * min(features.unroll_product, 8.0) / 8.0
        # Half precision doubles peak arithmetic throughput when the bulk of
        # the traffic is fp16 (Figure 19's float16 experiments).
        fp16_traffic = sum(a.total_bytes for a in features.buffer_access.values()
                           if a.dtype == "float16")
        all_traffic = sum(a.total_bytes for a in features.buffer_access.values())
        dtype_boost = gpu.fp16_multiplier if all_traffic and \
            fp16_traffic / all_traffic > 0.5 else 1.0

        effective_flops = gpu.peak_flops * occupancy * ilp * dtype_boost
        effective_flops = max(effective_flops, gpu.peak_flops * 1e-5)
        compute_time = (features.flops + features.intrinsic_flops) \
            / effective_flops * register_spill

        # --- memory system --------------------------------------------------------
        global_bytes = features.bytes_in_scope("global")
        cached_traffic = features.cache_aware_traffic(gpu.l2_bytes)
        dram_traffic = min(global_bytes, cached_traffic) if global_bytes else cached_traffic
        # Without cooperative fetching every thread issues its own global
        # loads; coalescing is worse when no vectorize/unroll of the inner dim.
        coalesce = 0.75 if features.vector_lanes > 1 or features.unroll_product >= 4 else 0.55
        dram_time = dram_traffic / (gpu.dram_bandwidth * coalesce)

        shared_bytes = features.bytes_in_scope("shared")
        shared_time = shared_bytes / gpu.shared_bandwidth
        local_time = features.bytes_in_scope("local") / (gpu.shared_bandwidth * 4.0)

        barrier_time = features.barrier_count * 1.5e-8 / max(num_blocks, 1.0)

        # All global accesses (hits or misses) go through the L2/cache path,
        # whose bandwidth is far below shared memory: staging reused tiles in
        # shared memory therefore pays off even when the working set fits in L2.
        l2_time = global_bytes / gpu.l2_bandwidth
        memory_time = max(dram_time, l2_time) + shared_time * 0.5 + local_time * 0.25
        busy = max(compute_time, memory_time)
        total = gpu.launch_overhead + busy + 0.15 * min(compute_time, memory_time)
        total += barrier_time
        return total


class MobileGPU(ServerGPU):
    """Mobile GPU (Mali) — same mechanics, mobile parameters, fp16 support."""

    device_type = "mali"

    def __init__(self, params: Optional[GPUParams] = None, seed: int = 0):
        super().__init__(params or mali_t860_params(), seed)
