"""Base classes for simulated hardware back-ends.

The paper evaluates TVM on four physical platforms.  This reproduction
replaces them with analytic/event-driven performance models driven by the
lowered loop program (see DESIGN.md §1).  Each model exposes:

* :meth:`HardwareModel.estimate` — deterministic latency estimate in seconds
  from :class:`~repro.tir.analysis.ProgramFeatures`.
* :meth:`HardwareModel.measure` — a "hardware measurement": the estimate plus
  multiplicative measurement noise, as timing a kernel on a real board would
  observe.  The noise comes from the caller's RNG
  (:class:`~repro.autotvm.measure.Measurer` derives one per ``(seed, task,
  config)``), so a measurement is a pure function of what is measured.

The models are intentionally mechanistic: schedule decisions change the
lowered program, which changes the features (memory traffic per scope,
parallelism, barriers, intrinsic usage), which changes the simulated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..tir.analysis import ProgramFeatures, extract_features
from ..tir.stmt import LoweredFunc

__all__ = ["HardwareParams", "HardwareModel", "MeasureResult"]


@dataclass
class HardwareParams:
    """Capability description of a simulated device."""

    name: str = "generic"
    #: peak floating point throughput in FLOP/s
    peak_flops: float = 1e11
    #: off-chip (DRAM) bandwidth in bytes/s
    dram_bandwidth: float = 10e9
    #: on-chip scratchpad / shared-memory bandwidth in bytes/s
    onchip_bandwidth: float = 100e9
    #: last-level hardware-managed cache in bytes (0 = none, e.g. accelerators)
    cache_bytes: float = 1 << 20
    #: first-level cache in bytes
    l1_bytes: float = 32 << 10
    #: kernel / invocation launch overhead in seconds
    launch_overhead: float = 1e-6
    #: measurement noise (one standard deviation, multiplicative)
    noise_std: float = 0.03


@dataclass
class MeasureResult:
    """Result of one simulated on-device measurement."""

    mean_time: float
    times: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.error is None and math.isfinite(self.mean_time)


class HardwareModel:
    """Common machinery shared by all simulated devices."""

    device_type = "generic"

    def __init__(self, params: Optional[HardwareParams] = None):
        self.params = params or HardwareParams()

    # -- interface -------------------------------------------------------------
    def estimate(self, features: ProgramFeatures) -> float:
        """Deterministic latency estimate (seconds) for a lowered program."""
        raise NotImplementedError

    def estimate_func(self, func: LoweredFunc) -> float:
        return self.estimate(extract_features(func))

    def estimate_batch(self, features_seq) -> np.ndarray:
        """Latency estimates for a whole batch of candidate programs.

        The candidate-evaluation pipeline scores a round of configurations as
        one call instead of N scalar calls.  Entries that raise (invalid
        schedules, resource overflow) or come in as ``None`` (failed
        lowerings) score ``inf`` instead of aborting the batch.  Subclasses
        with a vectorizable analytic model may override this loop.
        """
        out = np.empty(len(features_seq), dtype=np.float64)
        for i, features in enumerate(features_seq):
            if features is None:
                out[i] = np.inf
                continue
            try:
                out[i] = self.estimate(features)
            except Exception:
                out[i] = np.inf
        return out

    def measure(self, features: ProgramFeatures, number: int,
                rng: np.random.Generator) -> MeasureResult:
        """Simulate timing a kernel ``number`` times on the device, drawing
        the multiplicative noise from ``rng``."""
        try:
            base = self.estimate(features)
        except Exception as exc:  # invalid schedule (e.g. resource overflow)
            return MeasureResult(float("inf"), [], error=str(exc))
        if not math.isfinite(base):
            return MeasureResult(float("inf"), [], error="resource limit exceeded")
        times = [max(base * float(rng.normal(1.0, self.params.noise_std)), base * 0.5)
                 for _ in range(number)]
        return MeasureResult(float(np.mean(times)), times)

    # -- helpers ---------------------------------------------------------------
    def _parallel_efficiency(self, requested: float, available: int) -> float:
        """Diminishing-returns scaling of a parallel resource."""
        if requested <= 1:
            return 1.0 / available
        used = min(requested, available)
        # 90% parallel efficiency per doubling beyond a single unit.
        return (used / available) * (0.92 ** math.log2(max(used, 1.0)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.params.name})"
