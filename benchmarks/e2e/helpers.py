"""Statistics, seeded input generation and output checks shared by the
workloads.  Nothing here imports ``repro``."""

from __future__ import annotations

import hashlib
import math
import random
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["PERCENTILE_LADDER", "supported_percentile", "percentile",
           "summary", "spread", "geomean", "poisson_schedule",
           "seeded_inputs", "inputs_sha256", "outputs_close",
           "outputs_identical", "curve_sha256"]

#: percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def supported_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it
    among ``n`` samples, or ``None`` when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if round(n * (100.0 - p), 6) >= 1000.0:     # n(1 - p/100) >= 10
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, the highest supported percentile and the sample count."""
    n = len(values)
    tail = supported_percentile(n)
    return {"n": n, "p50": percentile(values, 50.0),
            "tail_percentile": tail,
            "tail": percentile(values, tail) if tail is not None else None}


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's steadiness measure)."""
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def poisson_schedule(rate_rps: float, duration_s: float, seed: int
                     ) -> List[float]:
    """Due times (seconds from the start of the phase) of a Poisson arrival
    process; the same arguments always give the same list."""
    rng = random.Random(seed)
    due, now = [], 0.0
    while True:
        now += rng.expovariate(rate_rps)
        if now >= duration_s:
            return due
        due.append(now)


def seeded_inputs(specs, seed: int, tag: str) -> Dict[str, np.ndarray]:
    """One input dict for an executor's ``input_specs``, drawn from
    ``(seed, tag)`` only."""
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    return {spec.name: rng.standard_normal(spec.shape).astype(spec.dtype)
            for spec in specs}


def inputs_sha256(inputs: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(inputs):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(inputs[name]).tobytes())
    return digest.hexdigest()


def outputs_close(got: Sequence[np.ndarray], expected: Sequence[np.ndarray],
                  rtol: float, atol_share: float) -> bool:
    """``allclose`` with the absolute tolerance given as a share of the
    expected tensor's largest magnitude: an un-normalised activation map
    reaches the hundreds, where a fixed float32 ``atol`` fails the elements
    that happen to be near zero."""
    return len(got) == len(expected) and all(
        x.shape == y.shape and np.allclose(
            x, y, rtol=rtol, atol=atol_share * float(np.abs(y).max()))
        for x, y in zip(got, expected))


def outputs_identical(a: Sequence[np.ndarray], b: Sequence[np.ndarray]
                      ) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y)
                                    for x, y in zip(a, b))


def curve_sha256(report) -> str:
    """Determinism fingerprint of a tuning report: every task's best-so-far
    curve (the ``bench_perf_suite`` recipe, so the two can be compared)."""
    digest = hashlib.sha256()
    for result in report.results:
        digest.update(result.task_name.encode())
        digest.update(repr([f"{v:.12e}" for v in result.curve]).encode())
    return digest.hexdigest()
