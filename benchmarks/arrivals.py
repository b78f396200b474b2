"""Seeded arrival schedules for ``bench_traffic.py``.

Three families of request arrival times over a horizon of ``duration_s``:

* ``poisson`` — homogeneous Poisson arrivals at ``rate_rps``;
* ``diurnal`` — a non-homogeneous Poisson process whose rate is
  ``rate_rps * (1 + 0.8 sin(2 pi t / duration_s))``: one "day" per schedule,
  busy in the first half and quiet in the second;
* ``burst`` — Poisson at ``rate_rps``, four times that for the first quarter
  second of every second.

Arrivals come from Lewis–Shedler thinning against the family's peak rate,
two draws per candidate from one :class:`random.Random` seeded by the
``(seed, family, rate, duration)`` string, so the same arguments give the
same offsets, bit for bit, in any process.
"""

from __future__ import annotations

import math
import random
from typing import List

FAMILIES = ("poisson", "diurnal", "burst")
DIURNAL_AMPLITUDE = 0.8
BURST_EVERY_S = 1.0
BURST_DURATION_S = 0.25
BURST_FACTOR = 4.0

_PEAK_FACTOR = {"poisson": 1.0, "diurnal": 1.0 + DIURNAL_AMPLITUDE,
                "burst": BURST_FACTOR}


def _rate_at(family: str, rate_rps: float, duration_s: float,
             t: float) -> float:
    if family == "diurnal":
        return rate_rps * (1.0 + DIURNAL_AMPLITUDE
                           * math.sin(2.0 * math.pi * t / duration_s))
    if family == "burst" and t % BURST_EVERY_S < BURST_DURATION_S:
        return rate_rps * BURST_FACTOR
    return rate_rps


def arrivals(family: str, rate_rps: float, duration_s: float,
             seed: int) -> List[float]:
    """Ascending arrival offsets in seconds, each in ``[0, duration_s)``."""
    if family not in _PEAK_FACTOR:
        raise ValueError(f"unknown family {family!r}; one of {FAMILIES}")
    if not rate_rps > 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    peak = rate_rps * _PEAK_FACTOR[family]
    rng = random.Random(f"{seed}:{family}:{rate_rps}:{duration_s}")
    offsets: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= duration_s:
            return offsets
        if rng.random() * peak <= _rate_at(family, rate_rps, duration_s, t):
            offsets.append(t)
