"""Measurement of candidate configurations on (simulated) devices.

The paper's measurement pipeline (Section 5.4) is one loop — build a
candidate, run it on a device from the pool, record the time — and
:class:`Measurer` is that loop: *verify → build (``Task.features_of``) → run
on the target's hardware model → record*.  One thing varies between its
uses: how many candidates are in flight at once (``n_parallel`` threads
mapped over the batch).

Measurement noise is drawn from an RNG derived from ``(seed, task, config
index)`` — never from shared mutable state — so a record depends only on
*what* is measured, not on the order or the concurrency: every thread count
is bit-identical to the serial path.  A device pool that leased simulated
boards would reproduce the same numbers, which is why there is none.
"""

from __future__ import annotations

import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .space import ConfigEntity
from .task import Task

__all__ = ["MeasureInput", "MeasureResultRecord", "Measurer", "LocalMeasurer"]


@dataclass
class MeasureInput:
    """A (task, config) pair submitted for measurement."""

    task: Task
    config: ConfigEntity


@dataclass
class MeasureResultRecord:
    """Outcome of measuring one configuration."""

    input: MeasureInput
    mean_time: float
    features: Optional[object] = None
    error: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.error is None and math.isfinite(self.mean_time)


class Measurer:
    """The measurement pipeline: verify → build → run → record.

    ``n_parallel`` worker threads are mapped over each batch (1 = a plain
    loop); the run half times each built candidate ``number`` times on the
    task target's own hardware model.
    """

    def __init__(self, number: int = 3, seed: int = 0, verify: bool = False,
                 n_parallel: int = 1):
        if n_parallel <= 0:
            raise ValueError(f"n_parallel must be positive, got {n_parallel}")
        self.number = number
        self.seed = seed
        self.verify = verify
        self.n_parallel = n_parallel
        self.num_measured = 0
        self.num_rejected = 0
        self._count_lock = threading.Lock()

    def measure(self, inputs: Sequence[MeasureInput]) -> List[MeasureResultRecord]:
        inputs = list(inputs)
        workers = min(self.n_parallel, len(inputs))
        if workers <= 1:
            records = [self._measure_one(inp) for inp in inputs]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(self._measure_one, inputs))
        self.num_measured += len(inputs)
        return records

    def _input_rng(self, inp: MeasureInput) -> np.random.Generator:
        """Deterministic, order-independent noise stream for one input."""
        digest = hashlib.sha256(
            f"{inp.task.name}:{inp.config.index}:{self.seed}".encode())
        return np.random.default_rng(int.from_bytes(digest.digest()[:8], "little"))

    def _verify_one(self, inp: MeasureInput) -> None:
        """Statically verify the candidate's lowered program
        (:meth:`Task.verify`, memoised in the shared evaluation cache),
        raising the typed :class:`~repro.analysis.errors.TIRVerifierError`
        for illegal schedules so they are *rejected* (recorded as errored
        measurements) instead of measured as garbage."""
        try:
            inp.task.verify(inp.config.index)
        except Exception:
            with self._count_lock:      # worker threads share the counter
                self.num_rejected += 1
            raise

    def _measure_one(self, inp: MeasureInput) -> MeasureResultRecord:
        try:
            if self.verify:
                self._verify_one(inp)
            # Served by the shared evaluation cache: when the tuner's cost
            # model already featurised this candidate while scoring it, the
            # build half is a look-up.
            features = inp.task.features_of(inp.config.index)
        except Exception as exc:
            return MeasureResultRecord(inp, float("inf"), None, error=str(exc))
        result = inp.task.target.model.measure(
            features, number=self.number, rng=self._input_rng(inp))
        return MeasureResultRecord(inp, result.mean_time, features,
                                   error=result.error)


#: the name ``benchmarks/e2e`` imports; the serial local runner is
#: :class:`Measurer` with its defaults
LocalMeasurer = Measurer
