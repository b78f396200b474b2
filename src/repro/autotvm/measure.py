"""Measurement of candidate configurations on (simulated) devices.

The paper's measurement pipeline (Section 5.4) is one loop — build a
candidate, run it on a device from the pool, record the time — and
:class:`Measurer` is that loop: *verify → build → run → record*.  Two things
vary between its uses: how many candidates are in flight at once
(``n_parallel`` threads mapped over the batch) and where the run half
executes — directly on the target's hardware model, or on a device leased
exclusively from an :class:`~repro.runtime.rpc.Tracker` (request → run_timed
→ release), in which case ``n_parallel`` is the number of concurrent leases
on the pool.

Measurement noise is drawn from an RNG derived from ``(seed, task, config
index)`` — never from shared mutable state — so a record depends only on
*what* is measured, not on the order, the concurrency or the runner: every
combination is bit-identical to the serial local path.
"""

from __future__ import annotations

import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..hardware.base import MeasureResult
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

    @property
    def gflops(self) -> float:
        if not self.valid or self.mean_time <= 0:
            return 0.0
        return self.input.task.flop / self.mean_time / 1e9


class Measurer:
    """The measurement pipeline: verify → build → run → record.

    ``n_parallel`` worker threads are mapped over each batch (1 = a plain
    loop).  With a ``tracker`` the run half takes an exclusive lease on a
    device registered under ``device_key``; without one it runs on the
    task target's own hardware model.
    """

    def __init__(self, number: int = 3, seed: int = 0, verify: bool = False,
                 n_parallel: int = 1, tracker=None,
                 device_key: Optional[str] = None):
        if n_parallel <= 0:
            raise ValueError(f"n_parallel must be positive, got {n_parallel}")
        if tracker is not None and device_key is None:
            raise ValueError("a tracker runner needs the device_key to lease")
        self.number = number
        self.seed = seed
        self.verify = verify
        self.n_parallel = n_parallel
        self.tracker = tracker
        self.device_key = device_key
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

    def _run(self, inp: MeasureInput, features) -> MeasureResult:
        """Runner half: time one built candidate on a device."""
        rng = self._input_rng(inp)
        if self.tracker is None:
            return inp.task.target.model.measure(features, number=self.number,
                                                 rng=rng)
        # An unknown key or an exhausted pool fails the batch loudly; a
        # failure on the leased device is that candidate's errored record.
        session = self.tracker.request(self.device_key)
        try:
            times = session.run_timed(features, number=self.number, rng=rng)
        except Exception as exc:
            return MeasureResult(float("inf"), [], error=str(exc))
        finally:
            session.release()
        return MeasureResult(float(np.mean(times)), times)

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
        result = self._run(inp, features)
        return MeasureResultRecord(inp, result.mean_time, features,
                                   error=result.error)


#: the name ``benchmarks/e2e`` imports; the serial local runner is
#: :class:`Measurer` with its defaults
LocalMeasurer = Measurer
