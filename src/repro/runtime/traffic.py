"""Trace-replay traffic harness (``repro.runtime.traffic``).

The serving benchmarks up to now reported mean throughput under a synthetic
steady load, which says nothing about *goodput* (requests served within
their deadline) under bursts or deadline pressure.  This module makes
traffic a first-class, reproducible artifact:

* :class:`TraceSpec` describes a seeded arrival process — homogeneous
  **Poisson**, **diurnal** (sine-modulated non-homogeneous Poisson), or
  **burst** (periodic spikes on top of a Poisson base) — plus per-request
  deadlines, priorities, and a mixed-model request stream.
* :meth:`TraceSpec.generate` materialises it into a :class:`Trace`: a
  deterministic list of :class:`TraceRequest` (same spec → byte-identical
  trace).  Traces round-trip through JSONL (:meth:`Trace.save` /
  :meth:`Trace.load`) so a benchmark's traffic is a versionable artifact,
  not a side effect of the run.
* :class:`TraceReplayer` drives one or more
  :class:`~repro.runtime.serving.InferenceEngine` instances through a trace
  in real time, submitting each request at its arrival instant with its
  ``deadline_ms``/``priority``, and records the
  admission outcome of every request — ``served`` / ``shed`` / ``expired``
  / ``cancelled`` / ``failed`` / ``hung`` — together with the engine's
  queue-wait vs batch-execution latency split.  :meth:`TraceReplayer.replay`
  returns a :class:`ReplayReport` with outcome counts, goodput,
  SLO-violation rate, and windowed goodput over trace time.

Determinism: generation draws from one :class:`random.Random` stream seeded
by SHA-256 of the spec identity (stable across platforms and hash
randomisation), exactly one batch of draws per arrival.  Replay outcomes
additionally depend on wall-clock scheduling; with generous deadlines and a
healthy engine every request is served, so outcome *counts* are exactly
reproducible (the chaos tests lean on this to compose a
:class:`~repro.faults.FaultPlan` with a trace).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .serving import (DeadlineExceeded, InferenceEngine, QueueFull,
                      RequestCancelled, ServingError)

__all__ = ["Trace", "TraceError", "TraceReplayer", "TraceRequest",
           "TraceSpec", "ReplayReport", "TRACE_FAMILIES", "load_trace"]

#: JSONL header magic; bump the version on incompatible format changes
TRACE_MAGIC = "RTRC1"

TRACE_FAMILIES = ("poisson", "diurnal", "burst")

#: replay outcome classes, in reporting order
OUTCOMES = ("served", "shed", "expired", "cancelled", "failed", "hung")
#: arrival-window width of :meth:`ReplayReport.windowed_goodput`, seconds
_GOODPUT_WINDOW_S = 0.5
#: random inputs per model stream that a replay without ``inputs_for``
#: cycles through
_INPUT_POOL = 8


class TraceError(ValueError):
    """A trace spec, trace file, or replay configuration is malformed."""


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceRequest:
    """One request of a trace: *when* it arrives and what it demands."""

    index: int                          #: position in the trace (0-based)
    arrival_s: float                    #: arrival time from trace start
    model: str = "default"              #: stream name for mixed-model traces
    deadline_ms: Optional[float] = None  #: end-to-end SLO, or None
    priority: int = 0                   #: admission priority (higher first)

    def to_json(self) -> str:
        record = {"index": self.index, "arrival_s": self.arrival_s,
                  "model": self.model, "deadline_ms": self.deadline_ms,
                  "priority": self.priority}
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceRequest":
        record = json.loads(line)
        return cls(index=int(record["index"]),
                   arrival_s=float(record["arrival_s"]),
                   model=record.get("model", "default"),
                   deadline_ms=record.get("deadline_ms"),
                   priority=int(record.get("priority", 0)))


@dataclass
class TraceSpec:
    """Seeded description of an arrival process; :meth:`generate` a trace.

    Parameters
    ----------
    family:
        ``"poisson"`` — homogeneous arrivals at ``rate_rps``;
        ``"diurnal"`` — non-homogeneous Poisson whose instantaneous rate is
        ``rate_rps * (1 + diurnal_amplitude * sin(2*pi*t / period))``;
        ``"burst"`` — Poisson base at ``rate_rps`` multiplied by
        ``burst_factor`` during periodic windows (``burst_duration_s`` every
        ``burst_every_s``).
    rate_rps / duration_s:
        Base offered load and trace horizon (trace time).
    seed:
        Every draw comes from one RNG derived from this seed and the spec's
        identity; the same spec always generates a byte-identical trace.
    deadline_ms / deadline_jitter:
        Per-request SLO: each request gets ``deadline_ms`` scaled by a
        uniform factor in ``[1 - jitter, 1 + jitter]``.  ``None`` disables
        deadlines.
    priorities:
        Pool of admission priorities sampled uniformly per request.
    models:
        Mixed-model stream weights (``{"resnet-18": 3, "mobilenet": 1}``);
        each request is tagged with one sampled model name.
    max_requests:
        Hard cap on generated requests (guards against accidental huge
        rate × duration products).
    """

    family: str
    rate_rps: float
    duration_s: float
    seed: int = 0
    deadline_ms: Optional[float] = None
    deadline_jitter: float = 0.0
    priorities: Sequence[int] = (0,)
    models: Mapping[str, float] = field(default_factory=lambda: {"default": 1.0})
    diurnal_period_s: Optional[float] = None
    diurnal_amplitude: float = 0.8
    burst_every_s: float = 2.0
    burst_duration_s: float = 0.5
    burst_factor: float = 4.0
    max_requests: int = 100_000

    def __post_init__(self):
        if self.family not in TRACE_FAMILIES:
            raise TraceError(f"Unknown trace family {self.family!r}; "
                             f"known: {list(TRACE_FAMILIES)}")
        if self.rate_rps <= 0:
            raise TraceError(f"rate_rps must be > 0, got {self.rate_rps}")
        if self.duration_s <= 0:
            raise TraceError(f"duration_s must be > 0, got {self.duration_s}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise TraceError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if not 0.0 <= self.deadline_jitter < 1.0:
            raise TraceError(f"deadline_jitter must be in [0, 1), "
                             f"got {self.deadline_jitter}")
        if not self.priorities:
            raise TraceError("priorities must not be empty")
        if not self.models or any(w <= 0 for w in self.models.values()):
            raise TraceError("models must map stream names to positive "
                             f"weights, got {dict(self.models)!r}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise TraceError(f"diurnal_amplitude must be in [0, 1), "
                             f"got {self.diurnal_amplitude}")
        if self.burst_factor < 1.0:
            raise TraceError(f"burst_factor must be >= 1, "
                             f"got {self.burst_factor}")
        if self.burst_duration_s <= 0 or self.burst_every_s <= 0 \
                or self.burst_duration_s > self.burst_every_s:
            raise TraceError(
                f"burst windows need 0 < burst_duration_s <= burst_every_s, "
                f"got {self.burst_duration_s} / {self.burst_every_s}")
        if self.max_requests < 1:
            raise TraceError(f"max_requests must be >= 1, "
                             f"got {self.max_requests}")

    # ----------------------------------------------------------------- rates
    def rate_at(self, t: float) -> float:
        """Instantaneous offered rate (requests/s) at trace time ``t``."""
        if self.family == "poisson":
            return self.rate_rps
        if self.family == "diurnal":
            period = self.diurnal_period_s or self.duration_s
            return self.rate_rps * (
                1.0 + self.diurnal_amplitude
                * math.sin(2.0 * math.pi * t / period))
        # burst
        in_burst = (t % self.burst_every_s) < self.burst_duration_s
        return self.rate_rps * (self.burst_factor if in_burst else 1.0)

    def peak_rate(self) -> float:
        if self.family == "diurnal":
            return self.rate_rps * (1.0 + self.diurnal_amplitude)
        if self.family == "burst":
            return self.rate_rps * self.burst_factor
        return self.rate_rps

    def _rng(self) -> random.Random:
        # Stable across processes and hash randomisation (same idiom as
        # repro.faults).
        identity = (f"{self.seed}:{self.family}:{self.rate_rps}:"
                    f"{self.duration_s}")
        digest = hashlib.sha256(identity.encode())
        return random.Random(int.from_bytes(digest.digest()[:8], "little"))

    # ------------------------------------------------------------- generation
    def generate(self) -> "Trace":
        """Materialise the spec into a deterministic :class:`Trace`.

        Arrivals come from Lewis–Shedler thinning against the family's peak
        rate (which for a homogeneous Poisson degenerates to plain
        exponential inter-arrivals); every candidate consumes a fixed number
        of RNG draws so the stream stays aligned regardless of accept/reject.
        """
        rng = self._rng()
        peak = self.peak_rate()
        names = sorted(self.models)
        weights = [float(self.models[name]) for name in names]
        total_weight = sum(weights)

        requests: List[TraceRequest] = []
        t = 0.0
        while len(requests) < self.max_requests:
            t += rng.expovariate(peak)
            if t >= self.duration_s:
                break
            if rng.random() * peak > self.rate_at(t):
                continue
            pick = rng.random() * total_weight
            model = names[-1]
            for name, weight in zip(names, weights):
                if pick < weight:
                    model = name
                    break
                pick -= weight
            deadline = None
            if self.deadline_ms is not None:
                jitter = 1.0 + self.deadline_jitter * (2.0 * rng.random() - 1.0)
                deadline = self.deadline_ms * jitter
            priority = self.priorities[rng.randrange(len(self.priorities))]
            requests.append(TraceRequest(index=len(requests), arrival_s=t,
                                         model=model, deadline_ms=deadline,
                                         priority=priority))
        return Trace(self, requests)

    def to_dict(self) -> Dict[str, object]:
        spec = dataclasses.asdict(self)
        spec["priorities"] = list(self.priorities)
        spec["models"] = dict(self.models)
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "TraceSpec":
        data = dict(spec)
        if "priorities" in data:
            data["priorities"] = tuple(data["priorities"])
        return cls(**data)


class Trace:
    """A generated (or loaded) request trace: spec + arrival list.

    The JSONL representation is fully deterministic — one sorted-key header
    line carrying the spec, then one sorted-key line per request — so
    ``spec.generate().save(path)`` writes byte-identical files across runs,
    platforms, and processes.
    """

    def __init__(self, spec: TraceSpec, requests: Sequence[TraceRequest]):
        self.spec = spec
        self.requests = list(requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[TraceRequest]:
        return iter(self.requests)

    @property
    def duration_s(self) -> float:
        return self.spec.duration_s

    def offered_rps(self) -> float:
        """Measured offered load: generated arrivals over the horizon."""
        return len(self.requests) / self.spec.duration_s

    def model_names(self) -> List[str]:
        return sorted({request.model for request in self.requests})

    # ----------------------------------------------------------------- JSONL
    def to_jsonl(self) -> str:
        header = json.dumps({"magic": TRACE_MAGIC,
                             "spec": self.spec.to_dict()}, sort_keys=True)
        lines = [header] + [request.to_json() for request in self.requests]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        if not lines:
            raise TraceError(f"{path}: empty trace file")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: not a trace file ({exc})") from None
        if not isinstance(header, dict) or header.get("magic") != TRACE_MAGIC:
            raise TraceError(
                f"{path}: bad trace header (expected magic {TRACE_MAGIC!r}); "
                f"is this a trace JSONL written by Trace.save()?")
        spec = TraceSpec.from_dict(header["spec"])
        requests = [TraceRequest.from_json(line) for line in lines[1:]]
        return cls(spec, requests)


def load_trace(path) -> Trace:
    """Load a JSONL trace written by :meth:`Trace.save`."""
    return Trace.load(path)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class ReplayReport:
    """Outcome of one :meth:`TraceReplayer.replay` run.

    ``records`` holds one dict per trace request (in trace order) with its
    ``outcome`` (one of :data:`OUTCOMES`), whether its deadline was met, and
    the engine's latency split (queue wait vs batch execution) for served
    requests.  Aggregates: :meth:`counts`, :attr:`goodput_rps`,
    :attr:`violation_rate`, and :meth:`windowed_goodput`.
    """

    def __init__(self, trace: Trace, records: List[Dict[str, object]],
                 outputs: Optional[Dict[int, List[np.ndarray]]] = None):
        self.trace = trace
        self.records = records
        self.outputs = outputs

    def counts(self) -> Dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record["outcome"]] += 1
        return counts

    @property
    def served_ok(self) -> int:
        """Requests served within their deadline (goodput numerator)."""
        return sum(1 for r in self.records
                   if r["outcome"] == "served" and r["deadline_met"])

    @property
    def served_late(self) -> int:
        return sum(1 for r in self.records
                   if r["outcome"] == "served" and not r["deadline_met"])

    @property
    def goodput_rps(self) -> float:
        """Deadline-met completions per second of the trace's duration."""
        horizon = self.trace.duration_s
        return self.served_ok / horizon if horizon > 0 else 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of non-cancelled requests that missed their SLO
        (shed, expired, failed, hung, or served late)."""
        considered = [r for r in self.records if r["outcome"] != "cancelled"]
        if not considered:
            return 0.0
        violated = sum(1 for r in considered
                       if not (r["outcome"] == "served" and r["deadline_met"]))
        return violated / len(considered)

    def windowed_goodput(self) -> List[Dict[str, float]]:
        """Goodput per arrival window of trace time (the goodput *curve*)."""
        window_s = _GOODPUT_WINDOW_S
        n_windows = max(1, math.ceil(self.trace.duration_s / window_s))
        offered = [0] * n_windows
        ok = [0] * n_windows
        for record in self.records:
            window = min(int(record["arrival_s"] / window_s), n_windows - 1)
            offered[window] += 1
            if record["outcome"] == "served" and record["deadline_met"]:
                ok[window] += 1
        return [{"window_start_s": index * window_s,
                 "offered": offered[index],
                 "served_ok": ok[index],
                 "goodput_rps": ok[index] / window_s}
                for index in range(n_windows)]

    def latency_split_ms(self) -> Dict[str, float]:
        """Mean queue-wait and batch-execution milliseconds of served
        requests (the honest wall-latency breakdown)."""
        waits = [r["queue_wait_ms"] for r in self.records
                 if r["outcome"] == "served" and r["queue_wait_ms"] is not None]
        execs = [r["execute_ms"] for r in self.records
                 if r["outcome"] == "served" and r["execute_ms"] is not None]
        return {
            "queue_wait_mean_ms": float(np.mean(waits)) if waits else 0.0,
            "queue_wait_p99_ms": float(np.percentile(waits, 99)) if waits else 0.0,
            "execute_mean_ms": float(np.mean(execs)) if execs else 0.0,
            "execute_p99_ms": float(np.percentile(execs, 99)) if execs else 0.0,
        }

    def summary(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "requests": len(self.records),
            "offered_rps": self.trace.offered_rps(),
            "outcomes": counts,
            "served_ok": self.served_ok,
            "served_late": self.served_late,
            "goodput_rps": self.goodput_rps,
            "violation_rate": self.violation_rate,
            "latency_split_ms": self.latency_split_ms(),
        }


class TraceReplayer:
    """Replays a :class:`Trace` against live inference engine(s).

    Parameters
    ----------
    engines:
        One :class:`InferenceEngine` (serves every model stream), or a
        mapping ``{model name: engine}`` for mixed-model traces.
    trace:
        The trace to replay.
    inputs_for:
        ``callable(TraceRequest) -> inputs dict``.  Defaults to a
        deterministic per-model pool of ``_INPUT_POOL`` random inputs
        derived from the trace seed, cycled by request index — so two
        replays of the same trace submit byte-identical payloads.
    giveup_ms:
        Client patience: when set, the collector cancels any request still
        unresolved this long after submission — the ``cancelled``
        outcome path.  ``None`` (default) never cancels.
    result_timeout_s:
        Hard per-future bound; a future still pending after this is counted
        ``hung`` (a healthy engine must never produce one).
    store_outputs:
        Keep served outputs in :attr:`ReplayReport.outputs` (keyed by
        request index) for bit-identity checks.
    """

    def __init__(self, engines: Union[InferenceEngine,
                                      Mapping[str, InferenceEngine]],
                 trace: Trace, *,
                 inputs_for: Optional[Callable[[TraceRequest], Dict]] = None,
                 giveup_ms: Optional[float] = None,
                 result_timeout_s: float = 120.0,
                 store_outputs: bool = False):
        if giveup_ms is not None and giveup_ms <= 0:
            raise TraceError(f"giveup_ms must be > 0, got {giveup_ms}")
        self.trace = trace
        self.giveup_ms = giveup_ms
        self.result_timeout_s = result_timeout_s
        self.store_outputs = store_outputs
        self._inputs_for = inputs_for
        if isinstance(engines, InferenceEngine):
            self._engines: Dict[str, InferenceEngine] = {}
            self._default_engine: Optional[InferenceEngine] = engines
        else:
            self._engines = dict(engines)
            self._default_engine = None
            missing = [name for name in trace.model_names()
                       if name not in self._engines]
            if missing:
                raise TraceError(
                    f"trace names model streams {missing} but engines were "
                    f"given only for {sorted(self._engines)}")
        self._pools: Dict[str, List[Dict[str, np.ndarray]]] = {}

    # ------------------------------------------------------------------ setup
    def engine_for(self, model: str) -> InferenceEngine:
        if self._default_engine is not None:
            return self._default_engine
        return self._engines[model]

    def _inputs(self, request: TraceRequest) -> Dict[str, np.ndarray]:
        if self._inputs_for is not None:
            return self._inputs_for(request)
        pool = self._pools.get(request.model)
        if pool is None:
            engine = self.engine_for(request.model)
            specs = engine._reference.input_specs
            pool = []
            for slot in range(_INPUT_POOL):
                digest = hashlib.sha256(
                    f"{self.trace.spec.seed}:{request.model}:{slot}".encode())
                rng = np.random.default_rng(
                    int.from_bytes(digest.digest()[:8], "little"))
                pool.append({spec.name: rng.random(spec.shape)
                             .astype(spec.dtype or "float32")
                             for spec in specs})
            self._pools[request.model] = pool
        return pool[request.index % len(pool)]

    # ------------------------------------------------------------------ replay
    def replay(self) -> ReplayReport:
        """Submit every request at its arrival instant, then collect and
        classify every outcome."""
        pending: List[Tuple[TraceRequest, object, float]] = []
        records: Dict[int, Dict[str, object]] = {}
        outputs: Optional[Dict[int, List[np.ndarray]]] = (
            {} if self.store_outputs else None)

        start = time.monotonic()
        for request in self.trace:
            target = start + request.arrival_s
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            engine = self.engine_for(request.model)
            try:
                future = engine.submit(self._inputs(request),
                                       deadline_ms=request.deadline_ms,
                                       priority=request.priority)
            except QueueFull:
                records[request.index] = self._record(request, "shed")
                continue
            except ServingError as exc:
                records[request.index] = self._record(request, "failed",
                                                      error=repr(exc))
                continue
            pending.append((request, future, time.monotonic()))

        giveup_s = None if self.giveup_ms is None \
            else self.giveup_ms / 1000.0
        hard_deadline = time.monotonic() + self.result_timeout_s
        for request, future, submitted_at in pending:
            if giveup_s is not None and not future.done():
                patience = (submitted_at + giveup_s) - time.monotonic()
                try:
                    future.result(max(patience, 0.0))
                except TimeoutError:
                    future.cancel()
                except Exception:
                    pass        # classified below from the resolved future
            try:
                result = future.result(max(hard_deadline - time.monotonic(),
                                           0.0))
            except TimeoutError:
                records[request.index] = self._record(request, "hung")
                continue
            except DeadlineExceeded:
                records[request.index] = self._record(request, "expired",
                                                      future=future)
                continue
            except QueueFull:
                records[request.index] = self._record(request, "shed",
                                                      future=future)
                continue
            except RequestCancelled:
                records[request.index] = self._record(request, "cancelled",
                                                      future=future)
                continue
            except Exception as exc:  # noqa: BLE001 — typed in the record
                records[request.index] = self._record(request, "failed",
                                                      future=future,
                                                      error=repr(exc))
                continue
            record = self._record(request, "served", future=future)
            deadline_s = None
            if request.deadline_ms is not None:
                deadline_s = request.deadline_ms / 1000.0
            record["deadline_met"] = (deadline_s is None
                                      or (future.wall_latency is not None
                                          and future.wall_latency <= deadline_s))
            records[request.index] = record
            if outputs is not None:
                outputs[request.index] = result

        ordered = [records[request.index] for request in self.trace]
        return ReplayReport(self.trace, ordered, outputs)

    @staticmethod
    def _record(request: TraceRequest, outcome: str, future=None,
                error: Optional[str] = None) -> Dict[str, object]:
        def ms(seconds: Optional[float]) -> Optional[float]:
            return None if seconds is None else seconds * 1e3

        record = {
            "index": request.index,
            "model": request.model,
            "arrival_s": request.arrival_s,
            "priority": request.priority,
            "deadline_ms": request.deadline_ms,
            "outcome": outcome,
            "deadline_met": False,
            "wall_ms": None,
            "queue_wait_ms": None,
            "execute_ms": None,
            "batch_size": None,
        }
        if error is not None:
            record["error"] = error
        if future is not None:
            record["wall_ms"] = ms(future.wall_latency)
            record["queue_wait_ms"] = ms(future.queue_wait)
            record["execute_ms"] = ms(future.execute_latency)
            record["batch_size"] = future.batch_size
        return record
