"""Dynamic-batching inference serving (``repro.serve``).

The paper's end-to-end claim is compile-once, serve-anywhere; this module
adds the serving half.  :func:`serve` turns a compiled module (or an exported
artifact path) into an :class:`InferenceEngine`, which is the wiring between
three decisions that each live in their own module:

* **who waits, who is shed** (:mod:`~repro.runtime.admission`) — a bounded,
  priority-ordered admission queue with per-request deadlines, typed
  :class:`QueueFull` / :class:`DeadlineExceeded` shedding, and
  :meth:`InferenceFuture.cancel` (a cancelled request is never executed and
  never counted);
* **how big a batch is** (:mod:`~repro.runtime.batching`) — up to
  ``max_batch`` requests coalesced along the graph's batch axis within
  ``timeout_ms``, or, with ``max_batch="adaptive"``, the size that maximises
  goodput under ``p99_target_ms``, priced in the wall seconds it measured;
* **where it runs** — one worker thread per device; the moment its device
  is free it pulls its next batch straight from the admission queue and
  hands it to the engine's one execution back-end (known here only as
  ``run_batch`` / ``shutdown`` / ``stats``): per-device
  :class:`~repro.runtime.executor.Executor` objects in this process, or one
  worker process per device (:mod:`~repro.runtime.procpool`).

There is no hand-off between those decisions — no batcher thread, no
per-device queue: a request waits in the admission queue or it is executing,
so ``max_queue`` bounds the backlog, ``stats()["slo"]["queue_depth"]`` *is*
the backlog, and priority, shedding and expiry apply to every request that
has not started.  The ``timeout_ms`` coalescing window is anchored at
admission (a batch stops filling ``timeout_ms`` after its oldest request was
submitted), so a request that already waited behind a busy device is
executed as soon as the device frees up instead of idling it again; and one
worker fills a batch at a time, so a burst onto an idle pool becomes one
full batch, not one partial batch per idle device.

:meth:`InferenceEngine.stats` reports throughput / latency /
batch-occupancy / SLO statistics; :meth:`InferenceEngine.shutdown` drains by
default or rejects the backlog with ``drain=False``.

A batch is executed request by request on the native-batch kernels, so
every request's result is bit-identical to a solo execution (the NumPy BLAS
kernels are not bitwise batch-invariant).  Every latency the engine reports
is host wall clock; the simulated per-kernel estimate of a request is the
module's own ``total_time``.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler.module import CompiledModule
from .admission import (DeadlineExceeded, InferenceFuture, QueueFull,
                        RequestCancelled, ServingError, _AdmissionQueue,
                        _reject_all, _Request)
from .batching import _choose_batch_size, _wall_batch_time
from .ndarray import Device, DeviceLike, device as as_device

__all__ = ["serve", "InferenceEngine", "InferenceFuture", "ServingError",
           "QueueFull", "DeadlineExceeded", "RequestCancelled"]

#: how many of the most recent resolved requests the latency summaries in
#: :meth:`InferenceEngine.stats` cover (the counters stay exact)
_LATENCY_WINDOW = 8192


class InferenceEngine:
    """Queueing, dynamically batching, multi-device inference engine.

    Create one with :func:`serve`; submit work with :meth:`infer` (blocking)
    or :meth:`submit` (returns an :class:`InferenceFuture`); inspect
    :meth:`stats`; stop with :meth:`shutdown` or by using the engine as a
    context manager.
    """

    def __init__(self, module: CompiledModule, *,
                 devices: Union[None, int, Sequence[DeviceLike]] = None,
                 max_batch: Union[int, str] = 8, timeout_ms: float = 2.0,
                 max_queue: int = 1024,
                 p99_target_ms: Optional[float] = None,
                 adaptive_max_batch: int = 8, pool: str = "thread",
                 bundle_path: Optional[str] = None):
        if isinstance(max_batch, str):
            if max_batch != "adaptive":
                raise ValueError(f"max_batch must be an int >= 1 or "
                                 f"'adaptive', got {max_batch!r}")
            if adaptive_max_batch < 1:
                raise ValueError(f"adaptive_max_batch must be >= 1, "
                                 f"got {adaptive_max_batch}")
            self._adaptive = True
            max_batch = adaptive_max_batch
        else:
            self._adaptive = False
            if max_batch < 1:
                raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if p99_target_ms is not None and p99_target_ms <= 0:
            raise ValueError(f"p99_target_ms must be > 0, "
                             f"got {p99_target_ms}")
        self.p99_target_s = None if p99_target_ms is None \
            else p99_target_ms / 1000.0
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if pool not in ("thread", "process"):
            raise ValueError(f"pool must be 'thread' or 'process', "
                             f"got {pool!r}")
        self.pool_kind = pool
        self.module = module
        self.devices = self._resolve_devices(module, devices)
        self.timeout_s = max(timeout_ms, 0.0) / 1000.0

        from .executor import Executor, _ExecutorBackend

        self._reference = reference = Executor(module, self.devices[0])
        specs = reference.input_specs
        batchable = (bool(specs)
                     and all(s.shape and len(s.shape) >= 1 for s in specs)
                     and len({s.shape[0] for s in specs}) == 1
                     and specs[0].shape[0] >= 1)
        if not batchable and max_batch > 1:
            if self._adaptive:
                # Adaptive sizing degrades gracefully: the policy can only
                # ever choose batches of one on a non-batchable graph.
                max_batch = 1
            else:
                raise ValueError(
                    "Dynamic batching needs every graph data input to share "
                    "one leading batch axis; this module's inputs are "
                    f"[{reference.describe_inputs()}] — serve with "
                    "max_batch=1")
        self.max_batch = max_batch
        self.native_batch = specs[0].shape[0] if batchable else 1

        # The one execution back-end, chosen once (nothing outside __init__
        # names one): per-device Executors on this process's worker threads,
        # or one worker *process* per device over a shared-memory parameter
        # arena (true parallelism outside the GIL; see runtime/procpool/)
        # booted from ``bundle_path`` — or, given a live module (None), from
        # a temporary bundle the pool owns.
        if pool == "process":
            from .procpool import ModuleWorkerPool

            self._backend = ModuleWorkerPool(module, bundle_path, self.devices)
        else:
            self._backend = _ExecutorBackend(module, self.devices)
        self.max_queue = max_queue
        self._admission = _AdmissionQueue(max_queue)
        #: worker threads still pulling batches (guarded by _stats_lock);
        #: the last one to die closes admission — see _worker_died
        self._live_workers = len(self.devices)

        # -- statistics (guarded by _stats_lock) -------------------------------
        self._stats_lock = threading.Lock()
        self._n_requests = 0
        self._n_batches = 0
        self._n_cancelled = 0
        self._deadline_violations = 0
        self._occupancy: Dict[int, int] = {}
        #: (wall, queue-wait, execution) seconds of the most recent
        #: _LATENCY_WINDOW resolved requests (see stats())
        self._latency_samples = collections.deque(maxlen=_LATENCY_WINDOW)
        #: adaptive batcher decisions: chosen batch-size limit -> count
        self._adaptive_decisions: Dict[int, int] = {}
        #: executed batch size -> (wall seconds summed, batches), and the
        #: means the adaptive policy last priced with
        self._wall_by_size: Dict[int, Tuple[float, int]] = {}
        self._wall_read: Dict[int, float] = {}
        #: batches each device's worker pulled, by device index
        self._device_batches = [0 for _ in self.devices]
        self._started_at = time.monotonic()
        self._stopped_at: Optional[float] = None

        #: shutdown() is idempotent; whether requests are still admitted is
        #: the admission queue's state alone
        self._shut_down = False
        self._shutdown_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(i,), daemon=True,
                             name=f"repro-serve-worker-{self.devices[i]}")
            for i in range(len(self.devices))]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ setup
    @staticmethod
    def _resolve_devices(module: CompiledModule,
                         devices: Union[None, int, Sequence[DeviceLike]]
                         ) -> List[Device]:
        kind = module.target.device_type
        if devices is None:
            return [Device(kind, 0)]
        if isinstance(devices, int):
            if devices < 1:
                raise ValueError(f"devices must be >= 1, got {devices}")
            return [Device(kind, index) for index in range(devices)]
        resolved = [as_device(dev) for dev in devices]
        if not resolved:
            raise ValueError("devices must not be empty")
        return resolved

    # ------------------------------------------------------------------ client API
    def submit(self, inputs: Optional[Dict[str, np.ndarray]] = None, *,
               deadline_ms: Optional[float] = None, priority: int = 0,
               **named) -> InferenceFuture:
        """Enqueue one request; returns a future resolving to the outputs
        (a list of NumPy arrays, one per graph output).

        ``deadline_ms`` is an end-to-end SLO measured from this call: a
        request that has not *started executing* when it expires is shed
        (its future raises :class:`DeadlineExceeded`); one that merely
        finishes late still resolves but is counted as a deadline
        violation.  ``priority`` (higher = more important, default 0)
        orders the admission queue and decides who is shed when it is full
        — lowest-priority/newest first, with :class:`QueueFull` raised here
        when the incoming request is itself the best shed candidate.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        merged = dict(inputs or {})
        merged.update(named)
        # Validate in the caller's thread so bad requests fail fast and never
        # poison a batch.  Inputs are copied: the batch executes later on a
        # worker thread, and a caller reusing its buffer must not corrupt an
        # in-flight request.
        validated = self._reference._validate(merged)
        for name, value in validated.items():
            validated[name] = np.array(self._reference._as_numpy(value))
        for spec in self._reference.input_specs:
            value = validated[spec.name]
            if spec.shape is not None and tuple(value.shape) != spec.shape:
                raise ValueError(
                    f"Input {spec.name!r} has shape {tuple(value.shape)}, "
                    f"expected {spec.shape} (one native-batch request); "
                    f"expected inputs: {self._reference.describe_inputs()}")
        deadline = None if deadline_ms is None \
            else time.monotonic() + deadline_ms / 1000.0
        request = _Request(validated, deadline=deadline, priority=priority)
        request.future._cancel_hook = self._note_cancelled
        # Raises QueueFull when this request is the shed victim, ServingError
        # once the queue is closed (shutdown, or every worker has died).
        self._admission.put(request)
        return request.future

    def _note_cancelled(self) -> None:
        with self._stats_lock:
            self._n_cancelled += 1

    def infer(self, inputs: Optional[Dict[str, np.ndarray]] = None,
              timeout: Optional[float] = None, *,
              deadline_ms: Optional[float] = None, priority: int = 0,
              **named) -> List[np.ndarray]:
        """Blocking inference: submit one request and wait for its outputs."""
        return self.submit(inputs, deadline_ms=deadline_ms,
                           priority=priority, **named).result(timeout)

    def infer_many(self, requests: Sequence[Dict[str, np.ndarray]],
                   timeout: Optional[float] = None) -> List[List[np.ndarray]]:
        """Submit many requests at once (letting them coalesce) and collect
        all results in order."""
        futures = [self.submit(request) for request in requests]
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------ workers
    def _choose_batch_size(self, headrooms: Sequence[Optional[float]]) -> int:
        """Adaptive sizing: ask :func:`~repro.runtime.batching._choose_batch_size`
        with the waiting requests' deadline headrooms and the wall seconds
        this engine measured per batch size (1 until it has measured one),
        and record the decision.  Called under the admission lock."""
        with self._stats_lock:
            means = self._wall_read = {
                size: total / count
                for size, (total, count) in self._wall_by_size.items()}
            size = _choose_batch_size(_wall_batch_time(means), headrooms,
                                      self.max_batch, self.p99_target_s) \
                if means else 1
            self._adaptive_decisions[size] = \
                self._adaptive_decisions.get(size, 0) + 1
        return size

    def _worker_loop(self, index: int) -> None:
        choose = self._choose_batch_size if self._adaptive else None
        batch: List[_Request] = []
        try:
            while True:
                batch = self._admission.pop_batch(self.max_batch,
                                                  self.timeout_s, choose)
                if batch is None:       # closed and drained
                    break
                # Cancelled while coalescing: never execute, never count.
                batch = [request for request in batch
                         if not request.future.cancelled()]
                if not batch:
                    continue
                with self._stats_lock:
                    self._n_batches += 1
                    self._device_batches[index] += 1
                    self._occupancy[len(batch)] = \
                        self._occupancy.get(len(batch), 0) + 1
                try:
                    self._run_batch(index, batch)
                except Exception as exc:
                    _reject_all(batch, exc)
        except BaseException as exc:   # noqa: BLE001 — see _worker_died
            self._worker_died(index, batch, exc)
            raise

    def _worker_died(self, index: int, batch: List[_Request],
                     cause: BaseException) -> None:
        """A worker thread is dying: propagate failure, never hang clients.

        The batch it had pulled is rejected, and it pulls no more — the
        backlog stays in the admission queue for the surviving workers.  The
        last worker out closes admission and rejects the backlog: nothing
        could serve it.  The back-ends honour the same contract one level
        down — a worker *process* crash surfaces as an exception from
        ``run_batch``, resolving every pending future — so no failure mode
        leaves a caller blocked on ``future.result()``.
        """
        error = ServingError(
            f"serving worker for {self.devices[index]} died: {cause!r}")
        error.__cause__ = cause
        _reject_all(batch, error)
        with self._stats_lock:
            self._live_workers -= 1
            last = self._live_workers == 0
        if last:
            reason = (f"every serving worker has died; the engine cannot "
                      f"serve (last failure: {cause!r})")
            self._admission.close(reason, ServingError(reason))

    def _run_batch(self, index: int, batch: List[_Request]) -> None:
        # Last line of defence before execution: shed requests whose
        # deadline passed while coalescing, skip requests cancelled since
        # the pull, and claim the rest so cancel() can no longer win.
        now = time.monotonic()
        runnable = []
        for request in batch:
            if request.expired(now):
                self._admission.note_expired()
                if not request.future.done():
                    request.future._reject(DeadlineExceeded(
                        f"deadline passed "
                        f"{now - request.deadline:.3f}s before execution; "
                        f"the request was shed, not executed"))
                continue
            if not request.future._claim():
                continue
            runnable.append(request)
        if not runnable:
            return
        batch = runnable
        exec_start = time.monotonic()
        # One call into the back-end: each entry is the request's output
        # arrays or its per-request error.  A failure of the whole batch (a
        # worker process dead beyond its retries) raises, and _worker_loop
        # rejects every request in it.
        outcomes = self._backend.run_batch(
            index, [request.inputs for request in batch])
        samples = []
        violations = 0
        done_at = time.monotonic()
        for request, outcome in zip(batch, outcomes):
            future = request.future
            if isinstance(outcome, Exception):
                future._reject(outcome)
                continue
            future.batch_size = len(batch)
            future.wall_latency = done_at - request.enqueued_at
            future.queue_wait = exec_start - request.enqueued_at
            future.execute_latency = done_at - exec_start
            samples.append((future.wall_latency, future.queue_wait,
                            future.execute_latency))
            # Finished late: the caller still gets the outputs (the work is
            # done), but the SLO miss is counted.
            if request.expired(done_at):
                violations += 1
            future._resolve(outcome)
        with self._stats_lock:
            total, count = self._wall_by_size.get(len(batch), (0.0, 0))
            self._wall_by_size[len(batch)] = (total + done_at - exec_start,
                                              count + 1)
            self._n_requests += len(batch)
            self._latency_samples.extend(samples)
            self._deadline_violations += violations

    # ------------------------------------------------------------------ stats
    @staticmethod
    def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
        if not samples:
            return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
        data = np.asarray(samples)
        return {"p50_ms": float(np.percentile(data, 50) * 1e3),
                "p99_ms": float(np.percentile(data, 99) * 1e3),
                "mean_ms": float(np.mean(data) * 1e3)}

    def stats(self) -> Dict[str, object]:
        """Structured serving statistics.

        Timings are host wall-clock observations of this Python process.
        Counters (requests, batches, batches per device, occupancy, sheds,
        violations) are exact over the engine's lifetime; the three latency
        summaries (``wall.latency`` / ``queue_wait`` / ``execution``) cover
        the most recent ``_LATENCY_WINDOW`` resolved requests, so a
        long-lived engine's memory and ``stats()`` cost stay bounded.
        """
        with self._stats_lock:
            requests = self._n_requests
            batches = self._n_batches
            occupancy = dict(sorted(self._occupancy.items()))
            per_device = list(self._device_batches)
            samples = list(self._latency_samples)
            decisions = dict(sorted(self._adaptive_decisions.items()))
            wall_read = {size: seconds * 1e3 for size, seconds
                         in sorted(self._wall_read.items())}
            cancelled = self._n_cancelled
            violations = self._deadline_violations
            end = self._stopped_at or time.monotonic()
            duration = max(end - self._started_at, 1e-12)
        wall, queue_waits, exec_latencies = \
            zip(*samples) if samples else ((), (), ())
        shed = self._admission.counters()
        mean_occupancy = (sum(size * count for size, count in occupancy.items())
                          / batches) if batches else 0.0
        result = {
            "requests": requests,
            "batches": batches,
            "batches_per_device": {str(dev): count for dev, count
                                   in zip(self.devices, per_device)},
            "pool": self.pool_kind,
            "devices": [str(dev) for dev in self.devices],
            "max_batch": self.max_batch,
            "native_batch": self.native_batch,
            "batch_occupancy": occupancy,
            "mean_batch_occupancy": mean_occupancy,
            "wall": {
                "duration_seconds": duration,
                "throughput_rps": requests / duration,
                "latency": self._percentiles(wall),
                # Honest latency breakdown: time spent waiting for admission
                # + coalescing vs time inside the batch execution itself.
                "queue_wait": self._percentiles(queue_waits),
                "execution": self._percentiles(exec_latencies),
            },
            "adaptive": {
                "enabled": self._adaptive,
                "p99_target_ms": None if self.p99_target_s is None
                else self.p99_target_s * 1e3,
                "decisions": decisions,
                "wall_ms_by_size": wall_read,
            },
            "slo": {
                "max_queue": self.max_queue,
                "queue_depth": self._admission.depth(),
                "shed_queue_full": shed["shed_queue_full"],
                "shed_expired": shed["shed_expired"],
                "shed_total": shed["shed_queue_full"] + shed["shed_expired"],
                "cancelled": cancelled,
                "deadline_violations": violations,
            },
        }
        workers = self._backend.stats()
        if workers:
            result["process_workers"] = workers
        return result

    # ------------------------------------------------------------------ lifecycle
    def shutdown(self, wait: bool = True, drain: bool = True) -> None:
        """Stop accepting requests, then stop the workers.

        With ``drain=True`` (default) already-admitted requests are still
        served before the workers exit; with ``drain=False`` the backlog is
        rejected with :class:`ServingError` and only in-flight batches
        finish.  With ``wait=False`` the workers are joined and the back-end
        released asynchronously, once the queue drains.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        self._admission.close(backlog_error=None if drain else ServingError(
            "engine shut down (drain=False) before this request was served"))
        if wait:
            self._finalize()
        else:
            threading.Thread(target=self._finalize, daemon=True,
                             name="repro-serve-finalize").start()
        with self._stats_lock:
            self._stopped_at = time.monotonic()

    def _finalize(self) -> None:
        """Wait out the workers, then release whatever the back-end still
        holds (processes, shm segments, bundle)."""
        for worker in self._workers:
            worker.join()
        self._backend.shutdown()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(module_or_path: Union[CompiledModule, str], *,
          devices: Union[None, int, Sequence[DeviceLike]] = None,
          max_batch: Union[int, str] = 8, timeout_ms: float = 2.0,
          max_queue: int = 1024,
          p99_target_ms: Optional[float] = None,
          adaptive_max_batch: int = 8,
          pool: str = "thread") -> InferenceEngine:
    """Start an inference engine over a compiled module or artifact path.

    Parameters
    ----------
    module_or_path:
        A :class:`CompiledModule`, or the path of an artifact bundle written
        by ``module.export(path)`` (loaded with no recompilation).
    devices:
        Device pool, each device pulling its next batch the moment it is
        free: a count (``2`` means ``gpu:0`` and ``gpu:1`` for a GPU
        module), an explicit list of devices / specs (``["gpu:0",
        "gpu:1"]``), or ``None`` for one device.
    max_batch / timeout_ms:
        Dynamic batching knobs: coalesce up to ``max_batch`` requests,
        waiting at most ``timeout_ms`` after the batch's oldest request was
        submitted for it to fill.  ``max_batch="adaptive"`` replaces the
        fixed limit with a policy that chooses each batch's size limit to
        maximise estimated goodput given the current queue depth and the
        waiting requests' deadline headroom (capped at
        ``adaptive_max_batch``), so a lone request under light load
        dispatches immediately instead of idling out the coalescing window.
        Batches are priced in wall seconds the engine measured per size (an
        unseen size costs ``size ×`` the cheapest per-request mean), so on
        back-ends that run a batch request by request it serves batches of
        one; start-up compiles nothing.
    p99_target_ms / adaptive_max_batch:
        Adaptive-policy knobs: candidate batch sizes whose estimated wall
        per-batch latency exceeds ``p99_target_ms`` are never chosen
        (except size one), and ``adaptive_max_batch`` caps the chosen size.
    max_queue:
        Admission-queue bound: beyond this many queued requests the engine
        sheds load (expired first, then lowest-priority/newest) instead of
        queueing unboundedly; see :meth:`InferenceEngine.submit`.
    pool:
        ``"thread"`` (default) runs one worker thread + Executor per device;
        ``"process"`` runs one worker *process* per device over a
        shared-memory parameter arena (true parallelism outside the GIL;
        outputs stay bit-identical).
    """
    bundle_path: Optional[str] = None
    if isinstance(module_or_path, CompiledModule):
        module = module_or_path
    else:
        from .artifact import load_module

        module = load_module(module_or_path)
        # Process workers can boot straight from the caller's bundle — no
        # re-export needed.
        bundle_path = str(module_or_path)
    return InferenceEngine(module, devices=devices, max_batch=max_batch,
                           timeout_ms=timeout_ms, max_queue=max_queue,
                           p99_target_ms=p99_target_ms,
                           adaptive_max_batch=adaptive_max_batch, pool=pool,
                           bundle_path=bundle_path)
