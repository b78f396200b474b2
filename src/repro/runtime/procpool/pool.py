"""The process worker pool: lifecycle, health, dispatch, statistics.

:class:`ModuleWorkerPool` owns one OS process per device (``spawn`` start
method — safe with threads in the parent and identical on every platform;
see the README's spawn-vs-fork notes), each booted from an exported module
artifact with the parameters mapped from one shared-memory arena.  Worker
lifecycle is a first-class concern:

* **boot handshake** — every worker must ``HELLO`` within
  ``_BOOT_TIMEOUT_S``;
* **heartbeats** — a monitor thread pings idle workers every
  ``_HEARTBEAT_S`` seconds and respawns silent ones;
* **death mid-request** — a dispatch waiting on a reply polls the pipe *and*
  the process; a worker that dies (or stalls past ``_REPLY_TIMEOUT_S``) is
  respawned and the in-flight request is retried up to ``_MAX_RETRIES``
  times before :class:`WorkerCrash` reaches the caller;
* **graceful shutdown** — ``SHUTDOWN`` frames, bounded joins, hard kill of
  stragglers, and release of everything the pool created: the parameter
  arena, any in-flight batch arenas, and the temporary bundle it exported
  when it was handed a live module instead of a bundle path.

Dispatch is per-worker and thread-safe: each worker has a lock, so one
caller thread per worker (the serving engine's model) runs without
contention, and concurrent callers queue on the lock (recorded as dispatch
wait in the per-worker statistics).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ...faults import inject as faults_inject
from .protocol import MSG, ProtocolError, recv_msg, send_msg
from .shm import ShmArena

__all__ = ["ModuleWorkerPool", "ProcPoolError", "WorkerCrash", "WorkerError",
           "PoolShutdownError"]

_POLL_SECONDS = 0.05
_BOOT_TIMEOUT_S = 120.0     #: a booting worker must HELLO within this
_REPLY_TIMEOUT_S = 600.0    #: a reply slower than this counts as a death
_MAX_RETRIES = 2            #: respawn-and-resend attempts per request
_HEARTBEAT_S = 1.0          #: idle workers are pinged this often


class ProcPoolError(RuntimeError):
    """Base error of the process-pool subsystem."""


class WorkerCrash(ProcPoolError):
    """A worker process died and the bounded retries were exhausted."""


class WorkerError(ProcPoolError):
    """A worker reported a request failure (its traceback is attached)."""

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback


class PoolShutdownError(ProcPoolError):
    """The pool was shut down while (or before) a request used it."""


@dataclass
class _WorkerStats:
    """Structured per-worker statistics (all times in seconds)."""

    boot_s: float = 0.0
    requests: int = 0
    dispatch_wait_s: float = 0.0    #: caller time spent waiting for the worker
    shm_copy_s: float = 0.0         #: parent pack + worker write-back
    execute_s: float = 0.0          #: worker-reported kernel execution
    respawns: int = 0
    retries: int = 0
    heartbeats: int = 0
    missed_heartbeats: int = 0


class _Worker:
    """One slot of the pool: process + pipe + lock + stats."""

    __slots__ = ("index", "process", "conn", "lock", "stats", "pid")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.stats = _WorkerStats()
        self.pid: Optional[int] = None


#: pools not yet shut down — drained at interpreter exit so abandoned pools
#: cannot leak processes or /dev/shm segments
_LIVE_POOLS: "weakref.WeakSet[ModuleWorkerPool]" = weakref.WeakSet()


def _shutdown_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.shutdown()
        except Exception:
            pass


atexit.register(_shutdown_live_pools)


class ModuleWorkerPool:
    """One worker process per device, booted from an exported module artifact,
    with heartbeats, respawn-with-retry, and per-worker statistics.

    ``bundle_path`` is the artifact the workers load; with ``None`` the pool
    exports ``module`` to a temporary bundle it owns (and deletes on
    :meth:`shutdown`).  Parameters are packed into a single shared arena at
    construction and mapped (read-only, zero-copy) by every worker exactly
    once; each dispatched batch travels through its own arena holding the
    request inputs plus reserved output slots, so tensors are never pickled
    and the parent remains the owner (and unlinker) of every segment.  Only
    plain data crosses the process boundary at boot.
    """

    #: in error messages, thread/process names and the ``procpool.dispatch``
    #: fault-site context (fault plans match on it)
    name = "repro-serve-pool"

    def __init__(self, module, bundle_path: Union[None, str, os.PathLike],
                 devices: Sequence):
        if not devices:
            raise ValueError("devices must not be empty")
        self._ctx = multiprocessing.get_context("spawn")
        self._closed = False
        self._workers = [_Worker(i) for i in range(len(devices))]
        self._device_specs = [str(device) for device in devices]
        self._input_names = [
            node.name for node in module.graph.input_nodes
            if node.name not in module.params]
        self._output_specs = [
            (node.name, tuple(node.shape), node.dtype or "float32")
            for node in module.graph.outputs]
        #: batch arenas currently in flight (unlinked by shutdown if a
        #: dispatching thread was killed between create and finally)
        self._batch_arenas: Dict[str, ShmArena] = {}
        self._batch_lock = threading.Lock()
        self._params_arena: Optional[ShmArena] = None
        self._owned_bundle: Optional[str] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()

        # Everything below creates a resource shutdown() releases.  Spawn
        # everyone first, then collect the HELLOs: boots overlap, so a
        # 4-worker pool pays one interpreter start, not four in sequence.
        try:
            if bundle_path is None:
                # Workers map params from the arena below, not this bundle;
                # its params entry is stored, so writing it costs a copy.
                from ..artifact import export_module

                handle, bundle_path = tempfile.mkstemp(prefix="repro-serve-",
                                                       suffix=".module")
                os.close(handle)
                self._owned_bundle = bundle_path
                export_module(module, bundle_path)
            self._bundle = str(bundle_path)
            if module.params:
                self._params_arena = ShmArena.create(module.params)
            for worker in self._workers:
                self._spawn(worker)
            for worker in self._workers:
                self._await_hello(worker)
        except BaseException:
            self.shutdown()
            raise

        _LIVE_POOLS.add(self)
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         daemon=True,
                                         name=f"{self.name}-heartbeat")
        self._monitor.start()

    # ------------------------------------------------------------------ spawn
    def _spawn(self, worker: _Worker) -> None:
        from .worker import module_worker_main

        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        boot = {"bundle": self._bundle,
                "device": self._device_specs[worker.index],
                "params": (self._params_arena.spec()
                           if self._params_arena is not None else None)}
        process = self._ctx.Process(
            target=module_worker_main, args=(child_conn, boot),
            name=f"{self.name}-worker-{worker.index}", daemon=True)
        process.start()
        child_conn.close()              # the child holds its own copy
        worker.process = process
        worker.conn = parent_conn

    def _await_hello(self, worker: _Worker) -> None:
        try:
            kind, payload = self._recv(worker, timeout=_BOOT_TIMEOUT_S)
        except self._WorkerDied as died:
            raise ProcPoolError(
                f"{self.name} worker {worker.index} died while booting "
                f"({died}). Workers use the 'spawn' start method: the "
                f"launching script must be importable without side effects "
                f"— guard pool/engine creation with "
                f"if __name__ == '__main__':") from died
        if kind == MSG.ERROR:
            raise ProcPoolError(
                f"{self.name} worker {worker.index} failed to boot: "
                f"{payload.get('error')}\n{payload.get('traceback', '')}")
        if kind != MSG.HELLO:
            raise ProtocolError(f"Expected HELLO from worker {worker.index}, "
                                f"got {MSG.name(kind)}")
        worker.pid = int(payload["pid"])
        worker.stats.boot_s += float(payload.get("boot_seconds", 0.0))

    # ------------------------------------------------------------------ io
    class _WorkerDied(Exception):
        """Internal: the worker died (or stalled) before replying."""

    def _recv(self, worker: _Worker, timeout: float):
        """Receive one frame, polling the process for death while waiting."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = min(_POLL_SECONDS, deadline - time.monotonic())
            if remaining > 0 and worker.conn.poll(remaining):
                try:
                    return recv_msg(worker.conn)
                except (EOFError, OSError) as exc:
                    raise self._WorkerDied(f"pipe closed: {exc!r}") from exc
                except ProtocolError as exc:
                    # A torn or malformed frame means the worker (or the
                    # stream) is corrupt — same remedy as death: respawn.
                    raise self._WorkerDied(f"bad frame: {exc}") from exc
            if worker.process is not None and not worker.process.is_alive():
                raise self._WorkerDied(
                    f"process exited with code {worker.process.exitcode}")
            if time.monotonic() >= deadline:
                raise self._WorkerDied(f"no reply within {timeout:.1f}s "
                                       f"(treating the worker as hung)")

    def _respawn(self, worker: _Worker, reason: str) -> None:
        """Replace a dead/hung worker in place (caller holds its lock)."""
        if self._closed:
            raise PoolShutdownError(f"{self.name} is shut down")
        self._reap(worker)
        worker.stats.respawns += 1
        self._spawn(worker)
        self._await_hello(worker)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        process = worker.process
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            worker.process = None

    # ------------------------------------------------------------------ dispatch
    def request(self, index: int, kind: int, payload: Dict,
                expect: int) -> Dict:
        """Round-trip one frame to worker ``index``; respawn + retry on death.

        The payload must be self-contained (re-sendable verbatim): on worker
        death the worker is respawned and the same frame is retried up to
        ``_MAX_RETRIES`` times before :class:`WorkerCrash` is raised.
        """
        worker = self._workers[index]
        wait_start = time.perf_counter()
        with worker.lock:
            worker.stats.dispatch_wait_s += time.perf_counter() - wait_start
            last_reason = "?"
            for attempt in range(_MAX_RETRIES + 1):
                if self._closed:
                    raise PoolShutdownError(f"{self.name} is shut down")
                if attempt:
                    worker.stats.retries += 1
                try:
                    if worker.conn is None or worker.process is None \
                            or not worker.process.is_alive():
                        raise self._WorkerDied("worker is not running")
                    fault = faults_inject("procpool.dispatch",
                                          pool=self.name, index=index,
                                          kind=MSG.name(kind),
                                          pid=worker.pid)
                    if fault is not None and fault.get("action") == "kill" \
                            and worker.pid is not None:
                        try:
                            os.kill(worker.pid, signal.SIGKILL)
                        except (ProcessLookupError, PermissionError):
                            pass
                    send_msg(worker.conn, kind, payload)
                    reply_kind, reply = self._recv(worker, _REPLY_TIMEOUT_S)
                except (self._WorkerDied, OSError) as exc:
                    last_reason = str(exc) or repr(exc)
                    self._respawn(worker, last_reason)
                    continue
                if reply_kind == MSG.ERROR:
                    raise WorkerError(
                        f"{self.name} worker {index} failed a "
                        f"{MSG.name(kind)} request: {reply.get('error')}",
                        remote_traceback=str(reply.get("traceback", "")))
                if reply_kind != expect:
                    raise ProtocolError(
                        f"{self.name} worker {index}: expected "
                        f"{MSG.name(expect)}, got {MSG.name(reply_kind)}")
                worker.stats.requests += 1
                return reply
            raise WorkerCrash(
                f"{self.name} worker {index} died {_MAX_RETRIES + 1} "
                f"time(s) handling one {MSG.name(kind)} request "
                f"(last: {last_reason}); giving up on this batch")

    # ------------------------------------------------------------------ batches
    def run_batch(self, index: int,
                  requests: Sequence[Dict[str, np.ndarray]]
                  ) -> List[Union[List[np.ndarray], Exception]]:
        """Execute ``requests`` on worker ``index``; one entry per request —
        the output arrays, or the per-request execution error.

        Worker death mid-batch is handled by :meth:`request` (respawn +
        bounded retry of this same batch); exhausted retries raise
        :class:`WorkerCrash`.
        """
        pack_start = time.perf_counter()
        tensors = {}
        for i, request in enumerate(requests):
            for name in self._input_names:
                tensors[f"in:{i}:{name}"] = request[name]
        reserve = {}
        for i in range(len(requests)):
            for name, shape, dtype in self._output_specs:
                reserve[f"out:{i}:{name}"] = (shape, dtype)
        arena = ShmArena.create(tensors, reserve=reserve)
        with self._batch_lock:
            self._batch_arenas[arena.name] = arena
        pack_seconds = time.perf_counter() - pack_start
        worker = self._workers[index]
        try:
            reply = self.request(index, MSG.EXEC, {
                "arena": arena.spec(),
                "requests": len(requests),
                "inputs": self._input_names,
                "outputs": [name for name, _shape, _dtype in self._output_specs],
            }, expect=MSG.RESULT)
            timings = reply.get("timings", {})
            worker.stats.execute_s += float(timings.get("execute_s", 0.0))
            worker.stats.shm_copy_s += pack_seconds \
                + float(timings.get("shm_copy_s", 0.0))
            results: List[Union[List[np.ndarray], Exception]] = []
            for i, status in enumerate(reply["per_request"]):
                if status.get("ok"):
                    results.append([arena.read(f"out:{i}:{name}")
                                    for name, _s, _d in self._output_specs])
                else:
                    results.append(RuntimeError(
                        f"request failed on {self.name} worker {index}: "
                        f"{status.get('error')}"))
            return results
        finally:
            with self._batch_lock:
                self._batch_arenas.pop(arena.name, None)
            arena.unlink()

    # ------------------------------------------------------------------ health
    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(_HEARTBEAT_S):
            for worker in self._workers:
                if self._closed:
                    return
                # Only probe idle workers: a held lock means a dispatch is in
                # flight, and that path does its own death detection.
                if not worker.lock.acquire(blocking=False):
                    continue
                try:
                    if self._closed:
                        return
                    alive = (worker.process is not None
                             and worker.process.is_alive())
                    if alive:
                        try:
                            send_msg(worker.conn, MSG.PING, {})
                            kind, _ = self._recv(worker, timeout=5.0)
                            if kind == MSG.PONG:
                                worker.stats.heartbeats += 1
                                continue
                        except (self._WorkerDied, OSError,
                                ProtocolError):
                            pass
                    worker.stats.missed_heartbeats += 1
                    try:
                        self._respawn(worker, "missed heartbeat")
                    except (ProcPoolError, ProtocolError):
                        pass            # next beat (or dispatch) retries
                finally:
                    worker.lock.release()

    def alive(self) -> List[bool]:
        return [w.process is not None and w.process.is_alive()
                for w in self._workers]

    def pids(self) -> List[Optional[int]]:
        return [w.process.pid if w.process is not None else None
                for w in self._workers]

    # ------------------------------------------------------------------ stats
    def stats(self) -> List[Dict[str, float]]:
        """Structured per-worker statistics dicts."""
        return [{**vars(w.stats), "index": w.index, "pid": w.pid,
                 "alive": w.process is not None and w.process.is_alive()}
                for w in self._workers]

    # ------------------------------------------------------------------ lifecycle
    def shutdown(self) -> None:
        """Stop every worker and release every pool resource (idempotent).

        Workers get a ``SHUTDOWN`` frame and a bounded join; stragglers are
        killed.  Then every shared-memory segment the pool created is
        unlinked and the temporary bundle (if the pool exported one) deleted.
        """
        if self._closed:
            return
        self._closed = True
        if self._monitor is not None:
            self._monitor_stop.set()
            if self._monitor is not threading.current_thread():
                self._monitor.join(timeout=10.0)
        for worker in self._workers:
            acquired = worker.lock.acquire(timeout=5.0)
            try:
                if worker.conn is not None and worker.process is not None \
                        and worker.process.is_alive():
                    try:
                        send_msg(worker.conn, MSG.SHUTDOWN, {})
                        self._recv(worker, timeout=5.0)
                    except (self._WorkerDied, ProtocolError, OSError):
                        pass
                self._reap(worker)
            finally:
                if acquired:
                    worker.lock.release()
        with self._batch_lock:
            arenas = list(self._batch_arenas.values())
            self._batch_arenas.clear()
        if self._params_arena is not None:
            arenas.append(self._params_arena)
            self._params_arena = None
        for arena in arenas:
            try:
                arena.unlink()
            except Exception:
                pass
        if self._owned_bundle is not None:
            try:
                os.unlink(self._owned_bundle)
            except OSError:
                pass
            self._owned_bundle = None
        _LIVE_POOLS.discard(self)

    def __enter__(self) -> "ModuleWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
