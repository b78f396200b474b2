"""Process-parallel execution: shared-memory worker pools (the GIL escape).

The serving engine is wall-clock bound by the GIL:
thread workers interleave on one core no matter how many devices the pool
simulates.  This package provides the process-level counterpart —

* :class:`~repro.runtime.procpool.shm.ShmArena` — a named
  ``multiprocessing.shared_memory`` segment with a tensor slot table;
  module parameters are packed into one arena and mapped by every worker
  exactly once, and each dispatched batch travels through its own
  per-request arena (zero-copy views on the worker side, never pickled).
* :mod:`~repro.runtime.procpool.protocol` — a small framed header +
  JSON-payload message codec over pipe connections (built on the PR 4
  artifact codec for tuple-preserving values); tensors never enter frames.
* :class:`~repro.runtime.procpool.pool.ModuleWorkerPool` — one OS process
  per device with first-class lifecycle: boot handshake, heartbeat health
  checks, detection of worker death mid-request, automatic respawn with
  bounded retry of the in-flight work, graceful shutdown that unlinks
  every shared-memory segment, and structured per-worker statistics.
  Workers boot from an exported artifact bundle
  (``CompiledModule.export``) with parameters mapped from the shared
  arena, and execute request batches bit-identically to the in-process
  :class:`~repro.runtime.executor.Executor`.

``repro.serve(..., pool="process")`` serves over a :class:`ModuleWorkerPool`.
Workers are started with the ``spawn`` context (safe
with threads in the parent; see the README's spawn-vs-fork notes).
"""

from .pool import (ModuleWorkerPool, PoolShutdownError, ProcPoolError,
                   WorkerCrash, WorkerError)
from .shm import ShmArena, leaked_segments
from .worker import module_worker_main

__all__ = [
    "ModuleWorkerPool",
    "PoolShutdownError",
    "ProcPoolError",
    "ShmArena",
    "WorkerCrash",
    "WorkerError",
    "leaked_segments",
    "module_worker_main",
]
