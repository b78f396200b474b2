"""Deployable runtime: NDArray/devices, executors, artifacts, serving and
its process worker pool.

Trace generation and replay (:mod:`repro.runtime.traffic`) drive the serving
benchmarks; import them from that module.
"""

from .artifact import ArtifactError, export_module, graph_from_json, graph_to_json, load_module
from .executor import ExecutionResult, Executor, InputSpec
from .ndarray import (DEVICE_TYPES, Device, NDArray, array, cpu,
                      device, empty, gpu)
from .procpool import (ModuleWorkerPool, PoolShutdownError, ProcPoolError,
                       ShmArena, WorkerCrash, WorkerError, leaked_segments)
from .framing import ProtocolError, TruncatedFrameError
from .serving import (DeadlineExceeded, InferenceEngine, InferenceFuture,
                      QueueFull, RequestCancelled, ServingError, serve)

#: ``repro.load`` — restore an exported module artifact without recompiling
load = load_module

__all__ = [
    "ArtifactError",
    "DEVICE_TYPES",
    "DeadlineExceeded",
    "Device",
    "ExecutionResult",
    "Executor",
    "InferenceEngine",
    "InferenceFuture",
    "InputSpec",
    "ModuleWorkerPool",
    "NDArray",
    "PoolShutdownError",
    "ProcPoolError",
    "ProtocolError",
    "QueueFull",
    "RequestCancelled",
    "ServingError",
    "ShmArena",
    "TruncatedFrameError",
    "WorkerCrash",
    "WorkerError",
    "array",
    "cpu",
    "device",
    "empty",
    "export_module",
    "gpu",
    "graph_from_json",
    "graph_to_json",
    "leaked_segments",
    "load",
    "load_module",
    "serve",
]
