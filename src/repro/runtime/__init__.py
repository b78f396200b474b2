"""Deployable runtime: NDArray/devices, executors, artifacts, serving, RPC."""

from .artifact import ArtifactError, export_module, graph_from_json, graph_to_json, load_module
from .executor import ExecutionResult, Executor, InputSpec
from .ndarray import (DEVICE_TYPES, Device, NDArray, array, cpu,
                      device, empty, gpu, mali, vdla)
from .procpool import (ModuleWorkerPool, PoolShutdownError, ProcPoolError,
                       ShmArena, WorkerCrash, WorkerError, leaked_segments)
from .framing import ProtocolError, TruncatedFrameError
from .rpc import RPCServer, RPCSession, Tracker
from .serving import (DeadlineExceeded, InferenceEngine, InferenceFuture,
                      QueueFull, RequestCancelled, ServingError, serve)
from .traffic import (ReplayReport, Trace, TraceError, TraceReplayer,
                      TraceRequest, TraceSpec, load_trace)

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
    "RPCServer",
    "RPCSession",
    "ReplayReport",
    "RequestCancelled",
    "ServingError",
    "ShmArena",
    "Trace",
    "TraceError",
    "TraceReplayer",
    "TraceRequest",
    "TraceSpec",
    "Tracker",
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
    "mali",
    "serve",
    "vdla",
]
