"""RPC tracker and device pool (paper Section 5.4, Figure 11).

The paper's distributed device pool lets many tuning jobs share boards: a
tracker matches client requests to free devices, the client runs its
cross-compiled module remotely and collects timings.  This module
reproduces that architecture in-process: :class:`Tracker` manages a registry
of :class:`RPCServer` instances (each owning one simulated device), hands out
:class:`RPCSession` leases, and enforces exclusive access with locks so
concurrent tuning jobs time-share devices exactly like the real pool.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List, Optional

import numpy as np

from ..hardware.base import HardwareModel
from ..tir.analysis import ProgramFeatures

__all__ = ["RPCServer", "RPCSession", "Tracker"]


class RPCServer:
    """One device host registered with the tracker."""

    def __init__(self, key: str, model: HardwareModel):
        self.key = key
        self.model = model
        self._lock = threading.Lock()
        self.request_count = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        return self._lock.acquire(timeout=timeout if timeout is not None else -1)

    def release(self) -> None:
        if self._lock.locked():
            self._lock.release()

    # -- remote procedure surface ------------------------------------------------
    def run_timed(self, payload, number: int = 3,
                  rng: Optional[np.random.Generator] = None) -> List[float]:
        """Time a lowered function / feature vector on this device.

        ``rng`` is the caller's measurement-noise stream; without one the
        device model derives its own from the payload.
        """
        self.request_count += 1
        result = self.model.measure(payload, number=number, rng=rng)
        if result.error is not None:
            raise RuntimeError(f"remote execution failed: {result.error}")
        return list(result.times)


class RPCSession:
    """A client's lease on one remote device."""

    def __init__(self, server: RPCServer, tracker: "Tracker"):
        self.server = server
        self.tracker = tracker
        self._released = False

    def run_timed(self, payload, number: int = 3,
                  rng: Optional[np.random.Generator] = None) -> List[float]:
        return self.server.run_timed(payload, number=number, rng=rng)

    def release(self) -> None:
        if not self._released:
            self.server.release()
            self.tracker._notify_free(self.server)
            self._released = True


class Tracker:
    """Matches device requests to free servers (the paper's tracker)."""

    def __init__(self):
        self._servers: Dict[str, List[RPCServer]] = {}
        self._free: Dict[str, "queue.Queue[RPCServer]"] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------------------
    def register(self, server: RPCServer) -> None:
        with self._lock:
            self._servers.setdefault(server.key, []).append(server)
            self._free.setdefault(server.key, queue.Queue()).put(server)

    def register_device(self, key: str, model: HardwareModel, count: int = 1) -> None:
        """Convenience: register ``count`` identical devices under ``key``."""
        for _ in range(count):
            self.register(RPCServer(key, model))

    # -- allocation -------------------------------------------------------------------
    def request(self, key: str, timeout: float = 10.0) -> RPCSession:
        """Request an exclusive session on a free device of type ``key``."""
        if key not in self._servers:
            raise KeyError(f"No devices registered under key {key!r}; "
                           f"known keys: {sorted(self._servers)}")
        try:
            server = self._free[key].get(timeout=timeout)
        except queue.Empty as exc:
            raise TimeoutError(f"No free device for key {key!r} within {timeout}s") from exc
        server.acquire()
        return RPCSession(server, self)

    def _notify_free(self, server: RPCServer) -> None:
        self._free[server.key].put(server)

    # -- introspection -----------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {key: {"total": len(servers),
                          "free": self._free[key].qsize(),
                          "requests": sum(s.request_count for s in servers)}
                    for key, servers in self._servers.items()}

