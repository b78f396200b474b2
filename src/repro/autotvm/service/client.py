"""Client side of the tuning service: hardened connection + dedup measurer.

:class:`ServiceClient` is the connection a tuning session holds to a
:class:`~repro.autotvm.service.server.TuningService`; sessions normally get
one implicitly by passing ``TuningOptions(service="host:port")``.
:class:`ServiceDedupMeasurer` wraps the session's ordinary batch measurer
and consults the service before measuring: candidates any client in the
fleet already measured are answered from the service's trial store, fresh
measurements are pushed back for everyone else.

The client is built to survive an unreliable service:

* **connect retries** — transient ``ECONNREFUSED``/timeouts at connection
  time are retried with exponential backoff + jitter before
  :class:`ServiceUnavailable` is raised;
* **per-RPC timeouts** — every request-reply exchange runs under
  ``rpc_timeout`` seconds of socket timeout, so a stalled server cannot
  hang a tuning session;
* **reconnect + retry** — a connection that dies mid-RPC is dropped and
  re-established (with a fresh ``HELLO`` handshake) and the RPC is
  retried.  Every RPC in the protocol is idempotent (lookups are pure,
  ``PUSH``/``RECORD`` are first-wins upserts), so a retry after an
  ambiguous failure is always safe;
* **circuit breaker** — after three consecutive RPC failures the breaker
  opens and calls fail fast with :class:`ServiceUnavailable` (no socket
  work) for five seconds, then one half-open probe is allowed through
  (:class:`_CircuitBreaker`'s defaults).

:class:`ServiceDedupMeasurer` catches :class:`ServiceUnavailable` (and any
connection-level error) and degrades to pure-local measurement — logged
and counted in ``service_failures`` / ``local_fallbacks`` — instead of
crashing the session.  Because local measurement is deterministic per
``(seed, task, config)`` (see :class:`~repro.autotvm.measure.Measurer`),
a dedup hit returns exactly the value this session would have measured
itself, so neither a hit nor a degraded miss can change the tuning
trajectory of identically-seeded sessions.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ...faults import inject as faults_inject
from ..cost_model import GradientBoostedTrees
from ..database import TuningLogEntry
from ..measure import MeasureInput, MeasureResultRecord
from .protocol import MSG, ServiceProtocolError, recv_frame, send_frame

__all__ = ["ServiceClient", "ServiceDedupMeasurer", "ServiceUnavailable",
           "connect"]

logger = logging.getLogger("repro.autotvm.service")

#: (task name, target name, config index) — the dedup key of one trial
TrialKey = Tuple[str, str, int]


class ServiceUnavailable(RuntimeError):
    """The tuning service cannot be reached: connect retries were exhausted,
    an RPC failed through every retry, or the circuit breaker is open."""


def _parse_address(address: str) -> Tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"Service address must be 'host:port', got {address!r}")
    return host, int(port)


class _CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    ``allow()`` is cheap and lock-scoped; an open breaker lets one probe
    through every ``reset_s`` seconds — the caller that is allowed through
    claims the probe by restarting the window, so callers already waiting
    behind it fail fast — and a failed probe re-opens it.
    """

    def __init__(self, threshold: int = 3, reset_s: float = 5.0):
        self.threshold = threshold
        self.reset_s = reset_s
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self.opens = 0                  #: times the breaker tripped open

    def allow(self) -> bool:
        with self._lock:
            if self._opened_at is None:
                return True
            now = time.monotonic()
            if now - self._opened_at < self.reset_s:
                return False
            self._opened_at = now       # this caller is the half-open probe
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._opened_at is not None:
                # a half-open probe failed: re-open the window
                self._opened_at = time.monotonic()
            elif self._failures >= self.threshold:
                self._opened_at = time.monotonic()
                self.opens += 1

    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if time.monotonic() - self._opened_at >= self.reset_s:
                return "half-open"
            return "open"


class ServiceClient:
    """A fault-tolerant connection to a running tuning service.

    Thread-safe: one request-reply exchange holds the connection lock, so a
    session's measurer and its progress callbacks may share one client.
    Usable as a context manager; :meth:`close` is idempotent.

    ``timeout`` bounds each connection attempt; ``rpc_timeout`` bounds each
    request-reply exchange.  See the module docstring for the retry /
    breaker behaviour.
    """

    def __init__(self, address: str, timeout: float = 30.0, *,
                 rpc_timeout: float = 30.0,
                 connect_retries: int = 3,
                 rpc_retries: int = 2,
                 backoff_s: float = 0.05,
                 backoff_max_s: float = 2.0):
        self.address = address
        self._hostport = _parse_address(address)
        self.connect_timeout = timeout
        self.rpc_timeout = rpc_timeout
        self.connect_retries = connect_retries
        self.rpc_retries = rpc_retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._breaker = _CircuitBreaker()
        # Jittered backoff from the client's own RNG: deterministic per
        # address, never touching the global random state tuning depends on.
        digest = hashlib.sha256(f"service-client:{address}".encode())
        self._rng = random.Random(
            int.from_bytes(digest.digest()[:8], "little"))
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._closed = False
        self._ever_connected = False
        self.reconnects = 0             #: successful re-connections
        self.rpc_failures = 0           #: RPC attempts that errored
        self.server_entries = 0
        with self._lock:
            self._connect_locked()      # loud: a bad address fails here

    # ------------------------------------------------------------ transport
    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_s * (2 ** attempt), self.backoff_max_s)
        return base + self._rng.uniform(0.0, base)

    def _connect_locked(self) -> None:
        """(Re)establish the socket + HELLO handshake, with bounded,
        jittered retries on transient refusals.  Caller holds the lock."""
        host, port = self._hostport
        first_time = not self._ever_connected
        last: Optional[BaseException] = None
        for attempt in range(self.connect_retries + 1):
            sock = None
            try:
                fault = faults_inject("service.connect",
                                      address=self.address, attempt=attempt)
                if fault is not None and fault.get("action") == "refuse":
                    raise ConnectionRefusedError(
                        "fault injection: connection refused")
                sock = socket.create_connection(
                    (host, port), timeout=self.connect_timeout)
                sock.settimeout(self.rpc_timeout)
                send_frame(sock, MSG.HELLO, {"pid": os.getpid()})
                kind, welcome = recv_frame(sock)
                if kind != MSG.WELCOME:
                    raise ServiceProtocolError(
                        f"Expected WELCOME from {self.address}, "
                        f"got {MSG.name(kind)}")
            except (ConnectionError, socket.timeout, OSError,
                    ServiceProtocolError) as exc:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                last = exc
                if attempt < self.connect_retries:
                    time.sleep(self._backoff(attempt))
                continue
            self._sock = sock
            self.server_entries = int(welcome.get("entries", 0))
            self._ever_connected = True
            if not first_time:
                self.reconnects += 1
                logger.warning("reconnected to tuning service %s "
                               "(reconnect #%d)", self.address,
                               self.reconnects)
            return
        raise ServiceUnavailable(
            f"Cannot connect to tuning service {self.address} after "
            f"{self.connect_retries + 1} attempt(s): {last!r}") from last

    def _drop_socket_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request(self, kind: int, payload: Dict, expect: int) -> Dict:
        if not self._breaker.allow():
            raise ServiceUnavailable(
                f"Circuit breaker is open for {self.address} "
                f"(retry allowed in <= {self._breaker.reset_s:.1f}s)")
        last: Optional[BaseException] = None
        with self._lock:
            if self._closed:
                raise ServiceProtocolError(
                    f"Client for {self.address} is closed")
            for attempt in range(self.rpc_retries + 1):
                try:
                    if self._sock is None:
                        self._connect_locked()
                    send_frame(self._sock, kind, payload)
                    reply_kind, reply = recv_frame(self._sock)
                except ServiceUnavailable as exc:
                    last = exc          # connect retries exhausted inside
                    break
                except (ConnectionError, socket.timeout, OSError,
                        ServiceProtocolError) as exc:
                    # Mid-RPC death: reconnect and retry — every RPC in
                    # this protocol is idempotent, so an ambiguous failure
                    # (sent, no reply) is safe to replay.
                    last = exc
                    self.rpc_failures += 1
                    self._drop_socket_locked()
                    if attempt < self.rpc_retries:
                        time.sleep(self._backoff(attempt))
                    continue
                self._breaker.record_success()
                # Server-reported application errors are *not* availability
                # failures: the service answered.
                if reply_kind == MSG.ERROR:
                    raise ServiceProtocolError(
                        f"{MSG.name(kind)} failed on {self.address}: "
                        f"{reply.get('message')}")
                if reply_kind != expect:
                    raise ServiceProtocolError(
                        f"Expected {MSG.name(expect)} reply to "
                        f"{MSG.name(kind)}, got {MSG.name(reply_kind)}")
                return reply
        self._breaker.record_failure()
        raise ServiceUnavailable(
            f"{MSG.name(kind)} to {self.address} failed "
            f"({last!r}); the service looks down") from last

    def breaker_state(self) -> str:
        return self._breaker.state()

    def client_stats(self) -> Dict[str, object]:
        """Client-side resilience counters."""
        return {"reconnects": self.reconnects,
                "rpc_failures": self.rpc_failures,
                "breaker_opens": self._breaker.opens,
                "breaker_state": self._breaker.state()}

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drop_socket_locked()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------ trial store
    def lookup(self, keys: Sequence[TrialKey]) -> List[Optional[Dict]]:
        """Per key: ``{"time", "error"}`` if any client measured it, else
        ``None`` (aligned with ``keys``)."""
        if not keys:
            return []
        reply = self._request(MSG.LOOKUP, {"keys": [list(k) for k in keys]},
                              expect=MSG.FOUND)
        return reply["results"]

    def push_trials(self, records: Sequence[Dict]) -> int:
        """Publish raw trial measurements (dicts with ``task``, ``target``,
        ``config_index``, ``time``, optional ``error``); returns how many
        were new to the service."""
        if not records:
            return 0
        reply = self._request(MSG.PUSH, {"records": list(records)},
                              expect=MSG.ACK)
        return int(reply.get("new", 0))

    # ------------------------------------------------------------ best store
    def record_best(self, entry: TuningLogEntry) -> bool:
        """Publish a session's floored best entry to the shared database."""
        from .server import _entry_payload

        reply = self._request(MSG.RECORD, {"entry": _entry_payload(entry)},
                              expect=MSG.ACK)
        return bool(reply.get("new", 0))

    def warm_entries(self, operator: str, target_name: Optional[str] = None
                     ) -> List[TuningLogEntry]:
        """All shared entries of an operator family, in recording order —
        transfer-learning food for
        :meth:`~repro.autotvm.tuner.ModelBasedTuner.warm_start`."""
        from .server import entry_from_payload

        reply = self._request(MSG.WARM, {"operator": operator,
                                         "target": target_name},
                              expect=MSG.ENTRIES)
        return [entry_from_payload(p) for p in reply.get("entries", [])]

    def pretrained_model(self, operator: str, target_name: str
                         ) -> Optional[GradientBoostedTrees]:
        """The service's startup-pretrained cost model for an operator
        family on a target, or ``None`` when it has none."""
        reply = self._request(MSG.MODEL, {"operator": operator,
                                          "target": target_name},
                              expect=MSG.MODEL_SPEC)
        spec = reply.get("model")
        return GradientBoostedTrees.from_spec(spec) if spec else None

    # ------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, int]:
        """Service-side counters (dedup hits, trials stored, clients...)."""
        return self._request(MSG.STATS, {}, expect=MSG.STATS_REPLY)


def connect(address: str, timeout: float = 30.0, **kwargs) -> ServiceClient:
    """Connect to a tuning service at ``"host:port"``."""
    return ServiceClient(address, timeout=timeout, **kwargs)


#: errors on which the dedup measurer degrades to pure-local measurement
_DEGRADE_ERRORS = (ServiceUnavailable, ServiceProtocolError,
                   ConnectionError, OSError)


class ServiceDedupMeasurer:
    """Batch measurer that skips candidates the fleet already measured.

    Wraps the session's real measurer: each batch is first looked up on the
    service; hits become :class:`MeasureResultRecord`\\ s directly (features
    ``None`` — consumers refeaturise through the shared evaluation cache),
    misses are measured locally and pushed back for other clients.  Results
    come back in input order, so the tuner cannot tell the difference.

    A service that dies mid-run does not kill the session: lookup/push
    failures are logged, counted (``service_failures``), and the batch is
    measured purely locally (``local_fallbacks``).  Thanks to deterministic
    per-``(seed, task, config)`` measurement the results are bit-identical
    either way; only the dedup savings are lost.  Every batch retries the
    service — the client's circuit breaker makes that cheap while it is
    down, and dedup resumes if it comes back.
    """

    def __init__(self, base, client: ServiceClient):
        self.base = base
        self.client = client
        self.dedup_hits = 0         #: measurements skipped thanks to the fleet
        self.service_failures = 0   #: lookup/push calls that failed
        self.local_fallbacks = 0    #: candidates measured without the service
        self._was_degraded = False

    def _note_failure(self, what: str, exc: BaseException) -> None:
        self.service_failures += 1
        if not self._was_degraded:
            logger.warning(
                "tuning service %s failed (%s: %r); degrading to pure-local "
                "measurement — results are unchanged, dedup savings lost",
                self.client.address, what, exc)
            self._was_degraded = True

    def measure(self, inputs: Sequence[MeasureInput]
                ) -> List[MeasureResultRecord]:
        keys = [(inp.task.name, inp.task.target.name, inp.config.index)
                for inp in inputs]
        try:
            hits = self.client.lookup(keys)
        except _DEGRADE_ERRORS as exc:
            self._note_failure("lookup", exc)
            hits = [None] * len(inputs)
            self.local_fallbacks += len(inputs)
        else:
            if self._was_degraded:
                logger.info("tuning service %s is back; dedup resumed",
                            self.client.address)
                self._was_degraded = False
        results: List[Optional[MeasureResultRecord]] = [None] * len(inputs)
        misses: List[MeasureInput] = []
        positions: List[int] = []
        for i, (inp, hit) in enumerate(zip(inputs, hits)):
            if hit is None:
                misses.append(inp)
                positions.append(i)
            else:
                self.dedup_hits += 1
                results[i] = MeasureResultRecord(inp, float(hit["time"]),
                                                 None, error=hit.get("error"))
        if misses:
            measured = self.base.measure(misses)
            try:
                self.client.push_trials([
                    {"task": rec.input.task.name,
                     "target": rec.input.task.target.name,
                     "config_index": rec.input.config.index,
                     "time": rec.mean_time, "error": rec.error,
                     # feature vectors ride along so the service can pretrain
                     # its cost models on every trial the fleet ever measured
                     "features": ([float(v) for v in rec.features.vector()]
                                  if rec.features is not None else None)}
                    for rec in measured])
            except _DEGRADE_ERRORS as exc:
                self._note_failure("push_trials", exc)
            for pos, rec in zip(positions, measured):
                results[pos] = rec
        return results
