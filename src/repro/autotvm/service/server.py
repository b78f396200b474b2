"""The tuning service server: one authoritative database, many sessions.

:class:`TuningService` is a long-lived socket server, listening on a real
TCP port, that owns the single authoritative
:class:`~repro.autotvm.database.TuningDatabase` a fleet of tuning sessions
shares.  Its owner starts and stops it; clients cannot.  It provides three
things a lone session cannot:

* **Global measurement dedup** — every raw trial measurement any client
  makes is pushed to the service; before measuring a ``(task, target,
  config)`` candidate, clients ask first and reuse the stored result.
  Because measurements are deterministic per ``(seed, task, config)``,
  identically-seeded sessions receive exactly the value they would have
  measured themselves, so deduplication never changes a report.
* **Cross-session transfer** — session bests (with their feature vectors)
  land in the authoritative database; new sessions warm-start their cost
  models from them (:meth:`~repro.autotvm.tuner.ModelBasedTuner.warm_start`)
  even for shapes no client has tuned before.
* **A pretrained cost model** — at startup the service fits one
  gradient-boosted-trees model per (operator family, target) on its
  accumulated history — every feature-bearing raw trial plus the recorded
  bests, throughput-normalised per workload — and ships it to clients, so
  cold sessions explore model-guided from the first batch.

Raw trials and session bests are deliberately kept apart: the trial store
answers dedup lookups and bulk-feeds pretraining, while the database holds
only the floored per-task bests that history-based compilation and
warm-start transfer consume.  When the database is file-backed, the trial
store persists next to it (``<path>.trials``) so a restarted service keeps
both its dedup memory and its training set.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...faults import inject as faults_inject
from ..cost_model import GradientBoostedTrees
from ..database import TuningDatabase, TuningLogEntry, operator_of
from .protocol import MSG, ServiceProtocolError, recv_frame, send_frame

__all__ = ["TuningService"]

logger = logging.getLogger("repro.autotvm.service")

#: samples per (operator, target) group needed before a model is pretrained
_PRETRAIN_MIN_ENTRIES = 8
#: newest samples kept per group when fitting (bounds startup cost)
_PRETRAIN_MAX_ENTRIES = 2048


def _entry_payload(entry: TuningLogEntry) -> Dict:
    payload = {"task": entry.task_name, "target": entry.target_name,
               "config_index": entry.config_index, "config": entry.config_dict,
               "time": entry.mean_time}
    if entry.features is not None:
        payload["features"] = list(entry.features)
    return payload


def entry_from_payload(payload: Dict) -> TuningLogEntry:
    return TuningLogEntry(payload["task"], payload["target"],
                          int(payload["config_index"]), payload["config"],
                          float(payload["time"]),
                          features=payload.get("features"))


class TuningService:
    """A shared tuning-database server for concurrent tuning sessions.

    ::

        with TuningService(db_path="tuning.jsonl").start() as service:
            repro.autotune("resnet-18", target="cuda",
                           options=TuningOptions(service=service.address))

    ``port=0`` (the default) binds an ephemeral port; read the actual
    endpoint from :attr:`address` after :meth:`start`.  The service owns its
    database's writer lock for as long as it runs — it is the sanctioned way
    for many sessions to share one JSONL log.
    """

    def __init__(self, db_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.database = TuningDatabase(db_path)
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        #: raw trial results: (task, target, config index) ->
        #: ``{"time", "error", "features"}``; dedup memory + pretraining food
        self._trials: Dict[Tuple[str, str, int], Dict] = {}
        self._trials_path = (self.database.path + ".trials"
                             if self.database.path else None)
        if self._trials_path and os.path.exists(self._trials_path):
            self._load_trials(self._trials_path)
        self._models: Dict[Tuple[str, str], Dict] = {}
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._counters = {"connections": 0, "lookups": 0, "dedup_hits": 0,
                          "trials_pushed": 0, "bests_recorded": 0,
                          "warm_requests": 0, "model_requests": 0,
                          "model_hits": 0}

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "TuningService":
        """Bind, pretrain cost models from the accumulated database, and
        begin accepting clients.  Returns ``self``."""
        if self._listener is not None:
            raise RuntimeError("TuningService is already running")
        if self.database.path:
            # Claim the database's writer lock up front: exactly one service
            # per JSONL log, and the conflict is loud at startup, not at the
            # first recorded best.
            self.database._acquire_write_lock()
        self._pretrain_models()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tuning-service-accept", daemon=True)
        self._accept_thread.start()
        logger.info("tuning service listening on %s (%d entries, %d "
                    "pretrained models)", self.address, len(self.database),
                    len(self._models))
        return self

    @property
    def address(self) -> str:
        if self.port is None:
            raise RuntimeError("TuningService is not running (call start())")
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop accepting, drain handler threads, release the database lock.

        Idempotent; leaves no socket or thread behind (the tuning-service CI
        smoke asserts this)."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        for handler in self._handlers:
            handler.join(timeout=5.0)
        self._handlers = []
        self.port = None
        self.database.close()

    def __enter__(self) -> "TuningService":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ trial log
    def _load_trials(self, path: str) -> None:
        """Reload the persisted trial store (first record per key wins,
        matching the live store's semantics)."""
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                key = (record["task"], record["target"],
                       int(record["config_index"]))
                self._trials.setdefault(key, {
                    "time": float(record["time"]),
                    "error": record.get("error"),
                    "features": record.get("features")})

    def _persist_trials(self, rows: List[Dict]) -> None:
        """Append new trial records to the on-disk trial log (caller holds
        the lock; the service owns the database's writer lock, so this file
        has a single writer by construction)."""
        if not self._trials_path or not rows:
            return
        with open(self._trials_path, "a", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------ pretraining
    def _training_samples(self):
        """(operator, target) -> list of (task, features, time) from every
        feature-bearing raw trial plus the recorded bests."""
        groups: Dict[Tuple[str, str], List[Tuple[str, List[float], float]]] = {}
        for (task, target, _index), rec in self._trials.items():
            time, features = rec["time"], rec.get("features")
            if features is None or rec.get("error") is not None \
                    or time <= 0 or not np.isfinite(time):
                continue
            groups.setdefault((operator_of(task), target), []).append(
                (task, features, time))
        for entry in self.database:
            if entry.features is None or entry.mean_time <= 0 \
                    or not np.isfinite(entry.mean_time):
                continue
            groups.setdefault((entry.operator, entry.target_name), []).append(
                (entry.task_name, entry.features, entry.mean_time))
        return groups

    def _pretrain_models(self) -> None:
        """Fit one cost model per (operator, target) on accumulated history.

        Throughputs are normalised *per workload* before pooling, so a fast
        small shape and a slow large shape contribute comparable training
        targets — the model learns what distinguishes good configurations
        within a shape, which is exactly what transfers across shapes.
        """
        for key, samples in self._training_samples().items():
            samples = samples[-_PRETRAIN_MAX_ENTRIES:]
            dim = len(samples[0][1])
            samples = [s for s in samples if len(s[1]) == dim]
            if len(samples) < _PRETRAIN_MIN_ENTRIES:
                continue
            top = {}
            for task, _features, time in samples:
                top[task] = max(top.get(task, 0.0), 1.0 / time)
            x = np.asarray([s[1] for s in samples], dtype=np.float64)
            y = np.asarray([(1.0 / s[2]) / top[s[0]] for s in samples])
            model = GradientBoostedTrees(seed=0)
            model.fit(x, y)
            self._models[key] = model.to_spec()
            logger.info("pretrained cost model for %s/%s on %d samples "
                        "(%d workloads)", key[0], key[1], len(samples),
                        len(top))

    # ------------------------------------------------------------ serving
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                self._counters["connections"] += 1
                # Drop finished handlers so long-lived services don't
                # accumulate dead thread objects.
                self._handlers = [t for t in self._handlers if t.is_alive()]
            handler = threading.Thread(target=self._serve_client,
                                       args=(conn, peer),
                                       name=f"tuning-service-{peer[1]}",
                                       daemon=True)
            self._handlers.append(handler)
            handler.start()

    def _serve_client(self, conn: socket.socket, peer) -> None:
        conn.settimeout(1.0)
        try:
            while not self._stop.is_set():
                try:
                    kind, payload = recv_frame(conn)
                except socket.timeout:
                    continue
                except (ConnectionError, OSError):
                    break
                try:
                    reply_kind, reply = self._dispatch(kind, payload)
                except ServiceProtocolError as exc:
                    reply_kind, reply = MSG.ERROR, {"message": str(exc)}
                except Exception as exc:  # never kill the handler on one request
                    logger.exception("request %s failed", MSG.name(kind))
                    reply_kind, reply = MSG.ERROR, {"message": str(exc)}
                fault = faults_inject("service.handle", peer=peer[1],
                                      kind=MSG.name(kind))
                if fault is not None and fault.get("action") == "delay":
                    # slow_response: stall before replying so clients
                    # exercise their per-RPC timeouts.
                    time.sleep(float(fault.get("seconds", 0.05)))
                try:
                    send_frame(conn, reply_kind, reply)
                except (ConnectionError, OSError):
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------ dispatch
    def _dispatch(self, kind: int, payload: Dict) -> Tuple[int, Dict]:
        if kind == MSG.HELLO:
            with self._lock:
                return MSG.WELCOME, {"server_pid": os.getpid(),
                                     "entries": len(self.database)}
        if kind == MSG.LOOKUP:
            return self._handle_lookup(payload)
        if kind == MSG.PUSH:
            return self._handle_push(payload)
        if kind == MSG.RECORD:
            return self._handle_record(payload)
        if kind == MSG.WARM:
            return self._handle_warm(payload)
        if kind == MSG.MODEL:
            return self._handle_model(payload)
        if kind == MSG.STATS:
            return MSG.STATS_REPLY, self.stats()
        raise ServiceProtocolError(f"Unexpected message {MSG.name(kind)}")

    def _handle_lookup(self, payload: Dict) -> Tuple[int, Dict]:
        keys = payload.get("keys", [])
        results = []
        with self._lock:
            self._counters["lookups"] += len(keys)
            for task, target, index in keys:
                hit = self._trials.get((task, target, int(index)))
                if hit is None:
                    results.append(None)
                else:
                    self._counters["dedup_hits"] += 1
                    results.append({"time": hit["time"],
                                    "error": hit["error"]})
        return MSG.FOUND, {"results": results}

    def _handle_push(self, payload: Dict) -> Tuple[int, Dict]:
        fresh: List[Dict] = []
        with self._lock:
            for record in payload.get("records", []):
                key = (record["task"], record["target"],
                       int(record["config_index"]))
                if key not in self._trials:
                    # First measurement wins: concurrent clients that raced on
                    # the same candidate measured the same deterministic value
                    # anyway, and a stable store keeps later lookups stable.
                    self._trials[key] = {
                        "time": float(record["time"]),
                        "error": record.get("error"),
                        "features": record.get("features")}
                    fresh.append(dict(record))
            self._counters["trials_pushed"] += len(payload.get("records", []))
            self._persist_trials(fresh)
        return MSG.ACK, {"new": len(fresh)}

    def _handle_record(self, payload: Dict) -> Tuple[int, Dict]:
        entry = entry_from_payload(payload["entry"])
        with self._lock:
            added = self.database.add(entry)
            self._counters["bests_recorded"] += 1
        return MSG.ACK, {"new": int(added)}

    def _handle_warm(self, payload: Dict) -> Tuple[int, Dict]:
        operator = payload["operator"]
        target = payload.get("target")
        with self._lock:
            self._counters["warm_requests"] += 1
            # Insertion (= recording) order, like iterating a local database.
            entries = [_entry_payload(e) for e in self.database
                       if e.operator == operator
                       and (target is None or e.target_name == target)]
        return MSG.ENTRIES, {"entries": entries}

    def _handle_model(self, payload: Dict) -> Tuple[int, Dict]:
        key = (payload["operator"], payload["target"])
        with self._lock:
            self._counters["model_requests"] += 1
            spec = self._models.get(key)
            if spec is not None:
                self._counters["model_hits"] += 1
        return MSG.MODEL_SPEC, {"model": spec}

    # ------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, int]:
        """Service counters (dedup hits, trials, records, connections...)."""
        with self._lock:
            return {**self._counters, "entries": len(self.database),
                    "trials_stored": len(self._trials),
                    "pretrained_models": len(self._models)}

    def __repr__(self) -> str:
        state = self.address if self.port is not None else "stopped"
        return (f"TuningService({state}, entries={len(self.database)}, "
                f"trials={len(self._trials)})")
