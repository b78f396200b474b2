"""Tuning log database (the "database" box in Figure 11).

Records every measurement so that (a) the cost model can be warm-started from
the history of related workloads, and (b) the graph compiler can pick the
best known configuration for each operator workload when building a model
end-to-end.  Records can be persisted to a JSON-lines file.

Entries are keyed by ``(task, target, config)``: recording the same
configuration again keeps only the best time, and :meth:`TuningDatabase.load`
dedupes whatever it reads, so repeated append/reload cycles neither bloat
memory nor (via :meth:`compact`) the on-disk log.  An entry may carry the
feature vector of its lowered program, which lets a later session warm-start
its cost model from history of the *same operator* even when the exact
workload (and hence the configuration space) differs.

Beside the bests, the database keeps a *trial log*: every measured trial
(task, target, config index, time, error, features), first row per
``(task, target, config)``.  A file-backed database appends each row to a
``<path>.trials`` sidecar, one JSON object per line, and reads it back on
load.  A later session pre-fits its cost model on these rows (paper
Section 5.2's transfer learning; see :func:`repro.autotune`).

Concurrency: one JSONL log has exactly one writer.  The first persisting
write takes an exclusive ``flock`` on a ``<path>.lock`` sidecar, so a second
process (or a second instance in this process) that tries to write the same
path fails loudly with :class:`DatabaseWriteConflictError` instead of
silently interleaving appends.  Appends are flushed and fsynced, and
:meth:`compact` rewrites through a temp file + atomic rename, so readers
never observe a torn log.  Concurrent sessions use one log each.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: no inter-process write locking
    fcntl = None

__all__ = ["TuningLogEntry", "TuningDatabase", "DatabaseWriteConflictError",
           "operator_of"]


class DatabaseWriteConflictError(RuntimeError):
    """Two writers opened the same tuning log for writing.

    Concurrent sessions must not append to one JSONL path: give each its
    own log, and open a finished one to transfer from it.
    """


def operator_of(task_name: str) -> str:
    """Operator family of a task/workload name (``conv2d_(...)`` ->
    ``conv2d``).  The single parser of the ``kind_(args)`` name format used
    by tasks, log entries and the compiler's history lookups."""
    return task_name.split("_(")[0]


@dataclass
class TuningLogEntry:
    """One (workload, target, config, time) record."""

    task_name: str
    target_name: str
    config_index: int
    config_dict: Dict[str, object]
    mean_time: float
    #: optional loop-program feature vector (for transfer learning)
    features: Optional[List[float]] = None

    @property
    def operator(self) -> str:
        """Operator family of the workload (``conv2d_(...)`` -> ``conv2d``)."""
        return operator_of(self.task_name)

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.task_name, self.target_name, self.config_index)

    def to_json(self) -> str:
        obj = {
            "task": self.task_name,
            "target": self.target_name,
            "config_index": self.config_index,
            "config": self.config_dict,
            "time": self.mean_time,
        }
        if self.features is not None:
            obj["features"] = list(self.features)
        return json.dumps(obj)

    @staticmethod
    def from_json(line: str) -> "TuningLogEntry":
        obj = json.loads(line)
        return TuningLogEntry(obj["task"], obj["target"], obj["config_index"],
                              obj["config"], obj["time"],
                              features=obj.get("features"))


class TuningDatabase:
    """In-memory + optional on-disk store of tuning results."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._by_key: Dict[Tuple[str, str, int], TuningLogEntry] = {}
        # best entry per (task, target) — kernel_time queries this on every
        # templated node of every compile, so it must stay O(1)
        self._best: Dict[Tuple[str, str], TuningLogEntry] = {}
        #: the trial log: (task, target, config index) -> ``{"time",
        #: "error", "features"}``, first measurement per key, in log order;
        #: features are a sequence of floats or ``None``
        self.trials: Dict[Tuple[str, str, int], Dict] = {}
        self._lock_fd: Optional[int] = None
        if path and os.path.exists(path):
            self.load(path)

    # ------------------------------------------------------------ writer lock
    def _acquire_write_lock(self) -> None:
        """Take the exclusive writer lock for ``self.path`` (idempotent).

        Raises :class:`DatabaseWriteConflictError` when another database —
        in this process or any other — already writes to the same path.
        """
        if self._lock_fd is not None or not self.path or fcntl is None:
            return
        fd = os.open(self.path + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise DatabaseWriteConflictError(
                f"Tuning log {self.path!r} already has a writer (lock file "
                f"{self.path + '.lock'!r} is held). Two sessions appending to "
                f"one JSONL would corrupt it — concurrent sessions use one "
                f"log each; a later session opens a finished log to "
                f"transfer from it.")
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        self._lock_fd = fd

    def close(self) -> None:
        """Release the on-disk writer lock (if held)."""
        if self._lock_fd is not None:
            try:
                os.close(self._lock_fd)     # closing the fd drops the flock
            finally:
                self._lock_fd = None

    def __enter__(self) -> "TuningDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _index(self, entry: TuningLogEntry) -> None:
        best_key = (entry.task_name, entry.target_name)
        best = self._best.get(best_key)
        if best is None or entry.mean_time < best.mean_time:
            self._best[best_key] = entry

    def add(self, entry: TuningLogEntry) -> bool:
        """Insert an entry; duplicates keep the best time.

        Returns ``True`` when the entry was new information (no identical
        ``(task, target, config)`` record with an equal-or-better time was
        already present) — only then is it appended to the on-disk log.
        """
        existing = self._by_key.get(entry.key)
        if existing is not None and existing.mean_time <= entry.mean_time:
            if entry.features is not None and existing.features is None:
                existing.features = list(entry.features)
            return False
        self._by_key[entry.key] = entry
        self._index(entry)
        if self.path:
            self._acquire_write_lock()
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(entry.to_json() + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        return True

    def record(self, task, config, mean_time: float,
               features: Optional[Sequence[float]] = None) -> TuningLogEntry:
        entry = TuningLogEntry(task.name, task.target.name, config.index,
                               config.to_dict(), mean_time,
                               features=list(features) if features is not None
                               else None)
        self.add(entry)
        return entry

    def log_trials(self, results) -> int:
        """Append measured trials (:class:`~repro.autotvm.measure.
        MeasureResultRecord`\\ s) to the trial log; a ``(task, target,
        config)`` already logged keeps its first row.  A file-backed
        database also appends the new rows to ``<path>.trials``.  Returns
        how many rows were new."""
        fresh = []
        for rec in results:
            task, index = rec.input.task, rec.input.config.index
            key = (task.name, task.target.name, index)
            if key in self.trials:
                continue
            row = {"time": rec.mean_time, "error": rec.error,
                   "features": (rec.features.vector()
                                if rec.features is not None else None)}
            self.trials[key] = row
            fresh.append((key, row))
        if self.path and fresh:
            self._acquire_write_lock()
            with open(self.path + ".trials", "a", encoding="utf-8") as handle:
                for (task, target, index), row in fresh:
                    features = row["features"]
                    handle.write(json.dumps({
                        "task": task, "target": target, "config_index": index,
                        "time": row["time"], "error": row["error"],
                        "features": (features.tolist()
                                     if features is not None else None)
                    }) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        return len(fresh)

    def load(self, path: str) -> None:
        """Read a JSONL log, deduping identical ``(task, target, config)``
        entries (keeping the best time), and its ``<path>.trials`` trial log
        when there is one.  Binds this database to ``path`` so later
        :meth:`add` calls persist there; a writer lock held on the previous
        path is released."""
        if path != self.path:
            self.close()
        self.path = path
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                entry = TuningLogEntry.from_json(line)
                existing = self._by_key.get(entry.key)
                if existing is None or entry.mean_time < existing.mean_time:
                    self._by_key[entry.key] = entry
                    self._index(entry)
                elif entry.features is not None and existing.features is None:
                    existing.features = list(entry.features)
        trials_path = path + ".trials"
        if os.path.exists(trials_path):
            with open(trials_path, encoding="utf-8") as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    row = json.loads(line)
                    key = (row["task"], row["target"],
                           int(row["config_index"]))
                    self.trials.setdefault(key, {
                        "time": float(row["time"]),
                        "error": row.get("error"),
                        "features": row.get("features")})

    def compact(self) -> None:
        """Rewrite the on-disk log with exactly the deduped in-memory entries.

        The rewrite is atomic (temp file + rename into place), so a reader —
        or a crash mid-compaction — never observes a half-written log.
        """
        if not self.path:
            return
        self._acquire_write_lock()
        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for entry in self._by_key.values():
                    handle.write(entry.to_json() + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)

    def best(self, task_name: str, target_name: Optional[str] = None
             ) -> Optional[TuningLogEntry]:
        if target_name is not None:             # O(1): the compiler's hot path
            return self._best.get((task_name, target_name))
        candidates = [e for e in self._best.values() if e.task_name == task_name]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.mean_time)

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[TuningLogEntry]:
        return iter(self._by_key.values())
