"""``ApplyHistoryBest``: compile with the best tuned configurations.

The upstream TVM flow is *extract tasks -> tune -> ApplyHistoryBest ->
compile*: entering the context makes every compilation inside it consult the
tuning history for each operator workload.  Here the context keeps its own
per-thread stack (like :class:`~repro.compiler.PassContext`) and the compile
driver queries the innermost active context automatically — it is the only
way tuning history reaches ``repro.compile``::

    report = repro.autotune("resnet-18", target="cuda", trials=64)
    with report.apply_history_best():
        tuned = repro.compile("resnet-18", target="cuda")

The context also counts lookups, so callers (and tests) can assert that a
build actually used tuned configurations via :attr:`hits` / :attr:`hit_tasks`.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Set, Union

from .database import TuningDatabase, TuningLogEntry

__all__ = ["ApplyHistoryBest"]


class ApplyHistoryBest:
    """Context manager exposing a tuning history to ``repro.compile``.

    Accepts a :class:`TuningDatabase` or a path to a JSONL tuning log.  The
    object quacks like a database (``best`` / ``__len__`` / ``__iter__``) so
    the operator-level compiler can query it directly; every successful
    ``best`` lookup is counted.
    """

    _tls = threading.local()

    def __init__(self, database: Union[TuningDatabase, str, None] = None):
        if isinstance(database, str):
            database = TuningDatabase(database)
        self.database = database if database is not None else TuningDatabase()
        self.queries = 0            #: total ``best`` lookups while active
        self.hits = 0               #: lookups that found a tuned entry
        self.hit_tasks: Set[str] = set()   #: task names that resolved

    # ------------------------------------------------------------- scoping
    @classmethod
    def _stack(cls) -> List["ApplyHistoryBest"]:
        stack = getattr(cls._tls, "stack", None)
        if stack is None:
            stack = cls._tls.stack = []
        return stack

    @classmethod
    def current(cls) -> Optional["ApplyHistoryBest"]:
        """The innermost active context on this thread, or ``None``."""
        stack = cls._stack()
        return stack[-1] if stack else None

    def __enter__(self) -> "ApplyHistoryBest":
        self._stack().append(self)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError(
                "ApplyHistoryBest stack corrupted: __exit__ out of order")
        stack.pop()

    # ------------------------------------------------------------- queries
    def best(self, task_name: str, target_name: Optional[str] = None
             ) -> Optional[TuningLogEntry]:
        """Best known entry for a workload; counts the lookup."""
        entry = self.database.best(task_name, target_name)
        self.queries += 1
        if entry is not None:
            self.hits += 1
            self.hit_tasks.add(task_name)
        return entry

    def __len__(self) -> int:
        return len(self.database)

    def __iter__(self):
        return iter(self.database)

    def __repr__(self) -> str:
        return (f"ApplyHistoryBest(entries={len(self.database)}, "
                f"hits={self.hits}/{self.queries})")
