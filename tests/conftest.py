"""Shared fixtures: the reference model of the serving admission queue, a
pass spliced into the compile pipeline, a compile kept in-process and a
hand-built program that reads past a row end."""

import threading

import pytest


class _Entry:
    __slots__ = ("key", "priority", "seq", "expired", "cancelled")

    def __init__(self, key, priority, seq, expired):
        self.key = key
        self.priority = priority
        self.seq = seq
        self.expired = expired
        self.cancelled = False


class ReferenceQueue:
    """Clock-free reference model of ``_AdmissionQueue``'s documented
    semantics, keyed by whatever the test uses to name a request.

    Expiry and cancellation are explicit flags (the test decides when a
    deadline has passed), so every outcome is a pure function of the
    operation sequence: ``fate[key]`` ends up one of ``"rejected"`` (the
    put raised ``QueueFull``), ``"evicted"`` (shed by a later put),
    ``"expired"`` (purged with ``DeadlineExceeded``), ``"cancelled"``,
    ``"popped"`` (handed to a worker) or ``"closed"`` (backlog rejected by
    ``close(reject=True)``), and the two shed counters match the queue's.
    """

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.items = []
        self.fate = {}
        self.shed_expired = 0
        self.shed_queue_full = 0
        self._seq = 0

    def _purge(self):
        kept = []
        for entry in self.items:
            if entry.cancelled:
                continue                      # dropped on sight, no counter
            if entry.expired:
                self.shed_expired += 1
                self.fate[entry.key] = "expired"
                continue
            kept.append(entry)
        self.items = kept

    def put(self, key, priority=0, expired=False):
        """Admit ``key``; ``False`` means the put itself raises QueueFull."""
        # The queue numbers every put, even one it then rejects.
        entry = _Entry(key, priority, self._seq, expired)
        self._seq += 1
        if len(self.items) >= self.maxsize:
            self._purge()
        if len(self.items) >= self.maxsize:
            self.shed_queue_full += 1
            victim = min(self.items + [entry],
                         key=lambda e: (e.priority, -e.seq))
            if victim is entry:
                self.fate[key] = "rejected"
                return False
            self.items.remove(victim)
            self.fate[victim.key] = "evicted"
        self.items.append(entry)
        return True

    def pop_batch(self, limit=1):
        """Purge, then hand out up to ``limit`` live keys in pop order
        (highest priority first, ties by admission order)."""
        self._purge()
        batch = sorted(self.items, key=lambda e: (-e.priority, e.seq))[:limit]
        for entry in batch:
            self.items.remove(entry)
            self.fate[entry.key] = "popped"
        return [entry.key for entry in batch]

    def _entry(self, key):
        return next(entry for entry in self.items if entry.key == key)

    def cancel(self, key):
        self._entry(key).cancelled = True
        self.fate[key] = "cancelled"

    def expire(self, key):
        self._entry(key).expired = True

    def cancellable(self):
        """Keys still queued and not yet cancelled (an expired entry that
        was not purged yet can still be cancelled — cancel wins)."""
        return [entry.key for entry in self.items if not entry.cancelled]

    def has_live(self):
        return any(not entry.cancelled and not entry.expired
                   for entry in self.items)

    def close(self, reject=False):
        if reject:
            for entry in self.items:
                if not entry.cancelled:
                    self.fate[entry.key] = "closed"
            self.items = []


@pytest.fixture
def reference_queue():
    """The :class:`ReferenceQueue` model class (construct with ``maxsize``)."""
    return ReferenceQueue


@pytest.fixture
def splice_pass(monkeypatch):
    """``splice_pass(fn)`` runs ``fn(state)`` as an always-on pass of its own
    name just before ``fuse_ops`` in the default pipeline, for one test."""
    from repro.compiler import DEFAULT_PIPELINE, Pass, passes

    def splice(fn):
        cut = DEFAULT_PIPELINE.index(passes.fuse_ops)
        monkeypatch.setattr(passes, "DEFAULT_PIPELINE", DEFAULT_PIPELINE[:cut]
                            + (Pass(fn.__name__, fn),) + DEFAULT_PIPELINE[cut:])

    return splice


@pytest.fixture
def in_process_search():
    """Park a second thread for one test, so a compile runs its fallback
    searches in this process: ``graph/op_timing.py::fallback_configs``
    forks its pool only from a process's one thread."""
    release = threading.Event()
    parked = threading.Thread(target=release.wait, daemon=True)
    parked.start()
    yield
    release.set()
    parked.join()


def row_crossing_read():
    """``B[f] = A[f // 58, f % 58 + 1]`` over a ``(4, 58)`` ``A``: every
    flat offset ``f + 1`` lies inside ``A``'s 232 elements, but at ``f = 57``
    the read is column 58 of a 58-wide row."""
    from repro.te.expr import Add, FloorDiv, IntImm, Mod, Var
    from repro.tir.stmt import (Buffer, BufferLoad, BufferStore, For,
                                LoweredFunc)

    a, b = Buffer("A", (4, 58)), Buffer("B", (231,))
    f = Var("f")
    read = BufferLoad(a, [FloorDiv(f, IntImm(58)),
                          Add(Mod(f, IntImm(58)), IntImm(1))])
    return LoweredFunc("row_crossing", [a, b],
                       For(f, 0, 231, BufferStore(b, [f], read)))


@pytest.fixture(scope="module")
def row_crossing():
    """The :func:`row_crossing_read` program."""
    return row_crossing_read()
