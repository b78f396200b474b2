"""Shared memoization service for the candidate-evaluation fast path.

The hottest loop in the system — lower a candidate schedule, featurise the
loop program, score it (paper §5.2–5.3) — is driven from four independent
places: the model-based tuner, the measurer, the compiler's fallback
heuristic, and kernel-time estimation.  Lowering and featurisation are
deterministic per ``(workload, target name, config index)``, so all of them
share the bounded feature LRU in this module through
:meth:`repro.autotvm.Task.features_of`.  The same cache is the one memo of
whether a candidate's program is legal: :meth:`repro.autotvm.Task.verify`
(the measurer, the fallback search's pick and a tuning-log entry's check)
stores the static verifier's verdict beside the features, under the same
identity, so a program is verified once whichever path asks first.

Lowering is cached per *structure class* in :data:`LOWERED_CACHE`, keyed by
the task's identity and the config's pre-key
(:meth:`~repro.autotvm.space.ConfigEntity.structure`).  A bucket holds up to
eight recorded lowerings (:class:`~repro.tir.replay.Replay`); a config whose
split factors meet one of their path conditions is featurised from the
class's plan (:class:`~repro.tir.analysis.FeaturePlan`) with no tree at all,
and re-emitted from the recording with no instantiation and no lowering
when a tree is asked for (see :meth:`~repro.autotvm.Task.lower` for which
configs are recorded).  A per-config key never hit (0 hits in 28,107
lookups when one was tried): a tuner asks for each config once, and the
features cache already answers repeats.  A recorded class keeps plain
tuples and flat integer arrays, not tree nodes (≈ 27 KB with its plan), so
64 buckets stay a few megabytes.

The cache evicts one least-recently-used entry at a time, so a long tuning
session keeps its working set hot.  An entry keeps what its readers use: a
seed-0 ``tune_session`` round of ``benchmarks/e2e`` leaves 5,339 features
entries and 247 verdicts retaining 25.9 MB by ``tracemalloc`` (≈ 4.9 KB a
features entry; the access regions of global buffers only, see
:class:`~repro.tir.analysis.AccessRegion`), so the 50,000-entry cap bounds
the cache at ≈ 250 MB.  Failures are cached too: a
config whose schedule cannot be lowered raises an equivalent exception on
every evaluation instead of re-running the failing lowering.

Thread safety: the measurer featurises configs from worker threads, so every
cache operation takes the cache's lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable

__all__ = ["LRUCache", "FEATURE_CACHE", "LOWERED_CACHE", "clear_eval_caches",
           "eval_cache_stats"]

_MISSING = object()


class LRUCache:
    """A small thread-safe least-recently-used cache."""

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default=None):
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable, default=None):
        """:meth:`get` without counting a hit or a miss: for a cache whose
        caller decides what a hit is (:meth:`tally`)."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._data.move_to_end(key)
            return value

    def tally(self, hit: bool) -> None:
        """Count one hit or one miss."""
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def put(self, key: Hashable, value: object) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._data), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        s = self.stats()
        return (f"LRUCache(size={s['size']}/{s['maxsize']}, "
                f"hits={s['hits']}, misses={s['misses']})")


#: extracted :class:`~repro.tir.analysis.ProgramFeatures` per config, and
#: the verifier's verdict per config that was verified
FEATURE_CACHE = LRUCache(50_000)

#: recorded lowerings (:class:`~repro.tir.replay.Replay`) per task and
#: structure pre-key; a hit is a config lowered by replay, a miss one
#: lowered in full
LOWERED_CACHE = LRUCache(64)


def clear_eval_caches() -> None:
    """Drop all shared lowering/featurisation state (tests, benchmarks)."""
    FEATURE_CACHE.clear()
    LOWERED_CACHE.clear()


def eval_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters of the shared caches (observability hook)."""
    return {"features": FEATURE_CACHE.stats(),
            "lowered": LOWERED_CACHE.stats()}
