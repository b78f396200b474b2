"""Tuning tasks: a tensor operator workload + schedule template + target.

A :class:`Task` ties together a schedule template (a function that declares
knobs on a :class:`~repro.autotvm.space.ConfigSpace` and returns a schedule),
the workload arguments, and the hardware target whose simulated device will
measure candidate configurations.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import te, tir
from ..hardware.target import Target
from ..te.trace import Trace, Untraceable
from ..tir.replay import Replay
from .eval_cache import FEATURE_CACHE, LOWERED_CACHE
from .space import ConfigEntity, ConfigSpace

__all__ = ["Task"]

#: most structure classes kept per (task, pre-key) bucket
_CLASSES_PER_BUCKET = 8


def _covering(bucket: Optional[Tuple[Replay, ...]], factors: List[int]
              ) -> Tuple[Optional[Replay], Optional[List[int]]]:
    """The recorded class of ``bucket`` whose path condition ``factors``
    meet, and its integers for them (``(None, None)`` if none)."""
    for replay in bucket or ():
        values = replay.values(factors)
        if values is not None:
            return replay, values
    return None, None


class _FailureMarker:
    """Cached record of a lowering/featurisation/verification failure.

    The shared caches must not hold live exception instances — every raise
    would pin its call stack in the cache, and concurrent raises from
    measurer worker threads would race on ``__traceback__``.  Instead the
    type, args and attributes are kept and an equal fresh exception is
    raised per replay.
    """

    __slots__ = ("exc_type", "args", "attrs")

    def __init__(self, exc_type: type, args: Tuple, attrs: dict):
        self.exc_type = exc_type
        self.args = args
        self.attrs = attrs

    @classmethod
    def of(cls, exc: Exception) -> "_FailureMarker":
        return cls(type(exc), tuple(exc.args), dict(vars(exc)))

    def replay(self) -> Exception:
        """A fresh exception of the recorded class with the recorded args and
        attributes (so equal ``str``, and a verifier error's ``check`` and
        ``node``).  The constructor is not re-run: one that formats its
        message would format it twice."""
        exc = self.exc_type.__new__(self.exc_type, *self.args)
        exc.__dict__.update(self.attrs)
        return exc


class Task:
    """One operator-tuning problem."""

    def __init__(self, name: str, template: Callable, args: Tuple, target: Target,
                 workload: Optional[str] = None):
        self.name = name
        self.template = template
        self.args = tuple(args)
        self.target = target
        self.config_space = ConfigSpace()
        # Execute the template once against the bare space so every knob is
        # registered with its candidates.
        self.template(self.config_space, *self.args)
        self._flop: Optional[float] = None
        # Shared-cache identity: normalized to *what is lowered* — the
        # template (``workload`` names it; the function's qualified name is
        # the fallback), the workload args, and the target — never the
        # user-chosen task name.  Two tasks that reach the same workload
        # under different names (a benchmark task vs the compiler's
        # extraction, a conv2d_transpose vs its unit-stride conv2d
        # equivalent) therefore share lowering/featurisation cache entries.
        self.workload = workload if workload is not None else \
            f"{template.__module__}.{template.__qualname__}"
        self._cache_prefix = (self.workload, repr(self.args), self.target.name)

    # ------------------------------------------------------------------ api
    @property
    def operator(self) -> str:
        """Operator family of the workload (``conv2d_(...)`` -> ``conv2d``)."""
        from .database import operator_of

        return operator_of(self.name)

    @property
    def flop(self) -> float:
        """Total floating point work of the default-schedule program.

        Computed once per task instance (and served from the shared feature
        cache across instances of the same workload) — the session report's
        ``TaskTuningResult.gflops`` reads it per task.
        """
        if self._flop is None:
            self._flop = float(self.features_of(0).total_flops)
        return self._flop

    def instantiate(self, config: ConfigEntity) -> Tuple[te.Schedule, List[te.Tensor]]:
        """Build the schedule described by ``config``."""
        return self.template(config, *self.args)

    def lower(self, config: ConfigEntity) -> tir.LoweredFunc:
        """Lower one configuration, once per structure class.

        Configs of the same task and pre-key (:meth:`ConfigEntity.structure`)
        share a bucket.  The first config to reach a bucket is lowered
        plainly: about half the buckets a search opens are never visited
        again.  A later config that meets the path condition of one of the
        bucket's recorded lowerings (:class:`~repro.tir.replay.Replay`) is
        re-emitted from it, with no instantiation and no lowering; one that
        meets none is instantiated and lowered in full with traced split
        factors (:mod:`repro.te.trace`), and that recording joins the
        bucket.  Every call returns a fresh tree.
        """
        return self._lower(config, build=True)[0]

    def _lower(self, config: ConfigEntity, build: bool
               ) -> Tuple[Optional[tir.LoweredFunc], Optional[Replay],
                          Optional[List[int]]]:
        """:meth:`lower` as ``(tree, class, values)``: a config of a
        recorded class also gets the class and its integers, and no tree
        unless ``build``."""
        name = f"{self.name}_c{config.index}"
        prekey, factors = config.structure()
        key = self._cache_prefix + (prekey,)
        bucket = LOWERED_CACHE.peek(key)
        replay, values = _covering(bucket, factors)
        LOWERED_CACHE.tally(hit=replay is not None)
        if replay is None and bucket is not None:
            try:
                with Trace(factors) as trace:
                    schedule, tensors = self.instantiate(
                        config.traced(trace.inputs))
                    func = tir.lower(schedule, tensors, name=name)
                replay = Replay(func, trace)
            except Untraceable:
                replay = None
            else:
                LOWERED_CACHE.put(
                    key, (replay,) + bucket[:_CLASSES_PER_BUCKET - 1])
                values = replay.values(factors)
        elif bucket is None:
            LOWERED_CACHE.put(key, ())
        if replay is not None:
            return (replay.build(values, name) if build else None, replay,
                    values)
        schedule, tensors = self.instantiate(config)
        return tir.lower(schedule, tensors, name=name), None, None

    def _features(self, config: ConfigEntity,
                  func: tir.LoweredFunc) -> object:
        """The features of ``config``, lowered to ``func`` — from the plan
        of its recorded class if one covers it — or the marker of their
        failure."""
        prekey, factors = config.structure()
        replay, values = _covering(
            LOWERED_CACHE.peek(self._cache_prefix + (prekey,)), factors)
        try:
            if replay is not None:
                return replay.features(values)
            return tir.extract_features(func)
        except Exception as exc:
            return _FailureMarker.of(exc)

    # ---------------------------------------------------- memoized fast path
    def _cache_key(self, index: int) -> Tuple[str, str, str, int]:
        return self._cache_prefix + (index,)

    def features_of(self, index: int) -> tir.ProgramFeatures:
        """Memoized program features of the config at ``index``.

        This is the entry point of the candidate-evaluation fast path: the
        tuner's cost model, the measurer, the compiler's fallback-config
        search and kernel-time estimation all read the same shared cache, so
        one featurisation serves every consumer.  A config of a recorded
        structure class is featurised from the class's plan, with no tree.
        """
        key = self._cache_key(index)
        cached = FEATURE_CACHE.get(key)
        if cached is None:
            try:
                func, replay, values = self._lower(
                    self.config_space.get(index), build=False)
                cached = (replay.features(values) if replay is not None
                          else tir.extract_features(func))
            except Exception as exc:
                cached = _FailureMarker.of(exc)
            FEATURE_CACHE.put(key, cached)
        if isinstance(cached, _FailureMarker):
            raise cached.replay()
        return cached

    def verify(self, index: int) -> None:
        """Statically verify the lowered program of the config at ``index``,
        once.

        The one memo of "is this candidate's program legal?": the verdict —
        verified, or the failure to replay — lives in the shared evaluation
        cache beside the candidate's features, under the same identity.  The
        features, if not cached yet, come from the same lowering.  Raises
        the typed :class:`~repro.analysis.errors.TIRVerifierError` of an
        illegal schedule.
        """
        # Imported per call: repro.analysis imports the compiler, which
        # imports this package.
        from ..analysis.tir_verify import verify_func

        key = self._cache_key(index)
        verdict = FEATURE_CACHE.get(key + ("verified",))
        if verdict is None:
            try:
                config = self.config_space.get(index)
                func = self.lower(config)
                if key not in FEATURE_CACHE:
                    FEATURE_CACHE.put(key, self._features(config, func))
                verify_func(func)
                verdict = True
            except Exception as exc:
                verdict = _FailureMarker.of(exc)
            FEATURE_CACHE.put(key + ("verified",), verdict)
        if isinstance(verdict, _FailureMarker):
            raise verdict.replay()

    def feature_vector(self, index: int) -> np.ndarray:
        """Cost-model feature vector of the config at ``index`` (read-only)."""
        return self.features_of(index).vector()

    def __repr__(self) -> str:
        return (f"Task({self.name}, target={self.target.name}, "
                f"space={len(self.config_space)})")
