"""Tuning tasks: a tensor operator workload + schedule template + target.

A :class:`Task` ties together a schedule template (a function that declares
knobs on a :class:`~repro.autotvm.space.ConfigSpace` and returns a schedule),
the workload arguments, and the hardware target whose simulated device will
measure candidate configurations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import te, tir
from ..hardware.target import Target
from .eval_cache import FEATURE_CACHE
from .space import ConfigEntity, ConfigSpace

__all__ = ["Task", "create_task", "register_template", "get_template", "TEMPLATE_REGISTRY"]

#: Global registry of named schedule templates.
TEMPLATE_REGISTRY: Dict[str, Callable] = {}


def register_template(name: str, func: Optional[Callable] = None):
    """Register a schedule template under ``name`` (usable as a decorator)."""
    def _register(f: Callable) -> Callable:
        TEMPLATE_REGISTRY[name] = f
        return f

    if func is not None:
        return _register(func)
    return _register


def get_template(name: str) -> Callable:
    if name not in TEMPLATE_REGISTRY:
        raise KeyError(f"No schedule template registered under {name!r}")
    return TEMPLATE_REGISTRY[name]


class _FailureMarker:
    """Cached record of a lowering/featurisation failure.

    The shared caches must not hold live exception instances — every raise
    would pin its call stack in the cache, and concurrent raises from
    measurer worker threads would race on ``__traceback__``.  Instead the
    type and args are kept and an equivalent fresh exception is raised per
    replay.
    """

    __slots__ = ("exc_type", "args", "message")

    def __init__(self, exc_type: type, args: Tuple, message: str):
        self.exc_type = exc_type
        self.args = args
        self.message = message

    @classmethod
    def of(cls, exc: Exception) -> "_FailureMarker":
        return cls(type(exc), tuple(exc.args), str(exc))

    def replay(self) -> Exception:
        try:
            exc = self.exc_type(*self.args)
            if str(exc) == self.message:
                return exc
        except Exception:
            pass
        # Exotic constructor or stateful __str__: fall back to a plain error
        # carrying the original message.
        return RuntimeError(self.message)


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
        cache across instances of the same workload) — callers such as
        ``MeasureResultRecord.gflops`` read it per record.
        """
        if self._flop is None:
            self._flop = float(self.features_of(0).total_flops)
        return self._flop

    def instantiate(self, config: ConfigEntity) -> Tuple[te.Schedule, List[te.Tensor]]:
        """Build the schedule described by ``config``."""
        return self.template(config, *self.args)

    def lower(self, config: ConfigEntity) -> tir.LoweredFunc:
        """Instantiate and lower one configuration (uncached)."""
        schedule, tensors = self.instantiate(config)
        return tir.lower(schedule, tensors, name=f"{self.name}_c{config.index}")

    # ---------------------------------------------------- memoized fast path
    def _cache_key(self, index: int) -> Tuple[str, str, str, int]:
        return self._cache_prefix + (index,)

    def features_of(self, index: int) -> tir.ProgramFeatures:
        """Memoized program features of the config at ``index``.

        This is the entry point of the candidate-evaluation fast path: the
        tuner's cost model, the measurer, the compiler's fallback-config
        search and kernel-time estimation all read the same shared cache, so
        one lowering+featurisation serves every consumer.
        """
        key = self._cache_key(index)
        cached = FEATURE_CACHE.get(key)
        if cached is None:
            try:
                cached = tir.extract_features(
                    self.lower(self.config_space.get(index)))
            except Exception as exc:
                cached = _FailureMarker.of(exc)
            FEATURE_CACHE.put(key, cached)
        if isinstance(cached, _FailureMarker):
            raise cached.replay()
        return cached

    def feature_vector(self, index: int) -> np.ndarray:
        """Cost-model feature vector of the config at ``index`` (read-only)."""
        return self.features_of(index).vector()

    def __repr__(self) -> str:
        return (f"Task({self.name}, target={self.target.name}, "
                f"space={len(self.config_space)})")


def create_task(name: str, template: Callable, args: Sequence, target: Target,
                workload: Optional[str] = None) -> Task:
    """Create a tuning task from a template callable or registered name.

    ``workload`` optionally names the template for the shared evaluation
    caches; a registered template's name is used automatically, so identical
    workloads reached from differently-named tasks share cache entries.
    """
    if isinstance(template, str):
        if workload is None:
            workload = template
        template = get_template(template)
    return Task(name, template, tuple(args), target, workload=workload)
