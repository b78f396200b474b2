"""The unified tuning session: :func:`repro.autotune` (paper Section 5).

Mirrors what :func:`repro.compile` did for compilation — one front door for
the whole offline optimization loop.  ``autotune`` accepts the same model
forms as ``compile`` (a :class:`~repro.graph.ir.Graph`, a frontend model
tuple, or a model-zoo name), extracts the heavy-operator tuning tasks,
explores each task's schedule space with one of the three tuners
(``"random"``, ``"ga"``, ``"model"``) driven by the batch measurer, and
returns a single :class:`TuningReport` carrying per-task best
configurations, trial curves (Figure 12-ready), timing, and the
:class:`~repro.autotvm.database.TuningDatabase` that history-based
compilation consumes::

    report = repro.autotune("resnet-18", target="cuda", trials=64)
    with report.apply_history_best():
        module = repro.compile("resnet-18", target="cuda")

Transfer learning: when a database with history is passed in, the ML cost
model of each task is warm-started from prior entries of the same operator,
so new sessions start model-guided instead of random.  With
``ensure_no_regression`` (default), each recorded best is validated against
the compiler's untuned fallback heuristic, so a build inside
``apply_history_best()`` is never slower than the untuned build.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .apply_history import ApplyHistoryBest
from .database import TuningDatabase
from .measure import Measurer
from .options import ProgressEvent, TuningOptions
from .space import ConfigEntity
from .task import Task
from .tuner import _TUNERS, Tuner

__all__ = ["TaskTuningResult", "TuningReport", "autotune", "extract_tasks"]

logger = logging.getLogger("repro.autotvm")

#: repeated timings per measurement on the simulated device
_MEASURE_NUMBER = 2


# ---------------------------------------------------------------------------
# Report objects
# ---------------------------------------------------------------------------

@dataclass
class TaskTuningResult:
    """Outcome of tuning one operator workload."""

    task: Task
    best_config: ConfigEntity       #: configuration recorded in the database
    best_time: float                #: best *measured* time during tuning (s)
    estimate: float                 #: deterministic model estimate of best_config
    curve: List[float]              #: best-so-far per trial (Figure 12-ready)
    trials: int                     #: measurement trials actually spent
    elapsed: float                  #: wall seconds spent on this task
    warm_samples: int = 0           #: historical samples used for warm start
    floored: bool = False           #: fallback config won; it was recorded instead
    dedup_hits: int = 0             #: measurements answered by the tuning service
    pretrained: bool = False        #: started from the service's pretrained model

    @property
    def task_name(self) -> str:
        return self.task.name

    @property
    def gflops(self) -> float:
        if not math.isfinite(self.estimate) or self.estimate <= 0:
            return 0.0
        return self.task.flop / self.estimate / 1e9


@dataclass
class TuningReport:
    """Everything one :func:`autotune` session produced."""

    results: List[TaskTuningResult]
    database: TuningDatabase
    target_name: str
    options: TuningOptions
    elapsed: float = 0.0
    #: tuning-service counters at session end (``None`` when tuned locally)
    service_stats: Optional[Dict[str, int]] = None

    def apply_history_best(self) -> ApplyHistoryBest:
        """Context manager under which ``repro.compile`` uses these configs."""
        return ApplyHistoryBest(self.database)

    def curves(self) -> Dict[str, List[float]]:
        """Per-task best-so-far trial curves (Figure 12-ready)."""
        return {r.task_name: list(r.curve) for r in self.results}

    @property
    def total_trials(self) -> int:
        return sum(r.trials for r in self.results)

    def summary(self) -> str:
        """Human-readable per-task table."""
        if not self.results:
            return "(no tasks tuned)"
        lines = [f"{'task':<44} {'space':>8} {'trials':>7} {'best (us)':>10} "
                 f"{'GFLOP/s':>8} {'note':>8}"]
        for r in self.results:
            name = r.task_name if len(r.task_name) <= 44 else r.task_name[:41] + "..."
            note = "floored" if r.floored else ("warm" if r.warm_samples else "")
            lines.append(f"{name:<44} {len(r.task.config_space):>8} "
                         f"{r.trials:>7} {r.estimate * 1e6:>10.1f} "
                         f"{r.gflops:>8.1f} {note:>8}")
        lines.append(f"{len(self.results)} tasks, {self.total_trials} trials, "
                     f"{self.elapsed:.1f}s, target={self.target_name}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __repr__(self) -> str:
        return (f"TuningReport(tasks={len(self.results)}, "
                f"trials={self.total_trials}, target={self.target_name}, "
                f"elapsed={self.elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Task extraction
# ---------------------------------------------------------------------------

def _normalise_model(model, target, params, input_shapes):
    """Resolve compile-parity model forms to (graph-with-shapes, target)."""
    # Imported lazily: the compiler package imports repro.autotvm at load
    # time, so the session must not import it back at module level.
    from ..compiler.driver import _resolve_model, _resolve_target

    graph, _params, shapes = _resolve_model(model, params, input_shapes)
    resolved = _resolve_target(target)
    if shapes:
        graph.infer_shapes(shapes)
    return graph, resolved


def _extract_task_nodes(graph, target) -> List[Tuple[Task, object]]:
    """Unique (task, representative node) pairs for the heavy operators."""
    from ..graph.op_timing import is_templated, make_task_for_node

    pairs: Dict[str, Tuple[Task, object]] = {}
    for node in graph.op_nodes:
        if not is_templated(node, target):
            continue    # the compiler would never look its history up
        task = make_task_for_node(node, target)
        if task.name not in pairs:
            pairs[task.name] = (task, node)
    return list(pairs.values())


def extract_tasks(model, target=None, *, params=None, input_shapes=None
                  ) -> List[Task]:
    """Unique tuning tasks for a model's heavy operators.

    Accepts the same model forms as :func:`repro.compile` / :func:`autotune`.
    """
    graph, resolved = _normalise_model(model, target, params, input_shapes)
    return [task for task, _node in _extract_task_nodes(graph, resolved)]


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

def _resolve_service(service):
    """``options.service`` -> ``(client or None, whether we own it)``.

    Accepts ``None``, a ``"host:port"`` address, a running
    :class:`~repro.autotvm.service.TuningService`, or an already-connected
    :class:`~repro.autotvm.service.ServiceClient` (which the caller keeps
    owning).
    """
    if service is None:
        return None, False
    # Imported lazily: sessions without a service never touch the package.
    from .service.client import ServiceClient, connect
    from .service.server import TuningService

    if isinstance(service, str):
        return connect(service), True
    if isinstance(service, TuningService):
        return connect(service.address), True
    if isinstance(service, ServiceClient):
        return service, False
    raise TypeError(
        f"TuningOptions.service must be None, a 'host:port' address, a "
        f"TuningService or a ServiceClient, got {type(service).__name__}")


def _config_stats(task: Task, config: ConfigEntity
                  ) -> Tuple[float, Optional[List[float]]]:
    """Deterministic hardware-model estimate and feature vector of ``config``
    (``(inf, None)`` for invalid schedules), via the shared evaluation cache —
    a config measured during tuning is never re-lowered here."""
    try:
        features = task.features_of(config.index)
        return float(task.target.model.estimate(features)), \
            list(features.to_vector())
    except Exception:
        return float("inf"), None


def _progress_callback(task_index: int, num_tasks: int,
                       options: TuningOptions, start: float):
    total = options.trials

    def callback(tuner: Tuner, results) -> None:
        if not options.callbacks:
            return
        event = ProgressEvent(
            task_name=tuner.task.name,
            task_index=task_index,
            num_tasks=num_tasks,
            trial=len(tuner.records),
            total_trials=min(total, len(tuner.task.config_space)),
            best_time=tuner.best_time,
            batch_times=tuple(r.mean_time for r in results),
            elapsed=time.perf_counter() - start,
        )
        for cb in options.callbacks:
            cb(event)

    return callback


def _service_call(what: str, func, default):
    """Run one optional service RPC, degrading to ``default`` if the
    service is unreachable.

    The session asked for a service explicitly, so *connecting* stays loud
    (:func:`_resolve_service` raises); but a service dying mid-run only
    costs its optional contributions (warm entries, pretrained model,
    shared bests, counters) — the session finishes on local measurement.
    """
    from .service.client import ServiceUnavailable
    from .service.protocol import ServiceProtocolError

    try:
        return func()
    except (ServiceUnavailable, ServiceProtocolError,
            ConnectionError, OSError) as exc:
        logger.warning("tuning service call %s failed (%r); continuing "
                       "without it", what, exc)
        return default


def _tune_one_task(task: Task, node, task_index: int, num_tasks: int,
                   options: TuningOptions, database: TuningDatabase,
                   client=None) -> TaskTuningResult:
    start = time.perf_counter()
    seed = options.seed + task_index
    tuner = _TUNERS[options.tuner](task, seed=seed)

    # With a tuning service, history flows in from the whole fleet: shared
    # entries merge with local history for the warm start, and the service's
    # startup-pretrained cost model (if it has one for this operator/target)
    # guides even the first batch.  A fresh service contributes neither, so a
    # solo session stays bit-identical to tuning locally.
    warm_db = database
    if client is not None:
        merged = TuningDatabase()
        for entry in _service_call(
                "warm_entries",
                lambda: client.warm_entries(task.operator, task.target.name),
                []):
            merged.add(entry)
        for entry in database:
            merged.add(entry)
        warm_db = merged

    warm_samples = 0
    if options.warm_start and len(warm_db) and hasattr(tuner, "warm_start"):
        warm_samples = tuner.warm_start(warm_db)

    # Adopted *after* the warm start on purpose: the service's model is fit
    # on the fleet's full trial history, so it outranks a model warm-fitted
    # from the handful of recorded bests.  The warm samples stay in the
    # tuner's training set and fold into its first refit.
    pretrained = False
    if client is not None and hasattr(tuner, "adopt_pretrained"):
        model = _service_call(
            "pretrained_model",
            lambda: client.pretrained_model(task.operator, task.target.name),
            None)
        if model is not None:
            tuner.adopt_pretrained(model)
            pretrained = True

    measurer = Measurer(number=_MEASURE_NUMBER, seed=seed,
                        verify=options.verify, n_parallel=options.n_parallel)
    if client is not None:
        from .service.client import ServiceDedupMeasurer

        measurer = ServiceDedupMeasurer(measurer, client)
    best = tuner.tune(n_trial=options.trials, measurer=measurer,
                      batch_size=options.batch_size,
                      callback=_progress_callback(task_index, num_tasks,
                                                  options, start),
                      early_stopping=options.early_stopping)
    if options.callbacks and \
            len(tuner.records) < min(options.trials, len(task.config_space)):
        # The task stopped early; emit a terminal event (done == True) so
        # progress consumers do not wait for the unspent trial budget.
        final = ProgressEvent(task_name=task.name, task_index=task_index,
                              num_tasks=num_tasks, trial=len(tuner.records),
                              total_trials=len(tuner.records),
                              best_time=tuner.best_time,
                              elapsed=time.perf_counter() - start)
        for cb in options.callbacks:
            cb(final)

    # Validate against the compiler's untuned fallback heuristic so that
    # history-based compilation can never regress a build: if the fallback
    # configuration's deterministic estimate beats the tuned one, record the
    # fallback configuration instead.
    estimate, features = _config_stats(task, best)
    config, floored = best, False
    if options.ensure_no_regression:
        from ..graph.op_timing import fallback_config_for_node

        fb_time, fb_index = fallback_config_for_node(node, task.target)
        if math.isfinite(fb_time) and fb_time < estimate:
            logger.info("%s: tuned config lost to the fallback heuristic "
                        "(%.3e s vs %.3e s); recording the fallback config",
                        task.name, estimate, fb_time)
            config = task.config_space.get(fb_index)
            features = _config_stats(task, config)[1]
            estimate = fb_time
            floored = True

    entry = database.record(task, config, estimate, features=features)
    if client is not None:
        _service_call("record_best", lambda: client.record_best(entry),
                      False)
    dedup_hits = getattr(measurer, "dedup_hits", 0)
    elapsed = time.perf_counter() - start
    logger.info("%s: %d trials in %.1fs, best %.3e s (%d-config space)%s%s",
                task.name, len(tuner.records), elapsed, estimate,
                len(task.config_space),
                f", warm start {warm_samples}" if warm_samples else "",
                f", {dedup_hits} deduped" if dedup_hits else "")
    return TaskTuningResult(task=task, best_config=config,
                            best_time=tuner.best_time, estimate=estimate,
                            curve=tuner.best_history(),
                            trials=len(tuner.records), elapsed=elapsed,
                            warm_samples=warm_samples, floored=floored,
                            dedup_hits=dedup_hits, pretrained=pretrained)


def autotune(model, target=None, *, trials: Optional[int] = None,
             tuner: Optional[str] = None,
             options: Optional[TuningOptions] = None,
             database: Optional[TuningDatabase] = None,
             params=None, input_shapes=None) -> TuningReport:
    """Extract, tune and record every heavy workload of ``model``.

    Parameters
    ----------
    model:
        Same forms as :func:`repro.compile`: a :class:`~repro.graph.ir.Graph`,
        a frontend model tuple ``(graph, params[, input_shapes])``, or a
        model-zoo name such as ``"resnet-18"``.
    target:
        A :class:`~repro.hardware.target.Target` or a short name
        (``"cuda"``, ``"gpu"``, ``"arm_cpu"``, ``"mali"``, ``"vdla"``).
    trials / tuner:
        Shortcuts overriding the corresponding :class:`TuningOptions` fields.
    options:
        Full session configuration (batch size, early stopping, parallelism,
        seed, callbacks, ...).
    database:
        Existing tuning history to extend; enables transfer-learning warm
        start of the cost model.  A fresh in-memory database by default.
    params / input_shapes:
        Override or supplement whatever the model form provided.

    Returns the :class:`TuningReport`; compile under
    ``report.apply_history_best()`` to use the tuned configurations.
    """
    options = (options or TuningOptions()).overridden(trials=trials,
                                                      tuner=tuner)
    if options.tuner not in _TUNERS:    # fail loudly before any work
        raise ValueError(f"Unknown tuner {options.tuner!r}; valid tuners: "
                         f"{sorted(_TUNERS)}")
    graph, resolved = _normalise_model(model, target, params, input_shapes)
    pairs = _extract_task_nodes(graph, resolved)
    client, owned_client = _resolve_service(options.service)
    database = database if database is not None else TuningDatabase()
    start = time.perf_counter()
    logger.info("tuning session: %d tasks x %d trials (tuner=%s, target=%s%s)",
                len(pairs), options.trials, options.tuner, resolved.name,
                ", shared service" if client is not None else "")
    try:
        results = [_tune_one_task(task, node, i, len(pairs), options,
                                  database, client=client)
                   for i, (task, node) in enumerate(pairs)]
        stats = _service_call("stats", client.stats, None) \
            if client is not None else None
    finally:
        if owned_client and client is not None:
            client.close()
    report = TuningReport(results=results, database=database,
                          target_name=resolved.name, options=options,
                          elapsed=time.perf_counter() - start,
                          service_stats=stats)
    logger.info("tuning session done: %d tasks, %d trials, %.1fs",
                len(report.results), report.total_trials, report.elapsed)
    return report
