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

Transfer learning (Section 5.2): when a database with history is passed in,
the ML cost model of each task is warm-started from prior entries of the
same operator, and when the database's trial log holds enough rows of that
operator on that target, the task starts from a cost model pre-fit on them,
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

import numpy as np

from .apply_history import ApplyHistoryBest
from .cost_model import GradientBoostedTrees
from .database import TuningDatabase, operator_of
from .measure import Measurer
from .options import ProgressEvent, TuningOptions
from .space import ConfigEntity
from .task import Task
from .tuner import _TUNERS, Tuner

__all__ = ["TaskTuningResult", "TuningReport", "autotune", "extract_tasks"]

logger = logging.getLogger("repro.autotvm")

#: repeated timings per measurement on the simulated device
_MEASURE_NUMBER = 2
#: usable history rows per (operator, target) needed before a pre-fit
_PREFIT_MIN_ROWS = 8
#: newest usable rows a pre-fit trains on (bounds its cost)
_PREFIT_MAX_ROWS = 2048


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
    pretrained: bool = False        #: started from a model pre-fit on history

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

    def apply_history_best(self) -> ApplyHistoryBest:
        """Context manager under which ``repro.compile`` uses these configs."""
        return ApplyHistoryBest(self.database)

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

def _normalise_model(model, target, input_shapes):
    """Resolve compile-parity model forms to (graph-with-shapes, target).
    Tuning reads shapes only, so no param is read (and no weight drawn)."""
    # Imported lazily: the compiler package imports repro.autotvm at load
    # time, so the session must not import it back at module level.
    from ..compiler.driver import _resolve_graph, _resolve_target

    graph, _params, shapes = _resolve_graph(model, input_shapes)
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
    graph, resolved = _normalise_model(model, target, input_shapes)
    return [task for task, _node in _extract_task_nodes(graph, resolved)]


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

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


def _prefit_models(database: TuningDatabase, keys
                   ) -> Dict[Tuple[str, str], dict]:
    """Cost models pre-fit on ``database``'s history, as specs, for each
    ``(operator, target)`` in ``keys`` with enough usable rows.

    The rows are the trial log's measured, feature-bearing trials followed by
    the recorded bests that carry features.  Throughputs are normalised *per
    workload* before pooling, so a fast small shape and a slow large shape
    contribute comparable targets: the model learns what distinguishes good
    configurations within a shape, which is what transfers across shapes.
    """
    groups: Dict[Tuple[str, str], List[Tuple[str, object, float]]] = {
        key: [] for key in keys}
    rows = [(task, target, row["features"], row["time"], row["error"])
            for (task, target, _index), row in database.trials.items()]
    rows += [(e.task_name, e.target_name, e.features, e.mean_time, None)
             for e in database]
    for task, target, features, seconds, error in rows:
        group = groups.get((operator_of(task), target))
        if group is None or features is None or error is not None \
                or seconds <= 0 or not math.isfinite(seconds):
            continue
        group.append((task, features, seconds))
    specs = {}
    for key, samples in groups.items():
        samples = samples[-_PREFIT_MAX_ROWS:]
        dim = len(samples[0][1]) if samples else 0
        samples = [s for s in samples if len(s[1]) == dim]
        if len(samples) < _PREFIT_MIN_ROWS:
            continue
        top: Dict[str, float] = {}
        for task, _features, seconds in samples:
            top[task] = max(top.get(task, 0.0), 1.0 / seconds)
        x = np.asarray([s[1] for s in samples], dtype=np.float64)
        y = np.asarray([(1.0 / s[2]) / top[s[0]] for s in samples])
        specs[key] = GradientBoostedTrees(seed=0).fit(x, y).to_spec()
        logger.info("pre-fit a cost model for %s/%s on %d rows (%d "
                    "workloads)", key[0], key[1], len(samples), len(top))
    return specs


def _batch_callback(task_index: int, num_tasks: int, options: TuningOptions,
                    start: float, database: TuningDatabase):
    total = options.trials

    def callback(tuner: Tuner, results) -> None:
        database.log_trials(results)
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


def _tune_one_task(task: Task, node, task_index: int, num_tasks: int,
                   options: TuningOptions, database: TuningDatabase,
                   prefit: Optional[dict]) -> TaskTuningResult:
    start = time.perf_counter()
    seed = options.seed + task_index
    tuner = _TUNERS[options.tuner](task, seed=seed)

    warm_samples = 0
    if len(database) and hasattr(tuner, "warm_start"):
        warm_samples = tuner.warm_start(database)

    # Adopted *after* the warm start on purpose: the pre-fit model is fit on
    # the whole trial log, so it outranks a model warm-fitted from the
    # handful of recorded bests.  The warm samples stay in the tuner's
    # training set and fold into its first refit.  Each task restores its
    # own copy, so one task's refits never reach another's model.
    pretrained = prefit is not None
    if pretrained:
        tuner.adopt_pretrained(GradientBoostedTrees.from_spec(prefit))

    measurer = Measurer(number=_MEASURE_NUMBER, seed=seed,
                        n_parallel=options.n_parallel)
    best = tuner.tune(n_trial=options.trials, measurer=measurer,
                      batch_size=options.batch_size,
                      callback=_batch_callback(task_index, num_tasks,
                                               options, start, database),
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

    database.record(task, config, estimate, features=features)
    elapsed = time.perf_counter() - start
    logger.info("%s: %d trials in %.1fs, best %.3e s (%d-config space)%s%s",
                task.name, len(tuner.records), elapsed, estimate,
                len(task.config_space),
                f", warm start {warm_samples}" if warm_samples else "",
                ", pre-fit model" if pretrained else "")
    return TaskTuningResult(task=task, best_config=config,
                            best_time=tuner.best_time, estimate=estimate,
                            curve=tuner.best_history(),
                            trials=len(tuner.records), elapsed=elapsed,
                            warm_samples=warm_samples, floored=floored,
                            pretrained=pretrained)


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
        Existing tuning history to extend; enables transfer learning: the
        warm start from its bests, and a cost model pre-fit on its trial log
        for each (operator, target) with enough rows.  The rows this session
        measures join the log for later sessions only.  A fresh in-memory
        database by default.
    params / input_shapes:
        Override or supplement whatever the model form provided.  Tuning
        reads shapes only: no param, given or the model's own, is read, so
        no weight of a zoo model is drawn.

    Returns the :class:`TuningReport`; compile under
    ``report.apply_history_best()`` to use the tuned configurations.
    """
    options = (options or TuningOptions()).overridden(trials=trials,
                                                      tuner=tuner)
    if options.tuner not in _TUNERS:    # fail loudly before any work
        raise ValueError(f"Unknown tuner {options.tuner!r}; valid tuners: "
                         f"{sorted(_TUNERS)}")
    graph, resolved = _normalise_model(model, target, input_shapes)
    pairs = _extract_task_nodes(graph, resolved)
    database = database if database is not None else TuningDatabase()
    start = time.perf_counter()
    prefits = (_prefit_models(database, {(task.operator, resolved.name)
                                         for task, _node in pairs})
               if hasattr(_TUNERS[options.tuner], "adopt_pretrained") else {})
    logger.info("tuning session: %d tasks x %d trials (tuner=%s, target=%s)",
                len(pairs), options.trials, options.tuner, resolved.name)
    results = [_tune_one_task(task, node, i, len(pairs), options, database,
                              prefits.get((task.operator, resolved.name)))
               for i, (task, node) in enumerate(pairs)]
    report = TuningReport(results=results, database=database,
                          target_name=resolved.name, options=options,
                          elapsed=time.perf_counter() - start)
    logger.info("tuning session done: %d tasks, %d trials, %.1fs",
                len(report.results), report.total_trials, report.elapsed)
    return report
