"""ML-based automated schedule optimizer (paper Section 5).

The front door is :func:`repro.autotune` (re-exported here as
:func:`autotune`): extract tasks -> tune each with the ``"random"``,
``"ga"`` or ``"model"`` tuner over the measurer -> record bests in a
:class:`TuningDatabase` -> compile under :class:`ApplyHistoryBest`.  The
shared tuning service lives in :mod:`repro.autotvm.service`, which only a
session given ``TuningOptions(service=...)`` imports.
"""

from .apply_history import ApplyHistoryBest
from .eval_cache import (
    FEATURE_CACHE,
    clear_eval_caches,
    eval_cache_stats,
)
from .cost_model import (
    GradientBoostedTrees,
    RegressionTree,
    rank_correlation,
)
from .database import DatabaseWriteConflictError, TuningDatabase, TuningLogEntry
from .measure import LocalMeasurer, MeasureInput, MeasureResultRecord, Measurer
from .options import ProgressEvent, TuningOptions
from .session import TaskTuningResult, TuningReport, autotune, extract_tasks
from .space import ConfigEntity, ConfigSpace, OtherEntity, SplitEntity
from .task import Task
from .treernn import ASTNode, TreeRNNCostModel, build_ast
from .tuner import (
    GATuner,
    ModelBasedTuner,
    RandomTuner,
    SimulatedAnnealingOptimizer,
    Tuner,
    TuningRecord,
)

__all__ = [
    "ApplyHistoryBest",
    "ConfigEntity",
    "ConfigSpace",
    "DatabaseWriteConflictError",
    "FEATURE_CACHE",
    "clear_eval_caches",
    "eval_cache_stats",
    "GATuner",
    "GradientBoostedTrees",
    "LocalMeasurer",
    "MeasureInput",
    "MeasureResultRecord",
    "Measurer",
    "ModelBasedTuner",
    "OtherEntity",
    "ProgressEvent",
    "RandomTuner",
    "RegressionTree",
    "SimulatedAnnealingOptimizer",
    "SplitEntity",
    "Task",
    "TaskTuningResult",
    "TreeRNNCostModel",
    "ASTNode",
    "build_ast",
    "Tuner",
    "TuningDatabase",
    "TuningLogEntry",
    "TuningOptions",
    "TuningRecord",
    "TuningReport",
    "autotune",
    "extract_tasks",
    "rank_correlation",
]
