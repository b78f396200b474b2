"""ML-based automated schedule optimizer (paper Section 5).

The front door is :func:`repro.autotune` (re-exported here as
:func:`autotune`): extract tasks -> tune with a registered tuner over the
measurer -> record bests in a :class:`TuningDatabase` -> compile
under :class:`ApplyHistoryBest`.
"""

from .apply_history import ApplyHistoryBest
from .eval_cache import (
    FEATURE_CACHE,
    clear_eval_caches,
    eval_cache_stats,
)
from .cost_model import (
    GradientBoostedTrees,
    NeuralCostModel,
    RegressionTree,
    rank_correlation,
)
from .database import DatabaseWriteConflictError, TuningDatabase, TuningLogEntry
from .measure import LocalMeasurer, MeasureInput, MeasureResultRecord, Measurer
from .options import ProgressEvent, TuningOptions
from .registry import TUNER_REGISTRY, get_tuner, list_tuners, register_tuner
from .session import (
    TaskTuningResult,
    TuningReport,
    autotune,
    extract_tasks,
    tune_tasks,
)
from .service import ServiceClient, TuningService, schedule_zoo
from .space import ConfigEntity, ConfigSpace, OtherEntity, SplitEntity
from .task import TEMPLATE_REGISTRY, Task, create_task, get_template, register_template
from .treernn import ASTNode, TreeRNNCostModel, build_ast
from .tuner import (
    GATuner,
    GridSearchTuner,
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
    "GridSearchTuner",
    "LocalMeasurer",
    "MeasureInput",
    "MeasureResultRecord",
    "Measurer",
    "ModelBasedTuner",
    "NeuralCostModel",
    "OtherEntity",
    "ProgressEvent",
    "RandomTuner",
    "RegressionTree",
    "ServiceClient",
    "SimulatedAnnealingOptimizer",
    "SplitEntity",
    "TEMPLATE_REGISTRY",
    "TUNER_REGISTRY",
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
    "TuningService",
    "autotune",
    "create_task",
    "extract_tasks",
    "get_template",
    "get_tuner",
    "list_tuners",
    "rank_correlation",
    "register_template",
    "register_tuner",
    "schedule_zoo",
    "tune_tasks",
]
