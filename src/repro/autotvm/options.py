"""Tuning-session configuration and the structured progress-event stream.

:class:`TuningOptions` is the one bag of knobs of a tuning session, and
:func:`repro.autotune` — the only way into one — accepts it (mirroring how
:class:`~repro.compiler.PassContext` configures ``repro.compile``).
:class:`ProgressEvent` is the structured record the session hands to
progress callbacks after every measured batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

__all__ = ["TuningOptions", "ProgressEvent"]


@dataclass(frozen=True)
class ProgressEvent:
    """One measured batch, as reported to progress callbacks."""

    task_name: str            #: workload being tuned
    task_index: int           #: position of the task in the session
    num_tasks: int            #: total tasks in the session
    trial: int                #: trials completed for this task so far
    total_trials: int         #: trial budget for this task
    best_time: float          #: best measured time (seconds) so far
    batch_times: Tuple[float, ...] = ()   #: measured times of this batch
    elapsed: float = 0.0      #: wall seconds spent on this task so far

    @property
    def done(self) -> bool:
        """Whether this task's tuning is finished.  On early stopping the
        session emits a terminal event whose ``total_trials`` equals the
        trials actually spent, so ``done`` still becomes true."""
        return self.trial >= self.total_trials


#: signature of a session progress callback
ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class TuningOptions:
    """Knobs of one :func:`repro.autotune` session.

    The keyword shortcuts on :func:`repro.autotune` (``trials=``, ``tuner=``)
    override the corresponding fields here, the same way ``opt_level=`` is a
    shortcut over :class:`~repro.compiler.PassContext`.
    """

    #: measurement trials per extracted task
    trials: int = 64
    #: candidate configurations measured per batch
    batch_size: int = 8
    #: stop a task early after this many trials without improvement
    #: (``None`` disables early stopping)
    early_stopping: Optional[int] = None
    #: base RNG seed; task ``i`` tunes with ``seed + i``
    seed: int = 0
    #: the explorer: ``"model"`` (the paper's cost-model-guided search),
    #: ``"ga"`` or ``"random"``; any other name fails before any work
    tuner: str = "model"
    #: worker threads the measurer maps over each batch (1 = plain loop);
    #: results are bit-identical at any value (the noise RNG is derived per
    #: (seed, task, config))
    n_parallel: int = 4
    #: statically verify every candidate's lowered program before measuring
    #: it; illegal schedules (out-of-bounds accesses, parallel hazards) are
    #: rejected as typed errors instead of entering the tuning history.  The
    #: verdict is memoised in the shared evaluation cache, so a later
    #: ``compile(verify=True)`` under this history does not verify it again
    verify: bool = False
    #: guarantee the recorded best never loses to the compiler's untuned
    #: fallback heuristic: if it does, the fallback configuration is recorded
    #: instead, so history-based compilation cannot regress a build
    ensure_no_regression: bool = True
    #: structured progress callbacks, called once per measured batch
    callbacks: Sequence[ProgressCallback] = ()

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.n_parallel <= 0:
            raise ValueError(f"n_parallel must be positive, got {self.n_parallel}")
        if self.early_stopping is not None and self.early_stopping <= 0:
            raise ValueError(
                f"early_stopping must be positive or None, got {self.early_stopping}")

    def overridden(self, **overrides) -> "TuningOptions":
        """A copy with the non-``None`` entries of ``overrides`` applied."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self
