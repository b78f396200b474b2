"""Schedule explorers (paper Section 5.3, Figure 12, Table 1).

Three tuners are implemented, matching the automation methods the paper
compares:

* :class:`RandomTuner` — blackbox random search.
* :class:`GATuner` — blackbox genetic algorithm (no cost model).
* :class:`ModelBasedTuner` — the paper's approach: an ML cost model
  (gradient-boosted trees with a rank objective by default) guides a parallel
  simulated-annealing explorer; the model is re-fitted on the measurements
  collected so far when the next batch reads it, and exploration state
  persists across model updates.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cost_model import GradientBoostedTrees
from .measure import MeasureInput, MeasureResultRecord, Measurer
from .space import ConfigEntity
from .task import Task

__all__ = ["TuningRecord", "Tuner", "RandomTuner", "GATuner",
           "ModelBasedTuner", "SimulatedAnnealingOptimizer"]

logger = logging.getLogger("repro.autotvm")

# Explorer hyper-parameters: the determinism fingerprints (curve sha256,
# best-config indices) are recorded at these values.
_GA_POPULATION = 16     #: measured configs kept between generations
_GA_ELITE = 4           #: best of the population that breed
_GA_MUTATION_PROB = 0.1  #: per-knob chance a child's value is re-drawn
_SA_CHAINS = 16         #: independent annealing walks
_SA_STEPS = 64          #: proposals per chain per ``find_maximums``
_SA_TEMPERATURE = 1.0   #: initial temperature (decays 0.95x per step)
_WARM_START_MAX = 128   #: most history samples ``warm_start`` trains on

@dataclass
class TuningRecord:
    """History entry kept by every tuner."""

    config_index: int
    mean_time: float
    trial: int

    @property
    def valid(self) -> bool:
        return math.isfinite(self.mean_time)


class Tuner:
    """Base class: drives measurement batches and tracks the best config."""

    def __init__(self, task: Task, seed: int = 0):
        self.task = task
        self.seed = seed
        self.rng = random.Random(seed)
        self.records: List[TuningRecord] = []
        self.best_config: Optional[ConfigEntity] = None
        self.best_time: float = float("inf")
        self._visited: set = set()

    # -- subclass interface ------------------------------------------------------
    def next_batch(self, batch_size: int) -> List[ConfigEntity]:
        raise NotImplementedError

    def update(self, inputs: Sequence[MeasureInput],
               results: Sequence[MeasureResultRecord]) -> None:
        """Hook for model-based tuners to learn from new measurements."""

    # -- main loop ----------------------------------------------------------------
    def tune(self, n_trial: int, measurer: Optional[Measurer] = None,
             batch_size: int = 8,
             callback: Optional[Callable[["Tuner", List[MeasureResultRecord]], None]] = None,
             early_stopping: Optional[int] = None
             ) -> ConfigEntity:
        """Run the measurement loop for up to ``n_trial`` trials.

        ``early_stopping`` stops the loop after that many consecutive trials
        without improving on the best measured time.  ``callback`` is invoked
        after every measured batch with ``(tuner, batch_results)``.
        """
        measurer = measurer or Measurer()
        trials_done = 0
        trials_since_best = 0
        space_size = len(self.task.config_space)
        n_trial = min(n_trial, space_size)
        while trials_done < n_trial:
            batch = self.next_batch(min(batch_size, n_trial - trials_done))
            if not batch:
                break
            inputs = [MeasureInput(self.task, cfg) for cfg in batch]
            results = measurer.measure(inputs)
            for inp, res in zip(inputs, results):
                time = res.mean_time if res.valid else float("inf")
                self.records.append(TuningRecord(inp.config.index, time, trials_done))
                self._visited.add(inp.config.index)
                if time < self.best_time:
                    self.best_time = time
                    self.best_config = inp.config
                    trials_since_best = 0
                else:
                    trials_since_best += 1
                trials_done += 1
            self.update(inputs, results)
            if callback is not None:
                callback(self, results)
            logger.debug("%s: trial %d/%d best %.3e s",
                         self.task.name, trials_done, n_trial, self.best_time)
            if early_stopping is not None and trials_since_best >= early_stopping:
                logger.info("%s: early stop after %d trials (%d without "
                            "improvement)", self.task.name, trials_done,
                            trials_since_best)
                break
        if self.best_config is None:
            self.best_config = self.task.config_space.get(0)
        return self.best_config

    # -- helpers -------------------------------------------------------------------
    def _random_unvisited(self, count: int) -> List[ConfigEntity]:
        space = self.task.config_space
        total = len(space)
        out: List[ConfigEntity] = []
        pending: set = set()       # O(1) membership for this batch's picks
        attempts = 0
        while len(out) < count and attempts < count * 50 \
                and len(self._visited) + len(out) < total:
            index = self.rng.randrange(total)
            if index in self._visited or index in pending:
                attempts += 1
                continue
            pending.add(index)
            out.append(space.get(index))
        return out

    def best_history(self) -> List[float]:
        """Best time seen so far, per trial (for Figure 12-style curves)."""
        best = float("inf")
        history = []
        for record in self.records:
            best = min(best, record.mean_time)
            history.append(best)
        return history


class RandomTuner(Tuner):
    """Uniform random exploration of the configuration space."""

    def next_batch(self, batch_size: int) -> List[ConfigEntity]:
        return self._random_unvisited(batch_size)


class GATuner(Tuner):
    """Blackbox genetic algorithm over knob indices (no cost model)."""

    def __init__(self, task: Task, seed: int = 0):
        super().__init__(task, seed)
        self._population: List[Tuple[int, float]] = []   # (config index, time)
        self._pending: List[int] = []

    def next_batch(self, batch_size: int) -> List[ConfigEntity]:
        space = self.task.config_space
        if len(self._visited) >= len(space):
            return []
        if not self._population:
            return self._random_unvisited(batch_size)
        # Breed new candidates from the measured population.
        ranked = sorted(self._population, key=lambda item: item[1])
        parents = [idx for idx, _ in ranked[:_GA_ELITE]]
        children: List[ConfigEntity] = []
        pending: set = set()
        dims = space.dims
        attempts = 0
        while len(children) < batch_size and attempts < batch_size * 50:
            attempts += 1
            mother = space.knob_indices(self.rng.choice(parents))
            father = space.knob_indices(self.rng.choice(parents))
            cross = [m if self.rng.random() < 0.5 else f
                     for m, f in zip(mother, father)]
            child = [self.rng.randrange(dims[i]) if self.rng.random() < _GA_MUTATION_PROB
                     else v for i, v in enumerate(cross)]
            index = space.flat_index(child)
            if index in self._visited or index in pending:
                continue
            pending.add(index)
            children.append(space.get(index))
        if len(children) < batch_size:
            children.extend(self._random_unvisited(batch_size - len(children)))
        return children

    def update(self, inputs, results) -> None:
        for inp, res in zip(inputs, results):
            time = res.mean_time if res.valid else float("inf")
            if math.isfinite(time):
                self._population.append((inp.config.index, time))
        self._population = sorted(self._population, key=lambda item: item[1])[
            :_GA_POPULATION]


class SimulatedAnnealingOptimizer:
    """Parallel simulated annealing over the configuration space, guided by a
    cost-model scoring function (higher score = predicted faster)."""

    def __init__(self, task: Task, seed: int = 0):
        self.task = task
        self.rng = random.Random(seed)
        self._states: List[int] = []

    def _neighbor(self, index: int) -> int:
        space = self.task.config_space
        knobs = space.knob_indices(index)
        dims = space.dims
        knob = self.rng.randrange(len(knobs))
        if dims[knob] > 1:
            move = self.rng.choice([-1, 1])
            knobs[knob] = (knobs[knob] + move) % dims[knob]
        return space.flat_index(knobs)

    def find_maximums(self, score_fn: Callable[[List[int]], np.ndarray],
                      num_best: int, exclude: set,
                      seeds: Optional[List[int]] = None) -> List[int]:
        space = self.task.config_space
        total = len(space)
        if not self._states:
            self._states = [self.rng.randrange(total) for _ in range(_SA_CHAINS)]
        if seeds:
            # Restart part of the chains from the most promising known
            # configurations so the walk explores their neighbourhoods
            # (exploration state still persists across model updates).
            for i, seed in enumerate(seeds[:len(self._states) // 2]):
                self._states[i] = seed
        scores = score_fn(self._states)
        heap: Dict[int, float] = {}
        temperature = _SA_TEMPERATURE
        for _ in range(_SA_STEPS):
            proposals = [self._neighbor(state) for state in self._states]
            new_scores = score_fn(proposals)
            for i in range(len(self._states)):
                delta = new_scores[i] - scores[i]
                if delta >= 0 or self.rng.random() < math.exp(delta / max(temperature, 1e-6)):
                    self._states[i] = proposals[i]
                    scores[i] = new_scores[i]
                heap[self._states[i]] = max(heap.get(self._states[i], -1e30), scores[i])
            temperature *= 0.95
        candidates = [idx for idx, _ in sorted(heap.items(), key=lambda kv: -kv[1])
                      if idx not in exclude]
        return candidates[:num_best]


class ModelBasedTuner(Tuner):
    """The paper's ML-guided explorer (Figure 11).

    Measured configurations are featurised from their lowered loop programs;
    a cost model is trained on (features, throughput) and a simulated
    annealing search over the model's predictions proposes the next batch of
    candidates to measure on the device.  :meth:`warm_start` seeds the
    training set from a tuning database, so history of the same operator
    (this workload or a related shape) transfers into a new session.

    :meth:`update` only queues a batch's rows; the model is refit when the
    next batch reads it, on the same rows and the same random stream as a
    refit after every batch would use, so the last batch of a session
    fits nothing.
    """

    def __init__(self, task: Task, cost_model: Optional[object] = None,
                 seed: int = 0):
        super().__init__(task, seed)
        if cost_model is None:
            cost_model = GradientBoostedTrees(seed=seed)
        self.cost_model = cost_model
        self.optimizer = SimulatedAnnealingOptimizer(task, seed=seed)
        self._train_features: List[np.ndarray] = []
        self._train_throughput: List[float] = []
        self._feature_cache: Dict[int, np.ndarray] = {}
        self._trained = False       # the next batch is model-guided
        self._refit = False         # rows were queued since the last fit

    # -- featurisation ------------------------------------------------------------
    def _features_of(self, index: int) -> np.ndarray:
        vector = self._feature_cache.get(index)
        if vector is None:
            try:
                # Shared, LRU-bounded service: one lowering+featurisation per
                # (workload, target, config) serves the tuner, the measurer,
                # and the compiler's estimation paths alike.
                vector = self.task.feature_vector(index)
            except Exception:
                from ..tir.analysis import FEATURE_NAMES

                # Placeholder for configs whose schedule cannot be lowered:
                # sized from the feature schema, so a failure on the very
                # first candidate cannot poison the feature-matrix width.
                vector = np.zeros(len(FEATURE_NAMES))
            self._feature_cache[index] = vector
        return vector

    def _score(self, indices: List[int]) -> np.ndarray:
        if not self._trained:
            return np.array([self.rng.random() for _ in indices])
        feats = np.stack([self._features_of(i) for i in indices])
        return self.cost_model.predict(feats)

    # -- tuner interface -------------------------------------------------------------
    def next_batch(self, batch_size: int) -> List[ConfigEntity]:
        space = self.task.config_space
        if not self._trained:
            return self._random_unvisited(batch_size)
        if self._refit:
            x = np.stack(self._train_features)
            y = np.asarray(self._train_throughput)
            # Normalise throughput so the rank objective is well conditioned.
            self.cost_model.fit(x, y / y.max())
            self._refit = False
        measured = sorted((r for r in self.records if r.valid),
                          key=lambda r: r.mean_time)
        seeds = [r.config_index for r in measured[:4]]
        candidates = self.optimizer.find_maximums(self._score, batch_size,
                                                  self._visited, seeds=seeds)
        configs = [space.get(i) for i in candidates]
        if len(configs) < batch_size:
            configs.extend(self._random_unvisited(batch_size - len(configs)))
        return configs

    def update(self, inputs, results) -> None:
        for inp, res in zip(inputs, results):
            if not res.valid:
                continue
            features = (res.features.vector()
                        if res.features is not None
                        else self._features_of(inp.config.index))
            self._feature_cache[inp.config.index] = features
            self._train_features.append(features)
            self._train_throughput.append(1.0 / max(res.mean_time, 1e-12))
        self._queue_fit()

    def _queue_fit(self) -> None:
        if len(self._train_features) >= 8:
            self._trained = self._refit = True

    # -- transfer learning -----------------------------------------------------
    def adopt_pretrained(self, cost_model) -> None:
        """Adopt a cost model pretrained elsewhere (e.g. pre-fit by the
        session on the database's trial log) so exploration is model-guided
        from the very first batch.  The refit that :meth:`update` queues
        replaces it once this session has gathered its own measurements."""
        self.cost_model = cost_model
        self._trained = True
        self._refit = False

    def warm_start(self, database) -> int:
        """Seed the cost model from prior measurements of the same operator.

        Entries for this exact workload are featurised through this task's
        configuration space; entries for *other* workloads of the same
        operator family contribute their stored feature vectors (recorded by
        earlier sessions).  Returns the number of samples added; if enough
        history exists the very first batch is already model-guided instead
        of random (its fit runs when that batch reads the model).
        """
        if database is None:
            return 0
        added = 0
        dim: Optional[int] = None
        if self._train_features:
            dim = len(self._train_features[0])
        # Same-workload entries first: they are featurised through this
        # task's own space, anchoring the expected feature dimension before
        # any cross-workload entry with a stale stored vector is seen.
        entries = sorted(database,
                         key=lambda e: e.task_name != self.task.name)
        for entry in entries:
            if added >= _WARM_START_MAX:
                break
            if entry.operator != self.task.operator or entry.mean_time <= 0 \
                    or not math.isfinite(entry.mean_time):
                continue
            if entry.task_name == self.task.name:
                if entry.config_index >= len(self.task.config_space):
                    continue
                features = self._features_of(entry.config_index)
            elif entry.features is not None:
                features = np.asarray(entry.features, dtype=float)
            else:
                continue
            if dim is None:
                dim = len(features)
            if len(features) != dim:
                continue
            self._train_features.append(features)
            self._train_throughput.append(1.0 / entry.mean_time)
            added += 1
        if added:
            logger.info("%s: warm start with %d historical samples",
                        self.task.name, added)
            self._queue_fit()
        return added


#: the tuners a session selects by name (``TuningOptions.tuner``)
_TUNERS = {"random": RandomTuner, "ga": GATuner, "model": ModelBasedTuner}
