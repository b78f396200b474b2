"""Tests for the ML cost models, tuners, tuning database and fallback search."""

import json
import math
import random

import numpy as np
import pytest

from repro import te, tir
from repro.autotvm import (
    GATuner,
    GradientBoostedTrees,
    MeasureInput,
    Measurer,
    ModelBasedTuner,
    RandomTuner,
    RegressionTree,
    Task,
    TuningDatabase,
    rank_correlation,
)
from repro.autotvm.treernn import ASTNode, TreeRNNCostModel, build_ast
from repro.graph.op_timing import fallback_search
from repro.hardware import arm_cpu, cuda
from repro.topi import nn as topi_nn
from repro.topi.schedules.cpu import dense_cpu_template
from repro.topi.schedules.gpu import matmul_gpu_template


def _make_task(target=None, size=64):
    """A small matmul tuning task with a non-trivial configuration space."""
    target = target or cuda()

    def template(cfg, n):
        A = te.placeholder((n, n), name="A")
        B = te.placeholder((n, n), name="B")
        C = topi_nn.matmul(A, B)
        return matmul_gpu_template(cfg, A, B, C)

    return Task(f"matmul{size}", template, (size,), target)


def _make_cpu_task(size=64):
    target = arm_cpu()

    def template(cfg, n):
        data = te.placeholder((1, n), name="data")
        weight = te.placeholder((n, n), name="weight")
        out = topi_nn.dense(data, weight)
        return dense_cpu_template(cfg, data, weight, out)

    return Task(f"dense{size}", template, (size,), target)


# ---------------------------------------------------------------------------
# Regression tree / gradient boosting
# ---------------------------------------------------------------------------

class TestRegressionTree:
    def test_fits_piecewise_constant(self):
        x = np.linspace(0, 1, 64)[:, None]
        y = (x[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_unfitted_predicts_zero(self):
        tree = RegressionTree()
        assert np.allclose(tree.predict(np.ones((3, 2))), 0.0)

    def test_constant_target_is_single_leaf(self):
        x = np.random.rand(16, 3)
        y = np.full(16, 2.5)
        tree = RegressionTree().fit(x, y)
        assert "feature" not in tree.tree_
        assert np.allclose(tree.predict(x), 2.5)


class TestGradientBoostedTrees:
    def _data(self, n=48, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, 5))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.1 * rng.random(n)
        return x, y

    def test_rank_objective_orders_candidates(self):
        x, y = self._data()
        model = GradientBoostedTrees(loss="rank", seed=0).fit(x, y)
        corr = rank_correlation(model.predict(x), y)
        assert corr > 0.7

    def test_regression_objective(self):
        x, y = self._data()
        model = GradientBoostedTrees(loss="reg", seed=0).fit(x, y)
        corr = rank_correlation(model.predict(x), y)
        assert corr > 0.8

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(loss="hinge")

    def test_tiny_training_set_is_noop(self):
        model = GradientBoostedTrees()
        model.fit(np.ones((2, 3)), np.array([1.0, 2.0]))
        assert model.trees == []

    def test_predict_single_vector(self):
        x, y = self._data()
        model = GradientBoostedTrees(seed=0).fit(x, y)
        assert model.predict(x[0]).shape == (1,)

    def test_spec_roundtrip_predicts_identically(self):
        rng = np.random.default_rng(0)
        x, y = rng.random((64, 12)), rng.random(64)
        model = GradientBoostedTrees(seed=0).fit(x, y)
        clone = GradientBoostedTrees.from_spec(
            json.loads(json.dumps(model.to_spec())))
        np.testing.assert_array_equal(model.predict(x), clone.predict(x))
        # A restored copy refits like a fresh model of its seed, whatever
        # the original's generator drew: each tuning task that adopts a
        # pre-fit model refits the same way.
        x2, y2 = rng.random((32, 12)), rng.random(32)
        np.testing.assert_array_equal(
            clone.fit(x2, y2).predict(x2),
            GradientBoostedTrees(seed=0).fit(x2, y2).predict(x2))


class TestRankCorrelation:
    def test_perfect_correlation(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_short_input(self):
        assert rank_correlation([1.0], [2.0]) == 0.0

    def test_bounded_for_arbitrary_input(self):
        value = rank_correlation([3, 1, 2, 5], [0.1, 0.9, 0.4, 0.2])
        assert -1.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# TreeRNN cost model
# ---------------------------------------------------------------------------

class TestTreeRNN:
    def _lowered_samples(self, count=12):
        task = _make_task(size=32)
        rng = random.Random(0)
        funcs, times = [], []
        for config in task.config_space.sample(count, rng=rng):
            try:
                func = task.lower(config)
                cost = task.target.model.estimate(tir.extract_features(func))
            except Exception:
                continue
            if math.isfinite(cost):
                funcs.append(func)
                times.append(cost)
        return funcs, np.asarray(times)

    def test_build_ast_counts_loops(self):
        funcs, _ = self._lowered_samples(2)
        root = build_ast(funcs[0])
        assert isinstance(root, ASTNode)
        assert root.size() > 5
        assert root.depth() > 2

    def test_fit_predict_shapes(self):
        funcs, times = self._lowered_samples()
        throughput = 1.0 / times
        model = TreeRNNCostModel(seed=0, epochs=10)
        model.fit(funcs, throughput / throughput.max())
        pred = model.predict(funcs)
        assert pred.shape == (len(funcs),)
        assert np.all(np.isfinite(pred))

    def test_training_improves_rank_correlation(self):
        funcs, times = self._lowered_samples(16)
        target = 1.0 / times
        target = target / target.max()
        untrained = TreeRNNCostModel(seed=0)
        before = rank_correlation(untrained.predict(funcs), target)
        trained = TreeRNNCostModel(seed=0, epochs=40).fit(funcs, target)
        after = rank_correlation(trained.predict(funcs), target)
        assert after >= before - 0.05    # training never makes it much worse
        assert after > 0.2               # and ends up informative

    def test_fit_with_too_few_samples_is_noop(self):
        funcs, _times = self._lowered_samples(2)
        model = TreeRNNCostModel(seed=0)
        model.fit(funcs[:1], [1.0])
        assert not model._trained


# ---------------------------------------------------------------------------
# Tuners
# ---------------------------------------------------------------------------

class TestTuners:
    @pytest.mark.parametrize("tuner_cls", [RandomTuner, GATuner, ModelBasedTuner])
    def test_tuner_finds_finite_best(self, tuner_cls):
        task = _make_task(size=32)
        tuner = tuner_cls(task, seed=1)
        best = tuner.tune(n_trial=24, batch_size=8)
        assert best is not None
        assert math.isfinite(tuner.best_time)

    def test_best_history_is_monotone(self):
        task = _make_task(size=32)
        tuner = RandomTuner(task, seed=0)
        tuner.tune(n_trial=16, batch_size=4)
        history = tuner.best_history()
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_no_duplicate_measurements(self):
        task = _make_task(size=32)
        tuner = RandomTuner(task, seed=0)
        tuner.tune(n_trial=24, batch_size=8)
        indices = [r.config_index for r in tuner.records]
        assert len(indices) == len(set(indices))

    def test_respects_trial_budget(self):
        task = _make_task(size=32)
        tuner = RandomTuner(task, seed=0)
        tuner.tune(n_trial=10, batch_size=4)
        assert len(tuner.records) <= 10

    def test_model_based_outperforms_or_matches_random(self):
        task = _make_task(size=64)
        random_tuner = RandomTuner(task, seed=3)
        random_tuner.tune(n_trial=40, batch_size=8)
        model_tuner = ModelBasedTuner(task, seed=3)
        model_tuner.tune(n_trial=40, batch_size=8)
        assert model_tuner.best_time <= random_tuner.best_time * 1.25

    def test_model_is_fit_only_when_a_batch_reads_it(self, monkeypatch):
        # Two batches of 8: the second reads a model fit on the first; the
        # rows of the second are never read, so they are never fit.
        fits = []
        real_fit = GradientBoostedTrees.fit

        def counting_fit(model, x, y):
            fits.append(len(x))
            return real_fit(model, x, y)

        monkeypatch.setattr(GradientBoostedTrees, "fit", counting_fit)
        tuner = ModelBasedTuner(_make_task(size=32), seed=0)
        tuner.tune(n_trial=16, batch_size=8)
        assert sum(r.valid for r in tuner.records[:8]) == 8
        assert fits == [8]

    def test_adopted_model_scores_the_first_batch_unrefit(self, monkeypatch):
        # The warm rows queue a fit; adopting a pre-fit model drops it, so
        # the first batch is scored by the adopted model and nothing fits.
        task = _make_task(size=32)
        db = TuningDatabase()
        measurer = Measurer(number=1, seed=0)
        for cfg in task.config_space.sample(10):
            record, = measurer.measure([MeasureInput(task, cfg)])
            if record.valid:
                db.record(task, cfg, record.mean_time)
        rows = np.stack([task.feature_vector(i) for i in range(16)])
        pretrained = GradientBoostedTrees(seed=5).fit(
            rows, np.linspace(0.1, 1.0, len(rows)))
        fits, scored = [], []
        real_predict = pretrained.predict
        monkeypatch.setattr(GradientBoostedTrees, "fit",
                            lambda model, x, y: fits.append(model))
        monkeypatch.setattr(pretrained, "predict",
                            lambda x: scored.append(len(x)) or real_predict(x))
        tuner = ModelBasedTuner(task, seed=0)
        assert tuner.warm_start(db) >= 8
        tuner.adopt_pretrained(pretrained)
        assert len(tuner.next_batch(8)) == 8
        assert fits == [] and scored

    def test_measurer_counts_measurements(self):
        task = _make_cpu_task(size=16)
        measurer = Measurer(number=1)
        tuner = RandomTuner(task, seed=0)
        tuner.tune(n_trial=8, measurer=measurer, batch_size=4)
        assert measurer.num_measured == len(tuner.records)


class TestTuningDatabase:
    def test_record_and_best(self):
        task = _make_cpu_task(size=16)
        database = TuningDatabase()
        config_a = task.config_space.get(0)
        config_b = task.config_space.get(1)
        database.record(task, config_a, 2e-3)
        database.record(task, config_b, 1e-3)
        best = database.best(task.name, task.target.name)
        assert best.config_index == config_b.index
        assert len(database) == 2

    def test_best_unknown_task_is_none(self):
        assert TuningDatabase().best("nope") is None

    def test_round_trip_through_file(self, tmp_path):
        task = _make_cpu_task(size=16)
        path = str(tmp_path / "log.jsonl")
        database = TuningDatabase(path)
        database.record(task, task.config_space.get(2), 5e-4)
        reloaded = TuningDatabase(path)
        assert len(reloaded) == 1
        assert reloaded.best(task.name).config_index == 2


class TestFallbackSearch:
    def test_returns_finite_best(self):
        task = _make_task(size=32)
        best_time, best_index = fallback_search(task, task.target, n_random=8,
                                                climb_rounds=1, seed=0)
        assert math.isfinite(best_time)
        assert 0 <= best_index < len(task.config_space)

    def test_hill_climbing_never_hurts(self):
        task = _make_task(size=32)
        no_climb, _ = fallback_search(task, task.target, n_random=8,
                                      climb_rounds=0, seed=5)
        with_climb, _ = fallback_search(task, task.target, n_random=8,
                                        climb_rounds=2, seed=5)
        assert with_climb <= no_climb

    def test_deterministic_for_fixed_seed(self):
        task = _make_task(size=32)
        first = fallback_search(task, task.target, n_random=6, climb_rounds=1, seed=9)
        second = fallback_search(task, task.target, n_random=6, climb_rounds=1, seed=9)
        assert first == second
