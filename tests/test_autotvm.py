"""Tests for the automated optimization framework (config spaces, cost models,
tuners, measurement, tuning database)."""

import numpy as np
import pytest

from repro import autotvm, te, tir
from repro.autotvm.cost_model import rank_correlation
from repro.hardware import cuda
from repro.topi import nn
from repro.topi.schedules import gpu as gpu_sched


def matmul_template(cfg, m, n, k):
    A = te.placeholder((m, k), name="A")
    B = te.placeholder((k, n), name="B")
    C = nn.matmul(A, B)
    return gpu_sched.matmul_gpu_template(cfg, A, B, C)


@pytest.fixture(scope="module")
def matmul_task():
    return autotvm.Task("matmul_64", matmul_template, (64, 64, 64), cuda())


def test_config_space_enumeration():
    space = autotvm.ConfigSpace()
    split = space.define_split("tile", 16, num_outputs=2)
    knob = space.define_knob("unroll", [0, 1])
    assert isinstance(split, autotvm.SplitEntity)
    assert knob.val == 0
    assert len(space) == 5 * 2            # divisors of 16 -> 5 factorizations
    # Index round trip.
    for index in range(len(space)):
        cfg = space.get(index)
        assert cfg.index == index
        knobs = space.knob_indices(index)
        assert space.index_of(dict(zip(space.knob_names, knobs))) == index


def test_split_entity_product_preserved():
    space = autotvm.ConfigSpace()
    space.define_split("tile", 24, num_outputs=3)
    for cfg in space.sample(10):
        sizes = cfg["tile"].size
        product = 1
        for value in sizes:
            product *= value
        assert product == 24


def test_task_instantiation_and_flop(matmul_task):
    assert len(matmul_task.config_space) > 10
    cfg = matmul_task.config_space.get(0)
    schedule, tensors = matmul_task.instantiate(cfg)
    assert isinstance(schedule, te.Schedule)
    func = matmul_task.lower(cfg)
    assert isinstance(func, tir.LoweredFunc)
    assert matmul_task.flop == pytest.approx(2 * 64 ** 3, rel=0.05)


def test_local_measurer_handles_valid_and_counts(matmul_task):
    measurer = autotvm.Measurer(number=2)
    inputs = [autotvm.MeasureInput(matmul_task, cfg)
              for cfg in matmul_task.config_space.sample(3)]
    results = measurer.measure(inputs)
    assert len(results) == 3
    assert measurer.num_measured == 3
    assert all(r.mean_time > 0 for r in results)
    assert any(r.valid for r in results)


def test_gbt_cost_model_learns_ranking():
    rng = np.random.default_rng(0)
    x = rng.random((60, 8))
    # Ground truth: throughput dominated by two features.
    y = 3 * x[:, 0] + x[:, 3] + 0.05 * rng.random(60)
    model = autotvm.GradientBoostedTrees(num_rounds=30, loss="rank", seed=0)
    model.fit(x, y)
    pred = model.predict(x)
    assert rank_correlation(pred, y) > 0.7


def test_gbt_regression_loss_and_small_data():
    model = autotvm.GradientBoostedTrees(loss="reg")
    model.fit(np.zeros((2, 3)), np.array([1.0, 2.0]))   # too little data: base only
    assert model.predict(np.zeros((1, 3)))[0] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        autotvm.GradientBoostedTrees(loss="huber")


def test_tuners_find_better_than_median(matmul_task):
    measurer = autotvm.Measurer(number=1)
    sample = [autotvm.MeasureInput(matmul_task, cfg)
              for cfg in matmul_task.config_space.sample(24)]
    sample_times = [r.mean_time for r in measurer.measure(sample) if r.valid]
    median = float(np.median(sample_times))
    for tuner_cls in (autotvm.RandomTuner, autotvm.GATuner, autotvm.ModelBasedTuner):
        tuner = tuner_cls(matmul_task, seed=0)
        best = tuner.tune(n_trial=24, batch_size=8,
                          measurer=autotvm.Measurer(number=1))
        assert best is not None
        assert tuner.best_time <= median
        history = tuner.best_history()
        assert len(history) == len(tuner.records)
        assert all(b >= a for a, b in zip(history[1:], history[:-1]))  # non-increasing


def test_tuning_database_roundtrip(tmp_path, matmul_task):
    path = tmp_path / "log.jsonl"
    database = autotvm.TuningDatabase(str(path))
    cfg = matmul_task.config_space.get(3)
    database.record(matmul_task, cfg, 1.5e-4)
    database.record(matmul_task, matmul_task.config_space.get(5), 1.0e-4)
    reloaded = autotvm.TuningDatabase(str(path))
    assert len(reloaded) == 2
    best = reloaded.best(matmul_task.name)
    assert best.config_index == 5
    assert reloaded.best("unknown-task") is None
