"""Tests for the unified tuning session: ``repro.autotune``, its tuner
names, ``TuningOptions``, the measurement pipeline, ``ApplyHistoryBest``
history-based compilation, the tuning database dedupe/persistence
behaviour, its writer lock and trial log, and transfer from a tuning log."""

import importlib.util
import json
import logging
import math
import os
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import autotvm
from repro.autotvm import (
    ApplyHistoryBest,
    DatabaseWriteConflictError,
    GATuner,
    Measurer,
    ModelBasedTuner,
    ProgressEvent,
    RandomTuner,
    TuningDatabase,
    TuningOptions,
    TuningReport,
)
from repro.graph.ir import Graph, Node
from repro.graph.ops import OP_REGISTRY
from repro.hardware import arm_cpu, cuda


def conv_graph(ci=16, hw=16, co=16, kernel=3, stride=1, padding=1):
    """A small one-convolution graph (cheap to tune)."""
    data = Node("null", "data")
    data.shape = (1, ci, hw, hw)
    data.dtype = "float32"
    weight = Node("null", "weight")
    weight.shape = (co, ci, kernel, kernel)
    weight.dtype = "float32"
    conv = Node("conv2d", "conv", [data, weight],
                {"strides": stride, "padding": padding})
    conv.dtype = "float32"
    conv.shape = OP_REGISTRY["conv2d"].infer_shape(
        [data.shape, weight.shape], conv.attrs)
    return Graph([conv])


@pytest.fixture(scope="module")
def small_task():
    task, = autotvm.extract_tasks(conv_graph(), cuda())
    return task


# ---------------------------------------------------------------------------
# Tuner names: the session's one name -> tuner table
# ---------------------------------------------------------------------------

class TestTunerRegistry:
    def test_builtin_tuners_registered(self):
        from repro.autotvm.tuner import _TUNERS

        assert _TUNERS == {"random": RandomTuner, "ga": GATuner,
                           "model": ModelBasedTuner}

    def test_unknown_tuner_fails_loudly(self):
        with pytest.raises(ValueError, match=r"'modle'; valid tuners: "
                                             r"\['ga', 'model', 'random'\]"):
            repro.autotune(conv_graph(), cuda(), tuner="modle")     # typo

    def test_autotune_validates_tuner_before_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("tasks extracted before the tuner check")

        monkeypatch.setattr(autotvm.session, "_extract_task_nodes", no_work)
        with pytest.raises(ValueError, match="valid tuners"):
            repro.autotune(conv_graph(), cuda(), tuner="nope",
                           options=TuningOptions(trials=2))

    def test_the_tuning_service_is_gone(self):
        # Tuning knowledge is shared through a database file; there is no
        # server package and no session option naming one.
        assert importlib.util.find_spec("repro.autotvm.service") is None
        assert "service" not in {f.name for f in
                                 TuningOptions.__dataclass_fields__.values()}


# ---------------------------------------------------------------------------
# TuningOptions
# ---------------------------------------------------------------------------

class TestTuningOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuningOptions(trials=0)
        with pytest.raises(ValueError):
            TuningOptions(batch_size=-1)
        with pytest.raises(ValueError):
            TuningOptions(early_stopping=0)
        with pytest.raises(ValueError):
            TuningOptions(n_parallel=0)

    def test_overridden_ignores_none(self):
        opts = TuningOptions(trials=32, tuner="ga")
        same = opts.overridden(trials=None, tuner=None)
        assert same.trials == 32 and same.tuner == "ga"
        changed = opts.overridden(trials=8)
        assert changed.trials == 8 and changed.tuner == "ga"
        assert opts.trials == 32                    # original untouched


# ---------------------------------------------------------------------------
# The round trip: autotune -> ApplyHistoryBest -> compile
# ---------------------------------------------------------------------------

class KernelObserver:
    """Records which of a module's generated kernels used tuned configs."""

    def __init__(self, module):
        self.kernels = list(module.kernels)

    @property
    def tuned(self):
        return [k for k in self.kernels if k.tuned]


class TestAutotuneRoundTrip:
    @pytest.fixture(scope="class")
    def report(self):
        return repro.autotune(conv_graph(), target="cuda", trials=16,
                              options=TuningOptions(seed=0, batch_size=8))

    def test_report_structure(self, report):
        assert isinstance(report, TuningReport)
        assert len(report) == 1
        result = report.results[0]
        assert result.task_name.startswith("conv2d_")
        assert result.trials == 16
        assert len(result.curve) == 16
        # fig12-ready: best-so-far curve is non-increasing
        assert all(b <= a for a, b in zip(result.curve, result.curve[1:]))
        assert math.isfinite(result.estimate)
        assert result.elapsed > 0 and report.elapsed >= result.elapsed
        assert len(report.database) == 1
        assert "conv2d" in report.summary()

    def test_history_best_compile_uses_tuned_configs(self, report):
        graph = conv_graph()
        untuned = repro.compile(graph, target="cuda")
        assert untuned.tuned_kernels == 0

        with report.apply_history_best() as history:
            tuned = repro.compile(conv_graph(), target="cuda")
        observer = KernelObserver(tuned)
        assert history.hits >= 1
        assert len(observer.tuned) == 1             # the conv kernel
        assert tuned.tuned_kernels == 1
        assert tuned.total_time <= untuned.total_time

    def test_tuning_db_kwarg_is_gone(self, report):
        with pytest.raises(TypeError, match="tuning_db"):
            repro.compile(conv_graph(), target="cuda",
                          tuning_db=report.database)

    def test_apply_history_best_nesting_and_current(self, report):
        assert ApplyHistoryBest.current() is None
        outer = ApplyHistoryBest(report.database)
        inner = ApplyHistoryBest(TuningDatabase())
        with outer:
            assert ApplyHistoryBest.current() is outer
            with inner:
                assert ApplyHistoryBest.current() is inner
            assert ApplyHistoryBest.current() is outer
        assert ApplyHistoryBest.current() is None

    def test_never_regresses_untuned_build(self):
        # One trial of pure random search cannot beat the fallback heuristic;
        # the regression floor must kick in so compiling with history is
        # still no worse than the untuned build.
        report = repro.autotune(conv_graph(co=32), target="cuda", trials=1,
                                tuner="random",
                                options=TuningOptions(seed=3, batch_size=1))
        untuned = repro.compile(conv_graph(co=32), target="cuda")
        with report.apply_history_best():
            tuned = repro.compile(conv_graph(co=32), target="cuda")
        assert tuned.total_time <= untuned.total_time
        assert tuned.tuned_kernels == 1

    def test_autotune_rejects_bad_target_and_model(self):
        with pytest.raises(ValueError, match="Unknown target"):
            repro.autotune(conv_graph(), target="cudaa", trials=2)
        with pytest.raises(KeyError, match="Unknown model"):
            repro.autotune("resnet-1800", target="cuda", trials=2)


class TestProgressAndLogging:
    def test_progress_callbacks_receive_events(self):
        events = []
        repro.autotune(conv_graph(), target="cuda", trials=8,
                       options=TuningOptions(seed=0, batch_size=4,
                                             callbacks=[events.append]))
        assert len(events) == 2                     # two batches of 4
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert events[-1].trial == 8
        assert events[-1].done
        assert events[0].best_time >= events[-1].best_time
        assert events[0].task_name.startswith("conv2d_")
        assert all(len(e.batch_times) == 4 for e in events)

    def test_tuning_logs_to_repro_autotvm_logger(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.autotvm"):
            repro.autotune(conv_graph(), target="cuda", trials=4,
                           tuner="random")
        assert any(r.name == "repro.autotvm" for r in caplog.records)
        assert any("tuning session" in r.message for r in caplog.records)

    def test_early_stopping_cuts_the_budget(self, small_task):
        tuner = RandomTuner(small_task, seed=0)
        tuner.tune(n_trial=64, batch_size=4, early_stopping=8,
                   measurer=Measurer(number=1, seed=0))
        assert len(tuner.records) < 64

    def test_early_stopping_emits_terminal_event(self):
        events = []
        repro.autotune(conv_graph(), target="cuda", trials=64, tuner="random",
                       options=TuningOptions(seed=0, batch_size=4,
                                             early_stopping=4,
                                             ensure_no_regression=False,
                                             callbacks=[events.append]))
        assert events[-1].done
        assert events[-1].trial < 64


# ---------------------------------------------------------------------------
# The measurement pipeline
# ---------------------------------------------------------------------------

def _broken_input(task, message):
    """A measure input whose build half raises ``message``."""
    broken = autotvm.MeasureInput(task, task.config_space.get(0))
    broken.task = types.SimpleNamespace(
        name=task.name, target=task.target,
        features_of=lambda index: (_ for _ in ()).throw(RuntimeError(message)))
    return broken


class TestMeasurer:
    @pytest.mark.parametrize("n_parallel", [1, 2, 6])
    def test_backends_bit_identical(self, small_task, n_parallel):
        """The thread count never changes a record."""
        def fingerprint(records):
            return [(r.input.config.index, r.mean_time, r.error)
                    for r in records]

        inputs = [autotvm.MeasureInput(small_task, cfg)
                  for cfg in small_task.config_space.sample(8)]
        reference = fingerprint(Measurer(number=3, seed=11).measure(inputs))
        assert any(error is None for _, _, error in reference)

        measurer = Measurer(number=3, seed=11, n_parallel=n_parallel)
        assert fingerprint(measurer.measure(inputs)) == reference
        assert measurer.num_measured == len(inputs)

    def test_parallel_tuning_matches_serial_tuning(self, small_task):
        def run(measurer):
            tuner = RandomTuner(small_task, seed=4)
            tuner.tune(n_trial=16, batch_size=8, measurer=measurer)
            return [(r.config_index, r.mean_time) for r in tuner.records]

        assert run(Measurer(number=2, seed=4)) == \
            run(Measurer(n_parallel=6, number=2, seed=4))

    def test_build_errors_become_invalid_records(self, small_task):
        good = autotvm.MeasureInput(small_task, small_task.config_space.get(1))
        measurer = Measurer(n_parallel=4, number=1)
        records = measurer.measure([_broken_input(small_task, "boom"), good])
        assert not records[0].valid and "boom" in records[0].error
        assert records[1].valid

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            Measurer(n_parallel=0)


# ---------------------------------------------------------------------------
# Determinism across seeds (satellite: previously untested)
# ---------------------------------------------------------------------------

class TestTunerDeterminism:
    @pytest.mark.parametrize("tuner_cls", [RandomTuner, GATuner, ModelBasedTuner])
    def test_same_seed_same_trajectory(self, small_task, tuner_cls):
        def run(seed):
            tuner = tuner_cls(small_task, seed=seed)
            tuner.tune(n_trial=20, batch_size=5,
                       measurer=Measurer(number=2, seed=seed))
            return [(r.config_index, r.mean_time) for r in tuner.records]

        assert run(7) == run(7)

    def test_different_seed_different_trajectory(self, small_task):
        def run(seed):
            tuner = RandomTuner(small_task, seed=seed)
            tuner.tune(n_trial=12, batch_size=4,
                       measurer=Measurer(number=1, seed=seed))
            return [r.config_index for r in tuner.records]

        assert run(1) != run(2)


# ---------------------------------------------------------------------------
# _random_unvisited scaling (satellite: quadratic membership probing fix)
# ---------------------------------------------------------------------------

class TestRandomUnvisitedScaling:
    def _big_space_tuner(self, knobs=4, per_knob=12):
        space = autotvm.ConfigSpace()
        for i in range(knobs):
            space.define_knob(f"k{i}", list(range(per_knob)))
        task = types.SimpleNamespace(config_space=space, name="big",
                                     operator="big")
        return RandomTuner(task, seed=0), len(space)

    def test_large_batch_is_unique_and_fast(self):
        tuner, total = self._big_space_tuner()   # 12^4 = 20736 configs
        start = time.perf_counter()
        batch = tuner.next_batch(4096)
        elapsed = time.perf_counter() - start
        indices = [c.index for c in batch]
        assert len(indices) == 4096
        assert len(set(indices)) == 4096
        assert all(0 <= i < total for i in indices)
        # The old quadratic membership probe took seconds here; the set-based
        # bookkeeping finishes in well under a second even on slow CI.
        assert elapsed < 2.0

    def test_exhausts_space_without_duplicates(self):
        tuner, total = self._big_space_tuner(knobs=2, per_knob=8)  # 64 configs
        seen = set()
        while True:
            batch = tuner.next_batch(16)
            if not batch:
                break
            for cfg in batch:
                assert cfg.index not in seen
                seen.add(cfg.index)
                tuner._visited.add(cfg.index)
        assert len(seen) == total


# ---------------------------------------------------------------------------
# Tuning database: dedupe, path binding, compaction, features
# ---------------------------------------------------------------------------

class TestTuningDatabase:
    def test_load_binds_path(self, tmp_path, small_task):
        path = str(tmp_path / "log.jsonl")
        TuningDatabase(path).record(small_task, small_task.config_space.get(1),
                                    1e-3)
        db = TuningDatabase()
        db.load(path)
        assert db.path == path
        # adds after load() persist to the same file
        db.record(small_task, small_task.config_space.get(2), 2e-3)
        assert len(TuningDatabase(path)) == 2

    def test_duplicate_add_keeps_best_time(self, small_task):
        db = TuningDatabase()
        cfg = small_task.config_space.get(3)
        db.record(small_task, cfg, 2e-3)
        db.record(small_task, cfg, 1e-3)           # better: replaces
        db.record(small_task, cfg, 5e-3)           # worse: ignored
        assert len(db) == 1
        assert db.best(small_task.name).mean_time == 1e-3

    def test_append_reload_cycles_do_not_bloat(self, tmp_path, small_task):
        path = str(tmp_path / "log.jsonl")
        cfg = small_task.config_space.get(4)
        for _ in range(5):
            db = TuningDatabase(path)
            db.record(small_task, cfg, 1.5e-3)     # same entry every cycle
        final = TuningDatabase(path)
        assert len(final) == 1
        # Only the first cycle wrote a line: later identical records are
        # recognised as duplicates against the loaded (deduped) state.
        with open(path) as handle:
            assert len(handle.readlines()) == 1

    def test_compact_rewrites_log(self, tmp_path, small_task):
        path = str(tmp_path / "log.jsonl")
        cfg = small_task.config_space.get(0)
        db = TuningDatabase(path)
        for t in (3e-3, 2e-3, 1e-3):               # two improvements append
            db.record(small_task, cfg, t)
        with open(path) as handle:
            assert len(handle.readlines()) == 3
        db.compact()
        with open(path) as handle:
            assert len(handle.readlines()) == 1
        assert TuningDatabase(path).best(small_task.name).mean_time == 1e-3

    def test_features_round_trip(self, tmp_path, small_task):
        path = str(tmp_path / "log.jsonl")
        db = TuningDatabase(path)
        db.record(small_task, small_task.config_space.get(5), 1e-3,
                  features=[1.0, 2.0, 3.0])
        entry = TuningDatabase(path).best(small_task.name)
        assert entry.features == [1.0, 2.0, 3.0]
        assert entry.operator == "conv2d"

    # -- the writer lock: one writer per log file ------------------------------
    def test_two_writers_conflict(self, tmp_path):
        path = str(tmp_path / "db.jsonl")
        entry = autotvm.TuningLogEntry("conv2d_(a)", "cuda", 0, {}, 1e-5)
        first = TuningDatabase(path)
        first.add(entry)
        second = TuningDatabase(path)
        with pytest.raises(DatabaseWriteConflictError, match="one log each"):
            second.add(autotvm.TuningLogEntry("conv2d_(b)", "cuda", 0, {},
                                              1e-5))
        first.close()
        # once the holder releases, the second writer proceeds
        second.add(autotvm.TuningLogEntry("conv2d_(b)", "cuda", 0, {}, 1e-5))
        second.close()

    def test_lock_released_on_close_and_reload(self, tmp_path):
        path = str(tmp_path / "db.jsonl")
        with TuningDatabase(path) as db:
            db.add(autotvm.TuningLogEntry("conv2d_(a)", "cuda", 1, {}, 1e-5))
        reread = TuningDatabase(path)
        assert len(reread) == 1
        reread.add(autotvm.TuningLogEntry("conv2d_(a)", "cuda", 2, {}, 2e-5))
        reread.close()

    def test_compact_is_atomic_and_fsynced(self, tmp_path):
        path = str(tmp_path / "db.jsonl")
        db = TuningDatabase(path)
        for i in range(5):
            db.add(autotvm.TuningLogEntry("conv2d_(a)", "cuda", 0, {},
                                          1e-5 / (i + 1)))
        db.compact()
        db.close()
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        assert not [p for p in os.listdir(tmp_path)
                    if p.startswith("db.jsonl.tmp")]

    def test_load_moves_the_lock_to_the_new_path(self, tmp_path):
        # Rebinding to another log releases the lock on the old one, so the
        # new path gets a real writer lock of its own.
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        open(b, "w").close()
        db = TuningDatabase(a)
        db.add(autotvm.TuningLogEntry("conv2d_(a)", "cuda", 0, {}, 1e-5))
        db.load(b)
        other = TuningDatabase(b)
        other.add(autotvm.TuningLogEntry("conv2d_(b)", "cuda", 0, {}, 1e-5))
        with pytest.raises(DatabaseWriteConflictError):
            db.add(autotvm.TuningLogEntry("conv2d_(c)", "cuda", 0, {}, 1e-5))
        other.close()
        TuningDatabase(a).add(                   # a.jsonl's lock is free
            autotvm.TuningLogEntry("conv2d_(d)", "cuda", 0, {}, 1e-5))
        db.close()

    # -- the trial log -----------------------------------------------------------
    def test_trial_log_keeps_the_first_row_and_persists(self, tmp_path,
                                                        small_task):
        path = str(tmp_path / "log.jsonl")
        inputs = [autotvm.MeasureInput(small_task, cfg)
                  for cfg in small_task.config_space.sample(4)]
        records = Measurer(number=1, seed=0).measure(inputs)
        failed = autotvm.MeasureResultRecord(
            autotvm.MeasureInput(small_task, small_task.config_space.get(9)),
            float("inf"), None, error="boom")
        with TuningDatabase(path) as db:
            db.record(small_task, records[0].input.config, 1.0)
            assert db.log_trials(records + [failed]) == 5
            # a second measurement of a logged config keeps the first row
            later = autotvm.MeasureResultRecord(records[0].input, 1.0)
            assert db.log_trials([later]) == 0
            first = db.trials[(small_task.name, "cuda",
                               records[0].input.config.index)]
            assert first["time"] == records[0].mean_time
            # the row holds the memoised read-only vector, not a copy
            assert first["features"] is records[0].features.vector()
        reread = TuningDatabase(path)
        assert len(reread) == 1 and len(reread.trials) == 5
        assert list(reread.trials) == list(db.trials)
        for key, row in db.trials.items():
            back = reread.trials[key]
            assert back["time"] == row["time"]
            assert back["error"] == row["error"]
            if row["features"] is None:
                assert back["features"] is None
            else:
                assert back["features"] == list(row["features"])

    def test_a_trial_log_without_bests_is_read_back(self, tmp_path):
        # A session that died before its first best leaves only the trial
        # log beside a path with no bests file.
        path = str(tmp_path / "log.jsonl")
        with open(path + ".trials", "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "task": "conv2d_(a)", "target": "cuda", "config_index": 3,
                "time": 1e-5, "error": None, "features": [1.0, 2.0]}) + "\n")
        with TuningDatabase(path) as db:
            assert len(db) == 0 and not os.path.exists(path)
            assert db.trials == {("conv2d_(a)", "cuda", 3): {
                "time": 1e-5, "error": None, "features": [1.0, 2.0]}}


# ---------------------------------------------------------------------------
# Transfer learning warm start
# ---------------------------------------------------------------------------

class TestWarmStart:
    def test_warm_start_from_same_workload_history(self, small_task):
        db = TuningDatabase()
        measurer = Measurer(number=1, seed=0)
        for cfg in small_task.config_space.sample(10):
            record, = measurer.measure([autotvm.MeasureInput(small_task, cfg)])
            if record.valid:
                db.record(small_task, cfg, record.mean_time)
        tuner = ModelBasedTuner(small_task, seed=0)
        added = tuner.warm_start(db)
        assert added >= 8
        assert tuner._trained            # first batch will be model-guided

    def test_warm_start_from_stored_features_of_other_shapes(self, small_task):
        # Entries from a *different* conv workload transfer through their
        # stored feature vectors.
        other_task, = autotvm.extract_tasks(conv_graph(ci=8, hw=8, co=8),
                                            cuda())
        assert other_task.name != small_task.name
        db = TuningDatabase()
        measurer = Measurer(number=1, seed=0)
        for cfg in other_task.config_space.sample(10):
            record, = measurer.measure([autotvm.MeasureInput(other_task, cfg)])
            if record.valid:
                db.record(other_task, cfg, record.mean_time,
                          features=record.features.to_vector())
        tuner = ModelBasedTuner(small_task, seed=0)
        assert tuner.warm_start(db) >= 8

    def test_warm_start_ignores_unrelated_operators(self, small_task):
        db = TuningDatabase()
        db.add(autotvm.TuningLogEntry("dense_(1, 64, 64, 'float32')", "cuda",
                                      0, {}, 1e-3, features=[1.0] * 4))
        tuner = ModelBasedTuner(small_task, seed=0)
        assert tuner.warm_start(db) == 0

    def test_session_warm_start_reported(self, small_task):
        first = repro.autotune(conv_graph(), cuda(), trials=16, tuner="model",
                               options=TuningOptions(seed=0))
        second = repro.autotune(conv_graph(), cuda(), trials=8, tuner="model",
                                options=TuningOptions(seed=1),
                                database=first.database)
        assert second.results[0].task_name == small_task.name
        assert second.results[0].warm_samples > 0

    def test_cross_shape_transfer_through_public_api(self):
        # History of conv shape A, gathered through plain repro.autotune,
        # warm-starts a session on a *different* conv shape B — and cannot
        # make B's recorded best worse than tuning B cold.
        opts = TuningOptions(trials=16, seed=0)
        shape_a = repro.autotune(conv_graph(co=32), target=cuda(),
                                 options=opts)
        cold = repro.autotune(conv_graph(co=48), target=cuda(), options=opts)
        warm = repro.autotune(conv_graph(co=48), target=cuda(), options=opts,
                              database=shape_a.database)
        warm_result, = warm.results
        cold_result, = cold.results
        assert warm_result.task_name != shape_a.results[0].task_name
        assert warm_result.warm_samples > 0
        assert warm_result.estimate <= cold_result.estimate * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Transfer from a tuning log: the pre-fit cost model
# ---------------------------------------------------------------------------

def _load_bench_tuning():
    """``benchmarks/bench_tuning.py`` as a module (it imports ``common``
    from its own directory)."""
    bench_dir = Path(__file__).resolve().parents[1] / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_tuning", bench_dir / "bench_tuning.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench_dir))
    return module


class TestTransferFromALog:
    OPTS = dict(trials=12, seed=0, batch_size=4)

    @staticmethod
    def _entries(count, dim, seed=1):
        rng = np.random.default_rng(seed)
        return [autotvm.TuningLogEntry(f"conv2d_({i})", "cuda", i, {},
                                       1e-5 * (1 + i),
                                       features=list(rng.random(dim)))
                for i in range(count)]

    def test_prefit_from_database_rows(self):
        db = TuningDatabase()
        for entry in self._entries(10, 6):
            db.add(entry)
        specs = autotvm.session._prefit_models(
            db, {("conv2d", "cuda"), ("dense", "cuda"), ("conv2d", "mali")})
        assert list(specs) == [("conv2d", "cuda")]
        model = autotvm.GradientBoostedTrees.from_spec(specs["conv2d",
                                                             "cuda"])
        rng = np.random.default_rng(2)
        assert model.predict(rng.random((3, 6))).shape == (3,)

    def test_too_few_rows_skip_the_prefit(self):
        db = TuningDatabase()
        for entry in self._entries(7, 2):
            db.add(entry)
        assert autotvm.session._prefit_models(db, {("conv2d", "cuda")}) == {}

    def test_empty_file_database_is_bit_identical_to_none(self, tmp_path):
        def fingerprint(report):
            return [(r.task_name, r.best_config.index, r.estimate,
                     tuple(r.curve), r.warm_samples, r.pretrained)
                    for r in report]

        options = TuningOptions(**self.OPTS)
        bare = repro.autotune(conv_graph(), target=cuda(), options=options)
        with TuningDatabase(str(tmp_path / "log.jsonl")) as db:
            filed = repro.autotune(conv_graph(), target=cuda(),
                                   options=options, database=db)
        assert fingerprint(filed) == fingerprint(bare)
        assert len(db.trials) == bare.total_trials

    def test_transfer_from_a_reopened_file_database(self, tmp_path):
        # Random history keeps this cheap: a session with a pre-fit model
        # lowers every candidate its annealer scores.
        path = str(tmp_path / "history.jsonl")
        options = TuningOptions(trials=8, seed=0, batch_size=4)
        with TuningDatabase(path) as history:
            for co in (16, 24):
                repro.autotune(conv_graph(co=co), target=cuda(),
                               tuner="random", options=options,
                               database=history)
        with TuningDatabase(path) as reopened:
            assert len(reopened) == 2 and len(reopened.trials) == 16
            result, = repro.autotune(conv_graph(co=40), target=cuda(),
                                     trials=4, options=options,
                                     database=reopened).results
        assert result.pretrained
        assert result.warm_samples > 0
        # without the database neither half of the transfer happens
        cold, = repro.autotune(conv_graph(co=40), target=cuda(), trials=4,
                               options=options).results
        assert not cold.pretrained and cold.warm_samples == 0

    def test_trials_sidecar_in_the_service_row_format_prefits(self,
                                                             tmp_path):
        # A tuning service of earlier releases wrote ``<path>.trials`` rows
        # of exactly these keys, in this order; such a database loads as is.
        path = str(tmp_path / "served.jsonl")
        open(path, "w").close()
        task, = autotvm.extract_tasks(conv_graph(co=24), cuda())
        records = Measurer(number=1, seed=0).measure(
            [autotvm.MeasureInput(task, cfg)
             for cfg in task.config_space.sample(10)])
        with open(path + ".trials", "w", encoding="utf-8") as handle:
            for rec in records:
                handle.write(json.dumps({
                    "task": task.name, "target": "cuda",
                    "config_index": rec.input.config.index,
                    "time": rec.mean_time, "error": rec.error,
                    "features": ([float(v) for v in rec.features.vector()]
                                 if rec.features is not None else None)})
                    + "\n")
        db = TuningDatabase(path)
        assert len(db.trials) == 10
        assert autotvm.session._prefit_models(db, {("conv2d", "cuda")})
        result, = repro.autotune(conv_graph(co=40), target=cuda(),
                                 options=TuningOptions(trials=4,
                                                       batch_size=4),
                                 database=db).results
        db.close()
        assert result.pretrained and result.warm_samples == 0

    def test_trials_to_target_of_the_transfer_benchmark(self):
        trials_to_target = _load_bench_tuning().trials_to_target
        assert trials_to_target([3.0, 2.0, 1.0], 1.0) == 3
        assert trials_to_target([3.0, 1.04, 1.0], 1.0) == 2   # within 5%
        assert trials_to_target([3.0, 2.0], 1.0) is None
        assert trials_to_target([], 1.0) is None
        assert trials_to_target([1.0], float("inf")) is None


# ---------------------------------------------------------------------------
# The issue's acceptance round trip, verbatim: a zoo model tuned end to end
# ---------------------------------------------------------------------------

class TestAcceptanceRoundTripResnet18:
    @pytest.fixture(scope="class")
    def session(self):
        report = repro.autotune("resnet18", target="gpu", trials=16)
        untuned = repro.compile("resnet18", target="gpu")
        with report.apply_history_best() as history:
            tuned = repro.compile("resnet18", target="gpu")
        return report, untuned, tuned, history, KernelObserver(tuned)

    def test_tasks_extracted_and_tuned(self, session):
        report, _untuned, _tuned, _history, _observer = session
        assert len(report) >= 10                   # resnet18's unique workloads
        assert all(len(r.curve) == r.trials for r in report)
        assert len(report.database) == len(report)

    def test_compile_inside_context_uses_tuned_configs(self, session):
        _report, _untuned, tuned, history, observer = session
        assert history.hits > 0
        assert tuned.tuned_kernels > 0
        assert len(observer.tuned) == tuned.tuned_kernels

    def test_tuned_latency_not_worse_than_untuned(self, session):
        _report, untuned, tuned, _history, _observer = session
        assert tuned.total_time <= untuned.total_time
        assert untuned.tuned_kernels == 0


# ---------------------------------------------------------------------------
# Model-zoo parity with repro.compile inputs
# ---------------------------------------------------------------------------

class TestModelInputParity:
    def test_zoo_name_separator_insensitive(self):
        from repro.frontend.models import get_model

        direct = get_model("resnet-18")
        relaxed = get_model("resnet18")
        assert len(direct[0].nodes) == len(relaxed[0].nodes)
        with pytest.raises(KeyError):
            get_model("resnet-999")

    def test_extract_tasks_accepts_compile_model_forms(self):
        graph = conv_graph()
        from_graph = autotvm.extract_tasks(graph, "cuda")
        from_tuple = autotvm.extract_tasks((graph, {}), cuda())
        assert [t.name for t in from_graph] == [t.name for t in from_tuple]
        zoo = autotvm.extract_tasks("dqn", "cuda")
        assert len(zoo) >= 1
