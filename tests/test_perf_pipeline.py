"""Tests for the candidate-evaluation fast path (PR 3).

Covers the shared featurisation LRU service on :class:`Task`, its
transparency (same results with a warm cache as from a cold start), the
vectorized cost models' bit-equality against per-row reference oracles
(kept here, not in the library), and the batch scoring APIs.
"""

import gc
import math
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro import autotvm, te, tir
from repro.autotvm import (
    FEATURE_CACHE,
    GradientBoostedTrees,
    Measurer,
    MeasureInput,
    ModelBasedTuner,
    RegressionTree,
    clear_eval_caches,
    eval_cache_stats,
)
from repro.autotvm.eval_cache import LOWERED_CACHE, LRUCache
from repro.frontend import get_model
from repro.graph import clear_timing_cache
from repro.graph.ir import Graph, Node
from repro.graph.op_timing import fallback_search, kernel_time, make_task_for_node
from repro.graph.ops import OP_REGISTRY
from repro.hardware import arm_cpu, cuda
from repro.te import expr as te_expr
from repro.te.expr import Expr, IntImm
from repro.tir.analysis import FEATURE_NAMES


def conv_graph(ci=16, hw=16, co=16, kernel=3, stride=1, padding=1):
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


@pytest.fixture
def fresh_caches():
    clear_timing_cache()
    yield
    clear_timing_cache()


@pytest.fixture
def small_task(fresh_caches):
    task, = autotvm.extract_tasks(conv_graph(), cuda())
    return task


# ---------------------------------------------------------------------------
# The LRU cache itself
# ---------------------------------------------------------------------------

class TestLRUCache:
    def test_put_get_and_stats(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert len(cache) == 1 and "a" in cache

    def test_evicts_one_least_recently_used_entry(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")                   # refresh a; b is now the oldest
        cache.put("d", "D")
        assert "b" not in cache          # single-entry eviction, not a wipe
        assert all(k in cache for k in "acd")
        assert len(cache) == 3

    def test_thread_safety_smoke(self):
        cache = LRUCache(64)

        def worker(base):
            for i in range(500):
                cache.put((base, i % 80), i)
                cache.get((base, (i * 7) % 80))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 64


# ---------------------------------------------------------------------------
# Task-level memoized service
# ---------------------------------------------------------------------------

class TestTaskEvalCache:
    def test_features_match_direct_lowering(self, small_task):
        config = small_task.config_space.get(3)
        direct = tir.extract_features(small_task.lower(config))
        cached = small_task.features_of(3)
        assert direct.to_vector() == cached.to_vector()
        assert direct.total_flops == cached.total_flops

    def test_a_measured_config_is_lowered_once(self, monkeypatch):
        """The measurer verifies a config, then reads its features: one
        lowering serves both (``Task._lower`` is where ``Task.lower`` and
        ``Task.features_of`` lower)."""
        clear_eval_caches()
        task = _zoo_conv_task("resnet-18", "cuda")
        configs = task.config_space.sample(16, random.Random(0))
        lowered = []
        real = autotvm.Task._lower

        def counted(self, config, build):
            lowered.append(config.index)
            return real(self, config, build)

        monkeypatch.setattr(autotvm.Task, "_lower", counted)
        results = Measurer(number=1, seed=0).measure(
            [MeasureInput(task, config) for config in configs])
        assert len(results) == len(configs)
        assert sorted(lowered) == sorted(c.index for c in configs)
        assert len(FEATURE_CACHE) == 2 * len(configs)   # features, verdict
        clear_eval_caches()

    def test_second_read_is_a_hit(self, small_task):
        small_task.features_of(5)
        before = eval_cache_stats()["features"]["hits"]
        small_task.features_of(5)
        assert eval_cache_stats()["features"]["hits"] == before + 1

    def test_shared_across_task_instances(self, small_task):
        twin, = autotvm.extract_tasks(conv_graph(), cuda())
        assert twin is not small_task and twin.name == small_task.name
        small_task.features_of(2)
        misses = eval_cache_stats()["features"]["misses"]
        twin.features_of(2)              # same workload+target+index: a hit
        assert eval_cache_stats()["features"]["misses"] == misses

    def test_same_name_different_args_do_not_collide(self, fresh_caches):
        from repro.topi import nn as topi_nn
        from repro.topi.schedules import gpu as gpu_sched
        from repro import te

        def matmul_template(cfg, m, n, k):
            a = te.placeholder((m, k), name="A")
            b = te.placeholder((k, n), name="B")
            c = topi_nn.matmul(a, b)
            return gpu_sched.matmul_gpu_template(cfg, a, b, c)

        small = autotvm.Task("clash", matmul_template, (8, 8, 8), cuda())
        large = autotvm.Task("clash", matmul_template, (64, 64, 64), cuda())
        assert small.flop != large.flop
        assert small.features_of(0).total_flops \
            != large.features_of(0).total_flops

    def test_different_names_same_workload_share_entries(self, fresh_caches):
        # Cache keys are normalised on the *workload* (template identity +
        # args + target), not the task name, so identically-shaped tasks
        # registered under different names share one lowering/featurisation.
        from repro.topi import nn as topi_nn
        from repro.topi.schedules import gpu as gpu_sched
        from repro import te

        def matmul_template(cfg, m, n, k):
            a = te.placeholder((m, k), name="A")
            b = te.placeholder((k, n), name="B")
            c = topi_nn.matmul(a, b)
            return gpu_sched.matmul_gpu_template(cfg, a, b, c)

        alpha = autotvm.Task("alpha_mm", matmul_template, (8, 8, 8), cuda())
        beta = autotvm.Task("beta_mm", matmul_template, (8, 8, 8), cuda())
        assert alpha.name != beta.name
        assert alpha.workload == beta.workload
        alpha.features_of(1)
        stats = eval_cache_stats()
        misses = stats["features"]["misses"]
        hits = stats["features"]["hits"]
        beta.features_of(1)              # different name, same workload: hit
        stats = eval_cache_stats()
        assert stats["features"]["misses"] == misses
        assert stats["features"]["hits"] == hits + 1

    def test_cached_failure_traceback_does_not_grow(self, small_task):
        original = small_task.template
        small_task.template = lambda cfg, *args: (_ for _ in ()).throw(
            RuntimeError("nope"))
        try:
            lengths = []
            for _ in range(3):
                try:
                    small_task.features_of(9)
                except RuntimeError as exc:
                    depth = 0
                    tb = exc.__traceback__
                    while tb is not None:
                        depth += 1
                        tb = tb.tb_next
                    lengths.append(depth)
            assert len(set(lengths)) == 1, f"traceback grew: {lengths}"
        finally:
            small_task.template = original

    def test_flop_computed_once_and_stable(self, small_task):
        flop_first = small_task.flop
        misses = eval_cache_stats()["features"]["misses"]
        for _ in range(10):
            assert small_task.flop == flop_first
        assert eval_cache_stats()["features"]["misses"] == misses
        assert flop_first > 0

    def test_failure_cached_and_replayed(self, small_task):
        original = small_task.template

        calls = {"n": 0}

        def exploding(cfg, *args):
            calls["n"] += 1
            raise RuntimeError("no schedule for you")

        small_task.template = exploding
        try:
            with pytest.raises(RuntimeError, match="no schedule for you"):
                small_task.features_of(7)
            with pytest.raises(RuntimeError, match="no schedule for you"):
                small_task.features_of(7)
            assert calls["n"] == 1       # the failing lowering ran only once
        finally:
            small_task.template = original

    def test_clear_eval_caches_empties_the_feature_cache(self, small_task):
        small_task.features_of(0)
        assert len(FEATURE_CACHE) > 0
        clear_eval_caches()
        assert len(FEATURE_CACHE) == 0


# ---------------------------------------------------------------------------
# Cache transparency: warm caches must never change results
# ---------------------------------------------------------------------------

class TestCacheTransparency:
    def test_kernel_time_identical_cold_vs_warm(self, fresh_caches):
        graph = conv_graph()
        node = graph.op_nodes[-1]
        target = cuda()
        cold = kernel_time(node, target)
        warm = kernel_time(node, target)                 # memoised estimate
        clear_timing_cache()
        recold = kernel_time(node, target)               # fully recomputed
        assert cold == warm == recold

    def test_fallback_search_identical_cold_vs_warm(self, fresh_caches):
        graph = conv_graph()
        node = graph.op_nodes[-1]
        target = arm_cpu()
        task = make_task_for_node(node, target)
        first = fallback_search(task, target, n_random=12, climb_rounds=2, seed=3)
        warm = fallback_search(task, target, n_random=12, climb_rounds=2, seed=3)
        clear_timing_cache()
        fresh_task = make_task_for_node(node, target)
        fresh = fallback_search(fresh_task, target, n_random=12,
                                climb_rounds=2, seed=3)
        assert first == warm == fresh

    def test_tuning_results_identical_cold_vs_warm(self, fresh_caches):
        def run_session():
            report = autotvm.autotune(conv_graph(), cuda(), trials=16,
                                      tuner="model")
            result, = report.results
            return (result.best_config.index, tuple(result.curve),
                    result.best_time)

        cold = run_session()
        warm = run_session()             # shared caches fully primed
        clear_timing_cache()
        recold = run_session()
        assert cold == warm == recold

    def test_measurer_results_identical_cold_vs_warm(self, small_task):
        inputs = [MeasureInput(small_task, cfg)
                  for cfg in small_task.config_space.sample(4)]
        measurer = Measurer(number=2, seed=0)
        cold = [(r.mean_time, r.error) for r in measurer.measure(inputs)]
        warm = [(r.mean_time, r.error) for r in measurer.measure(inputs)]
        clear_timing_cache()
        recold = [(r.mean_time, r.error) for r in measurer.measure(inputs)]
        assert cold == warm == recold


# ---------------------------------------------------------------------------
# Vectorized cost models vs per-row reference oracles
# ---------------------------------------------------------------------------

def _threshold_candidates(tree, column):
    """Candidate split thresholds of one feature column."""
    unique = np.unique(column)
    if len(unique) < 2:
        return None
    if len(unique) > tree.max_thresholds:
        return np.quantile(unique, np.linspace(0.1, 0.9, tree.max_thresholds))
    return (unique[:-1] + unique[1:]) / 2.0


def _best_split_reference(tree, x, y):
    """Oracle of ``RegressionTree._best_split``: re-scan the sample set per
    threshold."""
    n_samples, n_features = x.shape
    base_error = float(np.sum((y - y.mean()) ** 2))
    best_gain = 1e-9
    best = None
    for feature in range(n_features):
        column = x[:, feature]
        candidates = _threshold_candidates(tree, column)
        if candidates is None:
            continue
        for threshold in candidates:
            mask = column <= threshold
            left, right = y[mask], y[~mask]
            if len(left) < tree.min_samples_leaf \
                    or len(right) < tree.min_samples_leaf:
                continue
            error = float(np.sum((left - left.mean()) ** 2)
                          + np.sum((right - right.mean()) ** 2))
            gain = base_error - error
            if gain > best_gain:
                best_gain = gain
                best = (feature, float(threshold), mask)
    return best


def predict_reference(tree, x):
    """Oracle of ``RegressionTree.predict``: walk the dict tree per row."""
    if tree.tree_ is None:
        return np.zeros(len(x))
    out = np.empty(len(x))
    for i, row in enumerate(x):
        node = tree.tree_
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] \
                else node["right"]
        out[i] = node["value"]
    return out


def _negative_gradient_reference(model, y, pred):
    """Oracle of ``GradientBoostedTrees._negative_gradient``: one partner
    draw and one weight update per pair, in a Python loop."""
    if model.loss == "reg":
        return y - pred
    grad = np.zeros_like(pred)
    n = len(y)
    for i in range(n):
        for _ in range(model.num_pairs):
            j = int(model.rng.integers(0, n))
            if i == j or y[i] == y[j]:
                continue
            better, worse = (i, j) if y[i] > y[j] else (j, i)
            weight = 1.0 / (1.0 + math.exp(pred[better] - pred[worse]))
            grad[better] += weight
            grad[worse] -= weight
    return grad


def _tuning_rows(rng, n, width=len(FEATURE_NAMES)):
    """``n`` feature rows shaped like a tuner's: each column a log of one
    of a few powers of two, every fifth column a copy of the one before."""
    x = np.empty((n, width))
    for column in range(width):
        if column % 5 == 4:
            x[:, column] = x[:, column - 1]
            continue
        levels = np.log1p(2.0 ** rng.integers(0, 24, size=rng.integers(1, 6)))
        x[:, column] = rng.choice(levels, size=n)
    return x


def _swap_in_oracles(patch):
    """Fit and predict through the oracles: per-threshold splits, per-row
    tree walks, per-pair gradients, and no stacked ensemble (so
    ``GradientBoostedTrees.predict`` walks tree by tree)."""
    patch.setattr(RegressionTree, "_best_split", _best_split_reference)
    patch.setattr(RegressionTree, "predict", predict_reference)
    patch.setattr(GradientBoostedTrees, "_negative_gradient",
                  _negative_gradient_reference)
    patch.setattr(GradientBoostedTrees, "_stack_trees", lambda model: None)


class TestVectorizedCostModels:
    @pytest.mark.parametrize("loss", ["rank", "reg"])
    def test_gbt_bit_identical_to_reference(self, loss, monkeypatch):
        rng = np.random.default_rng(11)
        for trial in range(6):
            n = int(rng.integers(8, 120))
            d = int(rng.integers(3, 48))
            x = rng.normal(size=(n, d))
            if trial % 2:
                x = np.round(x * 2) / 2          # heavy ties
            y = rng.normal(size=n) ** 2
            queries = rng.normal(size=(64, d))
            fast = GradientBoostedTrees(num_rounds=10, loss=loss, seed=trial)
            fast.fit(x, y)
            expected = (fast.predict(queries), fast.predict(x[0]))
            with monkeypatch.context() as patch:
                _swap_in_oracles(patch)
                slow = GradientBoostedTrees(num_rounds=10, loss=loss,
                                            seed=trial).fit(x, y)
                actual = (slow.predict(queries), slow.predict(x[0]))
            assert np.array_equal(expected[0], actual[0])
            assert np.array_equal(expected[1], actual[1])

    def test_gbt_bit_identical_to_reference_in_the_tuning_regime(
            self, monkeypatch):
        # What a tuner fits: 4 - 34 rows of 42 log-scaled features with few
        # distinct values (some columns constant, some equal to another),
        # normalised throughputs, 40 rounds of the rank loss.  Most nodes
        # have at most max_thresholds rows here.
        rng = np.random.default_rng(45)
        for trial, n in enumerate((4, 5, 7, 8, 11, 16, 24, 34)):
            x = _tuning_rows(rng, n)
            y = rng.uniform(0.05, 1.0, size=n)
            y[rng.integers(0, n, size=n // 4)] = y[0]
            y = y / y.max()
            queries = _tuning_rows(rng, 16)
            fast = GradientBoostedTrees(seed=trial).fit(x, y)
            expected = fast.predict(np.concatenate([x, queries]))
            with monkeypatch.context() as patch:
                _swap_in_oracles(patch)
                slow = GradientBoostedTrees(seed=trial).fit(x, y)
                actual = slow.predict(np.concatenate([x, queries]))
            assert [t.tree_ for t in fast.trees] == [t.tree_
                                                     for t in slow.trees]
            assert np.array_equal(expected, actual)

    def test_small_node_splits_identical_to_reference(self):
        rng = np.random.default_rng(300)
        tree = RegressionTree()
        for _ in range(300):
            n = int(rng.integers(4, 9))
            x = _tuning_rows(rng, n)
            y = np.round(rng.normal(size=n), 1)
            fast = tree._best_split(x, y)
            slow = _best_split_reference(tree, x, y)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast[:2] == slow[:2]
                assert np.array_equal(fast[2], slow[2])

    def test_tree_predict_matches_reference_walk(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 12))
        y = rng.normal(size=80)
        tree = RegressionTree(max_depth=5).fit(x, y)
        queries = rng.normal(size=(256, 12))
        assert np.array_equal(tree.predict(queries),
                              predict_reference(tree, queries))

    def test_tree_structure_identical_to_reference_build(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = np.round(rng.normal(size=(60, 8)) * 2) / 2
        y = rng.normal(size=60)
        fast = RegressionTree(max_depth=4).fit(x, y)
        monkeypatch.setattr(RegressionTree, "_best_split",
                            _best_split_reference)
        slow = RegressionTree(max_depth=4).fit(x, y)
        assert fast.tree_ == slow.tree_

    def test_rank_gradient_identical_to_reference(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=50) ** 2
        pred = rng.normal(size=50)
        fast = GradientBoostedTrees(seed=123)
        slow = GradientBoostedTrees(seed=123)
        assert np.array_equal(fast._negative_gradient(y, pred),
                              _negative_gradient_reference(slow, y, pred))

    def test_stacked_predict_matches_per_tree_loop(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 10))
        y = rng.normal(size=40) ** 2
        model = GradientBoostedTrees(num_rounds=15, seed=0).fit(x, y)
        queries = rng.normal(size=(128, 10))
        stacked = model.predict(queries)
        model._stacked = None            # force the per-tree fallback loop
        per_tree = model.predict(queries)
        assert np.array_equal(stacked, per_tree)


# ---------------------------------------------------------------------------
# Batch APIs and satellite fixes
# ---------------------------------------------------------------------------

class TestBatchScoring:
    def test_estimate_batch_matches_scalar(self, small_task):
        features = [small_task.features_of(i) for i in range(4)]
        model = small_task.target.model
        batch = model.estimate_batch(features)
        scalar = [model.estimate(f) for f in features]
        assert batch.tolist() == scalar

    def test_estimate_batch_failures_score_inf(self, small_task):
        features = small_task.features_of(0)
        model = small_task.target.model
        batch = model.estimate_batch([features, None])
        assert math.isfinite(batch[0])
        assert math.isinf(batch[1])

    def test_failed_lowering_placeholder_uses_feature_schema(self, small_task):
        tuner = ModelBasedTuner(small_task, seed=0)
        original = small_task.template

        def exploding(cfg, *args):
            raise RuntimeError("boom")

        small_task.template = exploding
        try:
            vector = tuner._features_of(0)
        finally:
            small_task.template = original
        assert vector.shape == (len(FEATURE_NAMES),)
        assert not vector.any()

    def test_flat_index_matches_index_of(self, small_task):
        space = small_task.config_space
        for index in (0, 1, len(space) // 2, len(space) - 1):
            knobs = space.knob_indices(index)
            assert space.flat_index(knobs) == index
            assert space.index_of(dict(zip(space.knob_names, knobs))) == index

    def test_program_features_vector_memoized(self, small_task):
        features = small_task.features_of(0)
        vec_a = features.vector()
        vec_b = features.vector()
        assert vec_a is vec_b
        assert not vec_a.flags.writeable
        assert vec_a.tolist() == features.to_vector()


# ---------------------------------------------------------------------------
# Candidate evaluation frees what it builds
# ---------------------------------------------------------------------------

def _zoo_conv_task(model, target):
    """The second conv2d task of a zoo model (the first is the stem)."""
    tasks = [t for t in autotvm.extract_tasks(get_model(model), target)
             if t.operator == "conv2d"]
    return tasks[1]


def _live_exprs():
    """Live expression nodes other than the interned small immediates."""
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, Expr) and not isinstance(obj, IntImm))


def _unread_attachment_template(cfg, n):
    """Lowers part of the way, then fails: ``B`` is attached inside ``D``,
    which never reads it (the split puts non-leaf index math in flight)."""
    A = te.placeholder((n,), name="A")
    B = te.compute((n,), lambda i: A[i] + 1.0, name="B")
    D = te.compute((n,), lambda i: A[i] * 3.0, name="D")
    s = te.create_schedule([B.op, D.op])
    outer, _ = s[D].split(D.op.axis[0], factor=4)
    s[B].compute_at(s[D], outer)
    return s, [A, B, D]


class TestCandidateEvaluationFreesWhatItBuilds:
    #: cyclic garbage per candidate at the parent of the change that made
    #: the te / tir object graphs acyclic (same tasks, same configs)
    PARENT_CYCLIC_PER_CANDIDATE = {"cuda": 1048, "arm_cpu": 254}

    @pytest.mark.parametrize("model,target", [("resnet-18", "cuda"),
                                              ("dqn", "arm_cpu")])
    def test_candidates_die_by_reference_count(self, fresh_caches, model,
                                               target):
        task = _zoo_conv_task(model, target)
        size = len(task.config_space)
        indices = [size * k // 5 + 1 for k in range(1, 5)]
        task.features_of(0)              # lazy imports, interned immediates
        gc.collect()
        gc.disable()
        try:
            for index in indices:
                task.features_of(index)
            unreachable = gc.collect()
        finally:
            gc.enable()
        bound = 0.10 * self.PARENT_CYCLIC_PER_CANDIDATE[target] * len(indices)
        assert unreachable <= bound

    def test_nothing_is_retained_after_an_evaluation(self, small_task):
        small_task.features_of(0)
        before = _live_exprs()
        for index in (1, 2, 3):
            small_task.features_of(index)
        assert _live_exprs() == before
        assert te_expr._SCOPE.simplifier is None

    def test_nothing_is_retained_after_a_failing_config(self, fresh_caches):
        task = autotvm.Task("unread", _unread_attachment_template, (16,),
                            cuda())
        before = _live_exprs()
        with pytest.raises(tir.lowering.LoweringError, match="never read"):
            task.features_of(0)
        assert _live_exprs() == before
        assert te_expr._SCOPE.simplifier is None

    def test_nothing_is_retained_after_compile(self, fresh_caches):
        repro.compile(conv_graph(), target="cuda")      # warm: lazy imports
        clear_timing_cache()
        before = _live_exprs()
        repro.compile(conv_graph(), target="cuda")
        assert _live_exprs() == before
        assert te_expr._SCOPE.simplifier is None

    def test_two_threads_featurise_what_one_does(self, small_task):
        indices = list(range(0, 32 * 7, 7))

        def vector(index):
            try:
                return small_task.features_of(index).vector().tobytes()
            except Exception as exc:     # an invalid config, the same twice
                return repr(exc)

        serial = [vector(i) for i in indices]
        clear_eval_caches()
        before = _live_exprs()
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(vector, indices))
        assert threaded == serial
        assert _live_exprs() == before

    #: retained bytes per cached candidate (its features and memoised
    #: vector), 48 seeded configs each of resnet-18's second conv2d on cuda
    #: and arm_cpu: 11,467 at the parent of the change that keeps access
    #: regions of global buffers only, built once per loop nest in slotted
    #: records, and 6,024 after it (Python 3.11)
    RETAINED_BYTES_PER_CANDIDATE = 8 * 1024

    def test_a_cached_candidate_keeps_only_what_is_read(self, fresh_caches):
        samples = []
        for target in ("cuda", "arm_cpu"):
            task = _zoo_conv_task("resnet-18", target)
            configs = task.config_space.sample(48, random.Random(0))
            samples.append((task, [config.index for config in configs]))
            task.features_of(0).vector()  # lazy imports, interned immediates
        clear_eval_caches()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for task, indices in samples:
                for index in indices:
                    task.features_of(index).vector()
            # the recorded lowerings are a cache of their own, bounded per
            # class (tests/test_replay.py)
            LOWERED_CACHE.clear()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(FEATURE_CACHE) == 96
        assert retained / 96 < self.RETAINED_BYTES_PER_CANDIDATE

    def test_input_tensors_follow_a_rewritten_body(self):
        A = te.placeholder((8, 8), name="A")
        B = te.placeholder((8, 8), name="B")
        k = te.reduce_axis((0, 8), name="k")
        C = te.compute((8, 8), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k),
                       name="C")
        s = te.create_schedule(C.op)
        assert C.op.input_tensors() == [A, B]
        AA = s.cache_read(A, "shared", [C])
        assert C.op.input_tensors() == [AA, B]
        CC = s.cache_write(C, "local")
        assert C.op.input_tensors() == [CC]
        assert CC.op.input_tensors() == [AA, B]
        C.op.input_tensors().clear()      # a copy: the memo is not the caller's
        assert C.op.input_tensors() == [CC]
