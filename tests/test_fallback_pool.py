"""A cold compile's fallback searches on a fork pool: the same kernels as
in-process, and no worker outlives the compile."""

import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.graph import clear_timing_cache, op_timing

#: one arm_cpu and one cuda pair, each with several distinct heavy workloads
PAIRS = [("dqn", "arm_cpu"), ("lstm-lm", "cuda")]


def _cold_compiles(pairs=PAIRS):
    """Per pair: ``total_time`` and each kernel's config and provenance."""
    clear_timing_cache()
    digest = []
    for model, target in pairs:
        module = repro.compile(model, target=target)
        digest.append((model, target, module.total_time,
                       [(k.config_index, k.tuned) for k in module.kernels]))
    return digest


@pytest.fixture
def pool_runs(monkeypatch):
    """Per pool the compiles start (none on one core): its worker count
    and the operators of its searches."""
    runs = []
    real = op_timing._search_on_pool

    def spy(jobs, workers):
        runs.append((workers, sorted(node.op for _key, node, _ in jobs)))
        return real(jobs, workers)

    monkeypatch.setattr(op_timing, "_search_on_pool", spy)
    yield runs
    clear_timing_cache()


def _expect_pool(runs):
    if len(os.sched_getaffinity(0)) >= 2:
        assert threading.active_count() == 1
        assert runs and all(workers >= 2 for workers, _ops in runs)
    else:
        assert runs == []


class TestFallbackPool:
    @pytest.fixture(scope="class")
    def in_process(self):
        # compiled from a second thread, so the searches stay in-process
        with ThreadPoolExecutor(1) as thread:
            return thread.submit(_cold_compiles).result()

    def test_pool_ships_what_the_in_process_search_ships(self, pool_runs,
                                                         in_process):
        pooled = _cold_compiles()
        _expect_pool(pool_runs)
        assert multiprocessing.active_children() == []
        assert pooled == in_process     # total_time by ==: bitwise

    def test_only_convolution_searches_fork(self, pool_runs, in_process):
        """lstm-lm/cuda's two dense searches stay in-process; dqn/arm_cpu's
        three convolutions fork, its two dense searches ride along."""
        assert _cold_compiles(PAIRS[1:]) == in_process[1:]
        assert pool_runs == []
        assert _cold_compiles(PAIRS[:1]) == in_process[:1]
        _expect_pool(pool_runs)
        assert [ops for _workers, ops in pool_runs] \
            in ([], [["conv2d"] * 3 + ["dense"] * 2])

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_no_pool_where_the_platform_cannot_fork(self, pool_runs,
                                                    in_process, monkeypatch,
                                                    missing):
        """No ``os.sched_getaffinity`` (macOS) or no ``fork`` start method
        (Windows): every search runs in-process, to the same kernels."""
        if missing == "fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        else:
            monkeypatch.delattr(os, missing, raising=False)
        assert _cold_compiles() == in_process
        assert pool_runs == []

    def test_a_search_error_is_raised_and_joins_the_pool(self, pool_runs,
                                                         monkeypatch):
        def failing(task, target, **kwargs):
            raise RuntimeError(f"no config for {task.name}")

        monkeypatch.setattr(op_timing, "fallback_search", failing)
        with pytest.raises(RuntimeError, match="no config for"):
            _cold_compiles()
        _expect_pool(pool_runs)
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_leaves_its_searches_to_the_parent(
            self, pool_runs, monkeypatch, in_process):
        parent = os.getpid()
        real = op_timing.fallback_search

        def dies_in_a_worker(task, target, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(task, target, **kwargs)

        monkeypatch.setattr(op_timing, "fallback_search", dies_in_a_worker)
        assert _cold_compiles() == in_process
        _expect_pool(pool_runs)
        assert multiprocessing.active_children() == []
