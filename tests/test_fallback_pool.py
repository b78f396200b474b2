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


def _cold_compiles():
    """Per pair: ``total_time`` and each kernel's config and provenance."""
    clear_timing_cache()
    digest = []
    for model, target in PAIRS:
        module = repro.compile(model, target=target)
        digest.append((model, target, module.total_time,
                       [(k.config_index, k.tuned) for k in module.kernels]))
    return digest


@pytest.fixture
def pool_runs(monkeypatch):
    """Worker counts of the pools the compiles start (none on one core)."""
    runs = []
    real = op_timing._search_on_pool

    def spy(jobs, workers):
        runs.append(workers)
        return real(jobs, workers)

    monkeypatch.setattr(op_timing, "_search_on_pool", spy)
    yield runs
    clear_timing_cache()


def _expect_pool(runs):
    if len(os.sched_getaffinity(0)) >= 2:
        assert threading.active_count() == 1
        assert runs and all(workers >= 2 for workers in runs)
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
