"""The traffic benchmark's arrival schedules, their replay against the
serving engine and its due-clock accounting: ``benchmarks/arrivals.py``
(seeded Poisson / diurnal / burst arrivals) and
``benchmarks/bench_traffic.py::summarise`` over the records of the
end-to-end benchmark's open-loop driver (``benchmarks/e2e/openloop.py``),
which times every request from the moment it was due."""

import importlib.util
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import cuda
from repro.runtime import Executor, InferenceEngine

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_bench():
    """``bench_traffic.py`` as a module, with ``sys.path`` as it was after."""
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_traffic", BENCH_DIR / "bench_traffic.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


bench = _load_bench()
arrivals = bench.arrivals
run_open_loop = bench.run_open_loop

#: how long the late generator and the stalled engine hold requests up
STALL_S = 0.2


@pytest.fixture(scope="module")
def module():
    return repro.compile(bench._small_cnn(), target=cuda())


@pytest.fixture(scope="module")
def pool():
    return bench._input_pool(0)


@pytest.fixture(scope="module")
def reference(module, pool):
    solo = Executor(module)
    return [[np.asarray(o) for o in solo.run(inputs).outputs]
            for inputs in pool]


def _done(index):
    future = Future()
    future.set_result(index)
    return future


# ---------------------------------------------------------------------------
# Arrival schedules
# ---------------------------------------------------------------------------

class TestTraceSpecValidation:
    def test_rejects_malformed_specs(self):
        good = dict(family="poisson", rate_rps=10.0, duration_s=1.0, seed=0)
        for bad, match in ((dict(family="sawtooth"), "family"),
                           (dict(rate_rps=0.0), "rate_rps"),
                           (dict(rate_rps=-5.0), "rate_rps"),
                           (dict(rate_rps=float("nan")), "rate_rps"),
                           (dict(duration_s=0.0), "duration_s"),
                           (dict(duration_s=-1.0), "duration_s")):
            with pytest.raises(ValueError, match=match):
                arrivals(**{**good, **bad})


class TestTraceGeneration:
    def test_same_seed_is_byte_identical(self):
        for family in bench.FAMILIES:
            one = arrivals(family, 80.0, 2.0, 42)
            assert np.array(one).tobytes() == \
                np.array(arrivals(family, 80.0, 2.0, 42)).tobytes()

    def test_different_seed_differs(self):
        assert arrivals("poisson", 50.0, 2.0, 1) \
            != arrivals("poisson", 50.0, 2.0, 2)

    def test_arrivals_sorted_in_horizon_and_indexed(self):
        for family in bench.FAMILIES:
            offsets = arrivals(family, 60.0, 2.0, 3)
            assert offsets == sorted(offsets)
            assert all(0.0 <= t < 2.0 for t in offsets)
        # The driver indexes a schedule's requests in due order, and request
        # ``i`` is the one ``submit(i)`` sent (a 20x faster schedule here).
        result = run_open_loop(_done, [t / 20 for t in offsets], 1.0)
        assert [r.index for r in result.sent] == list(range(len(offsets)))
        assert [r.outputs for r in result.sent] == list(range(len(offsets)))
        dues = [r.due for r in result.sent]
        assert dues == sorted(dues)

    def test_poisson_count_tracks_rate(self):
        assert 0.8 * 400 <= len(arrivals("poisson", 200.0, 2.0, 7)) \
            <= 1.2 * 400

    def test_diurnal_concentrates_in_the_high_half(self):
        # One period per schedule: the rate is above its mean in the first
        # half and below it in the second, 3.1x as many arrivals expected.
        offsets = arrivals("diurnal", 60.0, 2.0, 5)
        first = sum(1 for t in offsets if t < 1.0)
        assert first > 2 * (len(offsets) - first)

    def test_burst_windows_are_denser(self):
        # The first quarter second of every second runs at 4x the rate.
        offsets = arrivals("burst", 30.0, 4.0, 9)
        in_burst = sum(1 for t in offsets if t % 1.0 < 0.25)
        out_burst = len(offsets) - in_burst
        assert in_burst / 1.0 > 2 * out_burst / 3.0


# ---------------------------------------------------------------------------
# The due clock
# ---------------------------------------------------------------------------

#: four requests due during the stall, then one well after it
OFFSETS = [0.0, 0.02, 0.04, 0.06, 0.4]


class TestDueClock:
    def test_a_late_generator_is_charged_to_every_request_it_delayed(
            self, module, pool):
        engine = repro.serve(module, max_batch=1)

        def submit(index):
            if index == 0:
                time.sleep(STALL_S)     # the generator stalls in its submit
            return engine.submit(pool[index])

        try:
            result = run_open_loop(submit, OFFSETS, 30.0)
        finally:
            engine.shutdown()
        for request in result.sent[:4]:
            # Charged on the due clock; the engine's own clock, which starts
            # at enqueue, never saw it.
            hidden = request.latency - request.future.wall_latency
            assert hidden >= STALL_S - OFFSETS[request.index]
        summary = bench.summarise(result.sent, OFFSETS, 0.5)
        assert summary["outcomes"]["served"] == 5
        assert (summary["served_late"], summary["served_ok"]) == (4, 1)
        assert summary["violation_rate"] == pytest.approx(0.8)
        assert summary["goodput_rps"] == pytest.approx(2.0)
        assert [w["offered"] for w in summary["goodput_curve"]] == [5]
        assert summary["latency_split_ms"]["late_p99_ms"] \
            >= 1e3 * (STALL_S - OFFSETS[3])

    def test_a_stalled_engine_is_charged_to_every_request_it_delayed(
            self, module, pool):
        engine = repro.serve(module, max_batch=1)
        gate = threading.Event()
        released = []
        original = engine._backend.run_batch

        def gated(index, requests):
            gate.wait(30)
            return original(index, requests)

        def release():
            released.append(time.perf_counter())
            gate.set()

        engine._backend.run_batch = gated
        timer = threading.Timer(STALL_S, release)
        timer.start()
        try:
            result = run_open_loop(lambda index: engine.submit(pool[index]),
                                   OFFSETS[:4], 30.0)
        finally:
            timer.cancel()
            gate.set()
            engine.shutdown()
        assert released and not result.failed
        for request in result.sent:
            assert request.due + request.latency >= released[0] - 1e-3
        summary = bench.summarise(result.sent, OFFSETS[:4], 0.5)
        assert (summary["served_late"], summary["served_ok"]) == (4, 0)


# ---------------------------------------------------------------------------
# Replaying a schedule against the engine
# ---------------------------------------------------------------------------

def _replay(module, pool, offsets):
    """``offsets`` sent open-loop to a healthy engine, with deadlines that no
    request comes near."""
    engine = repro.serve(module, max_batch=4, timeout_ms=5)
    try:
        return run_open_loop(
            lambda index: engine.submit(pool[index % len(pool)],
                                        deadline_ms=30_000.0),
            offsets, 30.0)
    finally:
        engine.shutdown()


class TestReplay:
    def test_replay_outcomes_deterministic_and_bit_identical(
            self, module, pool, reference):
        # Generous deadlines on a healthy engine: every request is served,
        # so outcome counts are exactly reproducible run over run, and every
        # served output equals a solo execution of the same input.
        offsets = arrivals("burst", 40.0, 1.0, 17)
        runs = _replay(module, pool, offsets), _replay(module, pool, offsets)
        counts = [bench.summarise(run.sent, offsets, 1.0)["outcomes"]
                  for run in runs]
        assert counts[0] == counts[1] == {
            "served": len(offsets), "shed": 0, "expired": 0, "failed": 0,
            "hung": 0}
        for run in runs:
            for request in run.sent:
                assert request.latency is not None
                assert request.future.queue_wait is not None
                assert request.future.execute_latency is not None
                want = reference[request.index % len(pool)]
                for got, ref in zip(request.outputs, want):
                    np.testing.assert_array_equal(np.asarray(got), ref)

    def test_report_aggregates(self, module, pool):
        offsets = arrivals("poisson", 30.0, 1.0, 19)
        result = _replay(module, pool, offsets)
        summary = bench.summarise(result.sent, offsets, 1.0)
        n = len(offsets)
        good = sum(1 for request in result.sent
                   if request.latency <= bench.DEADLINE_MS / 1e3)
        assert summary["outcomes"]["served"] == n
        assert summary["served_ok"] == good
        assert summary["served_late"] == n - good
        assert summary["violation_rate"] == pytest.approx(1.0 - good / n)
        assert summary["goodput_rps"] == pytest.approx(good / 1.0)
        windows = summary["goodput_curve"]
        assert len(windows) == 2        # half-second windows over 1 s
        assert sum(w["offered"] for w in windows) == n
        assert sum(w["served_ok"] for w in windows) == good
        split = summary["latency_split_ms"]
        assert split["late_mean_ms"] >= 0.0
        assert split["queue_wait_mean_ms"] >= 0.0
        assert split["execute_mean_ms"] > 0.0
        latency = summary["latency_ms"]
        assert latency["due_p99_ms"] >= latency["due_p50_ms"] > 0.0

    def test_giveup_cancels_stuck_requests(self, module, pool):
        offsets = arrivals("poisson", 30.0, 0.3, 23)
        engine = repro.serve(module, max_batch=1, timeout_ms=1)
        gate = threading.Event()
        entered = threading.Event()
        original = engine._backend.run_batch

        def gated(index, requests):
            entered.set()
            gate.wait(30)
            return original(index, requests)

        engine._backend.run_batch = gated
        try:
            result = run_open_loop(
                lambda index: engine.submit(pool[index % len(pool)]),
                offsets, 0.2)
            # Giving up: cancel everything left unresolved.
            cancelled = [request.future.cancel() for request in result.sent]
        finally:
            gate.set()
            engine.shutdown()
        assert entered.is_set() and len(offsets) > 1
        # The single device is wedged for the whole schedule: every request
        # is unresolved at give-up and counted hung, and all but the one
        # claimed (hence uncancellable) request are cancelled unexecuted.
        outcomes = bench.summarise(result.sent, offsets, 0.3)["outcomes"]
        assert outcomes["served"] == 0
        assert outcomes["hung"] == len(offsets)
        assert cancelled.count(False) == 1


# ---------------------------------------------------------------------------
# Chaos and traffic compose
# ---------------------------------------------------------------------------

class TestReplayUnderChaos:
    def test_outcome_counts_reproducible_under_fault_plan(
            self, module, pool, reference):
        # A worker kill mid-schedule is healed by the pool (respawn + retry),
        # so with generous deadlines both runs still serve everything and the
        # outcome counts stay identical.
        offsets = arrivals("poisson", 40.0, 0.8, 31)

        def run_once():
            plan = FaultPlan(seed=7, faults=[
                FaultSpec("worker_kill", at=[1], max_count=1,
                          match={"pool": "repro-serve-pool"}),
            ])
            engine = InferenceEngine(module, devices=2, max_batch=4,
                                     timeout_ms=5, max_queue=256,
                                     pool="process")
            try:
                with plan:
                    return run_open_loop(
                        lambda index: engine.submit(
                            pool[index % len(pool)], deadline_ms=60_000.0),
                        offsets, 180.0)
            finally:
                engine.shutdown()

        runs = run_once(), run_once()
        counts = [bench.summarise(run.sent, offsets, 0.8)["outcomes"]
                  for run in runs]
        assert counts[0] == counts[1] == {
            "served": len(offsets), "shed": 0, "expired": 0, "failed": 0,
            "hung": 0}
        for run in runs:
            for request in run.sent:
                want = reference[request.index % len(pool)]
                for got, ref in zip(request.outputs, want):
                    np.testing.assert_array_equal(np.asarray(got), ref)
