"""Tests for repro.runtime.traffic: deterministic trace generation, JSONL
round-trips, and trace replay against the serving engine (satellite #4:
same seed -> byte-identical trace and identical replay outcome counts,
including composed with a FaultPlan from repro.faults)."""

import json

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, FaultSpec
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import Executor, InferenceEngine
from repro.runtime.traffic import (OUTCOMES, Trace, TraceError, TraceReplayer,
                                   TraceRequest, TraceSpec, load_trace)


def _small_cnn():
    b = ModelBuilder("traffic-small", seed=0)
    data = b.input("data", (1, 3, 16, 16))
    net = b.relu(b.batch_norm(b.conv2d(data, 8, 3, 1, 1, name="conv0")))
    net = b.max_pool2d(net, 2, 2)
    net = b.flatten(net)
    net = b.softmax(b.dense(net, 10, "fc"))
    graph, params = b.finalize(net)
    return graph, params, {"data": (1, 3, 16, 16)}


@pytest.fixture(scope="module")
def module():
    return repro.compile(_small_cnn(), target=cuda())


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

class TestTraceSpecValidation:
    def test_rejects_malformed_specs(self):
        good = dict(family="poisson", rate_rps=10.0, duration_s=1.0)
        with pytest.raises(TraceError, match="family"):
            TraceSpec(**{**good, "family": "sawtooth"})
        with pytest.raises(TraceError, match="rate_rps"):
            TraceSpec(**{**good, "rate_rps": 0.0})
        with pytest.raises(TraceError, match="duration_s"):
            TraceSpec(**{**good, "duration_s": -1.0})
        with pytest.raises(TraceError, match="deadline_ms"):
            TraceSpec(**{**good, "deadline_ms": 0.0})
        with pytest.raises(TraceError, match="deadline_jitter"):
            TraceSpec(**{**good, "deadline_ms": 100.0, "deadline_jitter": 1.0})
        with pytest.raises(TraceError, match="priorities"):
            TraceSpec(**{**good, "priorities": ()})
        with pytest.raises(TraceError, match="models"):
            TraceSpec(**{**good, "models": {"a": 0.0}})
        with pytest.raises(TraceError, match="diurnal_amplitude"):
            TraceSpec(**{**good, "family": "diurnal",
                         "diurnal_amplitude": 1.5})
        with pytest.raises(TraceError, match="burst_factor"):
            TraceSpec(**{**good, "family": "burst", "burst_factor": 0.5})
        with pytest.raises(TraceError, match="burst"):
            TraceSpec(**{**good, "family": "burst", "burst_every_s": 0.1,
                         "burst_duration_s": 0.5})
        with pytest.raises(TraceError, match="max_requests"):
            TraceSpec(**{**good, "max_requests": 0})


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

class TestTraceGeneration:
    def test_same_seed_is_byte_identical(self):
        spec = TraceSpec(family="burst", rate_rps=80.0, duration_s=2.0,
                         seed=42, deadline_ms=100.0, deadline_jitter=0.2,
                         priorities=(0, 1, 5),
                         models={"resnet-18": 3.0, "mobilenet": 1.0})
        assert spec.generate().to_jsonl() == spec.generate().to_jsonl()

    def test_different_seed_differs(self):
        base = dict(family="poisson", rate_rps=50.0, duration_s=2.0)
        one = TraceSpec(seed=1, **base).generate()
        two = TraceSpec(seed=2, **base).generate()
        assert one.to_jsonl() != two.to_jsonl()

    def test_arrivals_sorted_in_horizon_and_indexed(self):
        trace = TraceSpec(family="diurnal", rate_rps=60.0, duration_s=2.0,
                          seed=3).generate()
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t < 2.0 for t in arrivals)
        assert [r.index for r in trace] == list(range(len(trace)))

    def test_poisson_count_tracks_rate(self):
        trace = TraceSpec(family="poisson", rate_rps=200.0, duration_s=2.0,
                          seed=7).generate()
        assert 0.8 * 400 <= len(trace) <= 1.2 * 400

    def test_diurnal_concentrates_in_the_high_half(self):
        # period == duration: sin is positive on the first half, negative on
        # the second, so with amplitude 0.9 arrivals pile into the first.
        trace = TraceSpec(family="diurnal", rate_rps=60.0, duration_s=2.0,
                          seed=5, diurnal_period_s=2.0,
                          diurnal_amplitude=0.9).generate()
        first = sum(1 for r in trace if r.arrival_s < 1.0)
        assert first > 2 * (len(trace) - first)

    def test_burst_windows_are_denser(self):
        spec = TraceSpec(family="burst", rate_rps=30.0, duration_s=4.0,
                         seed=9, burst_every_s=1.0, burst_duration_s=0.25,
                         burst_factor=6.0)
        trace = spec.generate()
        in_burst = sum(1 for r in trace
                       if (r.arrival_s % 1.0) < 0.25)
        out_burst = len(trace) - in_burst
        # Burst windows cover 1/4 of the horizon at 6x the rate: they should
        # hold well over half of all arrivals (6/(6+3) = 2/3 in expectation).
        assert in_burst > out_burst

    def test_mixed_models_deadlines_and_priorities(self):
        spec = TraceSpec(family="poisson", rate_rps=150.0, duration_s=2.0,
                         seed=11, deadline_ms=100.0, deadline_jitter=0.3,
                         priorities=(0, 7),
                         models={"a": 3.0, "b": 1.0})
        trace = spec.generate()
        assert trace.model_names() == ["a", "b"]
        counts = {"a": 0, "b": 0}
        for request in trace:
            counts[request.model] += 1
            assert 70.0 <= request.deadline_ms <= 130.0
            assert request.priority in (0, 7)
        assert counts["a"] > counts["b"]
        assert len({r.deadline_ms for r in trace}) > 1
        assert {r.priority for r in trace} == {0, 7}

    def test_max_requests_caps_generation(self):
        trace = TraceSpec(family="poisson", rate_rps=1000.0, duration_s=10.0,
                          seed=1, max_requests=50).generate()
        assert len(trace) == 50


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------

class TestTraceJsonl:
    SPEC = TraceSpec(family="burst", rate_rps=40.0, duration_s=1.0, seed=13,
                     deadline_ms=250.0, priorities=(0, 2),
                     models={"x": 1.0, "y": 2.0})

    def test_save_load_round_trip_is_byte_identical(self, tmp_path):
        trace = self.SPEC.generate()
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = load_trace(path)
        assert loaded.to_jsonl() == trace.to_jsonl()
        assert loaded.spec == trace.spec
        assert loaded.requests == trace.requests

    def test_two_saves_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.SPEC.generate().save(a)
        self.SPEC.generate().save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_non_trace_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty"):
            Trace.load(empty)
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json at all\n")
        with pytest.raises(TraceError, match="not a trace file"):
            Trace.load(garbage)
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text(json.dumps({"magic": "NOPE"}) + "\n")
        with pytest.raises(TraceError, match="bad trace header"):
            Trace.load(wrong)


# ---------------------------------------------------------------------------
# Replay (engine-backed)
# ---------------------------------------------------------------------------

def _input_pool(n=4):
    pool = []
    for slot in range(n):
        rng = np.random.default_rng(slot)
        pool.append({"data": rng.random((1, 3, 16, 16)).astype("float32")})
    return pool


class TestReplay:
    def test_replayer_validates_knobs(self, module):
        trace = TraceSpec(family="poisson", rate_rps=5.0, duration_s=0.2,
                          seed=1).generate()
        engine = repro.serve(module, max_batch=1)
        try:
            with pytest.raises(TraceError, match="giveup_ms"):
                TraceReplayer(engine, trace, giveup_ms=0.0)
        finally:
            engine.shutdown()

    def test_engine_mapping_must_cover_trace_models(self, module):
        trace = TraceSpec(family="poisson", rate_rps=50.0, duration_s=0.5,
                          seed=2, models={"a": 1.0, "b": 1.0}).generate()
        engine = repro.serve(module, max_batch=1)
        try:
            with pytest.raises(TraceError, match="model streams"):
                TraceReplayer({"a": engine}, trace)
        finally:
            engine.shutdown()

    def test_replay_outcomes_deterministic_and_bit_identical(self, module):
        # Generous deadlines on a healthy engine: every request is served,
        # so outcome counts are exactly reproducible run over run, and every
        # served output equals a solo execution of the same input.
        trace = TraceSpec(family="burst", rate_rps=40.0, duration_s=1.0,
                          seed=17, deadline_ms=30_000.0).generate()
        pool = _input_pool()
        solo = Executor(module)
        reference = [[np.asarray(o) for o in solo.run(inputs).outputs]
                     for inputs in pool]

        def run_once():
            engine = repro.serve(module, max_batch=4, timeout_ms=5)
            try:
                replayer = TraceReplayer(
                    engine, trace, store_outputs=True,
                    inputs_for=lambda r: pool[r.index % len(pool)])
                return replayer.replay()
            finally:
                engine.shutdown()

        first, second = run_once(), run_once()
        assert first.counts() == second.counts() == {
            "served": len(trace), "shed": 0, "expired": 0,
            "cancelled": 0, "failed": 0, "hung": 0}
        for report in (first, second):
            for record in report.records:
                assert record["outcome"] in OUTCOMES
                assert record["deadline_met"]
                assert record["wall_ms"] is not None
                assert record["queue_wait_ms"] is not None
                assert record["execute_ms"] is not None
                outs = report.outputs[record["index"]]
                want = reference[record["index"] % len(pool)]
                for got, ref in zip(outs, want):
                    np.testing.assert_array_equal(np.asarray(got), ref)

    def test_report_aggregates(self, module):
        trace = TraceSpec(family="poisson", rate_rps=30.0, duration_s=1.0,
                          seed=19, deadline_ms=30_000.0).generate()
        engine = repro.serve(module, max_batch=4, timeout_ms=5)
        try:
            report = TraceReplayer(engine, trace).replay()
        finally:
            engine.shutdown()
        assert report.served_ok == len(trace)
        assert report.served_late == 0
        assert report.violation_rate == 0.0
        assert report.goodput_rps == pytest.approx(len(trace) / 1.0)
        windows = report.windowed_goodput()
        assert len(windows) == 2        # half-second windows over 1 s
        assert sum(w["served_ok"] for w in windows) == len(trace)
        assert sum(w["offered"] for w in windows) == len(trace)
        split = report.latency_split_ms()
        assert split["queue_wait_mean_ms"] >= 0.0
        assert split["execute_mean_ms"] > 0.0
        summary = report.summary()
        assert summary["goodput_rps"] == report.goodput_rps
        assert summary["outcomes"] == report.counts()

    def test_giveup_cancels_stuck_requests(self, module):
        import threading

        trace = TraceSpec(family="poisson", rate_rps=30.0, duration_s=0.3,
                          seed=23).generate()
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
            report = TraceReplayer(engine, trace, giveup_ms=50.0,
                                   result_timeout_s=2.0).replay()
        finally:
            gate.set()
            engine.shutdown()
        counts = report.counts()
        # The single device is wedged for the whole replay: exactly the one
        # claimed (hence uncancellable) request is reported hung, everything
        # behind it is given up on and cancelled, and nothing executes.
        assert counts["served"] == 0
        assert counts["hung"] == 1
        assert counts["cancelled"] == len(trace) - 1
        for record in report.records:
            if record["outcome"] == "cancelled":
                assert not record["deadline_met"]

    def test_mixed_model_traces_route_to_their_engines(self, module):
        trace = TraceSpec(family="poisson", rate_rps=60.0, duration_s=0.5,
                          seed=29, models={"a": 1.0, "b": 1.0}).generate()
        engine_a = repro.serve(module, max_batch=2, timeout_ms=5)
        engine_b = repro.serve(module, max_batch=2, timeout_ms=5)
        try:
            report = TraceReplayer({"a": engine_a, "b": engine_b},
                                   trace).replay()
            stats_a, stats_b = engine_a.stats(), engine_b.stats()
        finally:
            engine_a.shutdown()
            engine_b.shutdown()
        assert report.counts()["served"] == len(trace)
        n_a = sum(1 for r in trace if r.model == "a")
        assert stats_a["requests"] == n_a
        assert stats_b["requests"] == len(trace) - n_a


class TestReplayUnderChaos:
    def test_outcome_counts_reproducible_under_fault_plan(self, module):
        # Chaos + traffic compose: a worker kill mid-replay is healed by the
        # pool (respawn + retry), so with generous deadlines both runs still
        # serve everything and the outcome counts stay identical.
        trace = TraceSpec(family="poisson", rate_rps=40.0, duration_s=0.8,
                          seed=31, deadline_ms=60_000.0).generate()
        pool = _input_pool()
        solo = Executor(module)
        reference = [[np.asarray(o) for o in solo.run(inputs).outputs]
                     for inputs in pool]

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
                    replayer = TraceReplayer(
                        engine, trace, store_outputs=True,
                        result_timeout_s=180.0,
                        inputs_for=lambda r: pool[r.index % len(pool)])
                    return replayer.replay()
            finally:
                engine.shutdown()

        first, second = run_once(), run_once()
        assert first.counts() == second.counts()
        assert first.counts()["served"] == len(trace)
        assert first.counts()["hung"] == 0
        for report in (first, second):
            for record in report.records:
                outs = report.outputs[record["index"]]
                want = reference[record["index"] % len(pool)]
                for got, ref in zip(outs, want):
                    np.testing.assert_array_equal(np.asarray(got), ref)
