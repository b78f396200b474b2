"""Tests for the distributed tuning service: the framed socket protocol,
the server lifecycle, global measurement dedup, cross-session transfer and
pretrained cost models, the database writer lock, and bit-identity of
serviced sessions with local tuning."""

import json
import math
import os
import socket
import threading

import numpy as np
import pytest

import repro
from repro import autotvm
from repro.autotvm import (
    DatabaseWriteConflictError,
    GradientBoostedTrees,
    TuningDatabase,
    TuningOptions,
)
from repro.autotvm.database import TuningLogEntry
from repro.autotvm.service import (
    MSG,
    ServiceClient,
    ServiceDedupMeasurer,
    ServiceProtocolError,
    TuningService,
    connect,
)
from repro.autotvm.service.protocol import recv_frame, send_frame
from repro.autotvm.service.zoo import schedule_zoo, trials_to_target
from repro.graph.ir import Graph, Node
from repro.graph.ops import OP_REGISTRY
from repro.hardware import cuda


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


def fingerprint(report):
    return {r.task_name: (r.best_config.index, r.estimate, tuple(r.curve))
            for r in report}


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------

class TestProtocol:
    def _pair(self):
        server, client = socket.socketpair()
        return server, client

    def test_roundtrip_preserves_tuples_and_inf(self):
        a, b = self._pair()
        try:
            payload = {"args": (1, (3, "x")), "time": float("inf"),
                       "none": None, "flag": True,
                       "exact": 1.0038308959125683e-05}
            send_frame(a, MSG.PUSH, payload)
            kind, decoded = recv_frame(b)
            assert kind == MSG.PUSH
            assert decoded["args"] == (1, (3, "x"))
            assert math.isinf(decoded["time"])
            assert decoded["none"] is None
            assert decoded["flag"] is True
            # float repr round-trips bit-exactly through JSON
            assert decoded["exact"] == 1.0038308959125683e-05
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(b"XXXX" + bytes(5))
            with pytest.raises(ServiceProtocolError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_raises_connection_error(self):
        a, b = self._pair()
        try:
            send_frame(a, MSG.HELLO, {"pid": 1})
            a.close()
            recv_frame(b)               # the complete frame still arrives
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------

class TestServerLifecycle:
    def test_start_stop_leaves_no_threads(self):
        before = set(threading.enumerate())
        service = TuningService().start()
        with connect(service.address) as client:
            assert client.stats()["connections"] == 1
        service.stop()
        leaked = [t for t in threading.enumerate()
                  if t not in before and t.is_alive()]
        assert leaked == []

    def test_stop_is_idempotent_and_address_gated(self):
        service = TuningService()
        with pytest.raises(RuntimeError, match="not running"):
            service.address
        service.start()
        addr = service.address
        assert addr.startswith("127.0.0.1:")
        service.stop()
        service.stop()

    def test_retired_kinds_get_an_error_reply(self):
        # Kinds 8 and 15 are retired (see MSG): the peer is told so, and
        # the service keeps running and serving that connection.
        with TuningService() as service, \
                socket.create_connection(("127.0.0.1", service.port)) as sock:
            for kind in (8, 15):
                send_frame(sock, kind, {})
                reply_kind, reply = recv_frame(sock)
                assert reply_kind == MSG.ERROR
                assert f"?{kind}" in reply["message"]
            send_frame(sock, MSG.STATS, {})
            assert recv_frame(sock)[0] == MSG.STATS_REPLY

    def test_context_manager(self):
        with TuningService() as service:
            assert service.port is not None
        assert service.port is None


# ---------------------------------------------------------------------------
# Trial store: dedup lookup/push
# ---------------------------------------------------------------------------

class TestTrialStore:
    def test_lookup_miss_then_hit(self):
        with TuningService() as service, connect(service.address) as client:
            key = ("conv2d_(x)", "cuda", 7)
            assert client.lookup([key]) == [None]
            assert client.push_trials([{"task": key[0], "target": key[1],
                                        "config_index": key[2],
                                        "time": 1.5e-5, "error": None}]) == 1
            hit, = client.lookup([key])
            assert hit == {"time": 1.5e-5, "error": None}
            stats = client.stats()
            assert stats["dedup_hits"] == 1
            assert stats["trials_stored"] == 1

    def test_first_measurement_wins(self):
        with TuningService() as service, connect(service.address) as client:
            rec = {"task": "t", "target": "cuda", "config_index": 0,
                   "time": 2.0, "error": None}
            assert client.push_trials([rec]) == 1
            assert client.push_trials([dict(rec, time=1.0)]) == 0
            hit, = client.lookup([("t", "cuda", 0)])
            assert hit["time"] == 2.0

    def test_failed_measurements_are_deduped_too(self):
        with TuningService() as service, connect(service.address) as client:
            client.push_trials([{"task": "t", "target": "cuda",
                                 "config_index": 3, "time": float("inf"),
                                 "error": "boom"}])
            hit, = client.lookup([("t", "cuda", 3)])
            assert math.isinf(hit["time"]) and hit["error"] == "boom"


# ---------------------------------------------------------------------------
# Best store: record/best/warm entries
# ---------------------------------------------------------------------------

class TestBestStore:
    def _entry(self, name="conv2d_(a)", time=1e-5, features=None, index=4):
        return TuningLogEntry(name, "cuda", index, {"k": [1, 2]}, time,
                              features=features)

    def test_record_and_best_for(self):
        with TuningService() as service, connect(service.address) as client:
            assert client.record_best(self._entry(time=2e-5))
            assert client.record_best(self._entry(time=1e-5, index=9))
            assert not client.record_best(self._entry(time=2e-5))
            best = service.database.best("conv2d_(a)", "cuda")
            assert best.config_index == 9 and best.mean_time == 1e-5

    def test_warm_entries_filter_operator_and_keep_features(self):
        with TuningService() as service, connect(service.address) as client:
            client.record_best(self._entry("conv2d_(a)",
                                           features=[1.0, 2.0, 3.0]))
            client.record_best(self._entry("dense_(b)"))
            entries = client.warm_entries("conv2d", "cuda")
            assert [e.task_name for e in entries] == ["conv2d_(a)"]
            assert entries[0].features == [1.0, 2.0, 3.0]
            assert client.warm_entries("depthwise_conv2d") == []


# ---------------------------------------------------------------------------
# Pretrained cost models
# ---------------------------------------------------------------------------

class TestPretrainedModel:
    def test_gbt_spec_roundtrip_predicts_identically(self):
        rng = np.random.default_rng(0)
        x = rng.random((64, 12))
        y = rng.random(64)
        model = GradientBoostedTrees(seed=0)
        model.fit(x, y)
        clone = GradientBoostedTrees.from_spec(
            json.loads(json.dumps(model.to_spec())))
        np.testing.assert_array_equal(model.predict(x), clone.predict(x))

    def test_service_pretrains_from_database(self, tmp_path):
        db_path = str(tmp_path / "tuning.jsonl")
        rng = np.random.default_rng(1)
        with TuningDatabase(db_path) as db:
            for i in range(10):
                db.add(TuningLogEntry(f"conv2d_({i})", "cuda", i, {},
                                      1e-5 * (1 + i),
                                      features=list(rng.random(6))))
        with TuningService(db_path=db_path) as service:
            assert service.stats()["pretrained_models"] == 1
            with connect(service.address) as client:
                model = client.pretrained_model("conv2d", "cuda")
                assert model is not None
                assert model.predict(rng.random((3, 6))).shape == (3,)
                assert client.pretrained_model("dense", "cuda") is None

    def test_too_few_entries_skip_pretraining(self, tmp_path):
        db_path = str(tmp_path / "tuning.jsonl")
        with TuningDatabase(db_path) as db:
            for i in range(3):
                db.add(TuningLogEntry(f"conv2d_({i})", "cuda", i, {}, 1e-5,
                                      features=[1.0, 2.0]))
        with TuningService(db_path=db_path) as service:
            assert service.stats()["pretrained_models"] == 0


# ---------------------------------------------------------------------------
# Dedup measurer
# ---------------------------------------------------------------------------

class TestServiceDedupMeasurer:
    def test_hits_skip_base_measurer(self):
        task, = autotvm.extract_tasks(conv_graph(), cuda())
        base = autotvm.Measurer(number=2, seed=0)
        with TuningService() as service, connect(service.address) as client:
            measurer = ServiceDedupMeasurer(base, client)
            inputs = [autotvm.MeasureInput(task, task.config_space.get(i))
                      for i in range(4)]
            first = measurer.measure(inputs)
            assert measurer.dedup_hits == 0
            assert base.num_measured == 4
            second = measurer.measure(inputs)
            assert measurer.dedup_hits == 4
            assert base.num_measured == 4          # nothing measured again
            assert [r.mean_time for r in second] == \
                [r.mean_time for r in first]


# ---------------------------------------------------------------------------
# Sessions against a service
# ---------------------------------------------------------------------------

class TestServicedSessions:
    OPTS = dict(trials=12, seed=0, batch_size=4)

    def test_solo_session_is_bit_identical(self):
        autotvm.clear_eval_caches()
        solo = repro.autotune(conv_graph(), target=cuda(),
                              options=TuningOptions(**self.OPTS))
        with TuningService() as service:
            autotvm.clear_eval_caches()
            serviced = repro.autotune(
                conv_graph(), target=cuda(),
                options=TuningOptions(service=service.address, **self.OPTS))
            assert fingerprint(serviced) == fingerprint(solo)
            assert serviced.service_stats["dedup_hits"] == 0
            assert serviced.service_stats["bests_recorded"] == 1

    def test_second_session_dedups_every_measurement(self):
        with TuningService() as service:
            first = repro.autotune(
                conv_graph(), target=cuda(),
                options=TuningOptions(service=service.address, **self.OPTS))
            second = repro.autotune(
                conv_graph(), target=cuda(),
                options=TuningOptions(service=service.address,
                                      warm_start=False, **self.OPTS))
            assert fingerprint(second) == fingerprint(first)
            result, = second.results
            assert result.dedup_hits == result.trials > 0

    def test_concurrent_sessions_match_solo_and_dedup(self):
        autotvm.clear_eval_caches()
        opts = dict(self.OPTS, warm_start=False)
        solo = repro.autotune(conv_graph(), target=cuda(),
                              options=TuningOptions(**opts))
        reports = {}
        with TuningService() as service:
            def run(name, delay):
                if delay:
                    # stagger so the late session finds trials to reuse
                    threading.Event().wait(delay)
                reports[name] = repro.autotune(
                    conv_graph(), target=cuda(),
                    options=TuningOptions(service=service.address, **opts))

            threads = [threading.Thread(target=run, args=("a", 0.0)),
                       threading.Thread(target=run, args=("b", 0.2))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = service.stats()
        assert fingerprint(reports["a"]) == fingerprint(solo)
        assert fingerprint(reports["b"]) == fingerprint(solo)
        total = sum(r.trials for r in reports["b"])
        assert stats["dedup_hits"] >= total // 4

    def test_transfer_from_accumulated_database(self, tmp_path):
        db_path = str(tmp_path / "tuning.jsonl")
        with TuningService(db_path=db_path) as service:
            for co in (16, 24, 32, 40, 48, 56, 64, 72):
                repro.autotune(conv_graph(co=co), target=cuda(),
                               options=TuningOptions(
                                   service=service.address, **self.OPTS))
        # restarting on the accumulated log pretrains a conv2d model
        with TuningService(db_path=db_path) as service:
            assert service.stats()["pretrained_models"] >= 1
            autotvm.clear_eval_caches()
            warm = repro.autotune(
                conv_graph(co=96), target=cuda(),
                options=TuningOptions(service=service.address, **self.OPTS))
            result, = warm.results
            assert result.pretrained
            assert result.warm_samples > 0

    def test_bad_service_value_fails_loudly(self):
        with pytest.raises(TypeError, match="TuningOptions.service"):
            repro.autotune(conv_graph(), target=cuda(),
                           options=TuningOptions(service=123, **self.OPTS))


# ---------------------------------------------------------------------------
# schedule_zoo driver
# ---------------------------------------------------------------------------

class TestScheduleZoo:
    def test_trials_to_target(self):
        assert trials_to_target([3.0, 2.0, 1.0], 1.0) == 3
        assert trials_to_target([3.0, 1.04, 1.0], 1.0) == 2   # within 5%
        assert trials_to_target([3.0, 2.0], 1.0) is None
        assert trials_to_target([], 1.0) is None
        assert trials_to_target([1.0], float("inf")) is None

    def test_schedule_zoo_smoke(self, tmp_path):
        out = str(tmp_path / "BENCH_tuning.json")
        doc = schedule_zoo(models=("dqn",), target="cuda", trials=6,
                           output_path=out)
        assert doc["workloads"], "dqn should contribute conv workloads"
        for row in doc["workloads"]:
            assert row["seconds_per_trial"] > 0
            assert 1 <= row["trials_to_target"] <= row["trials"]
        assert doc["service_stats"]["bests_recorded"] == len(doc["workloads"])
        with open(out, encoding="utf-8") as handle:
            assert json.load(handle)["workloads"] == doc["workloads"]


# ---------------------------------------------------------------------------
# Database writer safety
# ---------------------------------------------------------------------------

class TestDatabaseWriterLock:
    def test_two_writers_conflict(self, tmp_path):
        path = str(tmp_path / "db.jsonl")
        entry = TuningLogEntry("conv2d_(a)", "cuda", 0, {}, 1e-5)
        first = TuningDatabase(path)
        first.add(entry)
        second = TuningDatabase(path)
        with pytest.raises(DatabaseWriteConflictError, match="tuning service"):
            second.add(TuningLogEntry("conv2d_(b)", "cuda", 0, {}, 1e-5))
        first.close()
        # once the holder releases, the second writer proceeds
        second.add(TuningLogEntry("conv2d_(b)", "cuda", 0, {}, 1e-5))
        second.close()

    def test_lock_released_on_close_and_reload(self, tmp_path):
        path = str(tmp_path / "db.jsonl")
        with TuningDatabase(path) as db:
            db.add(TuningLogEntry("conv2d_(a)", "cuda", 1, {}, 1e-5))
        reread = TuningDatabase(path)
        assert len(reread) == 1
        reread.add(TuningLogEntry("conv2d_(a)", "cuda", 2, {}, 2e-5))
        reread.close()

    def test_compact_is_atomic_and_fsynced(self, tmp_path):
        path = str(tmp_path / "db.jsonl")
        db = TuningDatabase(path)
        for i in range(5):
            db.add(TuningLogEntry("conv2d_(a)", "cuda", 0, {}, 1e-5 / (i + 1)))
        db.compact()
        db.close()
        with open(path, encoding="utf-8") as handle:
            lines = [l for l in handle if l.strip()]
        assert len(lines) == 1
        assert not [p for p in os.listdir(tmp_path)
                    if p.startswith("db.jsonl.tmp")]
