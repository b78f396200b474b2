"""Tests for the deterministic fault-injection subsystem (``repro.faults``)
and the hardening it forced: the pipe frame codec's round trip and
truncation accounting, and worker kill + respawn under the process pool."""

import math
import multiprocessing

import numpy as np
import pytest

import repro
from repro.faults import (FAULT_KINDS, FaultError, FaultPlan, FaultSpec,
                          active_plan, inject)
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import ModuleWorkerPool, leaked_segments
from repro.runtime.artifact import export_module
from repro.runtime.framing import ProtocolError, TruncatedFrameError
from repro.runtime.procpool.protocol import MSG as PMSG
from repro.runtime.procpool.protocol import recv_msg, send_msg


def _small_cnn():
    b = ModelBuilder("small", seed=0)
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


@pytest.fixture(scope="module")
def bundle(module, tmp_path_factory):
    path = tmp_path_factory.mktemp("faults") / "small.module"
    export_module(module, path)
    return str(path)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    assert active_plan() is None
    yield
    assert active_plan() is None, "a test leaked an installed FaultPlan"


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan semantics
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_unknown_kind_lists_known(self):
        with pytest.raises(FaultError, match="frame_drop"):
            FaultSpec("meteor_strike")

    def test_validation(self):
        with pytest.raises(FaultError, match="probability"):
            FaultSpec("frame_drop", probability=1.5)
        with pytest.raises(FaultError, match="after"):
            FaultSpec("frame_drop", after=-1)
        with pytest.raises(FaultError, match="max_count"):
            FaultSpec("frame_drop", max_count=-2)

    def test_action_carries_parameters(self):
        assert FaultSpec("frame_delay", delay_s=0.5).action() == {
            "action": "delay", "seconds": 0.5}
        assert FaultSpec("frame_truncate", truncate_bytes=7).action() == {
            "action": "truncate", "bytes": 7}
        assert FaultSpec("worker_kill").action() == {"action": "kill"}

    def test_every_kind_has_a_site(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind).site == FAULT_KINDS[kind][0]


class TestFaultPlan:
    CTX = dict(protocol="RPP1", kind=1, size=10)

    def _fires(self, plan, n=40, site="framing.send", **ctx):
        context = dict(self.CTX, **ctx)
        with plan:
            return [inject(site, **context) is not None for _ in range(n)]

    def test_install_uninstall_and_context_manager(self):
        plan = FaultPlan([FaultSpec("frame_drop")], seed=1)
        assert inject("framing.send", **self.CTX) is None
        with plan:
            assert active_plan() is plan
            assert inject("framing.send", **self.CTX) == {"action": "drop"}
        assert active_plan() is None
        plan.uninstall()            # idempotent

    def test_plans_do_not_nest(self):
        with FaultPlan([FaultSpec("frame_drop")]):
            with pytest.raises(RuntimeError, match="already installed"):
                FaultPlan([FaultSpec("frame_drop")]).install()

    def test_probability_stream_is_deterministic(self):
        runs = [self._fires(FaultPlan(
            [FaultSpec("frame_drop", probability=0.3)], seed=42))
            for _ in range(2)]
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])
        # a different seed gives a different (but still ~30%) schedule
        other = self._fires(FaultPlan(
            [FaultSpec("frame_drop", probability=0.3)], seed=43))
        assert other != runs[0]

    def test_at_after_and_max_count(self):
        fired = self._fires(FaultPlan(
            [FaultSpec("frame_drop", at=[2, 5])], seed=0), n=8)
        assert fired == [i in (2, 5) for i in range(8)]
        fired = self._fires(FaultPlan(
            [FaultSpec("frame_drop", after=3, max_count=2)], seed=0), n=8)
        assert fired == [False, False, False, True, True,
                         False, False, False]

    def test_scoping_by_protocol_and_match(self):
        plan = FaultPlan([FaultSpec("frame_drop", protocol="XYZ1")])
        with plan:
            assert inject("framing.send", **self.CTX) is None
            assert inject("framing.send", **dict(self.CTX,
                                                 protocol="XYZ1")) is not None
        plan = FaultPlan([FaultSpec("worker_kill", match={"pool": "a"})])
        with plan:
            assert inject("procpool.dispatch", pool="b", index=0) is None
            assert inject("procpool.dispatch", pool="a", index=0) == {
                "action": "kill"}

    def test_stats_track_occurrences_and_injections(self):
        plan = FaultPlan([FaultSpec("frame_drop", at=[1])], seed=0)
        self._fires(plan, n=4)
        stats = plan.stats()
        spec_row, = stats["specs"]
        assert spec_row["occurrences"] == 4
        assert spec_row["injected"] == 1
        assert stats["total_injected"] == plan.total_injected() == 1


# ---------------------------------------------------------------------------
# Frame faults through the unified codec
# ---------------------------------------------------------------------------

class TestFrameFaults:
    def test_pipe_drop_delay_and_truncate(self):
        a, b = multiprocessing.Pipe()
        # A firing spec short-circuits the scan, so the truncate spec never
        # sees send #1: send #2 is *its* occurrence 0.
        plan = FaultPlan([FaultSpec("frame_drop", at=[0]),
                          FaultSpec("frame_truncate", at=[0])], seed=0)
        with plan:
            send_msg(a, PMSG.PING, {})          # dropped
            assert not b.poll(0.05)
            send_msg(a, PMSG.PING, {})          # torn
            with pytest.raises(TruncatedFrameError) as info:
                recv_msg(b)
            assert info.value.bytes_got < info.value.bytes_expected
            send_msg(a, PMSG.PING, {"n": 2})    # clean again
            assert recv_msg(b) == (PMSG.PING, {"n": 2})
        assert plan.total_injected() == 2
        a.close(), b.close()

    def test_pipe_reset_closes_and_raises(self):
        a, b = multiprocessing.Pipe()
        with FaultPlan([FaultSpec("socket_reset", at=[0])]):
            with pytest.raises(ConnectionResetError, match="fault injection"):
                send_msg(a, PMSG.PING, {})
        with pytest.raises(EOFError):
            b.recv_bytes()                      # peer sees a closed pipe
        b.close()


class TestPipeFrames:
    """The RPP1 codec round-trips payloads exactly and refuses foreign
    frames."""

    def test_roundtrip_preserves_tuples_and_inf(self):
        a, b = multiprocessing.Pipe()
        payload = {"args": (1, (3, "x")), "time": float("inf"),
                   "none": None, "flag": True,
                   "exact": 1.0038308959125683e-05}
        send_msg(a, PMSG.EXEC, payload)
        kind, decoded = recv_msg(b)
        assert kind == PMSG.EXEC
        assert decoded["args"] == (1, (3, "x"))
        assert math.isinf(decoded["time"])
        assert decoded["none"] is None
        assert decoded["flag"] is True
        # float repr round-trips bit-exactly through JSON
        assert decoded["exact"] == 1.0038308959125683e-05
        a.close(), b.close()

    def test_bad_magic_rejected(self):
        a, b = multiprocessing.Pipe()
        a.send_bytes(b"XXXX" + bytes(5))
        with pytest.raises(ProtocolError, match="magic"):
            recv_msg(b)
        a.close(), b.close()


class TestPartialReads:
    """Satellite: a peer dying mid-frame names bytes-expected/bytes-got."""

    def test_pipe_payload_truncation(self):
        a, b = multiprocessing.Pipe()
        a.send_bytes(b"RPP1" + bytes([PMSG.PING]) +
                     (64).to_bytes(4, "big") + b"partial")
        with pytest.raises(TruncatedFrameError) as info:
            recv_msg(b)
        assert isinstance(info.value, ConnectionError)
        assert info.value.bytes_expected == 64
        assert info.value.bytes_got == len(b"partial")
        a.close(), b.close()

    def test_pipe_short_frame(self):
        a, b = multiprocessing.Pipe()
        a.send_bytes(b"RPP1\x01")
        with pytest.raises(ProtocolError) as info:
            recv_msg(b)
        assert isinstance(info.value, TruncatedFrameError)
        assert info.value.bytes_expected == 9
        assert info.value.bytes_got == 5
        a.close(), b.close()


# ---------------------------------------------------------------------------
# Worker kill under the process pool
# ---------------------------------------------------------------------------

class TestWorkerKill:
    def test_killed_worker_respawns_and_batch_is_bit_identical(
            self, module, bundle):
        kind = module.target.device_type
        rng = np.random.default_rng(5)
        inputs = [rng.random((1, 3, 16, 16)).astype("float32")
                  for _ in range(3)]
        from repro.runtime import Executor

        expected = [Executor(module)(x)[0].asnumpy() for x in inputs]
        plan = FaultPlan([FaultSpec("worker_kill", at=[0],
                                    match={"pool": "repro-serve-pool"})])
        with ModuleWorkerPool(module, bundle, [f"{kind}:0"]) as pool:
            with plan:
                outcomes = pool.run_batch(0, [{"data": x} for x in inputs])
            for outcome, want in zip(outcomes, expected):
                np.testing.assert_array_equal(outcome[0], want)
            stats, = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["retries"] >= 1
        assert plan.total_injected() == 1
        assert leaked_segments() == []
