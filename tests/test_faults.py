"""Tests for the deterministic fault-injection subsystem (``repro.faults``)
and the hardening it forced: unified framing truncation accounting, worker
kill + respawn under the process pool, and the tuning-service client's
reconnect / circuit-breaker / graceful-degradation behaviour."""

import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

import repro
from repro.autotvm import Measurer, extract_tasks
from repro.autotvm.measure import MeasureInput
from repro.autotvm.service import (ServiceDedupMeasurer, TuningService,
                                   connect)
from repro.autotvm.service.client import ServiceUnavailable, _CircuitBreaker
from repro.autotvm.service.protocol import (MSG as SMSG,
                                            ServiceProtocolError)
from repro.autotvm.service.protocol import recv_frame, send_frame
from repro.faults import (FAULT_KINDS, FaultError, FaultPlan, FaultSpec,
                          active_plan, inject)
from repro.frontend import ModelBuilder
from repro.graph.ir import Graph, Node
from repro.graph.ops import OP_REGISTRY
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


def conv_graph():
    data = Node("null", "data")
    data.shape = (1, 16, 16, 16)
    data.dtype = "float32"
    weight = Node("null", "weight")
    weight.shape = (16, 16, 3, 3)
    weight.dtype = "float32"
    conv = Node("conv2d", "conv", [data, weight],
                {"strides": 1, "padding": 1})
    conv.dtype = "float32"
    conv.shape = OP_REGISTRY["conv2d"].infer_shape(
        [data.shape, weight.shape], conv.attrs)
    return Graph([conv])


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
    CTX = dict(protocol="RPP1", kind=1, transport="pipe", size=10)

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
        plan = FaultPlan([FaultSpec("frame_drop", protocol="RTS1")])
        with plan:
            assert inject("framing.send", **self.CTX) is None
            assert inject("framing.send", **dict(self.CTX,
                                                 protocol="RTS1")) is not None
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

    def test_socket_truncate_breaks_both_ends_cleanly(self):
        a, b = socket.socketpair()
        try:
            with FaultPlan([FaultSpec("frame_truncate", protocol="RTS1",
                                      truncate_bytes=3)]):
                with pytest.raises(ConnectionResetError):
                    send_frame(a, SMSG.HELLO, {"pid": 1})
            # The peer got a torn frame: a ServiceProtocolError that is also
            # a ConnectionError, naming the exact byte accounting.
            with pytest.raises(ServiceProtocolError) as info:
                recv_frame(b)
            assert isinstance(info.value, TruncatedFrameError)
            assert isinstance(info.value, ConnectionError)
            assert info.value.bytes_got < info.value.bytes_expected
        finally:
            a.close()
            b.close()


class TestPartialReads:
    """Satellite: a peer dying mid-frame names bytes-expected/bytes-got."""

    def test_socket_header_truncation(self):
        a, b = socket.socketpair()
        a.sendall(b"RTS1\x01")                  # 5 of 9 header bytes
        a.close()
        with pytest.raises(ServiceProtocolError) as info:
            recv_frame(b)
        assert info.value.bytes_expected == 9
        assert info.value.bytes_got == 5
        b.close()

    def test_socket_payload_truncation(self):
        a, b = socket.socketpair()
        a.sendall(b"RTS1" + bytes([SMSG.HELLO]) +
                  (64).to_bytes(4, "big") + b"partial")
        a.close()
        with pytest.raises(ServiceProtocolError) as info:
            recv_frame(b)
        assert info.value.bytes_expected == 64
        assert info.value.bytes_got == len(b"partial")
        b.close()

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


# ---------------------------------------------------------------------------
# Client resilience
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = _CircuitBreaker(threshold=2, reset_s=0.1)
        assert breaker.state() == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state() == "closed"
        breaker.record_failure()
        assert breaker.state() == "open" and not breaker.allow()
        assert breaker.opens == 1
        time.sleep(0.12)
        assert breaker.state() == "half-open" and breaker.allow()
        breaker.record_failure()                # failed probe re-opens
        assert breaker.state() == "open"
        time.sleep(0.12)
        breaker.record_success()
        assert breaker.state() == "closed" and breaker.allow()


class TestClientResilience:
    FAST = dict(timeout=5.0, rpc_timeout=5.0, backoff_s=0.01,
                backoff_max_s=0.05)

    def test_transient_connect_refused_is_retried(self):
        with TuningService() as service:
            plan = FaultPlan([FaultSpec("connect_refused", max_count=2)])
            with plan:
                with connect(service.address, connect_retries=3,
                             **self.FAST) as client:
                    assert client.stats()["connections"] >= 1
            assert plan.total_injected() == 2

    def test_connect_retries_exhausted_raise_service_unavailable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()                           # nothing listens here now
        with pytest.raises(ServiceUnavailable, match="Cannot connect"):
            connect(dead_address, connect_retries=1, **self.FAST)

    def test_severed_connection_reconnects_transparently(self):
        with TuningService() as service:
            with connect(service.address, **self.FAST) as client:
                client._sock.shutdown(socket.SHUT_RDWR)   # sever mid-life
                assert client.stats()["connections"] >= 1  # reconnected RPC
                assert client.reconnects == 1
                assert client.client_stats()["rpc_failures"] >= 1

    def test_slow_service_hits_rpc_timeout_then_recovers(self):
        with TuningService() as service:
            with connect(service.address, rpc_timeout=0.2, rpc_retries=2,
                         backoff_s=0.01, backoff_max_s=0.05) as client:
                plan = FaultPlan([FaultSpec("slow_response", delay_s=1.0,
                                            max_count=1)])
                with plan:
                    stats = client.stats()      # first attempt stalls 1s
                assert plan.total_injected() == 1
                assert stats["trials_stored"] == 0
                assert client.rpc_failures >= 1

    def test_dead_service_opens_breaker_and_fails_fast(self):
        service = TuningService().start()
        client = connect(service.address, connect_retries=0, rpc_retries=0,
                         **{k: v for k, v in self.FAST.items()
                            if k != "timeout"}, timeout=0.5)
        service.stop()
        for _ in range(3):      # the breaker trips on the third failure
            with pytest.raises(ServiceUnavailable):
                client.stats()
        assert client.breaker_state() == "open"
        start = time.monotonic()
        with pytest.raises(ServiceUnavailable, match="breaker"):
            client.stats()
        assert time.monotonic() - start < 0.1   # fast-fail: no socket work
        client.close()

    def test_half_open_breaker_admits_one_probe(self, monkeypatch):
        service = TuningService().start()
        client = connect(service.address, connect_retries=0, rpc_retries=0,
                         **self.FAST)
        client._breaker = _CircuitBreaker(threshold=1, reset_s=0.2)
        service.stop()
        with pytest.raises(ServiceUnavailable):
            client.stats()                      # trips the breaker open
        time.sleep(0.25)                        # ... and lets it go half-open
        attempts = []

        def refuse_slowly(address, timeout=None):
            attempts.append(address)
            time.sleep(0.1)                     # the others arrive meanwhile
            raise ConnectionRefusedError("service is down")

        monkeypatch.setattr(socket, "create_connection", refuse_slowly)
        start = threading.Barrier(3)
        errors = []

        def call():
            start.wait(timeout=10)
            try:
                client.stats()
            except ServiceUnavailable as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=call, daemon=True)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(attempts) == 1               # one half-open probe
        assert len(errors) == 3
        assert sum("breaker" in message for message in errors) == 2
        client.close()


class TestGracefulDegradation:
    def test_dedup_measurer_degrades_to_local_measurement(self):
        task, = extract_tasks(conv_graph(), cuda())
        inputs = [MeasureInput(task, task.config_space.get(i))
                  for i in range(4)]
        pure_local = Measurer(number=2, seed=0).measure(inputs)

        service = TuningService().start()
        client = connect(service.address, connect_retries=0, rpc_retries=0,
                         backoff_s=0.01, backoff_max_s=0.02, timeout=0.5)
        measurer = ServiceDedupMeasurer(Measurer(number=2, seed=0),
                                        client)
        service.stop()                          # dies mid-run
        results = measurer.measure(inputs)      # must not raise
        assert measurer.service_failures >= 1
        assert measurer.local_fallbacks == len(inputs)
        assert measurer.dedup_hits == 0
        # bit-identical to never having had a service at all
        assert [r.mean_time for r in results] == \
            [r.mean_time for r in pure_local]
        client.close()
