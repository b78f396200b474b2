"""Tests for repro.serve(): dynamic batching, the device pool, wall-clock
serving statistics, and the admission queue the workers pull from."""

import queue
import random
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import (DeadlineExceeded, Executor, QueueFull,
                           RequestCancelled, ServingError)
from repro.autotvm import eval_cache_stats
from repro.runtime import serving
from repro.runtime.admission import _AdmissionQueue, _Request
from repro.runtime.batching import _choose_batch_size


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
def requests_and_expected(module):
    rng = np.random.default_rng(5)
    inputs = [rng.random((1, 3, 16, 16)).astype("float32") for _ in range(8)]
    solo = Executor(module)
    expected = [solo(x)[0].asnumpy() for x in inputs]
    return inputs, expected


def _serve_threads():
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-serve-")]


def _wait_no_serve_threads(timeout=10.0):
    deadline = time.monotonic() + timeout
    while _serve_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _serve_threads() == []


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------

class TestInferenceEngine:
    def test_outputs_bit_identical_to_solo_execution(self, module,
                                                     requests_and_expected):
        inputs, expected = requests_and_expected
        with repro.serve(module, max_batch=4, timeout_ms=200) as engine:
            results = engine.infer_many([{"data": x} for x in inputs],
                                        timeout=30)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got[0], want)

    def test_dynamic_batching_coalesces(self, module, requests_and_expected):
        inputs, _ = requests_and_expected
        engine = repro.serve(module, max_batch=4, timeout_ms=500)
        futures = [engine.submit(data=x) for x in inputs]
        for future in futures:
            future.result(30)
        engine.shutdown()
        stats = engine.stats()
        assert stats["requests"] == len(inputs)
        assert stats["batches"] < len(inputs)
        assert stats["mean_batch_occupancy"] > 1.0
        assert sum(size * count for size, count
                   in stats["batch_occupancy"].items()) == len(inputs)

    def test_first_batch_of_a_new_size_does_not_wait_for_an_estimate(
            self, module, requests_and_expected, monkeypatch):
        # A batch of a size the engine has not served before starts at
        # once: between claiming it and executing it nothing may clone the
        # graph or featurise a kernel (on resnet-18 that is seconds).
        from repro.runtime import artifact

        inputs, expected = requests_and_expected
        engine = repro.serve(module, max_batch=4, timeout_ms=500)
        try:
            engine.infer(data=inputs[0], timeout=30)
            misses = eval_cache_stats()["features"]["misses"]

            def no_clone(*args, **kwargs):
                raise AssertionError("serving cloned the graph")

            monkeypatch.setattr(artifact, "graph_from_json", no_clone)
            futures = [engine.submit(data=x) for x in inputs[:4]]
            for future, want in zip(futures, expected):
                np.testing.assert_array_equal(future.result(30)[0], want)
            assert eval_cache_stats()["features"]["misses"] == misses
        finally:
            engine.shutdown()
        assert engine.stats()["batch_occupancy"] == {1: 1, 4: 1}

    def test_batches_spread_across_devices(self, module, requests_and_expected):
        inputs, _ = requests_and_expected
        engine = repro.serve(module, devices=["gpu:0", "gpu:1"],
                             max_batch=4, timeout_ms=500)
        engine.infer_many([{"data": x} for x in inputs], timeout=30)
        engine.shutdown()
        stats = engine.stats()
        per_device = stats["batches_per_device"]
        assert set(per_device) == {"gpu:0", "gpu:1"}
        assert sum(per_device.values()) == stats["batches"]
        assert min(per_device.values()) > 0
        assert max(per_device.values()) - min(per_device.values()) <= 1

    def test_serve_from_artifact_path(self, module, tmp_path,
                                      requests_and_expected):
        inputs, expected = requests_and_expected
        path = tmp_path / "served.repro"
        module.export(path)
        with repro.serve(str(path), max_batch=2, timeout_ms=50) as engine:
            result = engine.infer(data=inputs[0], timeout=30)
        np.testing.assert_array_equal(result[0], expected[0])

    def test_submit_after_shutdown_raises(self, module):
        engine = repro.serve(module, max_batch=2)
        engine.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            engine.submit(data=np.zeros((1, 3, 16, 16), "float32"))

    def test_bad_request_shapes_fail_fast(self, module):
        with repro.serve(module, max_batch=2) as engine:
            with pytest.raises(ValueError, match="native-batch"):
                engine.submit(data=np.zeros((2, 3, 16, 16), "float32"))
            with pytest.raises(ValueError, match="data"):
                engine.submit(wrong=np.zeros((1, 3, 16, 16), "float32"))

    def test_submit_copies_inputs(self, module):
        # A client reusing its input buffer must not corrupt in-flight
        # requests: the engine snapshots inputs at submit time.
        rng = np.random.default_rng(9)
        first = rng.random((1, 3, 16, 16)).astype("float32")
        second = rng.random((1, 3, 16, 16)).astype("float32")
        expected = Executor(module)(first)[0].asnumpy()
        buffer = first.copy()
        with repro.serve(module, max_batch=4, timeout_ms=200) as engine:
            future = engine.submit(data=buffer)
            buffer[...] = second
            got = future.result(30)
        np.testing.assert_array_equal(got[0], expected)

    def test_async_shutdown_still_serves_queued_requests(self, module):
        engine = repro.serve(module, max_batch=2, timeout_ms=50)
        futures = [engine.submit(data=np.zeros((1, 3, 16, 16), "float32"))
                   for _ in range(4)]
        engine.shutdown(wait=False)
        # Queued requests still resolve, and the worker exits only after it
        # has drained them.
        for future in futures:
            assert len(future.result(30)) == 1
        _wait_no_serve_threads()

    def test_latency_series_are_windowed_counters_stay_exact(
            self, module, requests_and_expected, monkeypatch):
        # A long-lived engine must not grow one float per request forever:
        # the latency samples keep the last _LATENCY_WINDOW requests
        # while every counter still covers the engine's whole lifetime.
        from repro.runtime import serving

        monkeypatch.setattr(serving, "_LATENCY_WINDOW", 3)
        inputs, _ = requests_and_expected
        with repro.serve(module, max_batch=1) as engine:
            engine.infer_many([{"data": x} for x in inputs], timeout=30)
        stats = engine.stats()
        assert stats["requests"] == stats["batches"] == len(inputs)
        assert stats["batch_occupancy"] == {1: len(inputs)}
        assert len(engine._latency_samples) == 3
        assert stats["wall"]["latency"]["mean_ms"] > 0.0

    def test_engine_validates_knobs(self, module):
        with pytest.raises(ValueError, match="max_batch"):
            repro.serve(module, max_batch=0)
        with pytest.raises(ValueError, match="devices"):
            repro.serve(module, devices=0)


# ---------------------------------------------------------------------------
# SLO machinery: deadlines, priorities, shedding, cancellation
# ---------------------------------------------------------------------------

def _gated_engine(module, **kwargs):
    """An engine whose back-end blocks on ``gate``; ``entered`` is set the
    moment a batch reaches execution (i.e. after it was claimed)."""
    engine = repro.serve(module, **kwargs)
    gate = threading.Event()
    entered = threading.Event()
    original = engine._backend.run_batch

    def gated(index, requests):
        entered.set()
        gate.wait(30)
        return original(index, requests)

    engine._backend.run_batch = gated
    return engine, gate, entered


class TestSLO:
    X = np.zeros((1, 3, 16, 16), "float32")

    def test_knob_validation(self, module):
        with pytest.raises(ValueError, match="max_queue"):
            repro.serve(module, max_queue=0)
        with repro.serve(module, max_batch=1) as engine:
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit(data=self.X, deadline_ms=0)

    def test_deadline_expired_in_window_is_shed(self, module):
        # A 400ms coalescing window outlives a 50ms deadline: the expired
        # request is shed before execution, its batchmate is unaffected.
        engine = repro.serve(module, max_batch=8, timeout_ms=400)
        keep = engine.submit(data=self.X)
        drop = engine.submit(data=self.X, deadline_ms=50)
        assert len(keep.result(30)) == 1
        with pytest.raises(DeadlineExceeded, match="shed, not executed"):
            drop.result(30)
        engine.shutdown()
        stats = engine.stats()
        assert stats["requests"] == 1
        assert stats["slo"]["shed_expired"] == 1
        assert stats["slo"]["shed_total"] == 1

    def test_result_timeout_then_cancel_skips_execution(self, module):
        engine, gate, entered = _gated_engine(module, max_batch=1,
                                              timeout_ms=1)
        try:
            first = engine.submit(data=self.X)
            assert entered.wait(10)
            second = engine.submit(data=self.X)   # queued behind the gate
            with pytest.raises(TimeoutError):
                second.result(0.05)
            assert second.cancel() is True
            assert second.cancel() is True        # idempotent
            assert second.cancelled()
        finally:
            gate.set()
        assert len(first.result(30)) == 1
        assert first.cancel() is False            # too late: already done
        with pytest.raises(RequestCancelled):
            second.result(30)
        engine.shutdown()
        stats = engine.stats()
        # The cancelled request was never executed and never counted.
        assert stats["requests"] == 1
        assert stats["slo"]["cancelled"] == 1

    def test_cancel_in_window_never_dispatches(self, module):
        engine = repro.serve(module, max_batch=8, timeout_ms=500)
        future = engine.submit(data=self.X)
        time.sleep(0.05)          # let the worker pull it into the window
        assert future.cancel() is True
        with pytest.raises(RequestCancelled):
            future.result(5)
        engine.shutdown()
        stats = engine.stats()
        assert stats["requests"] == 0
        assert stats["batches"] == 0
        assert stats["slo"]["cancelled"] == 1

    def test_queue_full_sheds_lowest_priority_newest(self, module):
        engine, gate, entered = _gated_engine(module, max_batch=1,
                                              timeout_ms=1, max_queue=2)
        futures, full_raises = [], 0
        try:
            futures.append(engine.submit(data=self.X))
            assert entered.wait(10)
            # One request executes; everything else waits in the admission
            # queue.  Among equal priorities the *incoming* request is
            # always the shed victim, so queued futures are never evicted.
            for _ in range(100):
                try:
                    futures.append(engine.submit(data=self.X))
                except QueueFull:
                    full_raises += 1
                if full_raises >= 3 \
                        and engine.stats()["slo"]["queue_depth"] == 2:
                    break
            assert full_raises >= 3
            assert engine.stats()["slo"]["queue_depth"] == 2
            # A high-priority arrival is admitted by evicting the newest
            # queued low-priority request.
            vip = engine.submit(data=self.X, priority=10)
        finally:
            gate.set()
        assert len(vip.result(30)) == 1
        served, shed = 0, 0
        for future in futures:
            try:
                future.result(30)
                served += 1
            except QueueFull:
                shed += 1
        assert shed == 1                  # exactly the future vip evicted
        assert served == len(futures) - 1
        engine.shutdown()
        stats = engine.stats()
        assert stats["requests"] == served + 1
        assert stats["slo"]["shed_queue_full"] == full_raises + 1

    def test_late_completion_counts_deadline_violation(self, module):
        engine, gate, entered = _gated_engine(module, max_batch=1,
                                              timeout_ms=1)
        try:
            future = engine.submit(data=self.X, deadline_ms=150)
            assert entered.wait(10)       # claimed before the deadline
            time.sleep(0.3)               # ... but finishes after it
        finally:
            gate.set()
        assert len(future.result(30)) == 1    # late work still delivered
        engine.shutdown()
        slo = engine.stats()["slo"]
        assert slo["deadline_violations"] == 1
        assert slo["shed_expired"] == 0

    def test_shutdown_drain_false_rejects_backlog(self, module):
        engine, gate, entered = _gated_engine(module, max_batch=1,
                                              timeout_ms=1)
        futures = [engine.submit(data=self.X) for _ in range(8)]
        assert entered.wait(10)
        engine.shutdown(wait=False, drain=False)
        gate.set()
        served, rejected = 0, 0
        for future in futures:
            try:
                future.result(30)
                served += 1
            except ServingError:
                rejected += 1
        assert served >= 1                # in-flight batches still finish
        assert rejected >= 1              # the backlog is rejected, not hung
        _wait_no_serve_threads()

    def test_admission_queue_orders_and_sheds(self):
        q = _AdmissionQueue(3)
        low_old = _Request({}, priority=0)
        high = _Request({}, priority=5)
        low_new = _Request({}, priority=0)
        for request in (low_old, high, low_new):
            q.put(request)
        # Incoming equal-priority request is itself the newest low: rejected.
        with pytest.raises(QueueFull):
            q.put(_Request({}, priority=0))
        # A higher-priority arrival evicts the newest queued low instead.
        mid = _Request({}, priority=1)
        q.put(mid)
        assert low_new.future.done()
        with pytest.raises(QueueFull):
            low_new.future.result(0)
        assert q.pop_batch(2, 0.0) == [high, mid]
        assert q.pop_batch(2, 0.0) == [low_old]     # window already over
        q.close()
        assert q.pop_batch(2, 0.0) is None
        with pytest.raises(ServingError, match="shut down"):
            q.put(_Request({}))
        assert q.counters() == {"shed_queue_full": 2, "shed_expired": 0}

    def test_pop_batch_window_is_anchored_at_admission(self):
        # A request that already waited out its coalescing window (behind a
        # busy device) is handed over at once; a fresh one waits for mates.
        q = _AdmissionQueue(8)
        waited = _Request({})
        waited.enqueued_at -= 10.0
        q.put(waited)
        start = time.monotonic()
        assert q.pop_batch(4, 5.0) == [waited]
        assert time.monotonic() - start < 1.0
        fresh, mate = _Request({}), _Request({})
        q.put(fresh)
        threading.Timer(0.05, q.put, args=(mate,)).start()
        assert q.pop_batch(2, 5.0) == [fresh, mate]

    def test_pop_batch_window_ends_after_the_oldest_member(self):
        # The first request popped is the highest-priority one, not the
        # oldest: a fresh VIP joined by a request whose window is long over
        # must not idle the device for a new window.
        q = _AdmissionQueue(8)
        waited = _Request({})
        waited.enqueued_at -= 10.0
        vip = _Request({}, priority=5)
        q.put(waited)
        q.put(vip)
        start = time.monotonic()
        assert q.pop_batch(4, 5.0) == [vip, waited]
        assert time.monotonic() - start < 1.0

    def test_one_worker_fills_a_batch_at_a_time(self):
        # Four idle workers, a burst of eight: one full batch, handed over
        # as soon as it is full — not one partial batch per woken worker,
        # each sitting out the window.
        q = _AdmissionQueue(64)
        batches = []

        def worker():
            while True:
                batch = q.pop_batch(8, 30.0)
                if batch is None:
                    return
                batches.append((time.monotonic(), batch))

        workers = [threading.Thread(target=worker, daemon=True)
                   for _ in range(4)]
        for thread in workers:
            thread.start()
        time.sleep(0.05)                       # all four idle in pop_batch
        for burst in range(3):
            requests = [_Request({}) for _ in range(8)]
            start = time.monotonic()
            for request in requests:
                q.put(request)
                time.sleep(0.002)              # lets each woken worker run
            deadline = start + 10.0
            while len(batches) <= burst and time.monotonic() < deadline:
                time.sleep(0.005)
            assert [batch for _, batch in batches[burst:]] == [requests]
            assert batches[burst][0] - start < 5.0
        q.close()
        for thread in workers:
            thread.join(10)
        assert not any(thread.is_alive() for thread in workers)

    def test_put_after_close_names_the_reason_not_the_backlog_error(self):
        q = _AdmissionQueue(4)
        queued = _Request({})
        q.put(queued)
        q.close(backlog_error=ServingError("backlog rejected"))
        with pytest.raises(ServingError, match="backlog rejected"):
            queued.future.result(0)
        with pytest.raises(ServingError, match="has been shut down"):
            q.put(_Request({}))

    def test_pop_batch_sizes_from_headrooms_under_the_same_lock(self):
        q = _AdmissionQueue(8)
        now = time.monotonic()
        urgent = _Request({}, deadline=now + 100.0, priority=1)
        relaxed = _Request({})
        for request in (relaxed, urgent):
            q.put(request)
        seen = []

        def choose(headrooms):
            seen.append(list(headrooms))
            return 1

        assert q.pop_batch(8, 0.0, choose) == [urgent]
        assert q.depth() == 1
        (headrooms,) = seen                   # pop order: urgent, relaxed
        assert headrooms[1] is None and 99.0 < headrooms[0] <= 100.0


# ---------------------------------------------------------------------------
# Property-based _AdmissionQueue invariants (satellite: seeded-random loops)
# ---------------------------------------------------------------------------

class TestAdmissionQueueProperties:
    """Seeded-random interleavings of put/pop/expiry/cancel checked against
    the shared reference model (``conftest.ReferenceQueue``) of the
    documented shedding semantics."""

    def test_random_interleavings_match_reference_model(self,
                                                        reference_queue):
        for trial in range(25):
            rng = random.Random(f"admission-props-{trial}")
            maxsize = rng.randint(1, 4)
            q = _AdmissionQueue(maxsize)
            model = reference_queue(maxsize)
            now = time.monotonic()
            puts, pops = [], []

            def pop():
                # pop_batch blocks on a queue with nothing live, so only
                # pop when the model says a live request is waiting.
                want = model.pop_batch(1)
                assert q.pop_batch(1, 0.0) == want
                pops.extend(want)

            ops = ["put_fresh"] * 5 + ["put_expired"] * 2 + ["pop"] * 3 \
                + ["cancel"] * 2
            for _ in range(50):
                op = rng.choice(ops)
                if op in ("put_fresh", "put_expired"):
                    expired = op == "put_expired"
                    deadline = (now - 1.0) if expired else (now + 1000.0)
                    request = _Request({}, deadline=deadline,
                                       priority=rng.randint(0, 3))
                    puts.append(request)
                    admitted = model.put(request, request.priority, expired)
                    try:
                        q.put(request)
                        raised = False
                    except QueueFull:
                        raised = True
                    assert raised == (not admitted)
                elif op == "pop" and model.has_live():
                    pop()
                elif op == "cancel" and model.cancellable():
                    victim = rng.choice(model.cancellable())
                    assert victim.future.cancel() is True
                    model.cancel(victim)

            while model.has_live():            # drain what's left
                pop()
            q.close()
            assert q.pop_batch(1, 0.0) is None  # purges the stragglers
            assert model.pop_batch(1) == []

            # -- invariants ------------------------------------------------
            # Counters match the model and sum to the observed rejections.
            assert q.counters() == {
                "shed_queue_full": model.shed_queue_full,
                "shed_expired": model.shed_expired}
            # Every put has exactly one disposition.
            assert set(model.fate) == set(puts)
            errors = {"expired": DeadlineExceeded, "evicted": QueueFull,
                      "cancelled": RequestCancelled}
            for request, fate in model.fate.items():
                if fate in errors:
                    # Shedding order: every expired put rejects with
                    # DeadlineExceeded (never QueueFull) once purged, and
                    # queue-full victims are lowest-priority/newest: evicted
                    # queued requests resolve to QueueFull ...
                    with pytest.raises(errors[fate]):
                        request.future.result(0)
                else:
                    # ... while an incoming victim ("rejected") sees the
                    # raise directly and its future stays untouched, and
                    # popped requests are live: never expired or cancelled.
                    assert not request.future.done()
            # No request is both shed and popped.
            assert {r for r, fate in model.fate.items()
                    if fate == "popped"} == set(pops)
            assert len(pops) == len(set(pops))


# ---------------------------------------------------------------------------
# One queue, workers pull: the whole engine, stepped through run_batch
# ---------------------------------------------------------------------------

class _WorkerThreadDeath(BaseException):
    """Deliberately not an Exception: escapes the per-batch error handling."""


class _Parked:
    """One batch held at the ``run_batch`` seam until the test releases it."""

    def __init__(self, markers):
        self.markers = markers
        self.die = False
        self.release = threading.Event()


class _SteppedBackend:
    """Replaces ``engine._backend.run_batch``: every batch parks until the
    test releases it (``die=True`` kills its worker thread instead), so the
    test decides exactly when each device frees up.  Requests are told
    apart by the marker in ``data[0, 0, 0, 0]``."""

    def __init__(self, engine):
        self.entered = queue.Queue()      # _Parked, in arrival order
        self.free_run = threading.Event()  # set: stop parking new batches
        self.executed = []                # markers that reached execution
        self._lock = threading.Lock()
        self._original = engine._backend.run_batch
        engine._backend.run_batch = self

    def __call__(self, index, requests):
        parked = _Parked([int(inputs["data"][0, 0, 0, 0])
                          for inputs in requests])
        if not self.free_run.is_set():
            self.entered.put(parked)
            assert parked.release.wait(60)
            if parked.die:
                raise _WorkerThreadDeath("simulated executor death")
        with self._lock:
            self.executed.extend(parked.markers)
        return self._original(index, requests)

    def next_batch(self):
        return self.entered.get(timeout=10)

    def release_all(self, parked):
        self.free_run.set()
        for batch in parked:
            batch.release.set()


def _marked(marker):
    x = np.zeros((1, 3, 16, 16), "float32")
    x[0, 0, 0, 0] = marker
    return x


def _wait_depth(engine, depth, timeout=10.0):
    deadline = time.monotonic() + timeout
    while engine.stats()["slo"]["queue_depth"] != depth \
            and time.monotonic() < deadline:
        time.sleep(0.001)
    assert engine.stats()["slo"]["queue_depth"] == depth


class TestOneQueue:
    def test_admission_queue_is_the_only_place_a_request_waits(self, module):
        # Pinned at the redesign: with a batcher thread and per-device
        # worker queues, up to devices * 2 + 1 formed batches sat outside
        # the admission queue — out of reach of max_queue, queue_depth and
        # priorities.  Now a request waits in the queue or it is executing.
        engine = repro.serve(module, devices=2, max_batch=1, timeout_ms=0,
                             max_queue=9)
        backend = _SteppedBackend(engine)
        assert sorted(_serve_threads()) == ["repro-serve-worker-gpu:0",
                                            "repro-serve-worker-gpu:1"]
        futures, parked = [], []

        def check_accounting():
            in_flight = sum(len(batch.markers) for batch in parked)
            resolved = sum(future.done() for future in futures)
            assert engine.stats()["slo"]["queue_depth"] + in_flight \
                == len(futures) - resolved

        try:
            for marker in (0, 1):         # hold both devices busy
                futures.append(engine.submit(data=_marked(marker)))
                parked.append(backend.next_batch())
                check_accounting()
            for marker in range(2, 10):
                futures.append(engine.submit(data=_marked(marker)))
                check_accounting()
            vip = engine.submit(data=_marked(10), priority=5)
            futures.append(vip)
            check_accounting()
            # (b) max_queue is the bound: nine wait, the tenth is refused.
            assert engine.stats()["slo"]["queue_depth"] == 9
            with pytest.raises(QueueFull):
                engine.submit(data=_marked(11))
            # (a) the late high-priority request is the next one executed.
            first = parked.pop(0)
            first.release.set()
            assert len(futures[first.markers[0]].result(30)) == 1
            parked.append(backend.next_batch())
            assert parked[-1].markers == [10]
            check_accounting()            # (c) holds at every sample
        finally:
            backend.release_all(parked)
        for future in futures:
            assert len(future.result(30)) == 1
        engine.shutdown()
        assert _serve_threads() == []
        assert engine.stats()["slo"]["shed_queue_full"] == 1

    def test_burst_onto_an_idle_pool_is_one_full_batch(
            self, module, requests_and_expected):
        # Four idle devices, a window far longer than the test: every burst
        # of eight must leave as one batch of eight the moment it is full
        # (as with the one batcher thread this design replaced) — not as a
        # partial batch per woken worker, each idling out the window — and
        # the bursts must rotate over the devices.
        inputs, expected = requests_and_expected
        engine = repro.serve(module, devices=4, max_batch=8,
                             timeout_ms=20_000)
        try:
            for _ in range(4):
                start = time.monotonic()
                futures = []
                for x in inputs:
                    futures.append(engine.submit(data=x))
                    time.sleep(0.001)     # lets each woken worker run
                for future, want in zip(futures, expected):
                    np.testing.assert_array_equal(future.result(10)[0], want)
                assert time.monotonic() - start < 5.0
            stats = engine.stats()
            assert stats["batch_occupancy"] == {8: 4}
            assert stats["batches_per_device"] == {
                f"gpu:{i}": 1 for i in range(4)}
        finally:
            engine.shutdown(drain=False)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestEngineAgainstReferenceModel:
    """Seeded interleavings of submit / cancel / expire / kill-worker /
    shutdown(drain=, wait=) drive the whole engine lock-step against the
    shared reference queue model.  The test holds every device busy at the
    ``run_batch`` seam and releases one batch at a time, so which requests
    the freed worker pulls next — and every request's final outcome — is a
    pure function of the operation sequence."""

    DEVICES, MAX_BATCH, MAX_QUEUE = 2, 2, 3
    ERRORS = {"expired": DeadlineExceeded, "evicted": QueueFull,
              "cancelled": RequestCancelled, "killed": ServingError,
              "closed": ServingError}

    @pytest.mark.parametrize("seed", range(12))
    def test_interleavings_match_reference_model(self, module,
                                                 reference_queue, seed):
        rng = random.Random(f"engine-model-{seed}")
        engine = repro.serve(module, devices=self.DEVICES,
                             max_batch=self.MAX_BATCH, timeout_ms=0,
                             max_queue=self.MAX_QUEUE)
        backend = _SteppedBackend(engine)
        model = reference_queue(self.MAX_QUEUE)
        futures = {}                      # marker -> InferenceFuture
        fate = {}                         # marker -> "served" | "killed"
        parked = []                       # batches held at the seam
        idle = live_workers = self.DEVICES

        def submit(marker):
            priority = rng.randint(0, 3)
            if live_workers == 0:
                with pytest.raises(ServingError, match="has died"):
                    engine.submit(data=_marked(marker), priority=priority)
                return
            # Only a request that will wait (no idle worker to grab it) may
            # carry a deadline short enough to expire in the queue.
            expiring = idle == 0 and rng.random() < 0.3
            admitted = model.put(marker, priority)
            try:
                futures[marker] = engine.submit(
                    data=_marked(marker), priority=priority,
                    deadline_ms=1 if expiring else 60_000)
                assert admitted
            except QueueFull:
                assert not admitted
                return
            if admitted and expiring:
                time.sleep(0.005)         # its deadline has passed now
                model.expire(marker)

        def pull():
            """A live worker just became free: it pulls what the model
            says, or — nothing live waiting — purges and goes idle."""
            nonlocal idle
            want = model.pop_batch(self.MAX_BATCH)
            if want:
                parked.append(backend.next_batch())
                assert parked[-1].markers == want
            else:
                _wait_depth(engine, 0)
                idle += 1

        def step():
            nonlocal live_workers
            batch = parked.pop(rng.randrange(len(parked)))
            batch.die = rng.random() < 0.1
            batch.release.set()
            for marker in batch.markers:
                fate[marker] = "killed" if batch.die else "served"
                try:
                    futures[marker].result(30)
                except ServingError:
                    pass
            if not batch.die:
                pull()
                return
            live_workers -= 1
            if live_workers == 0:         # last one out rejects the backlog
                model.close(reject=True)

        marker = 0
        try:
            for _ in range(40):
                op = rng.choice(["submit"] * 5 + ["step"] * 3 + ["cancel"] * 2)
                if op == "submit":
                    submit(marker)
                    if idle and marker in futures:
                        idle -= 1         # grabbed at once, alone
                        pull()
                    marker += 1
                elif op == "step" and parked:
                    step()
                elif op == "cancel" and model.cancellable():
                    victim = rng.choice(model.cancellable())
                    assert futures[victim].cancel() is True
                    model.cancel(victim)

            drain, wait = bool(seed & 1), bool(seed & 2)
            closer = threading.Thread(
                target=engine.shutdown, kwargs={"drain": drain, "wait": wait})
            closer.start()
            if drain:
                while True:               # the survivors serve the backlog
                    served = model.pop_batch(self.MAX_BATCH)
                    if not served:
                        break
                    fate.update(dict.fromkeys(served, "served"))
            else:
                model.close(reject=True)
                _wait_depth(engine, 0)    # backlog rejected before release
        finally:
            backend.release_all(parked)
        fate.update(dict.fromkeys(
            (m for batch in parked for m in batch.markers), "served"))
        closer.join(30)
        assert not closer.is_alive()
        _wait_no_serve_threads()

        # Every admitted request has exactly one outcome, of the right type.
        fate.update({key: value for key, value in model.fate.items()
                     if value not in ("popped", "rejected")})
        assert set(fate) == set(futures)
        for marker, future in futures.items():
            assert future.done(), f"request {marker} hangs"
            expected = self.ERRORS.get(fate[marker])
            if expected is None:
                assert len(future.result(0)) == 1
            else:
                with pytest.raises(expected) as raised:
                    future.result(0)
                assert type(raised.value) is expected
        served = {m for m, outcome in fate.items() if outcome == "served"}
        cancelled = {m for m, outcome in fate.items()
                     if outcome == "cancelled"}
        # Cancelled requests never reach execution and are never counted.
        assert set(backend.executed) == served
        assert len(backend.executed) == len(served)
        stats = engine.stats()
        assert stats["requests"] == len(served)
        assert stats["slo"]["cancelled"] == len(cancelled)
        assert stats["slo"]["queue_depth"] == 0
        assert stats["slo"]["shed_queue_full"] == model.shed_queue_full
        assert stats["slo"]["shed_expired"] == model.shed_expired


# ---------------------------------------------------------------------------
# cancel()/dispatch race (satellite: hostile-thread regression)
# ---------------------------------------------------------------------------

class TestCancelDispatchRace:
    def test_hostile_cancels_never_execute_never_violate(self, module):
        # A request cancelled while the batcher is coalescing must never
        # execute and never count as a deadline violation — whichever side
        # wins the claim race.
        import random as random_mod

        rng = random_mod.Random("cancel-race")
        engine = repro.serve(module, max_batch=4, timeout_ms=2, devices=1)
        executed, record_lock = [], threading.Lock()
        original = engine._backend.run_batch

        def recording(index, requests):
            with record_lock:
                executed.extend(int(inputs["data"][0, 0, 0, 0])
                                for inputs in requests)
            return original(index, requests)

        engine._backend.run_batch = recording
        futures, threads = [], []
        try:
            for marker in range(40):
                x = np.zeros((1, 3, 16, 16), "float32")
                x[0, 0, 0, 0] = marker
                future = engine.submit(data=x, deadline_ms=60_000)
                futures.append(future)

                def hostile(f=future, delay=rng.uniform(0.0, 0.005)):
                    time.sleep(delay)
                    f.cancel()

                thread = threading.Thread(target=hostile)
                thread.start()
                threads.append(thread)
                time.sleep(rng.uniform(0.0, 0.002))
            for thread in threads:
                thread.join(10)
            served, cancelled = set(), set()
            for marker, future in enumerate(futures):
                try:
                    future.result(30)
                    served.add(marker)
                except RequestCancelled:
                    cancelled.add(marker)
        finally:
            engine.shutdown()

        assert served | cancelled == set(range(40))
        with record_lock:
            executed_set = set(executed)
        # Cancelled requests never reached execution; served ones all did.
        assert not (executed_set & cancelled)
        assert served == executed_set
        stats = engine.stats()
        assert stats["requests"] == len(served)
        assert stats["slo"]["cancelled"] == len(cancelled)
        assert stats["slo"]["deadline_violations"] == 0

    def test_cancel_after_claim_loses_the_race(self, module):
        engine, gate, entered = _gated_engine(module, max_batch=1,
                                              timeout_ms=1)
        try:
            future = engine.submit(data=np.zeros((1, 3, 16, 16), "float32"))
            assert entered.wait(10)           # claimed: execution started
            assert future.cancel() is False   # the hostile caller lost
            assert not future.cancelled()
        finally:
            gate.set()
        assert len(future.result(30)) == 1
        engine.shutdown()
        stats = engine.stats()
        assert stats["requests"] == 1
        assert stats["slo"]["cancelled"] == 0


# ---------------------------------------------------------------------------
# Graphs without a shared batch axis
# ---------------------------------------------------------------------------

def _non_batchable_module():
    """Two data inputs with different leading dims: not dynamically
    batchable (there is no shared batch axis to concatenate along)."""
    b = ModelBuilder("nonbatch", seed=0)
    x1 = b.input("x1", (1, 4))
    x2 = b.input("x2", (2, 2))
    out = b.add(x1, b.reshape(x2, (1, 4)))
    graph, params = b.finalize(out)
    return repro.compile((graph, params, {"x1": (1, 4), "x2": (2, 2)}),
                         target=cuda())


class TestNonBatchableGraphs:
    def test_static_max_batch_gt_one_rejected_with_typed_error(self):
        module = _non_batchable_module()
        with pytest.raises(ValueError, match="leading batch axis"):
            repro.serve(module, max_batch=2)

    def test_adaptive_degrades_to_batches_of_one(self):
        module = _non_batchable_module()
        engine = repro.serve(module, max_batch="adaptive")
        try:
            assert engine.max_batch == 1
            x1 = np.ones((1, 4), "float32")
            x2 = np.ones((2, 2), "float32")
            outs = engine.infer(x1=x1, x2=x2)
            np.testing.assert_array_equal(outs[0], np.full((1, 4), 2.0,
                                                           "float32"))
        finally:
            engine.shutdown()


# ---------------------------------------------------------------------------
# Adaptive batch sizing (tentpole: max_batch="adaptive")
# ---------------------------------------------------------------------------

def _wall_priced_engine(module, cost, **kwargs):
    """A one-device adaptive engine whose batch of ``k`` requests takes
    ``cost(k)`` seconds of wall time on top of the real execution; while
    ``gate`` is clear a batch parks, and ``entered`` is set when it does."""
    engine = repro.serve(module, max_batch="adaptive", devices=1, **kwargs)
    gate = threading.Event()
    gate.set()
    entered = threading.Event()
    original = engine._backend.run_batch

    def run_batch(index, requests):
        entered.set()
        gate.wait(30)
        outcomes = original(index, requests)
        time.sleep(cost(len(requests)))
        return outcomes

    engine._backend.run_batch = run_batch
    return engine, gate, entered


def _deep_queue(engine, gate, entered, inputs, urgent=0):
    """Park one request in execution, queue twelve behind it, release; the
    i-th request is ``inputs[i % len(inputs)]``.  The first ``urgent`` of
    the twelve pop first and have 300 ms to their deadline."""
    gate.clear()
    entered.clear()
    futures = []
    try:
        for i in range(13):
            tight = 1 <= i <= urgent
            futures.append(engine.submit(
                data=inputs[i % len(inputs)], priority=int(tight),
                deadline_ms=300.0 if tight else None))
            if i == 0:
                assert entered.wait(10)
        time.sleep(0.05)          # let the backlog settle in the queue
    finally:
        gate.set()
    return futures


def _spy_policy(monkeypatch):
    """Record ``(batch_time, headrooms, chosen size)`` of every call the
    engine makes to the adaptive policy."""
    calls = []

    def spy(batch_time, headrooms, max_batch, p99_target_s):
        size = _choose_batch_size(batch_time, headrooms, max_batch,
                                  p99_target_s)
        calls.append((batch_time, list(headrooms), size))
        return size

    monkeypatch.setattr(serving, "_choose_batch_size", spy)
    return calls


class TestChooseBatchSize:
    """The adaptive policy as a pure function of its estimates."""

    RNG_DRAWS = 500

    def _solo_times(self):
        return np.random.default_rng(11).uniform(1e-3, 0.1, self.RNG_DRAWS)

    def test_linear_estimates_choose_one(self):
        # k requests in k x solo: per-request goodput is flat in k, and a
        # tie keeps the smaller size however the division rounds.
        for solo in self._solo_times():
            for max_batch in range(1, 9):
                assert _choose_batch_size(lambda k: k * solo, [None] * 8,
                                          max_batch, None) == 1

    def test_sub_linear_estimates_without_deadlines_choose_max_batch(self):
        for solo in self._solo_times():
            for max_batch in range(1, 9):
                assert _choose_batch_size(lambda k: solo * (1 + k) / 2,
                                          [None] * 8, max_batch,
                                          None) == max_batch

    def test_headroom_below_the_estimate_is_never_counted_as_served(self):
        # Batch of 2 costs 24 ms; the first request has 23 ms left.  Counted
        # as served it would make 2 the better size (2 / 24 ms > 1 / 22 ms).
        assert _choose_batch_size(lambda k: 0.020 + 0.002 * k,
                                  [0.023, None], 2, None) == 1
        rng = np.random.default_rng(7)
        for _ in range(self.RNG_DRAWS):
            times = np.sort(rng.uniform(1e-3, 0.1, 8))
            headrooms = [None if h > 0.09 else float(h)
                         for h in rng.uniform(0.0, 0.1, 8)]
            size = _choose_batch_size(lambda k: times[k - 1], headrooms, 8,
                                      None)

            def goodput(k):
                return sum(1 for h in headrooms[:k]
                           if h is None or h >= times[k - 1]) / times[k - 1]

            assert all(goodput(size) * (1 + 1e-9) >= goodput(k)
                       for k in range(1, 9))


class TestAdaptiveBatching:
    def test_knob_validation(self, module):
        with pytest.raises(ValueError, match="max_batch"):
            repro.serve(module, max_batch="auto")
        with pytest.raises(ValueError, match="adaptive_max_batch"):
            repro.serve(module, max_batch="adaptive", adaptive_max_batch=0)
        with pytest.raises(ValueError, match="p99_target_ms"):
            repro.serve(module, max_batch="adaptive", p99_target_ms=0.0)

    def test_outputs_bit_identical_to_solo_execution(self, module,
                                                     requests_and_expected):
        inputs, expected = requests_and_expected
        with repro.serve(module, max_batch="adaptive",
                         p99_target_ms=120.0) as engine:
            results = engine.infer_many([{"data": x} for x in inputs],
                                        timeout=30)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got[0], want)

    def test_stats_expose_decisions_and_latency_split(self, module,
                                                      requests_and_expected):
        inputs, _ = requests_and_expected
        engine = repro.serve(module, max_batch="adaptive",
                             p99_target_ms=120.0)
        futures = [engine.submit(data=x, deadline_ms=60_000) for x in inputs]
        for future in futures:
            future.result(30)
            assert future.queue_wait is not None
            assert future.execute_latency is not None
        engine.shutdown()
        stats = engine.stats()
        assert stats["adaptive"]["enabled"] is True
        assert stats["adaptive"]["p99_target_ms"] == 120.0
        decisions = stats["adaptive"]["decisions"]
        assert sum(decisions.values()) == stats["batches"]
        assert all(1 <= size <= engine.max_batch for size in decisions)
        assert stats["wall"]["queue_wait"]["mean_ms"] >= 0.0
        assert stats["wall"]["execution"]["mean_ms"] > 0.0

    def test_static_engines_report_adaptive_disabled(self, module):
        with repro.serve(module, max_batch=2) as engine:
            engine.infer(data=np.zeros((1, 3, 16, 16), "float32"))
        stats = engine.stats()
        assert stats["adaptive"]["enabled"] is False
        assert stats["adaptive"]["decisions"] == {}

    def test_start_up_compiles_nothing(self):
        # A conv module of its own, so no other test has featurised it at
        # another batch size: a batch-size estimate is a compile, and a
        # compile misses the feature cache.
        b = ModelBuilder("startup", seed=0)
        data = b.input("data", (1, 3, 12, 12))
        net = b.relu(b.conv2d(data, 6, 3, 1, 1, name="conv0"))
        graph, params = b.finalize(b.dense(b.flatten(net), 4, "fc"))
        module = repro.compile((graph, params, {"data": (1, 3, 12, 12)}),
                               target=cuda())
        misses = eval_cache_stats()["features"]["misses"]
        engine = repro.serve(module, devices=2, max_batch="adaptive",
                             adaptive_max_batch=4)
        try:
            assert eval_cache_stats()["features"]["misses"] == misses
            engine.infer_many([{"data": np.zeros((1, 3, 12, 12), "float32")}
                               for _ in range(8)], timeout=30)
            assert eval_cache_stats()["features"]["misses"] == misses
        finally:
            engine.shutdown()

    def test_batches_of_k_in_k_times_solo_are_served_one_by_one(
            self, module, requests_and_expected, monkeypatch):
        # On a back-end whose batch of k takes k x 20 ms of wall time, a deep
        # queue is served in batches of one, and the policy never counts as
        # served a request whose headroom (here < 250 ms, below the wall
        # cost of a batch of 13) is below the wall cost of the size it
        # prices.
        step = 0.020
        calls = _spy_policy(monkeypatch)
        engine, gate, entered = _wall_priced_engine(
            module, lambda k: k * step, adaptive_max_batch=16)
        futures = _deep_queue(engine, gate, entered,
                              requests_and_expected[0], urgent=3)
        for future in futures:
            future.result(30)
        engine.shutdown()
        stats = engine.stats()
        assert calls, "the policy was never consulted"
        for batch_time, headrooms, size in calls:
            assert size == 1
            for k in range(1, len(headrooms) + 1):
                assert all(h is None or h >= k * step or h < batch_time(k)
                           for h in headrooms[:k])
        assert set(stats["batch_occupancy"]) == {1}
        assert set(stats["adaptive"]["decisions"]) == {1}
        assert stats["adaptive"]["wall_ms_by_size"][1] >= step * 1e3

    def test_wall_estimates_count_every_batch_under_contention(
            self, module, requests_and_expected):
        # Four workers on two cores record their batches' wall time while
        # the policy reads it: no batch may be lost from the estimates.
        inputs, _ = requests_and_expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with repro.serve(module, devices=4, max_batch="adaptive",
                             adaptive_max_batch=4) as engine:
                engine.infer_many([{"data": inputs[i % len(inputs)]}
                                   for i in range(64)], timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in engine._workers)
        stats = engine.stats()
        sizes = engine._wall_by_size
        assert sum(count for _, count in sizes.values()) == stats["batches"]
        assert sum(size * count for size, (_, count)
                   in sizes.items()) == stats["requests"] == 64

    def test_deep_queue_coalesces_when_a_batch_is_cheaper(
            self, module, requests_and_expected):
        # A back-end whose batch of k takes 20 ms + k x 2 ms: once the
        # engine has measured one batch of 4, a deep queue coalesces.
        inputs, expected = requests_and_expected
        engine, gate, entered = _wall_priced_engine(
            module, lambda k: 0.020 + 0.002 * k, adaptive_max_batch=4)
        warm = [_Request({"data": x}) for x in inputs[:4]]
        engine._run_batch(0, warm)
        futures = _deep_queue(engine, gate, entered, inputs)
        served = [r.future for r in warm] + futures
        for future, want in zip(served, expected[:4] + expected * 2):
            np.testing.assert_array_equal(future.result(30)[0], want)
        engine.shutdown()
        stats = engine.stats()
        assert max(stats["adaptive"]["decisions"]) > 1
        assert stats["batches"] < len(futures)
        assert 4 in stats["adaptive"]["wall_ms_by_size"]
