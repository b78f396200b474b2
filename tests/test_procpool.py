"""Tests for the process-parallel worker pool (``repro.runtime.procpool``):
shared-memory arenas, the framed dispatch protocol's end-to-end behaviour,
worker death / respawn, bit-identical serving, and the
no-leaked-``/dev/shm``-segments contract."""

import glob
import os
import signal
import tempfile
import time

import numpy as np
import pytest

import repro
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import (Executor, ModuleWorkerPool, ShmArena,
                           leaked_segments)
from repro.runtime.artifact import export_module, load_module
from repro.runtime.procpool import pool as procpool_pool


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
    path = tmp_path_factory.mktemp("procpool") / "small.module"
    export_module(module, path)
    return str(path)


@pytest.fixture(scope="module")
def requests_and_expected(module):
    rng = np.random.default_rng(5)
    inputs = [rng.random((1, 3, 16, 16)).astype("float32") for _ in range(6)]
    solo = Executor(module)
    expected = [solo(x)[0].asnumpy() for x in inputs]
    return inputs, expected


def _wait_for(condition, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


# ---------------------------------------------------------------------------
# ShmArena
# ---------------------------------------------------------------------------

class TestShmArena:
    def test_pack_reserve_spec_attach_roundtrip(self):
        payload = np.arange(24, dtype="float32").reshape(2, 3, 4)
        arena = ShmArena.create({"x": payload},
                                reserve={"y": ((2, 3, 4), "float32")})
        try:
            assert arena.name in leaked_segments()
            np.testing.assert_array_equal(arena.view("x"), payload)
            assert not arena.view("x").flags.writeable
            np.testing.assert_array_equal(arena.view("y"), np.zeros((2, 3, 4)))

            # Attach from the spec (as a worker would) and write the reserved
            # slot: the creator must see the bytes with no copy in between.
            attached = ShmArena.attach(arena.spec())
            try:
                attached.view("y", writeable=True)[...] = payload * 2
            finally:
                attached.close()
            np.testing.assert_array_equal(arena.read("y"), payload * 2)
        finally:
            arena.unlink()
        assert leaked_segments() == []

    def test_only_the_creator_may_unlink(self):
        arena = ShmArena.create({"x": np.ones(4, dtype="float32")})
        try:
            attached = ShmArena.attach(arena.spec())
            with pytest.raises(ValueError, match="creating process"):
                attached.unlink()
            attached.close()
        finally:
            arena.unlink()

    def test_unlink_is_idempotent(self):
        arena = ShmArena.create({"x": np.ones(4, dtype="float32")})
        arena.unlink()
        arena.unlink()
        assert leaked_segments() == []

    def test_slot_collision_and_unknown_slot(self):
        with pytest.raises(ValueError, match="both packed and reserved"):
            ShmArena.create({"x": np.ones(2, dtype="float32")},
                            reserve={"x": ((2,), "float32")})
        arena = ShmArena.create({"x": np.ones(2, dtype="float32")})
        try:
            with pytest.raises(KeyError, match="Unknown arena slot"):
                arena.view("nope")
        finally:
            arena.unlink()


# ---------------------------------------------------------------------------
# ModuleWorkerPool (direct)
# ---------------------------------------------------------------------------

class TestModuleWorkerPool:
    def test_batch_outputs_bit_identical_to_solo(self, module, bundle,
                                                 requests_and_expected):
        inputs, expected = requests_and_expected
        kind = module.target.device_type
        with ModuleWorkerPool(module, bundle, [f"{kind}:0", f"{kind}:1"]) as pool:
            outcomes = pool.run_batch(0, [{"data": x} for x in inputs[:3]])
            outcomes += pool.run_batch(1, [{"data": x} for x in inputs[3:]])
            for outcome, want in zip(outcomes, expected):
                assert not isinstance(outcome, Exception)
                np.testing.assert_array_equal(outcome[0], want)
            stats = pool.stats()
            assert [s["index"] for s in stats] == [0, 1]
            for s in stats:
                assert s["requests"] == 1 and s["alive"]
                assert s["execute_s"] > 0.0 and s["shm_copy_s"] > 0.0
        assert leaked_segments() == []

    def test_kill9_mid_service_respawns_and_recovers(self, module, bundle,
                                                     requests_and_expected):
        inputs, expected = requests_and_expected
        kind = module.target.device_type
        pool = ModuleWorkerPool(module, bundle, [f"{kind}:0"])
        try:
            first = pool.run_batch(0, [{"data": inputs[0]}])
            np.testing.assert_array_equal(first[0][0], expected[0])
            victim = pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            # Dispatching into the dead worker must respawn it and retry the
            # same self-contained batch, transparently to the caller.
            again = pool.run_batch(0, [{"data": x} for x in inputs])
            for outcome, want in zip(again, expected):
                np.testing.assert_array_equal(outcome[0], want)
            stats = pool.stats()[0]
            assert stats["respawns"] >= 1
            assert pool.pids()[0] != victim
        finally:
            pool.shutdown()
        assert leaked_segments() == []

    def test_heartbeat_respawns_idle_dead_worker(self, module, bundle,
                                                 monkeypatch):
        monkeypatch.setattr(procpool_pool, "_HEARTBEAT_S", 0.2)
        kind = module.target.device_type
        pool = ModuleWorkerPool(module, bundle, [f"{kind}:0"])
        try:
            victim = pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_for(lambda: pool.alive()[0] and pool.pids()[0] != victim,
                      timeout=30.0, message="heartbeat respawn")
            assert pool.stats()[0]["respawns"] >= 1
        finally:
            pool.shutdown()
        assert leaked_segments() == []

    def test_abnormal_shutdown_leaves_no_segments(self, module, bundle):
        kind = module.target.device_type
        pool = ModuleWorkerPool(module, bundle, [f"{kind}:0", f"{kind}:1"])
        assert leaked_segments() != []      # the params arena exists
        for pid in pool.pids():
            os.kill(pid, signal.SIGKILL)
        pool.shutdown()
        assert leaked_segments() == []


# ---------------------------------------------------------------------------
# Serving integration
# ---------------------------------------------------------------------------

class TestProcessServing:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_bit_identical_and_release_everything(
            self, module, requests_and_expected, backend):
        # One matrix over the engine's back-ends: the same bytes out, and
        # after shutdown() nothing is left behind — no hung future, no
        # /dev/shm segment, no temporary bundle.
        inputs, expected = requests_and_expected
        kwargs = {"pool": "process"} if backend == "process" else {}

        def temp_bundles():
            return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                              "repro-serve-*.module")))

        before = temp_bundles()
        engine = repro.serve(module, devices=2, max_batch=2, timeout_ms=50,
                             **kwargs)
        owned = temp_bundles() - before
        assert len(owned) == (1 if backend == "process" else 0)
        futures = [engine.submit(data=x) for x in inputs]
        engine.shutdown()
        assert all(future.done() for future in futures)
        for future, want in zip(futures, expected):
            assert future.result(0)[0].tobytes() == want.tobytes()
        assert engine.stats()["pool"] == kwargs.get("pool", "thread")
        assert leaked_segments() == []
        assert not (temp_bundles() & owned)

    def test_engine_survives_worker_process_kill(self, module,
                                                 requests_and_expected):
        inputs, expected = requests_and_expected
        with repro.serve(module, devices=2, max_batch=1, timeout_ms=5,
                         pool="process") as engine:
            engine.infer(data=inputs[0], timeout=60)
            os.kill(engine._backend.pids()[0], signal.SIGKILL)
            results = engine.infer_many([{"data": x} for x in inputs],
                                        timeout=60)
            for got, want in zip(results, expected):
                np.testing.assert_array_equal(got[0], want)
            workers = engine.stats()["process_workers"]
            assert sum(w["respawns"] for w in workers) >= 1
        assert leaked_segments() == []

    def test_unknown_pool_kind_rejected(self, module):
        with pytest.raises(ValueError, match="pool"):
            repro.serve(module, pool="fork")


class _WorkerThreadDeath(BaseException):
    """Deliberately not an Exception: escapes the per-batch error handling."""


class TestThreadWorkerDeath:
    # The dying worker thread re-raises after cleanup (by design); keep
    # pytest's unhandled-thread-exception bookkeeping quiet about it.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dying_worker_thread_rejects_futures_and_engine_serves_on(
            self, module, requests_and_expected):
        inputs, expected = requests_and_expected
        engine = repro.serve(module, devices=2, max_batch=1, timeout_ms=5)
        try:
            original = engine._backend.run_batch

            def boom(index, requests):
                if index == 0:
                    raise _WorkerThreadDeath("executor melted")
                return original(index, requests)

            engine._backend.run_batch = boom
            futures = [engine.submit(data=x) for x in inputs]
            outcomes = []
            for future in futures:
                # The contract under test: every future resolves — with the
                # propagated failure or a result — and never hangs.
                try:
                    outcomes.append(future.result(timeout=30))
                except (RuntimeError, _WorkerThreadDeath):
                    outcomes.append(None)
            rejected = sum(1 for outcome in outcomes if outcome is None)
            assert rejected >= 1
            # Worker 0 is dead and pulls no more; worker 1 serves on.
            _wait_for(lambda: not engine._workers[0].is_alive(),
                      message="worker 0 thread exited")
            after = engine.infer_many([{"data": x} for x in inputs],
                                      timeout=30)
            for got, want in zip(after, expected):
                np.testing.assert_array_equal(got[0], want)
        finally:
            engine.shutdown()


# ---------------------------------------------------------------------------
# Artifact params override
# ---------------------------------------------------------------------------

def test_load_module_with_externally_mapped_params(module, bundle):
    plain = load_module(bundle)
    override = {name: np.array(value) for name, value in plain.params.items()}
    mapped = load_module(bundle, params=override)
    x = np.random.default_rng(9).random((1, 3, 16, 16)).astype("float32")
    np.testing.assert_array_equal(Executor(mapped)(x)[0].asnumpy(),
                                  Executor(plain)(x)[0].asnumpy())

