"""Tests for the deployable runtime API: devices, the stateless Executor,
module artifacts (export / repro.load) and the legacy-shim behaviour."""

import dataclasses
import io
import json
import threading
import tracemalloc
import zipfile

import numpy as np
import pytest

import repro
from repro import runtime
from repro.frontend import MODEL_REGISTRY, ModelBuilder, get_model, resnet18
from repro.hardware import arm_cpu, create_target, cuda, vdla
from repro.runtime import (ArtifactError, Device, Executor, NDArray,
                           device, load_module)
from repro.runtime.artifact import graph_from_json, graph_to_json
from repro.topi.reference import WORKSPACE_BYTES


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
def cnn_module():
    return repro.compile(_small_cnn(), target=cuda())


@pytest.fixture()
def cnn_input():
    return np.random.default_rng(7).random((1, 3, 16, 16)).astype("float32")


# ---------------------------------------------------------------------------
# Device abstraction
# ---------------------------------------------------------------------------

class TestDevice:
    def test_parse_forms(self):
        assert device("gpu") == Device("gpu", 0)
        assert device("gpu:1") == Device("gpu", 1)
        assert device("cpu:3") == Device("cpu", 3)
        dev = Device("mali", 2)
        assert device(dev) is dev

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="tpu"):
            device("tpu:0")
        with pytest.raises(ValueError, match="index"):
            device("gpu:one")
        with pytest.raises(TypeError):
            device(3)
        with pytest.raises(ValueError):
            Device("gpu", -1)

    def test_device_equality_hash_and_repr(self):
        assert runtime.gpu(1) == Device("gpu", 1)
        assert repr(Device("gpu", 1)) == "gpu:1"
        assert hash(Device("cpu", 0)) == hash(runtime.cpu())

    def test_device_is_the_only_placement_keyword(self):
        data = np.zeros((2, 2), "float32")
        assert runtime.array(data, device=runtime.gpu(0)).device == Device("gpu", 0)
        assert runtime.empty((2, 2), device=runtime.gpu(2)).device == Device("gpu", 2)
        assert not hasattr(runtime, "Context")
        for make in (lambda: runtime.array(data, ctx=runtime.gpu(0)),
                     lambda: NDArray(data, ctx=runtime.cpu(1)),
                     lambda: runtime.empty((2, 2), ctx=runtime.gpu(2))):
            with pytest.raises(TypeError, match="ctx"):
                make()

    def test_ndarray_device_and_cross_device_copyto(self):
        data = np.random.default_rng(0).random((2, 3)).astype("float32")
        array = runtime.array(data, runtime.gpu(0))
        assert array.device == Device("gpu", 0)
        assert not hasattr(array, "ctx")
        moved = array.copyto("cpu:1")
        assert isinstance(moved, NDArray)
        assert moved.device == Device("cpu", 1)
        np.testing.assert_array_equal(moved.asnumpy(), data)
        # in-place copy into an existing array still works
        out = runtime.empty((2, 3))
        array.copyto(out)
        np.testing.assert_array_equal(out.asnumpy(), data)


# ---------------------------------------------------------------------------
# Stateless Executor
# ---------------------------------------------------------------------------

class TestExecutor:
    def test_call_forms_agree(self, cnn_module, cnn_input):
        executor = Executor(cnn_module)
        by_dict = executor({"data": cnn_input})
        by_pos = executor(cnn_input)
        by_kw = executor(data=cnn_input)
        assert isinstance(by_dict, list) and len(by_dict) == 1
        assert by_dict[0].device == Device("gpu", 0)
        np.testing.assert_array_equal(by_dict[0].asnumpy(), by_pos[0].asnumpy())
        np.testing.assert_array_equal(by_dict[0].asnumpy(), by_kw[0].asnumpy())

    def test_missing_input_lists_specs(self, cnn_module):
        executor = Executor(cnn_module)
        with pytest.raises(ValueError) as exc:
            executor({})
        message = str(exc.value)
        assert "data" in message
        assert "(1, 3, 16, 16)" in message
        assert "float32" in message

    def test_unknown_input_lists_specs(self, cnn_module, cnn_input):
        executor = Executor(cnn_module)
        with pytest.raises(ValueError) as exc:
            executor(data=cnn_input, imag=cnn_input)
        assert "imag" in str(exc.value)
        assert "data" in str(exc.value)

    def test_dict_and_keywords_merge(self):
        b = ModelBuilder("pair", seed=0)
        out = b.add(b.input("a", (2, 3)), b.input("b", (2, 3)))
        graph, params = b.finalize(out)
        executor = Executor(repro.compile(
            graph, target=cuda(), params=params,
            input_shapes={"a": (2, 3), "b": (2, 3)}))
        x = np.full((2, 3), 1.5, dtype="float32")
        y = np.full((2, 3), 2.0, dtype="float32")
        merged = executor({"a": x}, b=y)[0].asnumpy()
        np.testing.assert_array_equal(merged, x + y)
        np.testing.assert_array_equal(executor(x, b=y)[0].asnumpy(), merged)
        with pytest.raises(ValueError, match="both positionally and by name"):
            executor({"a": x, "b": y}, b=y)

    def test_too_many_positional(self, cnn_module, cnn_input):
        with pytest.raises(ValueError, match="positional"):
            Executor(cnn_module)(cnn_input, cnn_input)

    def test_explicit_device_placement(self, cnn_module, cnn_input):
        executor = Executor(cnn_module, "gpu:3")
        assert executor.device == Device("gpu", 3)
        assert executor(cnn_input)[0].device == Device("gpu", 3)

    def test_thread_safety(self, cnn_module):
        executor = Executor(cnn_module)
        rng = np.random.default_rng(3)
        inputs = [rng.random((1, 3, 16, 16)).astype("float32")
                  for _ in range(8)]
        expected = [executor(x)[0].asnumpy() for x in inputs]
        results = [None] * len(inputs)

        def work(i):
            results[i] = executor(inputs[i])[0].asnumpy()

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# The live set follows the memory plan
# ---------------------------------------------------------------------------

#: the zoo at the sizes tests/test_compiler_pipeline.py compiles (warm cache)
_ZOO_SMALL = {
    "resnet-18": dict(image_size=32, num_classes=10),
    "mobilenet": dict(image_size=32, num_classes=10),
    "lstm-lm": dict(hidden_size=64, seq_len=2),
}


class _SpyKernel:
    """A compiled kernel that records the tensor map it is handed — the map
    as the previous kernel (and the executor's release after it) left it —
    and fails if it wrote any array of that map (parameters are read-only
    views; the test checks them)."""

    def __init__(self, kernel, log, params):
        self.group, self.name = kernel.group, kernel.name
        self.time_seconds = kernel.time_seconds
        self._kernel, self._log, self._params = kernel, log, params

    def run(self, tensors, keep=frozenset()):
        self._log.append(dict(tensors))
        before = [(name, value, value.tobytes())
                  for name, value in tensors.items() if name not in self._params]
        self._kernel.run(tensors, keep)
        for name, value, data in before:
            assert value.tobytes() == data, f"{self.name} wrote {name}"


def _spied(module):
    log = []
    kernels = [_SpyKernel(kernel, log, module.params)
               for kernel in module.kernels]
    return dataclasses.replace(module, kernels=kernels), log


def _inputs_for(executor, seed=5):
    rng = np.random.default_rng(seed)
    return {spec.name: rng.random(spec.shape).astype(spec.dtype)
            for spec in executor.input_specs}


class TestLiveSet:
    @pytest.fixture(scope="class", params=sorted(MODEL_REGISTRY))
    def zoo_module(self, request):
        model = get_model(request.param, batch=1,
                          **_ZOO_SMALL.get(request.param, {}))
        return repro.compile(model, target="cuda")

    def test_tensor_map_follows_the_plan(self, zoo_module):
        module, log = _spied(zoo_module)
        executor = Executor(module)
        inputs = _inputs_for(executor)
        outputs = executor.run(inputs).outputs
        assert len(log) == len(module.kernels)

        graph = module.graph
        kernel_of = {node.name: step
                     for step, kernel in enumerate(module.kernels)
                     for node in kernel.group.nodes}
        pinned = set(module.params) | {out.name for out in graph.outputs}
        fused = {node.name for kernel in module.kernels
                 for node in kernel.group.nodes[:-1]} - pinned
        consumers = graph.consumers()
        readers = {node.name: [kernel_of[user.name]
                               for user in consumers[id(node)]
                               if user.name in kernel_of]
                   for node in graph.nodes}
        for step, held in enumerate(log):       # the map as kernel `step` starts
            assert fused.isdisjoint(held), (step, sorted(fused & set(held)))
            for name in set(held) - pinned:
                assert max(readers[name]) >= step, \
                    f"{name} still held at kernel {step}, last read at " \
                    f"kernel {max(readers[name])}"
            live = sum(held[name].nbytes for name in held if name in kernel_of)
            assert live <= module.memory_plan.planned_bytes, step
            for node in graph.input_nodes:      # never dropped, never writable
                if node.name in module.params:
                    assert not held[node.name].flags.writeable
        # Releasing changes no bits: same outputs as the plain module's run.
        for got, want in zip(outputs, Executor(zoo_module).run(inputs).outputs):
            np.testing.assert_array_equal(got, want)

    def test_repeat_and_concurrent_runs_identical(self, zoo_module):
        executor = Executor(zoo_module)
        inputs = _inputs_for(executor)
        want = executor.run(inputs).outputs
        results = [None, None]

        def work(slot):
            results[slot] = executor.run(inputs).outputs

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for outputs in results + [executor.run(inputs).outputs]:
            for got, expected in zip(outputs, want):
                np.testing.assert_array_equal(got, expected)

    def test_output_consumed_mid_graph_survives(self):
        b = ModelBuilder("tap", seed=0)
        data = b.input("data", (1, 3, 8, 8))
        tap = b.relu(b.conv2d(data, 4, 3, 1, 1, name="conv0"))
        head = b.softmax(b.dense(b.flatten(b.max_pool2d(tap, 2, 2)), 5, "fc"))
        graph, params = b.finalize([tap, head])
        module, log = _spied(repro.compile(
            graph, target=cuda(), params=params,
            input_shapes={"data": (1, 3, 8, 8)}))
        assert len(module.kernels) > 1          # the tap is read by a later kernel
        x = np.random.default_rng(1).random((1, 3, 8, 8)).astype("float32")
        tapped, _ = Executor(module).run({"data": x}).outputs
        assert tapped.shape == (1, 4, 8, 8) and tapped.min() >= 0.0
        assert tap.name in log[-1] and "data" not in log[-1]

    def test_traced_peak_stays_within_the_plan(self):
        # The plan is the memory that is used: one batch-1 resnet-18 run
        # allocates no more than the planned intermediates plus one conv
        # tile's im2col workspace (fused members never get a buffer of
        # their own, the max-pool builds no padded copy).
        module = repro.compile("resnet-18", target="cuda")
        executor = Executor(module)
        inputs = _inputs_for(executor)
        executor.run(inputs)
        tracemalloc.start()
        try:
            executor.run(inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= module.memory_plan.planned_bytes + WORKSPACE_BYTES, \
            (peak, module.memory_plan.planned_bytes)


# ---------------------------------------------------------------------------
# A fused group is one kernel: members apply in place, bits do not move
# ---------------------------------------------------------------------------

def _unfused(model, target):
    with repro.PassContext(disabled_passes=["fuse_ops"]):
        return repro.compile(model, target=target)


class TestFusedInPlace:
    @pytest.mark.parametrize("target", ["cuda", "arm_cpu"])
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_fused_equals_member_by_member(self, name, target):
        model = get_model(name, batch=1, **_ZOO_SMALL.get(name, {}))
        fused = repro.compile(model, target=target)
        assert any(len(kernel.group.nodes) > 1 for kernel in fused.kernels)
        weights = {key: value.copy() for key, value in fused.params.items()}
        executor = Executor(fused)
        inputs = _inputs_for(executor)
        given = {key: value.copy() for key, value in inputs.items()}
        got = executor.run(inputs).outputs
        want = Executor(_unfused(model, target)).run(inputs).outputs
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        for key, value in given.items():        # the caller's arrays
            assert inputs[key].tobytes() == value.tobytes(), key
        for key, value in weights.items():
            assert fused.params[key].tobytes() == value.tobytes(), key
            assert not executor._param_views[key].flags.writeable

    def test_taps_and_residuals_are_never_written(self):
        # conv1's group is conv2d -> bias_add -> relu -> add -> relu.  Its
        # bias_add is also a graph output, so relu may not overwrite it; its
        # add reads `skip`, which conv1 reads too: read, never written.
        b = ModelBuilder("taps", seed=0)
        data = b.input("data", (1, 16, 64, 64))     # two conv tiles an image
        skip = b.relu(b.conv2d(data, 16, 3, 1, 1, name="conv0"))
        tap = b.bias_add(b.conv2d(skip, 16, 3, 1, 1, name="conv1"), name="b1")
        out = b.relu(b.add(b.relu(tap), skip))
        graph, params = b.finalize([out, tap])
        model = (graph, params, {"data": (1, 16, 64, 64)})
        module, log = _spied(repro.compile(model, target="cuda"))
        assert [[node.op for node in kernel.group.nodes]
                for kernel in module.kernels] == [
            ["conv2d", "relu"], ["conv2d", "bias_add", "relu", "add", "relu"]]
        x = np.random.default_rng(2).standard_normal((1, 16, 64, 64))
        x = x.astype("float32")
        got = Executor(module).run({"data": x}).outputs
        want = Executor(_unfused(model, "cuda")).run({"data": x}).outputs
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert got[1].min() < 0.0               # the tap was not relu'd
        assert skip.name in log[1]              # read by the fused add

    def test_a_wider_operand_is_not_applied_in_place(self):
        # float32 data, a float64 bias: numpy widens the fresh sum, so the
        # fused bias_add must not write it into the float32 conv output.
        b = ModelBuilder("wide", seed=0)
        net = b.relu(b.bias_add(b.conv2d(b.input("data", (1, 3, 8, 8)), 4, 3,
                                         1, 1, name="conv0"), name="b0"))
        graph, params = b.finalize(net)
        params = {key: value.astype("float64") if key.startswith("b0")
                  else value for key, value in params.items()}
        model = (graph, params, {"data": (1, 3, 8, 8)})
        x = np.random.default_rng(3).standard_normal((1, 3, 8, 8))
        x = x.astype("float32")
        got, = Executor(repro.compile(model, target="cuda")).run(
            {"data": x}).outputs
        want, = Executor(_unfused(model, "cuda")).run({"data": x}).outputs
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Parameter aliasing regression (satellite #1)
# ---------------------------------------------------------------------------

class TestParamProtection:
    def test_tensor_map_never_aliases_params(self, cnn_input):
        module = repro.compile(_small_cnn(), target=cuda())
        before = {name: value.copy() for name, value in module.params.items()}
        executor = Executor(module)
        first = executor(cnn_input)[0].asnumpy()

        # An in-place kernel mutating a tensor-map entry that names a
        # parameter must raise, not corrupt the module's weights.
        param_name = next(node.name for node in module.graph.input_nodes
                          if node.name in module.params)

        class _InPlaceKernel:
            name, time_seconds = "clobber", 0.0

            @staticmethod
            def run(tensors, keep=frozenset()):
                tensors[param_name] += 1.0

        module.kernels.insert(0, _InPlaceKernel())
        with pytest.raises(ValueError, match="read-only"):
            executor(cnn_input)
        del module.kernels[0]
        for name, value in module.params.items():
            np.testing.assert_array_equal(value, before[name])
        np.testing.assert_array_equal(executor(cnn_input)[0].asnumpy(), first)

    def test_run_missing_input_message(self):
        module = repro.compile(_small_cnn(), target=cuda())
        with pytest.raises(ValueError) as exc:
            Executor(module).run({})
        assert "data" in str(exc.value)
        assert "(1, 3, 16, 16)" in str(exc.value)


# ---------------------------------------------------------------------------
# Graph JSON codec
# ---------------------------------------------------------------------------

class TestGraphCodec:
    def test_round_trip_preserves_structure_and_attr_types(self, cnn_module):
        graph = cnn_module.graph
        clone = graph_from_json(graph_to_json(graph))
        assert [n.name for n in clone.nodes] == [n.name for n in graph.nodes]
        assert [n.op for n in clone.nodes] == [n.op for n in graph.nodes]
        for old, new in zip(graph.nodes, clone.nodes):
            assert new.shape == old.shape
            assert new.dtype == old.dtype
            assert new.attrs == old.attrs
            # tuple-ness must survive: the fallback-config seed hashes repr()
            for key, value in old.attrs.items():
                assert type(new.attrs[key]) is type(value)

    def test_clone_is_independent(self, cnn_module):
        clone = graph_from_json(graph_to_json(cnn_module.graph))
        clone.nodes[0].shape = (999,)
        assert cnn_module.graph.nodes[0].shape != (999,)


# ---------------------------------------------------------------------------
# A module binds the weights its graph reads
# ---------------------------------------------------------------------------

#: every zoo model on the target benchmarks/e2e compiles it for
_E2E_PAIRS = [("resnet-18", "cuda"), ("mobilenet", "arm_cpu"),
              ("dcgan", "cuda"), ("dqn", "arm_cpu"), ("lstm-lm", "cuda")]


class TestBoundParams:
    @pytest.mark.parametrize("name, target", _E2E_PAIRS,
                             ids=[name for name, _ in _E2E_PAIRS])
    def test_zoo_module_binds_only_what_its_graph_reads(self, name, target):
        graph, params, shapes = get_model(name)
        module = repro.compile((graph, params, shapes), target=target)
        read = {node.name for node in module.graph.input_nodes
                if node.name not in shapes}
        assert set(module.params) == read
        if name == "resnet-18":     # 148 with the 105 folded-away originals
            assert len(module.params) == 43
        # What was dropped is dead: binding every weight changes no bit.
        unpruned = dataclasses.replace(module,
                                       params={**params, **module.params})
        executor = Executor(module)
        inputs = _inputs_for(executor)
        for got, want in zip(executor.run(inputs).outputs,
                             Executor(unpruned).run(inputs).outputs):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# Artifact export / load round trips (satellite #4)
# ---------------------------------------------------------------------------

def _rewritten(path, edits, compression=zipfile.ZIP_STORED):
    """A copy of bundle ``path`` with ``edits[entry](payload)`` applied to
    the entries it names; the others are copied verbatim."""
    out = path.with_name("rewritten-" + path.name)
    with zipfile.ZipFile(path) as src, \
            zipfile.ZipFile(out, "w", compression) as dst:
        for entry in src.namelist():
            payload = src.read(entry)
            if entry in edits:
                payload = edits[entry](payload)
            dst.writestr(entry, payload)
    return out


def _edit_manifest(edit):
    def rewrite(payload):
        manifest = json.loads(payload)
        edit(manifest)
        return json.dumps(manifest)
    return rewrite


def _arrays(payload):
    with np.load(io.BytesIO(payload)) as archive:
        return {name: archive[name] for name in archive.files}


def _npz(arrays, save=np.savez):
    buffer = io.BytesIO()
    save(buffer, **arrays)
    return buffer.getvalue()


def _assert_same_params(got, want):
    assert list(got) == list(want)
    for name, value in want.items():
        assert (got[name].dtype, got[name].shape) \
            == (value.dtype, value.shape), name
        assert got[name].tobytes() == value.tobytes(), name


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("make_target", [cuda, arm_cpu, vdla],
                             ids=["cuda", "arm_cpu", "vdla"])
    def test_resnet18_round_trip_all_targets(self, make_target, tmp_path):
        model = resnet18(batch=1, image_size=32, num_classes=10)
        module = repro.compile(model, target=make_target())
        path = tmp_path / "resnet18.repro"
        module.export(path)
        loaded = repro.load(path)

        # No recompilation: exact latency table and provenance round-trip.
        assert loaded.total_time == module.total_time
        assert [k.time_seconds for k in loaded.kernels] == \
            [k.time_seconds for k in module.kernels]
        assert [k.name for k in loaded.kernels] == \
            [k.name for k in module.kernels]
        assert loaded.target.name == module.target.name
        assert loaded.target.device_type == module.target.device_type
        assert loaded.opt_level == module.opt_level
        assert loaded.memory_plan.planned_bytes == module.memory_plan.planned_bytes

        data = np.random.default_rng(11).random((1, 3, 32, 32)).astype("float32")
        np.testing.assert_array_equal(Executor(module)(data)[0].asnumpy(),
                                      Executor(loaded)(data)[0].asnumpy())

    def test_provenance_round_trip(self, cnn_module, tmp_path):
        # Mark kernels as tuned and check provenance survives the bundle.
        module = repro.compile(_small_cnn(), target=cuda())
        module.kernels[0].tuned = True
        module.kernels[0].config_index = 1234
        path = tmp_path / "tuned.repro"
        module.export(path)
        loaded = repro.load(path)
        assert loaded.kernels[0].tuned is True
        assert loaded.kernels[0].config_index == 1234
        assert loaded.tuned_kernels == module.tuned_kernels

    def test_pass_records_round_trip(self, cnn_module, tmp_path):
        path = tmp_path / "records.repro"
        cnn_module.export(path)
        loaded = repro.load(path)
        assert [r.name for r in loaded.pass_records] == \
            [r.name for r in cnn_module.pass_records]

    def test_params_round_trip_stored(self, cnn_module, tmp_path):
        path = tmp_path / "params.repro"
        cnn_module.export(path)
        with zipfile.ZipFile(path) as bundle:
            methods = {info.filename: info.compress_type
                       for info in bundle.infolist()}
        assert methods == {"MANIFEST.json": zipfile.ZIP_DEFLATED,
                           "graph.json": zipfile.ZIP_DEFLATED,
                           "params.npz": zipfile.ZIP_STORED}
        _assert_same_params(repro.load(path).params, cnn_module.params)

    def test_parent_encoding_still_loads(self, cnn_module, cnn_input,
                                         tmp_path):
        # how bundles were written before params were stored: savez_compressed
        # inside a deflated entry, and no parameter record in the manifest
        path = tmp_path / "stored.repro"
        cnn_module.export(path)
        old = _rewritten(path, {
            "params.npz": lambda payload: _npz(_arrays(payload),
                                               np.savez_compressed),
            "MANIFEST.json": _edit_manifest(lambda m: m.pop("params"))},
            compression=zipfile.ZIP_DEFLATED)
        loaded = repro.load(old)
        _assert_same_params(loaded.params, cnn_module.params)
        np.testing.assert_array_equal(
            Executor(loaded)(cnn_input)[0].asnumpy(),
            Executor(cnn_module)(cnn_input)[0].asnumpy())

    def test_export_streams_params(self, tmp_path):
        module = repro.compile(resnet18(batch=1, image_size=32, num_classes=10),
                               target=cuda())
        largest = max(value.nbytes for value in module.params.values())
        tracemalloc.start()
        try:
            module.export(tmp_path / "resnet18.repro")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # deflating a whole-params buffer peaked at 3.1x the params' total
        assert peak < 2 * largest + 2 ** 20, (peak, largest)


class TestArtifactErrors:
    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.repro"
        path.write_bytes(b"this is not an artifact")
        with pytest.raises(ArtifactError, match="export"):
            repro.load(path)

    def test_foreign_zip(self, tmp_path):
        path = tmp_path / "foreign.zip"
        with zipfile.ZipFile(path, "w") as bundle:
            bundle.writestr("random.txt", "hello")
        with pytest.raises(ArtifactError, match="missing"):
            repro.load(path)

    def test_newer_schema_rejected_with_upgrade_hint(self, cnn_module, tmp_path):
        path = tmp_path / "future.repro"
        cnn_module.export(path)
        rewritten = _rewritten(path, {"MANIFEST.json": _edit_manifest(
            lambda manifest: manifest.update(schema_version=99))})
        with pytest.raises(ArtifactError, match="v99"):
            repro.load(rewritten)

    def test_unknown_target_lists_known(self, cnn_module, tmp_path):
        path = tmp_path / "target.repro"
        cnn_module.export(path)
        rewritten = _rewritten(path, {"MANIFEST.json": _edit_manifest(
            lambda manifest: manifest["target"].update(name="tpu-v9"))})
        with pytest.raises(ArtifactError, match="known targets"):
            repro.load(rewritten)

    def test_corrupt_manifest_json(self, cnn_module, tmp_path):
        path = tmp_path / "corrupt.repro"
        cnn_module.export(path)
        rewritten = _rewritten(
            path, {"MANIFEST.json": lambda payload: b"{ not json"})
        with pytest.raises(ArtifactError, match="corrupt"):
            repro.load(rewritten)

    @pytest.mark.parametrize("corrupt", [
        lambda payload: payload[:len(payload) // 2],
        lambda payload: b"not an npz archive " * 8,
        lambda payload: _npz({**_arrays(payload),
                              "fc_weight": np.array([None], dtype=object)}),
    ], ids=["truncated", "garbage", "object-array"])
    def test_corrupt_params_entry(self, cnn_module, tmp_path, corrupt):
        path = tmp_path / "params.repro"
        cnn_module.export(path)
        rewritten = _rewritten(path, {"params.npz": corrupt})
        with pytest.raises(ArtifactError) as exc:
            repro.load(rewritten)
        assert str(rewritten) in str(exc.value)
        assert "'params.npz'" in str(exc.value)

    @pytest.mark.parametrize("edit", [
        lambda arrays, name: arrays.pop(name),
        lambda arrays, name: arrays.update({name: arrays[name].reshape(-1)}),
    ], ids=["dropped", "reshaped"])
    def test_params_checked_against_manifest(self, cnn_module, tmp_path,
                                             edit):
        # a dropped weight used to load and become a required graph input
        path = tmp_path / "params.repro"
        cnn_module.export(path)
        name = next(iter(cnn_module.params))

        def rewrite(payload):
            arrays = _arrays(payload)
            edit(arrays, name)
            return _npz(arrays)

        with pytest.raises(ArtifactError, match=f"parameter '{name}'"):
            repro.load(_rewritten(path, {"params.npz": rewrite}))

    def test_params_override_checked_against_manifest(self, cnn_module,
                                                      tmp_path):
        path = tmp_path / "params.repro"
        cnn_module.export(path)
        name = next(iter(cnn_module.params))
        params = dict(cnn_module.params)
        params[name] = params[name].astype(np.float64)
        with pytest.raises(ArtifactError, match=f"parameter '{name}'.*float64"):
            load_module(path, params=params)


# ---------------------------------------------------------------------------
# Executor round trip and target helpers
# ---------------------------------------------------------------------------

class TestTargetHelpers:
    def test_export_load_executes_identically(self, cnn_module, tmp_path,
                                              cnn_input):
        path = tmp_path / "module.repro"
        cnn_module.export(path)
        loaded = repro.load(path)
        assert loaded.total_time == cnn_module.total_time
        np.testing.assert_array_equal(Executor(loaded)(cnn_input)[0].asnumpy(),
                                      Executor(cnn_module)(cnn_input)[0].asnumpy())

    def test_target_seed_of_an_older_bundle_is_ignored(self, cnn_module,
                                                       tmp_path, cnn_input):
        # Bundles written before the target seed was removed record one in
        # the manifest's target spec; it must load as if it were absent.
        path = tmp_path / "seeded.repro"
        cnn_module.export(path)
        rewritten = _rewritten(path, {"MANIFEST.json": _edit_manifest(
            lambda manifest: manifest["target"].update(seed=7))})
        loaded = repro.load(rewritten)
        assert loaded.total_time == cnn_module.total_time
        assert loaded.target.spec() == cnn_module.target.spec()
        assert "seed" not in loaded.target.spec()
        np.testing.assert_array_equal(Executor(loaded)(cnn_input)[0].asnumpy(),
                                      Executor(cnn_module)(cnn_input)[0].asnumpy())

    def test_create_target_canonical_names(self):
        for factory in (cuda, arm_cpu, vdla):
            target = factory()
            rebuilt = create_target(target.name)
            assert rebuilt.name == target.name
            assert rebuilt.device_type == target.device_type
        # The pynq host CPU must not degrade to the generic arm profile.
        from repro.hardware import pynq_cpu

        pynq = pynq_cpu()
        rebuilt = create_target(pynq.name)
        assert rebuilt.model.params.name == pynq.model.params.name
