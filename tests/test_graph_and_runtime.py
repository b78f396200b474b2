"""Tests for the graph IR, high-level passes, end-to-end build and runtime."""

import numpy as np
import pytest

import repro
from repro import runtime
from repro.analysis.errors import ShapeMismatchError
from repro.analysis.graph_verify import verify_graph
from repro.autotvm import extract_tasks
from repro.baselines import TFLiteSim, TensorFlowSim, VendorLibrary, CUDNN_PROFILE
from repro.frontend import ModelBuilder, dqn, get_model, lstm_language_model, mobilenet, resnet18
from repro.graph import (
    OP_REGISTRY,
    Graph,
    Node,
    OpPattern,
    fold_constants,
    fuse_ops,
    plan_memory,
)
from repro.graph.ops import register_op
from repro.hardware import arm_cpu, cuda, vdla
from repro.topi import reference as ref


def _small_cnn():
    b = ModelBuilder("small", seed=0)
    data = b.input("data", (1, 3, 16, 16))
    net = b.relu(b.batch_norm(b.conv2d(data, 8, 3, 1, 1, name="conv0")))
    net = b.max_pool2d(net, 2, 2)
    net = b.flatten(net)
    net = b.softmax(b.dense(net, 10, "fc"))
    graph, params = b.finalize(net)
    return graph, params, {"data": (1, 3, 16, 16)}


def test_graph_topological_order_and_shapes():
    graph, _params, shapes = _small_cnn()
    graph.infer_shapes(shapes)
    order = {id(n): i for i, n in enumerate(graph.nodes)}
    for node in graph.nodes:
        for parent in node.inputs:
            assert order[id(parent)] < order[id(node)]
    assert graph.outputs[0].shape == (1, 10)


def test_fusion_rules():
    graph, _params, shapes = _small_cnn()
    graph.infer_shapes(shapes)
    groups = fuse_ops(graph, enabled=True)
    # conv2d absorbs the following bn + relu chain.
    conv_group = next(g for g in groups if g.master.op == "conv2d")
    ops_in_group = {n.op for n in conv_group.nodes}
    assert {"batch_norm", "relu"} <= ops_in_group
    # softmax is opaque and must stay alone.
    softmax_group = next(g for g in groups if any(n.op == "softmax" for n in g.nodes))
    assert len(softmax_group.nodes) == 1
    # Disabling fusion yields one group per operator.
    assert len(fuse_ops(graph, enabled=False)) == len(graph.op_nodes)


def test_constant_folding_precomputes_param_only_subgraphs():
    b = ModelBuilder("fold", seed=0)
    data = b.input("data", (1, 4))
    w1 = b._param("w1", (4, 4))
    w2 = b._param("w2", (4, 4))
    combined = b.add(w1, w2)              # depends only on parameters
    out = b.dense(data, 4, "fc")
    out = b.add(out, combined)
    graph, params = b.finalize(out)
    graph.infer_shapes({"data": (1, 4)})
    folded, new_params = fold_constants(graph, params)
    assert getattr(folded, "fold_count", 0) >= 1
    folded_names = [name for name in new_params if name.endswith("_folded")]
    assert folded_names
    np.testing.assert_allclose(new_params[folded_names[0]],
                               params["w1"] + params["w2"])


def test_memory_planner_reuses_storage():
    graph, _params, shapes = resnet18(batch=1, image_size=64, num_classes=10)
    graph.infer_shapes(shapes)
    plan = plan_memory(graph)
    assert plan.planned_bytes < plan.naive_bytes
    assert plan.reuse_ratio > 1.5


def test_light_operator_traffic_is_sized_by_dtype():
    """A light operator's memory-bound estimate moves as many bytes per
    element as the memory planner and the verifier size it with."""
    from repro.graph.ir import Graph, Node
    from repro.graph.op_timing import kernel_time

    target = cuda()
    traffic = {}
    for dtype in ("float32", "int8"):
        relu = Node("relu", "act", [Node("null", "data")])
        Graph([relu]).infer_shapes({"data": (1, 64, 56, 56)},
                                   dtypes={"data": dtype})
        traffic[dtype] = (kernel_time(relu, target).time
                          - target.model.params.launch_overhead)
    assert traffic["int8"] == pytest.approx(traffic["float32"] / 4)


def test_build_and_execute_matches_numpy_reference():
    graph, params, shapes = _small_cnn()
    target = cuda()
    module = repro.compile(graph, target=target, params=params, opt_level=2)
    data = np.random.rand(1, 3, 16, 16).astype("float32")
    result = runtime.Executor(module).run({"data": data})
    out = result.outputs[0]

    # Independent NumPy composition of the same network, from the frontend's
    # weights (the module binds the batch-norm-folded ones instead).
    conv = ref.conv2d_nchw(data, params["conv0_weight"], 1, 1)
    bn = ref.batch_norm_inference(conv, params["bn0_gamma"], params["bn0_beta"],
                                  params["bn0_mean"], params["bn0_var"])
    act = ref.relu(bn)
    pooled = ref.max_pool2d(act, 2, 2)
    flat = ref.flatten(pooled)
    logits = ref.dense(flat, params["fc_weight"])
    expected = ref.softmax(logits)
    np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)
    assert result.total_time > 0
    assert abs(sum(t for _n, t in result.per_kernel) - result.total_time) < 1e-9


def test_opt_levels_monotonically_improve_latency():
    graph, params, shapes = dqn(batch=1)
    target = cuda()
    times = {}
    for level in (0, 2):
        g, p, s = dqn(batch=1)
        module = repro.compile(g, target=target, params=p, opt_level=level)
        times[level] = module.total_time
    assert times[2] <= times[0]


def test_heterogeneous_build_assigns_devices():
    graph, params, shapes = resnet18(batch=1, image_size=32, num_classes=10)
    module = repro.compile(graph, target=arm_cpu(), params=params,
                           opt_level=2,
                           heterogeneous_targets={"conv2d": vdla()})
    devices = {k.device for k in module.kernels if k.group.master.op == "conv2d"}
    assert devices == {"vdla"}


def test_extract_tasks_unique_workloads():
    graph, _params, shapes = mobilenet(batch=1)
    tasks = extract_tasks(graph, cuda(), input_shapes=shapes)
    assert len(tasks) >= 10
    assert len({t.name for t in tasks}) == len(tasks)


def test_model_zoo_shapes():
    specs = {
        "resnet-18": ((1, 3, 224, 224), (1, 1000)),
        "mobilenet": ((1, 3, 224, 224), (1, 1000)),
        "dqn": ((1, 4, 84, 84), (1, 18)),
    }
    for name, (in_shape, out_shape) in specs.items():
        graph, params, shapes = get_model(name)
        graph.infer_shapes(shapes)
        assert graph.outputs[0].shape == out_shape
    lstm_graph, _p, lstm_shapes = lstm_language_model(batch=1, seq_len=2)
    lstm_graph.infer_shapes(lstm_shapes)
    assert lstm_graph.outputs[0].shape == (1, 10000)
    with pytest.raises(KeyError):
        get_model("alexnet")


def test_vendor_library_efficiency_ordering():
    target = cuda()
    lib = VendorLibrary(CUDNN_PROFILE, target)
    conventional = lib.conv2d_time(1, 128, 28, 28, 256, 3, 1, 1)
    unusual = lib.conv2d_time(1, 128, 28, 28, 256, 4, 2, 0)
    # Per FLOP, the library is far less efficient on the unusual kernel.
    conventional_flops = 2 * 28 * 28 * 256 * 128 * 9
    unusual_flops = 2 * 13 * 13 * 256 * 128 * 16
    assert unusual / unusual_flops > conventional / conventional_flops


def test_framework_baselines_and_unsupported_ops():
    graph, _p, shapes = dqn(batch=1)
    tf = TensorFlowSim()
    result = tf.run_estimate(graph, shapes)
    assert result.total_time > result.kernel_time > 0
    assert result.num_kernels == len(graph.op_nodes)
    tflite = TFLiteSim()
    dcgan_graph, _p2, dcgan_shapes = get_model("dcgan")
    with pytest.raises(NotImplementedError):
        tflite.run_estimate(dcgan_graph, dcgan_shapes)


def test_ndarray_roundtrip():
    data = np.random.rand(2, 3).astype("float32")
    array = runtime.array(data, runtime.gpu(0))
    assert array.shape == (2, 3)
    out = runtime.empty((2, 3))
    array.copyto(out)
    np.testing.assert_allclose(out.asnumpy(), data)
    with pytest.raises(ValueError):
        out.copyfrom(np.zeros((4, 4)))


def test_register_custom_operator():
    register_op("negate_test", OpPattern.INJECTIVE,
                lambda ins, attrs: tuple(ins[0]),
                lambda data, attrs: -data)
    assert "negate_test" in OP_REGISTRY
    spec = OP_REGISTRY["negate_test"]
    np.testing.assert_allclose(spec.compute(np.ones(3), {}), -np.ones(3))


# ---------------------------------------------------------------------------
# LSTM gates are injective slices
# ---------------------------------------------------------------------------

#: a small lstm-lm: 2 steps x 2 layers x 4 gates of 64
_SMALL_LSTM = dict(hidden_size=64, seq_len=2)


def _selector_lstm():
    """The small lstm-lm with each gate a ``dense`` against a bound one-hot
    selector instead of a ``strided_slice``."""
    graph, params, shapes = get_model("lstm-lm", **_SMALL_LSTM)
    for node in graph.op_nodes:
        if node.op == "strided_slice":
            (gates,) = node.inputs
            begin, end = node.attrs["begin"], node.attrs["end"]
            selector = np.zeros((end - begin, gates.shape[1]), "float32")
            selector[:, begin:end] = np.eye(end - begin, dtype="float32")
            weight = Node("null", f"{node.name}_sel")
            weight.shape, weight.dtype = selector.shape, "float32"
            params.bind(weight.name, selector)
            node.op, node.inputs, node.attrs = "dense", [gates, weight], {}
    graph.refresh()
    return graph, params, shapes


def _inputs(executor, seed):
    rng = np.random.default_rng(seed)
    return {spec.name: rng.standard_normal(spec.shape).astype(spec.dtype)
            for spec in executor.input_specs}


class TestStridedSlice:
    @pytest.mark.parametrize("kwargs", [{"opt_level": 0}, {}],
                             ids=["opt0", "default"])
    def test_gates_are_bitwise_the_selector_dense(self, kwargs):
        module = repro.compile(get_model("lstm-lm", **_SMALL_LSTM),
                               target="cuda", **kwargs)
        oracle = repro.compile(_selector_lstm(), target="cuda", **kwargs)
        ops = [node.op for kernel in module.kernels for node in kernel.group.nodes]
        assert ops.count("strided_slice") == 16 and "strided_slice" not in \
            [node.op for kernel in oracle.kernels for node in kernel.group.nodes]
        executor = repro.Executor(module)
        inputs = _inputs(executor, 5)
        got = executor.run(inputs).outputs
        want = repro.Executor(oracle).run(inputs).outputs
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("attrs", [
        {"axis": 1, "begin": 4, "end": 9}, {"axis": 1, "begin": -1, "end": 2},
        {"axis": 1, "begin": 3, "end": 3}, {"axis": 2, "begin": 0, "end": 1}])
    def test_a_range_outside_the_axis_is_rejected(self, attrs):
        data = Node("null", "data")
        node = Node("strided_slice", "gate", [data],
                    {"axis": 1, "begin": 0, "end": 4})
        graph = Graph([node])
        graph.infer_shapes({"data": (1, 8)})
        assert node.shape == (1, 4)
        verify_graph(graph)
        node.attrs = attrs
        with pytest.raises(ValueError, match="outside shape"):
            graph.infer_shapes({"data": (1, 8)})
        with pytest.raises(ShapeMismatchError, match="outside shape"):
            verify_graph(graph)

    def test_export_load_round_trip_is_bit_identical(self, tmp_path):
        module = repro.compile(get_model("lstm-lm", **_SMALL_LSTM),
                               target="cuda")
        path = tmp_path / "lstm.repro"
        module.export(path)
        loaded = repro.load(path)
        assert loaded.total_time == module.total_time
        assert [node.attrs for node in loaded.graph.op_nodes] == \
            [node.attrs for node in module.graph.op_nodes]
        executor = repro.Executor(module)
        inputs = _inputs(executor, 9)
        got = repro.Executor(loaded).run(inputs).outputs
        want = executor.run(inputs).outputs
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_lstm_tasks_are_its_two_projections(self):
        tasks = extract_tasks("lstm-lm", "cuda")
        assert [task.args for task in tasks] == \
            [(1, 128, 512, "float32"), (1, 128, 10000, "float32")]
