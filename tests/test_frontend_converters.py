"""Tests for the Keras- and ONNX-style frontend importers and the weight
draw they share with the model builder."""

import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.frontend import (
    KerasConversionError,
    ONNXConversionError,
    from_keras,
    from_onnx,
    get_model,
)
from repro.frontend import ModelBuilder, builder
from repro.frontend.builder import DRAW_CHUNK, draw_weight
from repro.graph.ir import Graph
from repro.hardware import arm_cpu, cuda


def _keras_cnn_layers():
    return [
        {"class_name": "Conv2D", "filters": 8, "kernel_size": 3,
         "padding": "same", "activation": "relu"},
        {"class_name": "BatchNormalization"},
        {"class_name": "MaxPooling2D", "pool_size": 2},
        {"class_name": "GlobalAveragePooling2D"},
        {"class_name": "Dense", "units": 5, "activation": "softmax"},
    ]


class TestFromKeras:
    def test_basic_cnn_structure(self):
        graph, params = from_keras(_keras_cnn_layers(), input_shape=(3, 16, 16))
        ops = [n.op for n in graph.op_nodes]
        assert "conv2d" in ops
        assert "batch_norm" in ops
        assert "max_pool2d" in ops
        assert "dense" in ops
        assert "softmax" in ops

    def test_output_shape_is_classifier(self):
        graph, _params = from_keras(_keras_cnn_layers(), input_shape=(3, 16, 16))
        assert graph.outputs[0].shape == (1, 5)

    def test_batch_dimension_respected(self):
        graph, _params = from_keras(_keras_cnn_layers(), input_shape=(3, 16, 16),
                                    batch=4)
        assert graph.input_nodes[0].shape[0] == 4
        assert graph.outputs[0].shape[0] == 4

    def test_parameters_are_materialised(self):
        _graph, params = from_keras(_keras_cnn_layers(), input_shape=(3, 16, 16))
        assert params
        assert all(isinstance(v, np.ndarray) for v in params.values())

    def test_model_dict_form(self):
        model = {"name": "cnn", "layers": _keras_cnn_layers(),
                 "input_shape": (3, 16, 16)}
        graph, _params = from_keras(model)
        assert graph.outputs[0].shape == (1, 5)

    def test_same_padding(self):
        layers = [{"class_name": "Conv2D", "filters": 4, "kernel_size": 3,
                   "padding": "same"}]
        graph, _params = from_keras(layers, input_shape=(3, 10, 10))
        conv = [n for n in graph.op_nodes if n.op == "conv2d"][0]
        assert conv.shape[2:] == (10, 10)

    def test_valid_padding(self):
        layers = [{"class_name": "Conv2D", "filters": 4, "kernel_size": 3,
                   "padding": "valid"}]
        graph, _params = from_keras(layers, input_shape=(3, 10, 10))
        conv = [n for n in graph.op_nodes if n.op == "conv2d"][0]
        assert conv.shape[2:] == (8, 8)

    def test_strided_conv(self):
        layers = [{"class_name": "Conv2D", "filters": 4, "kernel_size": 3,
                   "strides": 2, "padding": "same"}]
        graph, _params = from_keras(layers, input_shape=(3, 16, 16))
        conv = [n for n in graph.op_nodes if n.op == "conv2d"][0]
        assert conv.shape[2:] == (8, 8)

    def test_depthwise_layer(self):
        layers = [{"class_name": "DepthwiseConv2D", "kernel_size": 3,
                   "padding": "same"}]
        graph, _params = from_keras(layers, input_shape=(6, 8, 8))
        ops = [n.op for n in graph.op_nodes]
        assert "depthwise_conv2d" in ops

    def test_conv_transpose_layer(self):
        layers = [{"class_name": "Conv2DTranspose", "filters": 4,
                   "kernel_size": 4, "strides": 2, "padding": 1}]
        graph, _params = from_keras(layers, input_shape=(8, 7, 7))
        assert any(n.op == "conv2d_transpose" for n in graph.op_nodes)

    def test_dense_auto_flattens_4d_input(self):
        layers = [{"class_name": "Dense", "units": 3}]
        graph, _params = from_keras(layers, input_shape=(2, 4, 4))
        ops = [n.op for n in graph.op_nodes]
        assert "flatten" in ops and "dense" in ops

    def test_use_bias_false_skips_bias(self):
        layers = [{"class_name": "Conv2D", "filters": 4, "kernel_size": 1,
                   "use_bias": False}]
        graph, _params = from_keras(layers, input_shape=(3, 8, 8))
        assert not any(n.op == "bias_add" for n in graph.op_nodes)

    def test_activation_layer(self):
        layers = [{"class_name": "Dense", "units": 4},
                  {"class_name": "Activation", "activation": "tanh"}]
        graph, _params = from_keras(layers, input_shape=(6,))
        assert any(n.op == "tanh" for n in graph.op_nodes)

    def test_leaky_relu_layer(self):
        layers = [{"class_name": "Conv2D", "filters": 4, "kernel_size": 1},
                  {"class_name": "LeakyReLU", "alpha": 0.1}]
        graph, _params = from_keras(layers, input_shape=(3, 8, 8))
        leaky = [n for n in graph.op_nodes if n.op == "leaky_relu"]
        assert leaky and leaky[0].attrs["alpha"] == pytest.approx(0.1)

    def test_dropout_becomes_noop_operator(self):
        layers = [{"class_name": "Dense", "units": 4},
                  {"class_name": "Dropout", "rate": 0.5}]
        graph, _params = from_keras(layers, input_shape=(6,))
        assert any(n.op == "dropout" for n in graph.op_nodes)

    def test_average_pooling(self):
        layers = [{"class_name": "AveragePooling2D", "pool_size": 2}]
        graph, _params = from_keras(layers, input_shape=(3, 8, 8))
        assert any(n.op == "avg_pool2d" for n in graph.op_nodes)

    def test_reshape_layer(self):
        layers = [{"class_name": "Reshape", "target_shape": (1, 3, 64)}]
        graph, _params = from_keras(layers, input_shape=(3, 8, 8))
        assert any(n.op == "reshape" for n in graph.op_nodes)

    def test_missing_input_shape_raises(self):
        with pytest.raises(KerasConversionError):
            from_keras(_keras_cnn_layers())

    def test_unknown_layer_raises(self):
        with pytest.raises(KerasConversionError):
            from_keras([{"class_name": "LSTM", "units": 8}], input_shape=(4,))

    def test_unknown_activation_raises(self):
        layers = [{"class_name": "Dense", "units": 4, "activation": "swish"}]
        with pytest.raises(KerasConversionError):
            from_keras(layers, input_shape=(6,))

    def test_layer_without_class_name_raises(self):
        with pytest.raises(KerasConversionError):
            from_keras([{"filters": 8}], input_shape=(3, 8, 8))

    def test_imported_model_compiles_and_runs(self):
        graph, params = from_keras(_keras_cnn_layers(), input_shape=(3, 16, 16))
        module = repro.compile(graph, target=cuda(), params=params,
                               opt_level=2)
        out = repro.Executor(module)(
            data=np.random.rand(1, 3, 16, 16).astype("float32"))[0].asnumpy()
        assert out.shape == (1, 5)
        assert np.allclose(out.sum(), 1.0, atol=1e-4)   # softmax output


def _onnx_mlp():
    return {
        "inputs": {"data": (1, 16)},
        "initializers": {"w0": (32, 16), "b0": (32,), "w1": (4, 32)},
        "nodes": [
            {"op_type": "Gemm", "inputs": ["data", "w0", "b0"], "outputs": ["h"]},
            {"op_type": "Relu", "inputs": ["h"], "outputs": ["hr"]},
            {"op_type": "Gemm", "inputs": ["hr", "w1"], "outputs": ["out"]},
        ],
        "outputs": ["out"],
    }


class TestFromONNX:
    def test_mlp_structure(self):
        graph, params = from_onnx(_onnx_mlp())
        ops = [n.op for n in graph.op_nodes]
        assert ops.count("dense") == 2
        assert "relu" in ops
        assert "bias_add" in ops            # Gemm bias becomes bias_add
        assert set(params) == {"w0", "b0", "w1"}

    def test_output_shape(self):
        graph, _params = from_onnx(_onnx_mlp())
        assert graph.outputs[0].shape == (1, 4)

    def test_initializer_arrays_are_used_verbatim(self):
        description = _onnx_mlp()
        weight = np.ones((32, 16), dtype="float32")
        description["initializers"]["w0"] = weight
        _graph, params = from_onnx(description)
        assert np.array_equal(params["w0"], weight)

    def test_conv_node_with_padding_and_stride(self):
        description = {
            "inputs": {"x": (1, 3, 16, 16)},
            "initializers": {"w": (8, 3, 3, 3)},
            "nodes": [{"op_type": "Conv", "inputs": ["x", "w"], "outputs": ["y"],
                       "attrs": {"strides": 2, "pads": 1}}],
            "outputs": ["y"],
        }
        graph, _params = from_onnx(description)
        assert graph.outputs[0].shape == (1, 8, 8, 8)

    def test_grouped_conv_becomes_depthwise(self):
        description = {
            "inputs": {"x": (1, 8, 8, 8)},
            "initializers": {"w": (8, 1, 3, 3)},
            "nodes": [{"op_type": "Conv", "inputs": ["x", "w"], "outputs": ["y"],
                       "attrs": {"pads": 1, "group": 8}}],
            "outputs": ["y"],
        }
        graph, _params = from_onnx(description)
        assert any(n.op == "depthwise_conv2d" for n in graph.op_nodes)

    def test_identity_is_aliased_away(self):
        description = {
            "inputs": {"x": (1, 4)},
            "initializers": {"w": (4, 4)},
            "nodes": [
                {"op_type": "Identity", "inputs": ["x"], "outputs": ["xi"]},
                {"op_type": "Gemm", "inputs": ["xi", "w"], "outputs": ["y"]},
            ],
            "outputs": ["y"],
        }
        graph, _params = from_onnx(description)
        assert not any(n.op == "identity" for n in graph.op_nodes)

    def test_pool_attrs_translated(self):
        description = {
            "inputs": {"x": (1, 2, 8, 8)},
            "initializers": {},
            "nodes": [{"op_type": "MaxPool", "inputs": ["x"], "outputs": ["y"],
                       "attrs": {"kernel_shape": 2, "strides": 2}}],
            "outputs": ["y"],
        }
        graph, _params = from_onnx(description)
        assert graph.outputs[0].shape == (1, 2, 4, 4)

    def test_batch_override(self):
        graph, _params = from_onnx(_onnx_mlp(), batch=8)
        assert graph.input_nodes[0].shape[0] == 8

    def test_missing_inputs_raises(self):
        with pytest.raises(ONNXConversionError):
            from_onnx({"nodes": [{"op_type": "Relu", "inputs": ["x"],
                                  "outputs": ["y"]}], "outputs": ["y"]})

    def test_empty_nodes_raises(self):
        with pytest.raises(ONNXConversionError):
            from_onnx({"inputs": {"x": (1, 4)}, "nodes": [], "outputs": []})

    def test_unknown_operator_raises(self):
        description = {
            "inputs": {"x": (1, 4)},
            "nodes": [{"op_type": "Einsum", "inputs": ["x"], "outputs": ["y"]}],
            "outputs": ["y"],
        }
        with pytest.raises(ONNXConversionError):
            from_onnx(description)

    def test_undefined_value_raises(self):
        description = {
            "inputs": {"x": (1, 4)},
            "nodes": [{"op_type": "Relu", "inputs": ["missing"], "outputs": ["y"]}],
            "outputs": ["y"],
        }
        with pytest.raises(ONNXConversionError):
            from_onnx(description)

    def test_missing_output_raises(self):
        description = _onnx_mlp()
        description["outputs"] = ["never_produced"]
        with pytest.raises(ONNXConversionError):
            from_onnx(description)

    def test_imported_model_compiles_on_cpu(self):
        graph, params = from_onnx(_onnx_mlp())
        module = repro.compile(graph, target=arm_cpu(), params=params,
                               opt_level=2)
        outputs = repro.Executor(module)(
            data=np.random.rand(1, 16).astype("float32"))
        assert outputs[0].shape == (1, 4)
        assert module.total_time > 0


class TestDrawWeight:
    @pytest.mark.parametrize("shape", [
        (0,), (1,), (DRAW_CHUNK - 1,), (DRAW_CHUNK,), (DRAW_CHUNK + 1,),
        (2 * DRAW_CHUNK + 3,), (3, 5, 97, 101), ()])
    @pytest.mark.parametrize("scale", [0.1, 0.0])
    def test_bitwise_equal_to_the_whole_tensor_draw(self, shape, scale):
        """The chunked draw is the whole-tensor formula bit for bit, at
        every chunk boundary, for a multi-dim shape, and for the signed
        zeros ``scale=0.0`` makes; it leaves the stream where the whole
        draw leaves it."""
        chunked, whole = np.random.default_rng(7), np.random.default_rng(7)
        got = draw_weight(chunked, shape, scale, "float32")
        want = (whole.standard_normal(shape) * scale).astype("float32")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if scale == 0.0 and got.size > 1:
            assert np.signbit(got).any() and not np.signbit(got).all()
        assert chunked.standard_normal() == whole.standard_normal()

    def test_a_weight_costs_its_bytes(self):
        """Building dcgan and drawing all its weights allocates at most 1.1x
        the bytes of those weights (``tracemalloc`` peak).  Drawing each
        weight whole in float64, scaling it and casting it read 2.12x;
        chunked, 1.03x."""
        tracemalloc.start()
        try:
            _graph, params, _shapes = get_model("dcgan")
            weights = sum(array.nbytes for array in params.values())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * weights, (peak, weights)


def _small_model():
    """Every kind of param a builder makes: drawn weights and batch-norm
    gamma and var (a scale-0 draw, then ``+= 1``)."""
    b = ModelBuilder("small", seed=11)
    net = b.conv_bn_relu(b.input("data", (1, 3, 8, 8)), 4, 3, padding=1)
    net = b.dense(b.flatten(net), 8)
    hidden, _cell = b.lstm_cell(net, b.input("h", (1, 4)), b.input("c", (1, 4)),
                                4)
    return b.finalize(b.bias_add(hidden))


def _bytes(params, names):
    return {name: params[name].tobytes() for name in names}


@pytest.fixture
def draws(monkeypatch):
    """Every ``draw_weight`` call's shape, in call order."""
    calls = []
    real = builder.draw_weight

    def counting(rng, shape, scale, dtype):
        calls.append(tuple(shape))
        return real(rng, shape, scale, dtype)

    monkeypatch.setattr(builder, "draw_weight", counting)
    return calls


class TestLazyParams:
    @pytest.mark.parametrize("make", [_small_model, lambda: get_model("dqn")])
    def test_any_read_order_gives_the_same_bits(self, make):
        """In declaration order, reversed, shuffled, or from more threads
        than cores at once: every weight is the same, bit for bit."""
        names = list(make()[1])
        want = _bytes(make()[1], names)
        assert _bytes(make()[1], names[::-1]) == want
        orders = [names[::-1]] + [random.Random(seed).sample(names, len(names))
                                  for seed in range(5)]
        assert _bytes(make()[1], orders[1]) == want

        params = make()[1]
        start = threading.Barrier(len(orders))

        def read(order):
            start.wait(timeout=30)
            return _bytes(params, order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(orders)) as pool:
                futures = [pool.submit(read, order) for order in orders]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * len(orders)

    def test_a_batch_norm_reads_one_and_zero(self):
        params = _small_model()[1]
        params.bind("table", np.arange(4, dtype="float32"))  # as from_onnx
        for name in ("bn0_gamma", "bn0_var"):
            assert np.array_equal(params[name], np.ones(4, "float32"))
        assert params["table"].sum() == 6       # bound, not drawn

    def test_a_read_draws_what_was_declared_before_it_once(self, draws):
        _graph, params = _small_model()
        params.bind("table", np.arange(4, dtype="float32"))  # as from_onnx
        assert draws == [] and "conv0_weight" in params and draws == []
        params["bn0_mean"]          # conv0_weight, bn0_gamma, beta, mean
        assert draws == [(4, 3, 3, 3), (4,), (4,), (4,)]
        params["conv0_weight"]
        params["bn0_mean"]
        assert len(draws) == 4
        dict(params)
        assert len(draws) == len(params) - 1    # the table is bound

    def test_tuning_draws_no_weight(self, draws):
        tasks = repro.autotvm.extract_tasks("dqn", "arm_cpu")
        report = repro.autotune("dqn", target="arm_cpu", trials=2,
                                params={"conv1_weight": np.zeros(
                                    (32, 4, 8, 8), "float32")})
        assert len(tasks) == len(report.results) > 0
        assert draws == []

    def test_a_cut_graph_draws_only_its_weights(self, draws):
        graph, params, shapes = get_model("resnet-18")
        graph.infer_shapes(shapes)
        cut = Graph([graph.find("bn7")])
        weights = [node for node in cut.input_nodes if node.name != "data"]
        assert draws == []
        repro.compile((cut, params, shapes), target="cuda")
        assert sorted(draws) == sorted(node.shape for node in weights)
        assert len(draws) < len(params)
