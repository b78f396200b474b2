"""Tests for the inference-simplification graph passes."""

import numpy as np
import pytest

import repro
from repro.frontend import ModelBuilder, resnet18
from repro.graph.ir import Graph, Node
from repro.graph.simplify import simplify_inference
from repro.hardware import cuda


def _conv_bn_relu_model(channels=4, size=8):
    builder = ModelBuilder("m", seed=3)
    data = builder.input("data", (1, 3, size, size))
    net = builder.conv2d(data, channels, 3, stride=1, padding=1, name="conv")
    net = builder.batch_norm(net, name="bn")
    net = builder.relu(net)
    graph, params = builder.finalize(net)
    return graph, params


def _run(graph, params, data):
    module = repro.compile(graph, target=cuda(), params=params, opt_level=0)
    return repro.Executor(module)(data=data)[0].asnumpy()


class TestSimplifyInference:
    def test_batch_norm_is_folded(self):
        graph, params = _conv_bn_relu_model()
        new_graph, _new_params, count = simplify_inference(graph, params)
        assert count == 1
        assert not any(n.op == "batch_norm" for n in new_graph.op_nodes)
        assert any(n.op == "bias_add" for n in new_graph.op_nodes)

    def test_folding_preserves_numerics(self):
        graph, params = _conv_bn_relu_model()
        data = np.random.default_rng(0).random((1, 3, 8, 8)).astype("float32")
        reference = _run(graph, dict(params), data)
        graph2, params2 = _conv_bn_relu_model()
        folded_graph, folded_params, count = simplify_inference(graph2, params2)
        assert count == 1
        folded = _run(folded_graph, folded_params, data)
        np.testing.assert_allclose(folded, reference, rtol=1e-3, atol=1e-4)

    def test_new_parameters_are_created(self):
        graph, params = _conv_bn_relu_model()
        _new_graph, new_params, _count = simplify_inference(graph, params)
        added = set(new_params) - set(params)
        assert any(name.endswith("_bnfold") for name in added)
        assert any(name.endswith("_bnfold_bias") for name in added)

    def test_dropout_removed(self):
        builder = ModelBuilder("m", seed=0)
        data = builder.input("data", (1, 8))
        net = builder.dense(data, 4)
        net = builder._op("dropout", [net], {"rate": 0.5})
        net = builder.relu(net)
        graph, params = builder.finalize(net)
        new_graph, _params, count = simplify_inference(graph, params)
        assert count == 1
        assert not any(n.op == "dropout" for n in new_graph.op_nodes)

    def test_bn_without_foldable_producer_is_kept(self):
        builder = ModelBuilder("m", seed=0)
        data = builder.input("data", (1, 4, 8, 8))
        net = builder.relu(data)
        net = builder.batch_norm(net)
        graph, params = builder.finalize(net)
        new_graph, _params, count = simplify_inference(graph, params)
        assert count == 0
        assert any(n.op == "batch_norm" for n in new_graph.op_nodes)

    def test_bn_with_shared_producer_is_kept(self):
        builder = ModelBuilder("m", seed=0)
        data = builder.input("data", (1, 3, 8, 8))
        conv = builder.conv2d(data, 4, 3, padding=1)
        bn = builder.batch_norm(conv)
        other = builder.relu(conv)            # second consumer of the conv
        out = builder.add(bn, other)
        graph, params = builder.finalize(out)
        _new_graph, _params, count = simplify_inference(graph, params)
        assert count == 0

    def test_resnet_folding_scales(self):
        graph, params, _shapes = resnet18(batch=1, image_size=32, num_classes=10)
        _new_graph, _new_params, count = simplify_inference(graph, params)
        assert count >= 10    # every conv+bn pair folds

    def test_idempotent(self):
        graph, params = _conv_bn_relu_model()
        graph1, params1, first = simplify_inference(graph, params)
        graph2, _params2, second = simplify_inference(graph1, params1)
        assert first == 1 and second == 0
        assert len(graph2.op_nodes) == len(graph1.op_nodes)


class TestBuildIntegration:
    def test_opt_level2_folds_batch_norms(self):
        graph, params = _conv_bn_relu_model()
        module = repro.compile(graph, target=cuda(), params=params,
                               opt_level=2)
        assert not any(n.op == "batch_norm" for n in module.graph.op_nodes)
        assert module.total_time > 0

    def test_opt_levels_agree_numerically(self):
        data = np.random.default_rng(1).random((1, 3, 8, 8)).astype("float32")
        outputs = []
        for level in (0, 2):
            graph, params = _conv_bn_relu_model()
            module = repro.compile(graph, target=cuda(), params=params,
                                   opt_level=level)
            outputs.append(repro.Executor(module)(data=data)[0].asnumpy())
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-3, atol=1e-4)

    def test_folding_uses_the_nodes_own_epsilon(self):
        # Regression: the fold used a pass-level epsilon (1e-5) whatever the
        # batch_norm node carried, so opt levels disagreed by 3.3e-2 here.
        data = np.random.default_rng(1).random((1, 3, 8, 8)).astype("float32")
        outputs = []
        for level in (0, 2):
            graph, params = _conv_bn_relu_model()
            bn = next(n for n in graph.op_nodes if n.op == "batch_norm")
            bn.attrs["epsilon"] = 0.1
            module = repro.compile(graph, target=cuda(), params=params,
                                   opt_level=level)
            outputs.append(repro.Executor(module)(data=data)[0].asnumpy())
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=0, atol=1e-5)
