"""Importing models from framework-style descriptions (Section 2).

The paper's end-user flow starts from a model built in an existing framework
(``t.frontend.from_keras(keras_model)``).  This example shows both importers:

* a Keras-``Sequential``-style layer list, and
* an ONNX-style graph description,

each converted to the computational graph IR, compiled for two different
back-ends, and executed with the graph runtime.

Run:  python examples/import_frontend_model.py
"""

import numpy as np

import repro
from repro.frontend import from_keras, from_onnx
from repro.hardware import arm_cpu, cuda


def keras_style_cnn():
    """A small CIFAR-style CNN described the way Keras Sequential would."""
    layers = [
        {"class_name": "Conv2D", "filters": 32, "kernel_size": 3,
         "padding": "same", "activation": "relu"},
        {"class_name": "BatchNormalization"},
        {"class_name": "MaxPooling2D", "pool_size": 2},
        {"class_name": "DepthwiseConv2D", "kernel_size": 3, "padding": "same"},
        {"class_name": "Conv2D", "filters": 64, "kernel_size": 1,
         "activation": "relu"},
        {"class_name": "GlobalAveragePooling2D"},
        {"class_name": "Dense", "units": 10, "activation": "softmax"},
    ]
    return from_keras(layers, input_shape=(3, 32, 32), batch=1)


def onnx_style_mlp():
    """A two-layer MLP in ONNX GraphProto-style dictionary form."""
    description = {
        "inputs": {"data": (1, 64)},
        "initializers": {"w0": (128, 64), "b0": (128,), "w1": (10, 128)},
        "nodes": [
            {"op_type": "Gemm", "inputs": ["data", "w0", "b0"], "outputs": ["h0"]},
            {"op_type": "Relu", "inputs": ["h0"], "outputs": ["h1"]},
            {"op_type": "Gemm", "inputs": ["h1", "w1"], "outputs": ["logits"]},
            {"op_type": "Softmax", "inputs": ["logits"], "outputs": ["prob"]},
        ],
        "outputs": ["prob"],
    }
    return from_onnx(description)


def compile_and_run(graph, params, input_name, input_shape, target) -> None:
    module = repro.compile(graph, target=target, params=params,
                           input_shapes={input_name: input_shape})
    data = np.random.rand(*input_shape).astype("float32")
    output = repro.Executor(module)({input_name: data})[0].asnumpy()
    print(f"  {target.name:<28} est. latency {module.total_time * 1e3:8.3f} ms, "
          f"{len(module.kernels)} fused kernels, output sum {float(np.sum(output)):.4f}")


def main() -> None:
    print("Keras-style CNN import:")
    graph, params = keras_style_cnn()
    print(f"  imported {len(graph.op_nodes)} operators, {len(params)} parameters")
    for target in (cuda(), arm_cpu()):
        compile_and_run(graph, dict(params), "data", (1, 3, 32, 32), target)

    print("\nONNX-style MLP import:")
    graph, params = onnx_style_mlp()
    print(f"  imported {len(graph.op_nodes)} operators, {len(params)} parameters")
    for target in (cuda(), arm_cpu()):
        compile_and_run(graph, dict(params), "data", (1, 64), target)


if __name__ == "__main__":
    main()
