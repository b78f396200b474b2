"""Framework importers (the paper's ``t.frontend.from_keras`` entry point).

The paper's end-user example (Section 2) starts from a model expressed in an
existing framework and converts it into TVM's computational graph::

    import tvm as t
    graph, params = t.frontend.from_keras(keras_model)

The real frameworks are not available offline, so the importers here accept
light-weight, declarative model descriptions with the same information a
Keras ``Sequential`` model or an ONNX graph carries:

* :func:`from_keras` — a list of layer dictionaries (``Conv2D``, ``Dense``,
  ``BatchNormalization``, ``Activation`` ...) applied sequentially, exactly
  like ``keras.Sequential``.
* :func:`from_onnx` — an ONNX-style protobuf-as-dict: named value infos,
  initializers and a flat node list in topological order.

Both return ``(graph, params)`` where ``graph`` is a
:class:`~repro.graph.ir.Graph` and ``params`` maps parameter names to NumPy
arrays (a :class:`~repro.frontend.builder.LazyParams`: a random weight is
drawn when first read), ready for :func:`repro.compile`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.ir import Graph, Node
from ..graph.ops import OP_REGISTRY
from ..topi.reference import _pair
from .builder import LazyParams, ModelBuilder

__all__ = ["from_keras", "from_onnx", "KerasConversionError", "ONNXConversionError"]

LayerSpec = Mapping[str, object]


class KerasConversionError(ValueError):
    """Raised when a Keras-style layer description cannot be converted."""


class ONNXConversionError(ValueError):
    """Raised when an ONNX-style node cannot be converted."""


# ---------------------------------------------------------------------------
# Keras-style sequential importer
# ---------------------------------------------------------------------------

def _keras_padding(layer: LayerSpec, kernel: Tuple[int, int]) -> int:
    """Translate Keras ``padding`` ("same"/"valid"/int) to explicit padding."""
    padding = layer.get("padding", "valid")
    if isinstance(padding, str):
        if padding.lower() == "same":
            return kernel[0] // 2
        if padding.lower() == "valid":
            return 0
        raise KerasConversionError(f"Unknown padding mode {padding!r}")
    return int(padding)


def from_keras(model: Union[Sequence[LayerSpec], Mapping[str, object]],
               input_shape: Optional[Sequence[int]] = None,
               batch: int = 1, dtype: str = "float32",
               seed: int = 0) -> Tuple[Graph, LazyParams]:
    """Convert a Keras-``Sequential``-style description into a graph.

    Parameters
    ----------
    model:
        Either a list of layer dictionaries, or a dict with keys ``layers``
        and optionally ``input_shape`` / ``name``.  Each layer dictionary has
        a ``class_name`` (Keras layer class) and its constructor arguments,
        e.g. ``{"class_name": "Conv2D", "filters": 64, "kernel_size": 3,
        "strides": 1, "padding": "same", "activation": "relu"}``.
    input_shape:
        Input shape *excluding* the batch dimension, in channel-first order
        ``(C, H, W)`` (or ``(features,)`` for dense-only models).  May also be
        provided inside the model dict.
    batch:
        Batch size of the compiled graph (the paper optimises for a fixed
        shape, Section 3).

    Returns
    -------
    (graph, params):
        The computational graph and randomly-initialised parameters, matching
        what ``t.frontend.from_keras`` returns in the paper's example.
    """
    if isinstance(model, Mapping):
        layers = list(model.get("layers", []))
        input_shape = input_shape or model.get("input_shape")
        name = str(model.get("name", "keras_model"))
    else:
        layers = list(model)
        name = "keras_model"
    if input_shape is None:
        raise KerasConversionError("from_keras requires an input shape")

    builder = ModelBuilder(name, seed=seed, dtype=dtype)
    net = builder.input("data", (batch, *tuple(int(d) for d in input_shape)))

    for index, layer in enumerate(layers):
        if "class_name" not in layer:
            raise KerasConversionError(f"Layer {index} has no class_name: {layer!r}")
        net = _convert_keras_layer(builder, net, layer, index)

    graph, params = builder.finalize(net)
    return graph, params


def _convert_keras_layer(builder: ModelBuilder, net: Node, layer: LayerSpec,
                         index: int) -> Node:
    class_name = str(layer["class_name"])
    activation = layer.get("activation")

    if class_name == "Conv2D":
        kernel = _pair(layer.get("kernel_size", 3))
        stride = _pair(layer.get("strides", 1))[0]
        padding = _keras_padding(layer, kernel)
        net = builder.conv2d(net, int(layer["filters"]), kernel[0],
                             stride=stride, padding=padding)
        if layer.get("use_bias", True):
            net = builder.bias_add(net)
    elif class_name == "DepthwiseConv2D":
        kernel = _pair(layer.get("kernel_size", 3))
        stride = _pair(layer.get("strides", 1))[0]
        padding = _keras_padding(layer, kernel)
        net = builder.depthwise_conv2d(net, kernel[0], stride=stride,
                                       padding=padding)
        if layer.get("use_bias", True):
            net = builder.bias_add(net)
    elif class_name == "Conv2DTranspose":
        kernel = _pair(layer.get("kernel_size", 4))
        stride = _pair(layer.get("strides", 2))[0]
        padding = _keras_padding(layer, kernel)
        net = builder.conv2d_transpose(net, int(layer["filters"]), kernel[0],
                                       stride=stride, padding=padding)
    elif class_name == "Dense":
        if net.shape is not None and len(net.shape) > 2:
            net = builder.flatten(net)
        net = builder.dense(net, int(layer["units"]))
        if layer.get("use_bias", True):
            net = builder.bias_add(net)
    elif class_name == "BatchNormalization":
        net = builder.batch_norm(net)
    elif class_name == "Activation":
        activation = layer.get("activation", layer.get("name", "relu"))
    elif class_name == "ReLU":
        activation = "relu"
    elif class_name == "LeakyReLU":
        net = builder.leaky_relu(net, float(layer.get("alpha", 0.3)))
    elif class_name == "Softmax":
        activation = "softmax"
    elif class_name == "MaxPooling2D":
        pool = _pair(layer.get("pool_size", 2))[0]
        stride = _pair(layer.get("strides", pool))[0]
        net = builder.max_pool2d(net, pool_size=pool, stride=stride,
                                 padding=int(layer.get("padding", 0))
                                 if not isinstance(layer.get("padding"), str) else 0)
    elif class_name == "AveragePooling2D":
        pool = _pair(layer.get("pool_size", 2))[0]
        stride = _pair(layer.get("strides", pool))[0]
        net = builder.avg_pool2d(net, pool_size=pool, stride=stride)
    elif class_name == "GlobalAveragePooling2D":
        net = builder.global_avg_pool2d(net)
    elif class_name == "Flatten":
        net = builder.flatten(net)
    elif class_name == "Reshape":
        net = builder.reshape(net, tuple(int(d) for d in layer["target_shape"]))
    elif class_name == "Dropout":
        # Inference graphs drop the op entirely (also what SimplifyInference
        # does); keep the node count identical to the framework by emitting
        # the no-op operator and letting the graph pass remove it.
        net = builder._op("dropout", [net], {"rate": float(layer.get("rate", 0.5))})
    else:
        raise KerasConversionError(
            f"Unsupported Keras layer {class_name!r} at position {index}")

    if activation:
        net = _apply_activation(builder, net, str(activation))
    return net


def _apply_activation(builder: ModelBuilder, net: Node, activation: str) -> Node:
    table = {
        "relu": builder.relu,
        "sigmoid": builder.sigmoid,
        "tanh": builder.tanh,
        "softmax": builder.softmax,
        "linear": lambda x: x,
    }
    if activation not in table:
        raise KerasConversionError(f"Unsupported activation {activation!r}")
    return table[activation](net)


# ---------------------------------------------------------------------------
# ONNX-style importer
# ---------------------------------------------------------------------------

#: Mapping from ONNX op_type to the graph operator name used here.
_ONNX_OP_MAP = {
    "Conv": "conv2d",
    "ConvTranspose": "conv2d_transpose",
    "Gemm": "dense",
    "MatMul": "dense",
    "Relu": "relu",
    "LeakyRelu": "leaky_relu",
    "Sigmoid": "sigmoid",
    "Tanh": "tanh",
    "Softmax": "softmax",
    "Add": "add",
    "Mul": "multiply",
    "BatchNormalization": "batch_norm",
    "MaxPool": "max_pool2d",
    "AveragePool": "avg_pool2d",
    "GlobalAveragePool": "global_avg_pool2d",
    "Flatten": "flatten",
    "Reshape": "reshape",
    "Concat": "concatenate",
    "Dropout": "dropout",
    "Identity": None,
}


def from_onnx(model: Mapping[str, object], batch: Optional[int] = None,
              dtype: str = "float32",
              seed: int = 0) -> Tuple[Graph, LazyParams]:
    """Convert an ONNX-style graph description into a computational graph.

    ``model`` mirrors the structure of an ONNX ``GraphProto``::

        {
          "inputs": {"data": (1, 3, 224, 224)},
          "initializers": {"w0": (64, 3, 7, 7), ...}   # shapes or ndarrays
          "nodes": [
             {"op_type": "Conv", "inputs": ["data", "w0"], "outputs": ["c0"],
              "attrs": {"strides": 2, "pads": 3}},
             ...
          ],
          "outputs": ["out"],
        }

    Initializers given as shapes get random values, drawn when first read
    (the paper's evaluation uses random weights as well — only performance
    is measured).  Returns ``(graph, params)``.
    """
    inputs: Mapping[str, Sequence[int]] = model.get("inputs", {})  # type: ignore[assignment]
    initializers: Mapping[str, object] = model.get("initializers", {})  # type: ignore[assignment]
    nodes: Sequence[Mapping[str, object]] = model.get("nodes", [])  # type: ignore[assignment]
    output_names: Sequence[str] = model.get("outputs", [])  # type: ignore[assignment]
    if not inputs:
        raise ONNXConversionError("ONNX model description has no inputs")
    if not nodes:
        raise ONNXConversionError("ONNX model description has no nodes")

    params = LazyParams(np.random.default_rng(seed), dtype)
    values: Dict[str, Node] = {}

    for name, shape in inputs.items():
        shape = tuple(int(d) for d in shape)
        if batch is not None:
            shape = (batch, *shape[1:])
        node = Node("null", name)
        node.shape = shape
        node.dtype = dtype
        values[name] = node

    param_shapes: Dict[str, Tuple[int, ...]] = {}
    for name, value in initializers.items():
        if isinstance(value, np.ndarray):
            params.bind(name, value.astype(dtype))
            param_shapes[name] = value.shape
        else:
            param_shapes[name] = tuple(int(d) for d in value)
            params.declare(name, param_shapes[name], 0.1)
        node = Node("null", name)
        node.shape = param_shapes[name]
        node.dtype = dtype
        values[name] = node

    for position, onnx_node in enumerate(nodes):
        _convert_onnx_node(onnx_node, position, values, dtype)

    missing = [name for name in output_names if name not in values]
    if missing:
        raise ONNXConversionError(f"Outputs {missing} are never produced")
    outputs = [values[name] for name in output_names] or [values[nodes[-1]["outputs"][0]]]  # type: ignore[index]
    graph = Graph(outputs)
    input_shapes = {name: tuple(shape) for name, shape in inputs.items()}
    graph.infer_shapes({**input_shapes, **param_shapes})
    return graph, params


def _onnx_attr_translate(op_type: str, attrs: Mapping[str, object]) -> Dict[str, object]:
    """Translate ONNX attribute names to the graph operator attributes."""
    out: Dict[str, object] = {}
    if op_type in ("Conv", "ConvTranspose"):
        strides = attrs.get("strides", 1)
        pads = attrs.get("pads", 0)
        out["strides"] = _pair(strides)[0] if not isinstance(strides, int) else strides
        out["padding"] = _pair(pads)[0] if not isinstance(pads, int) else pads
        if "group" in attrs and int(attrs["group"]) > 1:
            out["groups"] = int(attrs["group"])
    elif op_type in ("MaxPool", "AveragePool"):
        out["pool_size"] = _pair(attrs.get("kernel_shape", 2))[0]
        out["strides"] = _pair(attrs.get("strides", 2))[0]
        out["padding"] = _pair(attrs.get("pads", 0))[0]
    elif op_type == "LeakyRelu":
        out["alpha"] = float(attrs.get("alpha", 0.01))
    elif op_type == "Concat":
        out["axis"] = int(attrs.get("axis", 1))
    elif op_type == "Reshape":
        if "shape" in attrs:
            out["newshape"] = tuple(int(d) for d in attrs["shape"])  # type: ignore[arg-type]
    return out


def _convert_onnx_node(onnx_node: Mapping[str, object], position: int,
                       values: Dict[str, Node], dtype: str) -> None:
    op_type = str(onnx_node.get("op_type", ""))
    if op_type not in _ONNX_OP_MAP:
        raise ONNXConversionError(
            f"Unsupported ONNX operator {op_type!r} at position {position}")
    input_names = [str(n) for n in onnx_node.get("inputs", [])]
    output_names = [str(n) for n in onnx_node.get("outputs", [])]
    if not output_names:
        raise ONNXConversionError(f"Node {position} ({op_type}) has no outputs")
    missing = [n for n in input_names if n not in values]
    if missing:
        raise ONNXConversionError(
            f"Node {position} ({op_type}) reads undefined values {missing}")

    target_op = _ONNX_OP_MAP[op_type]
    if target_op is None:                      # Identity: alias the input
        values[output_names[0]] = values[input_names[0]]
        return

    attrs = _onnx_attr_translate(op_type, onnx_node.get("attrs", {}))  # type: ignore[arg-type]

    # A grouped Conv where groups == channels is a depthwise convolution.
    if target_op == "conv2d" and "groups" in attrs:
        weight = values[input_names[1]]
        groups = int(attrs.pop("groups"))
        if weight.shape is not None and groups == weight.shape[0]:
            target_op = "depthwise_conv2d"

    # ONNX Conv/Gemm fold the bias into the operator; emit a bias_add node.
    bias_input: Optional[Node] = None
    if op_type in ("Conv", "ConvTranspose", "Gemm") and len(input_names) > 2:
        bias_input = values[input_names[2]]
        input_names = input_names[:2]

    # BatchNormalization keeps its (scale, bias, mean, var) parameter inputs
    # when the description provides them; otherwise only the data input.
    if op_type == "BatchNormalization" and len(input_names) not in (1, 5):
        input_names = input_names[:1]

    inputs = [values[name] for name in input_names]
    node = Node(target_op, f"{op_type.lower()}_{position}", inputs, attrs)
    node.dtype = dtype
    spec = OP_REGISTRY[node.op]
    node.shape = spec.infer_shape([tuple(p.shape) for p in inputs], node.attrs)
    if bias_input is not None:
        bias_node = Node("bias_add", f"bias_{position}", [node, bias_input], {})
        bias_node.dtype = dtype
        bias_node.shape = node.shape
        node = bias_node
    values[output_names[0]] = node
