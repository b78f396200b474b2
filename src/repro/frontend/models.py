"""Model zoo: the five inference workloads used in the paper's evaluation.

* ResNet-18 (He et al.) — image classification, the paper's main CNN workload.
* MobileNet (Howard et al.) — depthwise-separable convolutions.
* LSTM language model (Zaremba et al.) — recurrent workload.
* Deep Q Network (Mnih et al.) — the Nature DQN with its unconventional
  4x4-stride-2 convolution that vendor libraries optimise poorly.
* DCGAN generator (Radford et al.) — transposed convolutions.

Every constructor returns ``(graph, params, input_shapes)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..graph.ir import Graph
from .builder import ModelBuilder

__all__ = ["resnet18", "mobilenet", "lstm_language_model", "dqn", "dcgan_generator",
           "get_model", "MODEL_REGISTRY"]

ModelResult = Tuple[Graph, Dict[str, np.ndarray], Dict[str, Tuple[int, ...]]]


def resnet18(batch: int = 1, image_size: int = 224, num_classes: int = 1000,
             dtype: str = "float32") -> ModelResult:
    """ResNet-18 with identity-mapping residual blocks."""
    b = ModelBuilder("resnet18", seed=1, dtype=dtype)
    data = b.input("data", (batch, 3, image_size, image_size))
    net = b.conv_bn_relu(data, 64, 7, stride=2, padding=3, name="conv0")
    net = b.max_pool2d(net, pool_size=3, stride=2, padding=1)

    def residual_block(net, channels, stride, name, project=False):
        identity = net
        out = b.conv_bn_relu(net, channels, 3, stride=stride, padding=1,
                             name=f"{name}_conv1")
        out = b.batch_norm(b.conv2d(out, channels, 3, stride=1, padding=1,
                                    name=f"{name}_conv2"))
        if project or stride != 1 or identity.shape[1] != channels:
            identity = b.batch_norm(b.conv2d(identity, channels, 1, stride=stride,
                                             padding=0, name=f"{name}_down"))
        return b.relu(b.add(out, identity))

    stages = [(64, 1), (64, 1), (128, 2), (128, 1),
              (256, 2), (256, 1), (512, 2), (512, 1)]
    for index, (channels, stride) in enumerate(stages):
        # The first block uses a 1x1 projection shortcut (Table 2's C3 layer).
        net = residual_block(net, channels, stride, f"block{index}",
                             project=(index == 0))
    net = b.global_avg_pool2d(net)
    net = b.dense(net, num_classes, "fc")
    net = b.softmax(net)
    graph, params = b.finalize(net)
    return graph, params, {"data": (batch, 3, image_size, image_size)}


def mobilenet(batch: int = 1, image_size: int = 224, num_classes: int = 1000,
              alpha: float = 1.0, dtype: str = "float32") -> ModelResult:
    """MobileNet v1: depthwise separable convolutions."""
    b = ModelBuilder("mobilenet", seed=2, dtype=dtype)
    data = b.input("data", (batch, 3, image_size, image_size))

    def separable(net, out_channels, stride, name):
        net = b.depthwise_conv2d(net, 3, stride=stride, padding=1, name=f"{name}_dw")
        net = b.relu(b.batch_norm(net))
        net = b.conv2d(net, out_channels, 1, stride=1, padding=0, name=f"{name}_pw")
        return b.relu(b.batch_norm(net))

    def channels(value: int) -> int:
        return max(int(value * alpha), 8)

    net = b.conv_bn_relu(data, channels(32), 3, stride=2, padding=1, name="conv0")
    plan = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
            (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1)]
    for index, (out_channels, stride) in enumerate(plan):
        net = separable(net, channels(out_channels), stride, f"sep{index}")
    net = b.global_avg_pool2d(net)
    net = b.dense(net, num_classes, "fc")
    net = b.softmax(net)
    graph, params = b.finalize(net)
    return graph, params, {"data": (batch, 3, image_size, image_size)}


def lstm_language_model(batch: int = 1, hidden_size: int = 128, seq_len: int = 4,
                        vocab_size: int = 10000, num_layers: int = 2,
                        dtype: str = "float32") -> ModelResult:
    """The LSTM language model workload (unrolled for ``seq_len`` steps)."""
    b = ModelBuilder("lstm_lm", seed=3, dtype=dtype)
    shape = (batch, hidden_size)
    inputs = {f"x{t}": shape for t in range(seq_len)}
    inputs.update({f"{state}0_l{l}": shape for l in range(num_layers)
                   for state in "hc"})
    hidden = [b.input(f"h0_l{l}", shape) for l in range(num_layers)]
    cell = [b.input(f"c0_l{l}", shape) for l in range(num_layers)]
    for t in range(seq_len):
        layer_input = b.input(f"x{t}", shape)
        for l in range(num_layers):
            hidden[l], cell[l] = b.lstm_cell(layer_input, hidden[l], cell[l],
                                             hidden_size, name=f"lstm_t{t}_l{l}")
            layer_input = hidden[l]
    logits = b.dense(layer_input, vocab_size, "decoder")
    prob = b.softmax(logits)
    graph, params = b.finalize(prob)
    return graph, params, inputs


def dqn(batch: int = 1, dtype: str = "float32") -> ModelResult:
    """The Nature DQN: 84x84x4 input, three conv layers, two dense layers.

    The second convolution (4x4 kernel, stride 2) is the unconventional
    operator responsible for TVM's largest end-to-end speedup in Figure 14.
    """
    b = ModelBuilder("dqn", seed=4, dtype=dtype)
    data = b.input("data", (batch, 4, 84, 84))
    net = b.relu(b.bias_add(b.conv2d(data, 32, 8, stride=4, padding=0, name="conv1")))
    net = b.relu(b.bias_add(b.conv2d(net, 64, 4, stride=2, padding=0, name="conv2")))
    net = b.relu(b.bias_add(b.conv2d(net, 64, 3, stride=1, padding=0, name="conv3")))
    net = b.flatten(net)
    net = b.relu(b.dense(net, 512, "fc1"))
    net = b.dense(net, 18, "fc2")
    graph, params = b.finalize(net)
    return graph, params, {"data": (batch, 4, 84, 84)}


def dcgan_generator(batch: int = 1, latent: int = 100, dtype: str = "float32"
                    ) -> ModelResult:
    """DCGAN generator: dense projection followed by strided deconvolutions."""
    b = ModelBuilder("dcgan", seed=5, dtype=dtype)
    noise = b.input("noise", (batch, latent))
    net = b.dense(noise, 1024 * 4 * 4, "project")
    net = b.reshape(net, (batch, 1024, 4, 4))
    for index, channels in enumerate((512, 256, 128)):
        net = b.conv2d_transpose(net, channels, 4, stride=2, padding=1,
                                 name=f"deconv{index}")
        net = b.relu(b.batch_norm(net))
    net = b.conv2d_transpose(net, 3, 4, stride=2, padding=1, name="deconv_out")
    net = b.tanh(net)
    graph, params = b.finalize(net)
    return graph, params, {"noise": (batch, latent)}


MODEL_REGISTRY = {
    "resnet-18": resnet18,
    "mobilenet": mobilenet,
    "lstm-lm": lstm_language_model,
    "dqn": dqn,
    "dcgan": dcgan_generator,
}


def _canonical(name: str) -> str:
    """Registry lookup key: case/separator-insensitive (``resnet18`` ==
    ``resnet-18`` == ``ResNet_18``)."""
    return name.lower().replace("-", "").replace("_", "")


def get_model(name: str, **kwargs) -> ModelResult:
    """Construct a model from the registry by name."""
    # Built per call so runtime MODEL_REGISTRY additions are seen; the
    # registry is a handful of entries, so this costs nothing next to the
    # model build itself.
    by_canonical: Dict[str, Callable] = {}
    for key, builder in MODEL_REGISTRY.items():
        canonical = _canonical(key)
        if canonical in by_canonical:
            raise ValueError(
                f"Model registry keys collide under canonicalisation: "
                f"{key!r} vs an earlier entry (both -> {canonical!r})")
        by_canonical[canonical] = builder
    builder = by_canonical.get(_canonical(name))
    if builder is None:
        raise KeyError(f"Unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return builder(**kwargs)
