"""Symbolic model builder (the role played by ``t.frontend.from_keras`` etc.).

The paper imports models from existing frameworks; this reproduction provides
a small Keras-like builder that produces the same artefact — a computational
:class:`~repro.graph.ir.Graph` plus a parameter dictionary with randomly
initialised weights — for the evaluation workloads.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.ir import Graph, Node

__all__ = ["ModelBuilder", "LazyParams"]

IntPair = Union[int, Tuple[int, int]]

#: float64 normals :func:`draw_weight` draws per step (a 512 KiB temporary)
DRAW_CHUNK = 1 << 16


def draw_weight(rng: np.random.Generator, shape: Sequence[int], scale: float,
                dtype: str) -> np.ndarray:
    """``(rng.standard_normal(shape) * scale).astype(dtype)``, bit for bit,
    drawn into the result in chunks of :data:`DRAW_CHUNK` values, so a
    weight costs its own bytes plus one chunk instead of 2 - 3x its bytes.

    ``standard_normal`` consumes the generator's stream one value at a time,
    so consecutive chunks are the values of one whole-tensor draw; in-place
    ``*=`` is the same ufunc as ``*``, and assigning float64 into the
    result rounds as ``astype`` does (signed zeros of ``scale=0.0``
    included).
    """
    out = np.empty(tuple(shape), dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, DRAW_CHUNK):
        chunk = rng.standard_normal(min(DRAW_CHUNK, flat.size - start))
        chunk *= scale
        flat[start:start + chunk.size] = chunk
    return out


class LazyParams(Mapping[str, np.ndarray]):
    """A model's params, each random weight drawn when it is first read.

    Weights are declared in build order and drawn from one generator in that
    order: the first read of a weight draws every weight declared before it,
    so each gets the values an eager build would have given it, whichever
    is read first.  Reads that draw hold a lock.  Tuning and a compile of a
    graph cut read only the weights they use, and draw no more than that.
    """

    def __init__(self, rng: np.random.Generator, dtype: str):
        self._rng = rng
        self._dtype = dtype
        #: name -> its index in ``_recipes`` (the last declaration wins), or
        #: -1 for a value given whole; in declaration order
        self._slot: Dict[str, int] = {}
        self._recipes: List[Tuple[str, Tuple[int, ...], float, float]] = []
        self._values: Dict[str, np.ndarray] = {}
        self._drawn = 0
        self._lock = threading.Lock()

    def declare(self, name: str, shape: Sequence[int], scale: float,
                offset: float = 0.0) -> None:
        """Add ``name``, to be drawn as ``draw_weight(.., shape, scale) +=
        offset``."""
        self._values.pop(name, None)
        self._slot[name] = len(self._recipes)
        self._recipes.append((name, tuple(shape), scale, offset))

    def bind(self, name: str, value: np.ndarray) -> None:
        """Add ``name`` with a value that is not drawn."""
        self._slot[name] = -1
        self._values[name] = value

    def __getitem__(self, name: str) -> np.ndarray:
        value = self._values.get(name)
        if value is not None:
            return value
        end = self._slot[name] + 1
        with self._lock:
            while self._drawn < end:
                owner, shape, scale, offset = self._recipes[self._drawn]
                array = draw_weight(self._rng, shape, scale, self._dtype)
                if offset:
                    array += offset
                if self._slot[owner] == self._drawn:
                    self._values[owner] = array
                self._drawn += 1
        return self._values[name]

    def __contains__(self, name: object) -> bool:
        return name in self._slot

    def __iter__(self) -> Iterator[str]:
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)


class ModelBuilder:
    """Builds graphs layer by layer, declaring parameters as it goes."""

    def __init__(self, name: str = "model", seed: int = 0, dtype: str = "float32"):
        self.name = name
        self.dtype = dtype
        self.rng = np.random.default_rng(seed)
        self.params = LazyParams(self.rng, dtype)
        self._counter: Dict[str, int] = {}

    # ------------------------------------------------------------------ helpers
    def _unique(self, prefix: str) -> str:
        count = self._counter.get(prefix, 0)
        self._counter[prefix] = count + 1
        return f"{prefix}{count}"

    def _param(self, name: str, shape: Sequence[int], scale: float = 0.1,
               offset: float = 0.0) -> Node:
        self.params.declare(name, shape, scale, offset)
        return self.input(name, shape)

    def _op(self, op: str, inputs: List[Node], attrs: Optional[Dict] = None,
            name: Optional[str] = None) -> Node:
        node = Node(op, name or self._unique(op), inputs, attrs or {})
        # Infer the output shape eagerly so later layers can size their
        # parameters (the graph pass re-checks shapes after rewriting).
        from ..graph.ops import OP_REGISTRY

        spec = OP_REGISTRY[node.op]
        node.shape = spec.infer_shape([tuple(p.shape) for p in inputs], node.attrs)
        node.dtype = self.dtype
        return node

    # ------------------------------------------------------------------ layers
    def input(self, name: str, shape: Sequence[int]) -> Node:
        node = Node("null", name)
        node.shape = tuple(shape)
        node.dtype = self.dtype
        return node

    def conv2d(self, data: Node, out_channels: int, kernel: IntPair,
               stride: IntPair = 1, padding: IntPair = 0,
               name: Optional[str] = None) -> Node:
        name = name or self._unique("conv")
        k_h, k_w = (kernel, kernel) if isinstance(kernel, int) else kernel
        in_channels = data.shape[1] if data.shape else 0
        weight = self._param(f"{name}_weight", (out_channels, in_channels, k_h, k_w))
        return self._op("conv2d", [data, weight],
                        {"strides": stride, "padding": padding}, name)

    def depthwise_conv2d(self, data: Node, kernel: IntPair, stride: IntPair = 1,
                         padding: IntPair = 0, name: Optional[str] = None) -> Node:
        name = name or self._unique("dwconv")
        k_h, k_w = (kernel, kernel) if isinstance(kernel, int) else kernel
        channels = data.shape[1]
        weight = self._param(f"{name}_weight", (channels, 1, k_h, k_w))
        return self._op("depthwise_conv2d", [data, weight],
                        {"strides": stride, "padding": padding}, name)

    def conv2d_transpose(self, data: Node, out_channels: int, kernel: IntPair,
                         stride: IntPair = 2, padding: IntPair = 1,
                         name: Optional[str] = None) -> Node:
        name = name or self._unique("deconv")
        k_h, k_w = (kernel, kernel) if isinstance(kernel, int) else kernel
        in_channels = data.shape[1]
        weight = self._param(f"{name}_weight", (in_channels, out_channels, k_h, k_w))
        return self._op("conv2d_transpose", [data, weight],
                        {"strides": stride, "padding": padding}, name)

    def dense(self, data: Node, units: int, name: Optional[str] = None) -> Node:
        name = name or self._unique("dense")
        in_dim = data.shape[-1]
        weight = self._param(f"{name}_weight", (units, in_dim))
        return self._op("dense", [data, weight], {}, name)

    def bias_add(self, data: Node, name: Optional[str] = None) -> Node:
        name = name or self._unique("bias")
        channels = data.shape[1]
        bias = self._param(f"{name}_b", (channels,), scale=0.01)
        return self._op("bias_add", [data, bias], {}, name)

    def batch_norm(self, data: Node, name: Optional[str] = None) -> Node:
        name = name or self._unique("bn")
        channels = data.shape[1]
        gamma = self._param(f"{name}_gamma", (channels,), scale=0.0, offset=1.0)
        beta = self._param(f"{name}_beta", (channels,), scale=0.01)
        mean = self._param(f"{name}_mean", (channels,), scale=0.01)
        var = self._param(f"{name}_var", (channels,), scale=0.0, offset=1.0)
        return self._op("batch_norm", [data, gamma, beta, mean, var], {}, name)

    def relu(self, data: Node) -> Node:
        return self._op("relu", [data])

    def leaky_relu(self, data: Node, alpha: float = 0.2) -> Node:
        return self._op("leaky_relu", [data], {"alpha": alpha})

    def sigmoid(self, data: Node) -> Node:
        return self._op("sigmoid", [data])

    def tanh(self, data: Node) -> Node:
        return self._op("tanh", [data])

    def add(self, lhs: Node, rhs: Node) -> Node:
        return self._op("add", [lhs, rhs])

    def multiply(self, lhs: Node, rhs: Node) -> Node:
        return self._op("multiply", [lhs, rhs])

    def softmax(self, data: Node) -> Node:
        return self._op("softmax", [data])

    def flatten(self, data: Node) -> Node:
        return self._op("flatten", [data])

    def reshape(self, data: Node, newshape: Sequence[int]) -> Node:
        return self._op("reshape", [data], {"newshape": tuple(newshape)})

    def max_pool2d(self, data: Node, pool_size: IntPair = 2, stride: IntPair = 2,
                   padding: IntPair = 0) -> Node:
        return self._op("max_pool2d", [data], {"pool_size": pool_size,
                                               "strides": stride,
                                               "padding": padding})

    def avg_pool2d(self, data: Node, pool_size: IntPair = 2, stride: IntPair = 2,
                   padding: IntPair = 0) -> Node:
        return self._op("avg_pool2d", [data], {"pool_size": pool_size,
                                               "strides": stride,
                                               "padding": padding})

    def global_avg_pool2d(self, data: Node) -> Node:
        return self._op("global_avg_pool2d", [data])

    # ------------------------------------------------------------------ composites
    def conv_bn_relu(self, data: Node, out_channels: int, kernel: IntPair,
                     stride: IntPair = 1, padding: IntPair = 0,
                     name: Optional[str] = None) -> Node:
        conv = self.conv2d(data, out_channels, kernel, stride, padding, name)
        return self.relu(self.batch_norm(conv))

    def lstm_cell(self, data: Node, hidden_prev: Node, cell_prev: Node,
                  hidden_size: int, name: Optional[str] = None
                  ) -> Tuple[Node, Node]:
        """One LSTM cell step built from dense, slice and element-wise ops."""
        name = name or self._unique("lstm")
        gates_x = self.dense(data, 4 * hidden_size, f"{name}_x")
        gates_h = self.dense(hidden_prev, 4 * hidden_size, f"{name}_h")
        gates = self.add(gates_x, gates_h)
        i_gate, f_gate, g_gate, o_gate = (
            self._op("strided_slice", [gates], {"axis": 1, "begin": k * hidden_size,
                                                "end": (k + 1) * hidden_size},
                     f"{name}_gate{k}") for k in range(4))
        i_gate, f_gate, o_gate = map(self.sigmoid, (i_gate, f_gate, o_gate))
        cell = self.add(self.multiply(f_gate, cell_prev),
                        self.multiply(i_gate, self.tanh(g_gate)))
        hidden = self.multiply(o_gate, self.tanh(cell))
        return hidden, cell

    # ------------------------------------------------------------------ finish
    def finalize(self, outputs: Union[Node, Sequence[Node]]
                 ) -> Tuple[Graph, LazyParams]:
        """``(graph, params)``; no weight is drawn until it is read."""
        if isinstance(outputs, Node):
            outputs = [outputs]
        return Graph(list(outputs)), self.params
