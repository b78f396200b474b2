"""Simulated vendor operator libraries (cuDNN, TFLite kernels, ACL, Caffe2-ULP).

A vendor library implementation of an operator is modelled as the operator's
roofline time on the simulated device — ``max(compute_time, memory_time)`` at
peak — divided by the library's efficiency for that operator class (see
:mod:`repro.baselines.profiles`).  This captures the two facts the paper's
evaluation rests on: vendor libraries are near-optimal for the operator
shapes they were engineered for, and far from optimal for everything else.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..graph.ir import Node
from ..graph.ops import OP_REGISTRY
from ..hardware.target import Target
from ..topi.reference import _pair
from .profiles import LibraryProfile

__all__ = ["VendorLibrary", "conv_class_of"]


def conv_class_of(kernel: Tuple[int, int], stride: Tuple[int, int]) -> str:
    """Classify a convolution the way library engineering effort was spent."""
    kh, kw = kernel
    sh, _sw = stride
    if (kh, kw) == (1, 1):
        return "conv2d_1x1"
    if (kh, kw) in ((3, 3), (5, 5), (7, 7), (11, 11)) and sh in (1, 2):
        return "conv2d"
    return "conv2d_unusual"


class VendorLibrary:
    """A fixed, hand-optimized operator library for one device."""

    def __init__(self, profile: LibraryProfile, target: Target,
                 single_threaded: bool = False):
        self.profile = profile
        self.target = target
        self.single_threaded = single_threaded

    # ------------------------------------------------------------------ helpers
    def _roofline_time(self, flops: float, bytes_moved: float,
                       dtype: str = "float32") -> float:
        params = self.target.model.params
        peak = params.peak_flops
        if dtype == "float16":
            peak *= getattr(params, "fp16_multiplier", 1.0)
        if self.single_threaded:
            cores = getattr(params, "num_cores", 1)
            peak /= max(cores, 1)
        compute = flops / peak
        memory = bytes_moved / params.dram_bandwidth
        # Even a perfect library kernel cannot finish faster than a minimal
        # device dispatch: small batch-1 kernels underutilise the device for
        # vendor libraries exactly as they do for generated code.
        floor = params.launch_overhead * 0.75
        return max(compute, memory, floor)

    def _efficiency(self, op_class: str) -> float:
        return max(getattr(self.profile, op_class, self.profile.elementwise), 1e-3)

    # ------------------------------------------------------------------ api
    def op_time(self, node: Node, dtype: Optional[str] = None) -> float:
        """Latency of one operator executed by this library (no framework
        overhead; see the framework executors for end-to-end numbers)."""
        dtype = dtype or node.dtype or "float32"
        elem_bytes = 2 if dtype == "float16" else 4
        spec = OP_REGISTRY[node.op]
        in_shapes = [tuple(p.shape) for p in node.inputs]
        out_shape = tuple(node.shape)
        flops = spec.flops(in_shapes, out_shape, node.attrs)
        bytes_moved = (sum(float(np.prod(s)) for s in in_shapes)
                       + float(np.prod(out_shape))) * elem_bytes

        if node.op == "conv2d":
            kernel = in_shapes[1][2], in_shapes[1][3]
            stride = _pair(node.attrs.get("strides", 1))
            op_class = conv_class_of(kernel, stride)
        elif node.op == "depthwise_conv2d":
            op_class = "depthwise"
        elif node.op == "conv2d_transpose":
            op_class = "conv2d_transpose"
        elif node.op == "dense":
            op_class = "dense"
        else:
            op_class = "elementwise"
        efficiency = self._efficiency(op_class)
        time = self._roofline_time(flops, bytes_moved, dtype) / efficiency
        return time + self.target.model.params.launch_overhead

    def conv2d_time(self, batch: int, in_channels: int, height: int, width: int,
                    out_channels: int, kernel: int, stride: int, padding: int,
                    dtype: str = "float32", depthwise: bool = False) -> float:
        """Convenience wrapper for single-kernel comparisons (Table 2 shapes)."""
        node = _make_conv_node(batch, in_channels, height, width, out_channels,
                               kernel, stride, padding, depthwise)
        return self.op_time(node, dtype)

    def bitserial_conv2d_time(self, batch: int, in_channels: int, height: int,
                              width: int, out_channels: int, kernel: int,
                              stride: int, padding: int,
                              activation_bits: int = 2, weight_bits: int = 1,
                              word_bits: int = 32) -> float:
        """Latency of the library's ultra-low-precision (bit-serial) conv2d.

        The baseline library implements the same packed AND+popcount reduction
        the TVM kernels use (Section 6.2 / Figure 18), so its time is the
        ideal single-core bit-serial execution divided by the library's
        efficiency for the operator class.  The ideal rate mirrors the terms
        the simulated CPU uses for tensorized bit-serial micro-kernels.
        """
        params = self.target.model.params
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        c_words = max(1, math.ceil(in_channels / word_bits))
        # One AND + one popcount-accumulate per packed word, per bit-plane pair.
        word_ops = (batch * out_channels * out_h * out_w
                    * activation_bits * weight_bits * kernel * kernel * c_words * 2.0)
        frequency = getattr(params, "frequency", 1e9)
        simd_lanes = getattr(params, "simd_lanes", 4)
        fma = getattr(params, "fma_per_cycle", 1)
        bitserial_rate = (frequency * simd_lanes * 2 * fma
                          * getattr(params, "bitserial_speedup", 4.0))
        op_class = conv_class_of((kernel, kernel), (stride, stride))
        ideal = word_ops / bitserial_rate
        # Packed operands still have to come from memory once.
        elem_bytes = 4
        bytes_moved = ((batch * activation_bits * c_words * height * width)
                       + (out_channels * weight_bits * c_words * kernel * kernel)
                       + batch * out_channels * out_h * out_w) * elem_bytes
        memory = bytes_moved / params.dram_bandwidth
        time = max(ideal, memory) / self._efficiency(op_class)
        return time + params.launch_overhead

    def gemm_time(self, m: int, n: int, k: int, dtype: str = "float32") -> float:
        flops = 2.0 * m * n * k
        elem_bytes = 2 if dtype == "float16" else 4
        bytes_moved = (m * k + k * n + m * n) * elem_bytes
        time = self._roofline_time(flops, bytes_moved, dtype) / self._efficiency("dense")
        return time + self.target.model.params.launch_overhead


def _make_conv_node(batch, in_channels, height, width, out_channels, kernel,
                    stride, padding, depthwise) -> Node:
    data = Node("null", "data")
    data.shape = (batch, in_channels, height, width)
    if depthwise:
        weight = Node("null", "weight")
        weight.shape = (in_channels, 1, kernel, kernel)
        node = Node("depthwise_conv2d", "dw", [data, weight],
                    {"strides": stride, "padding": padding})
    else:
        weight = Node("null", "weight")
        weight.shape = (out_channels, in_channels, kernel, kernel)
        node = Node("conv2d", "conv", [data, weight],
                    {"strides": stride, "padding": padding})
    spec = OP_REGISTRY[node.op]
    node.shape = spec.infer_shape([data.shape, weight.shape], node.attrs)
    return node
