"""Tensor-expression declarations of deep-learning operators.

Each function returns output :class:`~repro.te.tensor.Tensor` objects built
from ``te.compute`` / ``te.placeholder``; scheduling is handled separately by
the per-backend templates in :mod:`repro.topi.schedules`.  Shapes follow the
NCHW layout used throughout the paper's evaluation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import te
from ..te.expr import Select, as_expr
from .reference import IntPair, _pair

__all__ = [
    "pad",
    "conv2d_nchw",
    "depthwise_conv2d_nchw",
    "dense",
    "matmul",
    "relu",
    "softmax",
    "max_pool2d",
]

def pad(data: te.Tensor, pad_before: Sequence[int], pad_after: Sequence[int],
        pad_value: float = 0.0, name: str = "pad") -> te.Tensor:
    """Zero-pad a tensor (used to implement "SAME" convolution padding)."""
    if len(pad_before) != len(data.shape) or len(pad_after) != len(data.shape):
        raise ValueError("pad_before/pad_after must match tensor rank")
    out_shape = [int(te.simplify(dim).value) + b + a
                 for dim, b, a in zip(data.shape, pad_before, pad_after)]

    def _compute(*indices):
        condition = None
        src_indices = []
        for idx, before, dim in zip(indices, pad_before, data.shape_values()):
            src = idx - before
            src_indices.append(src)
            if before > 0 or out_shape[len(src_indices) - 1] > dim + before:
                check = (src >= 0) if before > 0 else None
                upper = (src < dim)
                for cond in (check, upper):
                    if cond is None:
                        continue
                    condition = cond if condition is None else te.expr.And(condition, cond)
        value = data[tuple(src_indices)]
        if condition is None:
            return value
        return Select(condition, value, as_expr(float(pad_value)))

    return te.compute(out_shape, _compute, name=name)


def conv2d_nchw(data: te.Tensor, kernel: te.Tensor, stride: IntPair = 1,
                padding: IntPair = 0, dilation: IntPair = 1,
                out_dtype: Optional[str] = None,
                name: str = "conv2d") -> te.Tensor:
    """2-D convolution, NCHW data layout, OIHW kernel layout."""
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    dil_h, dil_w = _pair(dilation)
    batch, in_channel, in_h, in_w = data.shape_values()
    out_channel, channel, k_h, k_w = kernel.shape_values()
    if channel != in_channel:
        raise ValueError(f"conv2d channel mismatch: data {in_channel} vs kernel {channel}")
    dilated_kh = (k_h - 1) * dil_h + 1
    dilated_kw = (k_w - 1) * dil_w + 1
    out_h = (in_h + 2 * pad_h - dilated_kh) // stride_h + 1
    out_w = (in_w + 2 * pad_w - dilated_kw) // stride_w + 1
    out_dtype = out_dtype or data.dtype

    if pad_h or pad_w:
        padded = pad(data, (0, 0, pad_h, pad_w), (0, 0, pad_h, pad_w),
                     name=f"{name}_pad")
    else:
        padded = data

    rc = te.reduce_axis((0, in_channel), name="rc")
    ry = te.reduce_axis((0, k_h), name="ry")
    rx = te.reduce_axis((0, k_w), name="rx")
    return te.compute(
        (batch, out_channel, out_h, out_w),
        lambda n, f, y, x: te.sum(
            padded[n, rc, y * stride_h + ry * dil_h, x * stride_w + rx * dil_w]
            * kernel[f, rc, ry, rx],
            axis=[rc, ry, rx]),
        name=name, dtype=out_dtype)


def depthwise_conv2d_nchw(data: te.Tensor, kernel: te.Tensor, stride: IntPair = 1,
                          padding: IntPair = 0,
                          name: str = "depthwise_conv2d") -> te.Tensor:
    """Depthwise 2-D convolution (channel multiplier 1), NCHW layout."""
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    batch, in_channel, in_h, in_w = data.shape_values()
    channel, _multiplier, k_h, k_w = kernel.shape_values()
    if channel != in_channel:
        raise ValueError("depthwise_conv2d channel mismatch")
    out_h = (in_h + 2 * pad_h - k_h) // stride_h + 1
    out_w = (in_w + 2 * pad_w - k_w) // stride_w + 1

    if pad_h or pad_w:
        padded = pad(data, (0, 0, pad_h, pad_w), (0, 0, pad_h, pad_w),
                     name=f"{name}_pad")
    else:
        padded = data

    ry = te.reduce_axis((0, k_h), name="ry")
    rx = te.reduce_axis((0, k_w), name="rx")
    return te.compute(
        (batch, in_channel, out_h, out_w),
        lambda n, c, y, x: te.sum(
            padded[n, c, y * stride_h + ry, x * stride_w + rx] * kernel[c, 0, ry, rx],
            axis=[ry, rx]),
        name=name)


def matmul(a: te.Tensor, b: te.Tensor, trans_a: bool = False, trans_b: bool = False,
           name: str = "matmul") -> te.Tensor:
    """General matrix multiplication ``C = op(A) x op(B)``."""
    a_shape = a.shape_values()
    b_shape = b.shape_values()
    m = a_shape[1] if trans_a else a_shape[0]
    ka = a_shape[0] if trans_a else a_shape[1]
    kb = b_shape[1] if trans_b else b_shape[0]
    n = b_shape[0] if trans_b else b_shape[1]
    if ka != kb:
        raise ValueError(f"matmul inner dimensions do not match: {ka} vs {kb}")
    k = te.reduce_axis((0, ka), name="k")

    def read_a(i, kk):
        return a[kk, i] if trans_a else a[i, kk]

    def read_b(kk, j):
        return b[j, kk] if trans_b else b[kk, j]

    return te.compute((m, n),
                      lambda i, j: te.sum(read_a(i, k) * read_b(k, j), axis=k),
                      name=name)


def dense(data: te.Tensor, weight: te.Tensor, bias: Optional[te.Tensor] = None,
          name: str = "dense") -> te.Tensor:
    """Fully connected layer: ``out[i, j] = sum_k data[i, k] * weight[j, k]``."""
    batch, in_dim = data.shape_values()
    out_dim, w_in = weight.shape_values()
    if w_in != in_dim:
        raise ValueError("dense dimension mismatch")
    k = te.reduce_axis((0, in_dim), name="k")
    out = te.compute((batch, out_dim),
                     lambda i, j: te.sum(data[i, k] * weight[j, k], axis=k),
                     name=name)
    if bias is not None:
        out = te.compute((batch, out_dim), lambda i, j: out[i, j] + bias[j],
                         name=f"{name}_bias")
    return out


def relu(data: te.Tensor, name: str = "relu") -> te.Tensor:
    shape = data.shape_values()
    return te.compute(shape,
                      lambda *idx: te.expr.Max(data[tuple(idx)], as_expr(0.0)),
                      name=name)


def softmax(data: te.Tensor, name: str = "softmax") -> te.Tensor:
    """Numerically stable softmax along the last axis of a 2-D tensor."""
    batch, dim = data.shape_values()
    k1 = te.reduce_axis((0, dim), name="k1")
    max_elem = te.compute((batch,), lambda i: te.max(data[i, k1], axis=k1),
                          name=f"{name}_max")
    k2 = te.reduce_axis((0, dim), name="k2")
    expsum = te.compute(
        (batch,), lambda i: te.sum(te.Call("exp", [data[i, k2] - max_elem[i]]), axis=k2),
        name=f"{name}_sum")
    return te.compute(
        (batch, dim),
        lambda i, j: te.Call("exp", [data[i, j] - max_elem[i]]) / expsum[i],
        name=name)


def max_pool2d(data: te.Tensor, pool_size: IntPair = 2, stride: IntPair = 2,
               padding: IntPair = 0, name: str = "max_pool2d") -> te.Tensor:
    k_h, k_w = _pair(pool_size)
    s_h, s_w = _pair(stride)
    p_h, p_w = _pair(padding)
    batch, channel, height, width = data.shape_values()
    if p_h or p_w:
        data = pad(data, (0, 0, p_h, p_w), (0, 0, p_h, p_w),
                   pad_value=-1e30, name=f"{name}_pad")
        height += 2 * p_h
        width += 2 * p_w
    out_h = (height - k_h) // s_h + 1
    out_w = (width - k_w) // s_w + 1
    ry = te.reduce_axis((0, k_h), name="ry")
    rx = te.reduce_axis((0, k_w), name="rx")
    return te.compute(
        (batch, channel, out_h, out_w),
        lambda n, c, y, x: te.max(data[n, c, y * s_h + ry, x * s_w + rx], axis=[ry, rx]),
        name=name)
