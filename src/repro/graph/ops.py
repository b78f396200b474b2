"""Operator registry for the computational graph.

Each operator declares its fusion pattern (Section 3's four categories:
injective, reduction, complex-out-fusable, opaque), a shape inference rule,
a NumPy compute function (the functional semantics used by the graph
runtime), and a FLOP estimate used by performance reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..topi import reference as ref
from ..topi.reference import _pair

__all__ = ["OpPattern", "OpSpec", "OP_REGISTRY", "register_op"]


class OpPattern:
    """Fusion categories from Section 3."""

    INJECTIVE = "injective"
    REDUCTION = "reduction"
    COMPLEX_OUT_FUSABLE = "complex_out_fusable"
    OPAQUE = "opaque"


ShapeList = List[Tuple[int, ...]]


@dataclass
class OpSpec:
    """Metadata and implementations for one graph operator."""

    name: str
    pattern: str
    infer_shape: Callable[[ShapeList, Dict], Tuple[int, ...]]
    compute: Callable[..., np.ndarray]
    flops: Callable[[ShapeList, Tuple[int, ...], Dict], float]
    #: ``compute`` also takes ``out=``, an array of its result's shape and
    #: dtype, and writes the result there (a fused member applied in place)
    inplace: bool = False
    #: ``compute`` also takes ``epilogue=`` and runs it on each tile of its
    #: output, which has its first input's dtype (``reference.conv2d_nchw``)
    tiled: bool = False


OP_REGISTRY: Dict[str, OpSpec] = {}


def register_op(name: str, pattern: str, infer_shape, compute, flops=None,
                **flags: bool) -> OpSpec:
    spec = OpSpec(name, pattern, infer_shape, compute,
                  flops or (lambda ins, out, attrs: float(np.prod(out))), **flags)
    OP_REGISTRY[name] = spec
    return spec


# ---------------------------------------------------------------------------
# Shape inference helpers
# ---------------------------------------------------------------------------

def _conv2d_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    (n, c, h, w), (oc, _ic, kh, kw) = ins[0], ins[1]
    sh, sw = _pair(attrs.get("strides", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    return (n, oc, (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)


def _depthwise_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    (n, c, h, w), (_c, _m, kh, kw) = ins[0], ins[1]
    sh, sw = _pair(attrs.get("strides", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    return (n, c, (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)


def _conv2d_transpose_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    (n, c, h, w), (_ic, oc, kh, kw) = ins[0], ins[1]
    sh, sw = _pair(attrs.get("strides", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    return (n, oc, (h - 1) * sh - 2 * ph + kh, (w - 1) * sw - 2 * pw + kw)


def _dense_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    (batch, _in), (out_dim, _in2) = ins[0], ins[1]
    return (batch, out_dim)


def _same_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    return tuple(ins[0])


def _pool_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    n, c, h, w = ins[0]
    kh, kw = _pair(attrs.get("pool_size", 2))
    sh, sw = _pair(attrs.get("strides", 2))
    ph, pw = _pair(attrs.get("padding", 0))
    return (n, c, (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)


def _flatten_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    shape = ins[0]
    inner = 1
    for dim in shape[1:]:
        inner *= dim
    return (shape[0], inner)


def _global_pool_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    n, c, _h, _w = ins[0]
    return (n, c)


def _reshape_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    return tuple(attrs["newshape"])


def _strided_slice_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    out = list(ins[0])
    axis, begin, end = attrs["axis"], attrs["begin"], attrs["end"]
    if not (0 <= axis < len(out) and 0 <= begin < end <= out[axis]):
        raise ValueError(f"strided_slice [{begin}, {end}) on axis {axis} is "
                         f"outside shape {tuple(out)}")
    out[axis] = end - begin
    return tuple(out)


def _concat_shape(ins: ShapeList, attrs: Dict) -> Tuple[int, ...]:
    axis = int(attrs.get("axis", 1))
    out = list(ins[0])
    out[axis] = sum(s[axis] for s in ins)
    return tuple(out)


# ---------------------------------------------------------------------------
# FLOP estimates for the heavy operators
# ---------------------------------------------------------------------------

def _conv2d_flops(ins: ShapeList, out: Tuple[int, ...], attrs: Dict) -> float:
    _n, _oc, oh, ow = out
    oc = out[1]
    _, ic, kh, kw = ins[1]
    return 2.0 * out[0] * oc * oh * ow * ic * kh * kw


def _depthwise_flops(ins: ShapeList, out: Tuple[int, ...], attrs: Dict) -> float:
    n, c, oh, ow = out
    _, _, kh, kw = ins[1]
    return 2.0 * n * c * oh * ow * kh * kw


def _dense_flops(ins: ShapeList, out: Tuple[int, ...], attrs: Dict) -> float:
    batch, out_dim = out
    in_dim = ins[0][1]
    return 2.0 * batch * out_dim * in_dim


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

register_op("conv2d", OpPattern.COMPLEX_OUT_FUSABLE, _conv2d_shape,
            lambda data, weight, attrs, epilogue=None: ref.conv2d_nchw(
                data, weight, attrs.get("strides", 1), attrs.get("padding", 0),
                epilogue),
            _conv2d_flops, tiled=True)

register_op("depthwise_conv2d", OpPattern.COMPLEX_OUT_FUSABLE, _depthwise_shape,
            lambda data, weight, attrs: ref.depthwise_conv2d_nchw(
                data, weight, attrs.get("strides", 1), attrs.get("padding", 0)),
            _depthwise_flops)

register_op("conv2d_transpose", OpPattern.COMPLEX_OUT_FUSABLE, _conv2d_transpose_shape,
            lambda data, weight, attrs, epilogue=None: ref.conv2d_transpose_nchw(
                data, weight, attrs.get("strides", 1), attrs.get("padding", 0),
                epilogue),
            lambda ins, out, attrs: 2.0 * float(np.prod(out)) * ins[1][0]
            * ins[1][2] * ins[1][3], tiled=True)

register_op("dense", OpPattern.COMPLEX_OUT_FUSABLE, _dense_shape,
            lambda data, weight, attrs: ref.dense(data, weight), _dense_flops)

register_op("bias_add", OpPattern.INJECTIVE, _same_shape,
            lambda data, bias, attrs, out=None: ref.bias_add(data, bias, out)
            if data.ndim == 4 else ref.add(data, bias, out), inplace=True)

register_op("relu", OpPattern.INJECTIVE, _same_shape,
            lambda data, attrs, out=None: ref.relu(data, out), inplace=True)

register_op("leaky_relu", OpPattern.INJECTIVE, _same_shape,
            lambda data, attrs: ref.leaky_relu(data, attrs.get("alpha", 0.2)))

register_op("sigmoid", OpPattern.INJECTIVE, _same_shape,
            lambda data, attrs: ref.sigmoid(data))

register_op("tanh", OpPattern.INJECTIVE, _same_shape,
            lambda data, attrs: ref.tanh(data))

register_op("add", OpPattern.INJECTIVE, _same_shape,
            lambda lhs, rhs, attrs, out=None: ref.add(lhs, rhs, out), inplace=True)

register_op("multiply", OpPattern.INJECTIVE, _same_shape,
            lambda lhs, rhs, attrs, out=None: ref.multiply(lhs, rhs, out),
            inplace=True)

register_op("batch_norm", OpPattern.INJECTIVE, _same_shape,
            lambda data, gamma, beta, mean, var, attrs: ref.batch_norm_inference(
                data, gamma, beta, mean, var, attrs.get("epsilon", 1e-5)))

register_op("softmax", OpPattern.OPAQUE, _same_shape,
            lambda data, attrs: ref.softmax(data))

register_op("flatten", OpPattern.INJECTIVE, _flatten_shape,
            lambda data, attrs: ref.flatten(data))

register_op("reshape", OpPattern.INJECTIVE, _reshape_shape,
            lambda data, attrs: data.reshape(attrs["newshape"]))

register_op("strided_slice", OpPattern.INJECTIVE, _strided_slice_shape,
            lambda data, attrs: data[(slice(None),) * attrs["axis"]
                                     + (slice(attrs["begin"], attrs["end"]),)])

register_op("concatenate", OpPattern.INJECTIVE, _concat_shape,
            lambda *args: np.concatenate(args[:-1], axis=int(args[-1].get("axis", 1))))

register_op("max_pool2d", OpPattern.REDUCTION, _pool_shape,
            lambda data, attrs: ref.max_pool2d(data, attrs.get("pool_size", 2),
                                               attrs.get("strides", 2),
                                               attrs.get("padding", 0)))

register_op("avg_pool2d", OpPattern.REDUCTION, _pool_shape,
            lambda data, attrs: ref.avg_pool2d(data, attrs.get("pool_size", 2),
                                               attrs.get("strides", 2),
                                               attrs.get("padding", 0)))

register_op("global_avg_pool2d", OpPattern.REDUCTION, _global_pool_shape,
            lambda data, attrs: ref.global_avg_pool2d(data))

register_op("dropout", OpPattern.INJECTIVE, _same_shape,
            lambda data, attrs: data)  # identity at inference time
