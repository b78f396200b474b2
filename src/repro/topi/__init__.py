"""Operator library: tensor-expression declarations, NumPy references and
per-backend schedule templates."""

from . import bitserial, nn, reference, schedules
from .nn import (
    conv2d_nchw,
    dense,
    depthwise_conv2d_nchw,
    matmul,
    max_pool2d,
    pad,
    relu,
    softmax,
)

__all__ = [
    "bitserial",
    "conv2d_nchw",
    "dense",
    "depthwise_conv2d_nchw",
    "matmul",
    "max_pool2d",
    "nn",
    "pad",
    "reference",
    "relu",
    "schedules",
    "softmax",
]
