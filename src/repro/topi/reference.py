"""NumPy reference implementations of every operator.

These are the functional semantics used by the graph runtime (the simulated
devices only model *time*; the numerical results always come from these
reference kernels) and by the test-suite to validate lowered loop programs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "conv2d_nchw",
    "depthwise_conv2d_nchw",
    "conv2d_transpose_nchw",
    "dense",
    "matmul",
    "bias_add",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "add",
    "multiply",
    "batch_norm_inference",
    "softmax",
    "flatten",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "pad_nchw",
    "bitserial_conv2d_nchw",
    "winograd_conv2d_nchw",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def pad_nchw(data: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    if pad_h == 0 and pad_w == 0:
        return data
    batch, channels, height, width = data.shape
    padded = np.zeros((batch, channels, height + 2 * pad_h, width + 2 * pad_w),
                      dtype=data.dtype)
    padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width] = data
    return padded


def _windows(what: str, data: np.ndarray, window: Tuple[int, int],
             stride: Tuple[int, int]) -> np.ndarray:
    """Every window position of the (already padded) ``data`` as a strided
    view ``(batch, channels, out_h, out_w, k_h, k_w)`` — no copy.  ``what``
    names the operator and its window for the error message."""
    if window[0] > data.shape[2] or window[1] > data.shape[3]:
        raise ValueError(f"{what} is larger than the padded input {data.shape}")
    view = np.lib.stride_tricks.sliding_window_view(data, window, axis=(2, 3))
    return view[:, :, ::stride[0], ::stride[1]]


#: the most bytes one conv tile's im2col columns may take (a tile is at least
#: one output row).  resnet-18 at batch 1 on a 2-core Xeon with one OpenBLAS
#: thread: 2 MiB runs as fast as whole-image columns, 256 KiB 41% slower,
#: and 4 MiB leaves a 7.5 MB traced peak against 5.7 MB.  At 1 MiB, the GEMMs
#: of dcgan's 3-channel output layer get small enough for OpenBLAS to change
#: kernels, and its outputs move.
WORKSPACE_BYTES = 1 << 21


def conv2d_nchw(data: np.ndarray, kernel: np.ndarray, stride: IntPair = 1,
                padding: IntPair = 0, epilogue=None) -> np.ndarray:
    """2-D convolution, NCHW/OIHW layouts.  Each image is computed in tiles
    of whole output rows: one im2col of at most ``WORKSPACE_BYTES``, then one
    GEMM into the output (so a batch of N is bit-identical to N single-image
    runs).

    ``epilogue(out, index)``, when given, runs on each finished tile
    ``out[index]`` while it is cache-resident: the executor applies a fused
    group's element-wise members there in place, so they never enter its
    tensor map."""
    out_c, k_in, k_h, k_w = kernel.shape
    if data.shape[1] != k_in:
        raise ValueError(f"conv2d_nchw: data {data.shape} has {data.shape[1]} "
                         f"channels, kernel {kernel.shape} expects {k_in}")
    windows = _windows(f"conv2d_nchw: kernel {kernel.shape}",
                       pad_nchw(data, *_pair(padding)), (k_h, k_w), _pair(stride))
    batch, in_c, out_h, out_w = windows.shape[:4]
    depth = in_c * k_h * k_w
    rows = max(1, WORKSPACE_BYTES // (depth * out_w * data.itemsize))
    rows = -(-out_h // -(-out_h // rows))       # the fewest tiles, evened out
    workspace = (None if k_h == k_w == 1 else
                 np.empty(depth * rows * out_w, dtype=data.dtype))
    weight = kernel.reshape(out_c, depth)
    out = np.empty((batch, out_c, out_h, out_w), dtype=data.dtype)
    flat = out.reshape(batch, out_c, out_h * out_w)
    for image in range(batch):
        for top in range(0, out_h, rows):
            bottom = min(top + rows, out_h)
            pixels = windows[image, :, top:bottom]
            if k_h == k_w == 1:     # the (strided) pixels: a view at stride 1
                cols = pixels[..., 0, 0].reshape(depth, -1)
            else:
                cols = workspace[:depth * (bottom - top) * out_w].reshape(
                    in_c, k_h, k_w, bottom - top, out_w)
                np.copyto(cols, pixels.transpose(0, 3, 4, 1, 2))
                cols = cols.reshape(depth, -1)
            np.matmul(weight, cols, out=flat[image, :, top * out_w:bottom * out_w])
            if epilogue is not None:
                epilogue(out, (slice(image, image + 1), slice(None),
                               slice(top, bottom)))
    return out


def depthwise_conv2d_nchw(data: np.ndarray, kernel: np.ndarray, stride: IntPair = 1,
                          padding: IntPair = 0) -> np.ndarray:
    channels, _, k_h, k_w = kernel.shape
    if data.shape[1] != channels:
        raise ValueError(f"depthwise_conv2d_nchw: data {data.shape} has "
                         f"{data.shape[1]} channels, kernel {kernel.shape} "
                         f"expects {channels}")
    windows = _windows(f"depthwise_conv2d_nchw: kernel {kernel.shape}",
                       pad_nchw(data, *_pair(padding)), (k_h, k_w), _pair(stride))
    out = np.zeros(windows.shape[:4], dtype=data.dtype)
    scaled = np.empty_like(out)
    for dy in range(k_h):
        for dx in range(k_w):
            np.multiply(windows[..., dy, dx],
                        kernel[:, 0, dy, dx, np.newaxis, np.newaxis], out=scaled)
            out += scaled
    return out


def conv2d_transpose_nchw(data: np.ndarray, kernel: np.ndarray, stride: IntPair = 1,
                          padding: IntPair = 0, epilogue=None) -> np.ndarray:
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    batch, in_c, in_h, in_w = data.shape
    _, out_c, k_h, k_w = kernel.shape
    dil_h = in_h + (in_h - 1) * (stride_h - 1)
    dil_w = in_w + (in_w - 1) * (stride_w - 1)
    dilated = np.zeros((batch, in_c, dil_h, dil_w), dtype=data.dtype)
    dilated[:, :, ::stride_h, ::stride_w] = data
    flipped = kernel[:, :, ::-1, ::-1]           # (in_c, out_c, kh, kw)
    weight = flipped.transpose(1, 0, 2, 3)       # (out_c, in_c, kh, kw)
    return conv2d_nchw(dilated, weight, 1, (k_h - 1 - pad_h, k_w - 1 - pad_w),
                       epilogue)


def matmul(a: np.ndarray, b: np.ndarray, trans_a: bool = False,
           trans_b: bool = False) -> np.ndarray:
    lhs = a.T if trans_a else a
    rhs = b.T if trans_b else b
    return lhs @ rhs


def dense(data: np.ndarray, weight: np.ndarray,
          bias: Optional[np.ndarray] = None) -> np.ndarray:
    out = data @ weight.T
    if bias is not None:
        out = out + bias
    return out


def bias_add(data: np.ndarray, bias: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.add(data, bias.reshape(1, -1, 1, 1), out=out)


def relu(data: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(data, 0, out=out)


def leaky_relu(data: np.ndarray, alpha: float = 0.2) -> np.ndarray:
    return np.where(data > 0, data, data * alpha)


def sigmoid(data: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-data))


def tanh(data: np.ndarray) -> np.ndarray:
    return np.tanh(data)


def add(lhs: np.ndarray, rhs: np.ndarray,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.add(lhs, rhs, out=out)


def multiply(lhs: np.ndarray, rhs: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.multiply(lhs, rhs, out=out)


def batch_norm_inference(data: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                         mean: np.ndarray, variance: np.ndarray,
                         epsilon: float = 1e-5) -> np.ndarray:
    shape = (1, -1) + (1,) * (data.ndim - 2)
    scale = gamma.reshape(shape) / np.sqrt(variance.reshape(shape) + epsilon)
    shift = beta.reshape(shape) - mean.reshape(shape) * scale
    out = data * scale
    return np.add(out, shift, out=out if out.dtype == shift.dtype else None)


def softmax(data: np.ndarray) -> np.ndarray:
    shifted = data - data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def flatten(data: np.ndarray) -> np.ndarray:
    return data.reshape(data.shape[0], -1)


def _in_bounds(offset: int, stride: int, count: int, size: int
               ) -> Tuple[slice, slice]:
    """(input, output) slices of the output positions ``i < count`` whose
    input position ``i * stride + offset`` lies in ``[0, size)``."""
    first = max(0, -(offset // stride))
    last = min(count, (size - 1 - offset) // stride + 1)
    return (slice(first * stride + offset, (last - 1) * stride + offset + 1, stride),
            slice(first, last))


def max_pool2d(data: np.ndarray, pool_size: IntPair = 2, stride: IntPair = 2,
               padding: IntPair = 0) -> np.ndarray:
    """Max over each window, one window offset at a time over the output
    positions where it lands in bounds: the padding is never built."""
    (k_h, k_w), (s_h, s_w), (p_h, p_w) = _pair(pool_size), _pair(stride), _pair(padding)
    batch, channels, height, width = data.shape
    padded = (batch, channels, height + 2 * p_h, width + 2 * p_w)
    if k_h > padded[2] or k_w > padded[3]:
        raise ValueError(f"max_pool2d: window {(k_h, k_w)} is larger than the "
                         f"padded input {padded}")
    out = np.full((batch, channels, (padded[2] - k_h) // s_h + 1,
                   (padded[3] - k_w) // s_w + 1),
                  -np.inf if data.dtype.kind == "f" else np.iinfo(data.dtype).min,
                  dtype=data.dtype)
    for dy in range(k_h):
        rows, out_rows = _in_bounds(dy - p_h, s_h, out.shape[2], height)
        for dx in range(k_w):
            cols, out_cols = _in_bounds(dx - p_w, s_w, out.shape[3], width)
            part = out[:, :, out_rows, out_cols]
            np.maximum(part, data[:, :, rows, cols], out=part)
    return out


def avg_pool2d(data: np.ndarray, pool_size: IntPair = 2, stride: IntPair = 2,
               padding: IntPair = 0) -> np.ndarray:
    k_h, k_w = _pair(pool_size)
    windows = _windows(f"avg_pool2d: window {(k_h, k_w)}",
                       pad_nchw(data, *_pair(padding)), (k_h, k_w), _pair(stride))
    out = np.zeros(windows.shape[:4], dtype=data.dtype)
    for dy in range(k_h):
        for dx in range(k_w):
            out += windows[..., dy, dx]
    out /= k_h * k_w
    return out


def global_avg_pool2d(data: np.ndarray) -> np.ndarray:
    return data.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Ultra low-precision (bit-serial) convolution, Section 6.2 / Figure 18
# ---------------------------------------------------------------------------

def _quantize_bits(data: np.ndarray, bits: int) -> np.ndarray:
    """Quantize non-negative activations / weights to ``bits`` bits."""
    clipped = np.clip(data, 0.0, 1.0)
    levels = (1 << bits) - 1
    return np.round(clipped * levels).astype(np.int64)


def bitserial_conv2d_nchw(data: np.ndarray, kernel: np.ndarray,
                          stride: IntPair = 1, padding: IntPair = 0,
                          activation_bits: int = 2, weight_bits: int = 1) -> np.ndarray:
    """Bit-serial low precision convolution.

    Activations are quantized to ``activation_bits`` and weights to
    ``weight_bits``; the convolution is evaluated one bit-plane pair at a
    time using AND + popcount semantics, accumulating into a wide integer —
    exactly the decomposition the paper's micro-kernel implements.
    """
    q_data = _quantize_bits(data, activation_bits)
    q_kernel = _quantize_bits(np.abs(kernel), weight_bits)
    acc = None
    for a_bit in range(activation_bits):
        data_plane = ((q_data >> a_bit) & 1).astype(np.float32)
        for w_bit in range(weight_bits):
            kernel_plane = ((q_kernel >> w_bit) & 1).astype(np.float32)
            partial = conv2d_nchw(data_plane, kernel_plane, stride, padding)
            scaled = partial * float(1 << (a_bit + w_bit))
            acc = scaled if acc is None else acc + scaled
    return acc.astype(np.int32)


# ---------------------------------------------------------------------------
# Winograd F(2x2, 3x3) convolution with pre-transformed weights (Figure 15)
# ---------------------------------------------------------------------------

_WINOGRAD_B = np.array([
    [1, 0, 0, 0],
    [0, 1, -1, 1],
    [-1, 1, 1, 0],
    [0, 0, 0, -1],
], dtype=np.float64)

_WINOGRAD_G = np.array([
    [1, 0, 0],
    [0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5],
    [0, 0, 1],
], dtype=np.float64)

_WINOGRAD_A = np.array([
    [1, 0],
    [1, 1],
    [1, -1],
    [0, -1],
], dtype=np.float64)


def winograd_transform_weights(kernel: np.ndarray) -> np.ndarray:
    """Pre-transform OIHW 3x3 weights to the 4x4 Winograd domain."""
    out_c, in_c, k_h, k_w = kernel.shape
    if (k_h, k_w) != (3, 3):
        raise ValueError("Winograd F(2x2,3x3) requires 3x3 kernels")
    transformed = np.einsum("ea,ocab,fb->ocef", _WINOGRAD_G, kernel.astype(np.float64),
                            _WINOGRAD_G)
    return transformed


def winograd_conv2d_nchw(data: np.ndarray, kernel: np.ndarray,
                         padding: IntPair = 1,
                         pre_transformed: Optional[np.ndarray] = None) -> np.ndarray:
    """Winograd F(2x2,3x3) convolution, unit stride."""
    pad_h, pad_w = _pair(padding)
    padded = pad_nchw(data.astype(np.float64), pad_h, pad_w)
    batch, in_c, in_h, in_w = padded.shape
    out_c = kernel.shape[0]
    out_h, out_w = in_h - 2, in_w - 2
    tiles_h = (out_h + 1) // 2
    tiles_w = (out_w + 1) // 2
    pad_out_h, pad_out_w = tiles_h * 2, tiles_w * 2
    if pad_out_h + 2 > in_h or pad_out_w + 2 > in_w:
        padded = np.pad(padded, ((0, 0), (0, 0),
                                 (0, pad_out_h + 2 - in_h),
                                 (0, pad_out_w + 2 - in_w)))
    weights = (pre_transformed if pre_transformed is not None
               else winograd_transform_weights(kernel))

    # Gather 4x4 input tiles with stride 2.
    tiles = np.empty((batch, in_c, tiles_h, tiles_w, 4, 4), dtype=np.float64)
    for ty in range(tiles_h):
        for tx in range(tiles_w):
            tiles[:, :, ty, tx] = padded[:, :, ty * 2:ty * 2 + 4, tx * 2:tx * 2 + 4]
    # V = B^T d B, M = U * V (elementwise over the 4x4 domain, contracted over
    # input channels), Y = A^T M A.  Batch index is written ``n`` to avoid
    # clashing with the transform indices.
    v = np.einsum("ae,ncyxab,bf->ncyxef", _WINOGRAD_B, tiles, _WINOGRAD_B)
    m = np.einsum("ocef,ncyxef->noyxef", weights, v)
    y = np.einsum("ei,noyxef,fj->noyxij", _WINOGRAD_A, m, _WINOGRAD_A)
    out = np.zeros((batch, out_c, pad_out_h, pad_out_w), dtype=np.float64)
    for ty in range(tiles_h):
        for tx in range(tiles_w):
            out[:, :, ty * 2:ty * 2 + 2, tx * 2:tx * 2 + 2] = y[:, :, ty, tx]
    return out[:, :, :out_h, :out_w].astype(data.dtype)
