"""Tests for the operator library: NumPy references and lowered te declarations."""

import random

import numpy as np
import pytest

from repro import te, tir
from repro.frontend import ModelBuilder
from repro.graph.op_timing import make_task_for_node
from repro.hardware import create_target
from repro.topi import nn
from repro.topi import reference as ref
from repro.topi.bitserial import bitserial_conv2d_packed, packed_shape
from repro.topi.winograd import winograd_conv2d_pretransformed


# ---------------------------------------------------------------------------
# Loop oracles: the definitions, one output element at a time
# ---------------------------------------------------------------------------

def _pair(value):
    return tuple(value) if isinstance(value, (tuple, list)) else (value, value)


def _padded(data, padding, value=0.0):
    p_h, p_w = _pair(padding)
    return np.pad(data, ((0, 0), (0, 0), (p_h, p_h), (p_w, p_w)),
                  constant_values=value)


def _window_oracle(data, window, stride, padding, reduce, pad_value=0.0):
    """``out[b, :, y, x] = reduce(window at (y, x))``; ``reduce`` maps a
    ``(channels, k_h, k_w)`` patch to the output column."""
    data = _padded(data.astype(np.float64), padding, pad_value)
    (k_h, k_w), (s_h, s_w) = window, _pair(stride)
    out_h = (data.shape[2] - k_h) // s_h + 1
    out_w = (data.shape[3] - k_w) // s_w + 1
    rows = [[[reduce(data[b, :, y * s_h:y * s_h + k_h, x * s_w:x * s_w + k_w])
              for x in range(out_w)] for y in range(out_h)]
            for b in range(data.shape[0])]
    return np.moveaxis(np.array(rows), -1, 1)       # (b, y, x, c) -> NCHW


def _conv_oracle(data, kernel, stride, padding):
    weight = kernel.astype(np.float64)
    return _window_oracle(data, kernel.shape[2:], stride, padding,
                          lambda patch: (weight * patch).sum(axis=(1, 2, 3)))


def _depthwise_oracle(data, kernel, stride, padding):
    weight = kernel[:, 0].astype(np.float64)
    return _window_oracle(data, kernel.shape[2:], stride, padding,
                          lambda patch: (weight * patch).sum(axis=(1, 2)))


def _transpose_oracle(data, kernel, stride, padding):
    """Scatter form: every input pixel adds its kernel-weighted footprint."""
    (s_h, s_w), (p_h, p_w) = _pair(stride), _pair(padding)
    batch, in_c, in_h, in_w = data.shape
    _, out_c, k_h, k_w = kernel.shape
    full = np.zeros((batch, out_c, (in_h - 1) * s_h + k_h,
                     (in_w - 1) * s_w + k_w))
    for y in range(in_h):
        for x in range(in_w):
            full[:, :, y * s_h:y * s_h + k_h, x * s_w:x * s_w + k_w] += \
                np.einsum("bi,iohw->bohw", data[:, :, y, x].astype(np.float64),
                          kernel.astype(np.float64))
    return full[:, :, p_h:full.shape[2] - p_h, p_w:full.shape[3] - p_w]


#: tolerance fixed beforehand from the dtype: the GEMM sums in another order
_RTOL = {"float32": 1e-4, "float64": 1e-11}

#: (data shape, out channels, kernel, stride, padding) — the zoo's shapes, small
_CONV_CASES = {
    "1x1-s1": ((1, 8, 6, 6), 4, (1, 1), 1, 0),
    "1x1-s2": ((1, 8, 7, 7), 4, (1, 1), 2, 0),
    "3x3-s1-p1": ((1, 3, 9, 9), 5, (3, 3), 1, 1),
    "3x3-s2-p1": ((1, 3, 9, 9), 5, (3, 3), 2, 1),
    "7x7-s2-p3": ((1, 3, 20, 20), 4, (7, 7), 2, 3),
    "tuple-stride-padding": ((1, 3, 9, 9), 4, (3, 3), (2, 1), (1, 0)),
    "non-square": ((1, 3, 9, 12), 4, (3, 2), 1, (0, 1)),
    "in_c-1": ((1, 1, 8, 8), 4, (3, 3), 1, 1),
    "batch-2": ((2, 3, 8, 8), 4, (3, 3), 2, 1),
}


def _case(name, dtype="float32", seed=0):
    shape, out_c, window, stride, padding = _CONV_CASES[name]
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape).astype(dtype), out_c, window, stride,
            padding, rng)


def _assert_batch_is_singles(op, data, *args):
    """A batch of N is bit-identical to N single-image runs."""
    stacked = np.concatenate([data, data[::-1] * 0.5])
    whole = op(stacked, *args)
    for image in range(stacked.shape[0]):
        np.testing.assert_array_equal(
            whole[image:image + 1], op(stacked[image:image + 1], *args))


@pytest.mark.parametrize("dtype", sorted(_RTOL))
@pytest.mark.parametrize("name", sorted(_CONV_CASES))
def test_reference_conv2d_matches_oracle(name, dtype):
    data, out_c, window, stride, padding, rng = _case(name, dtype)
    kernel = rng.standard_normal((out_c, data.shape[1]) + window).astype(dtype)
    got = ref.conv2d_nchw(data, kernel, stride, padding)
    assert got.dtype == data.dtype and got.flags.c_contiguous
    np.testing.assert_allclose(got, _conv_oracle(data, kernel, stride, padding),
                               rtol=_RTOL[dtype], atol=_RTOL[dtype])
    _assert_batch_is_singles(ref.conv2d_nchw, data, kernel, stride, padding)


@pytest.mark.parametrize("name", sorted(_CONV_CASES))
def test_reference_depthwise_matches_oracle(name):
    data, _, window, stride, padding, rng = _case(name)
    kernel = rng.standard_normal((data.shape[1], 1) + window).astype("float32")
    got = ref.depthwise_conv2d_nchw(data, kernel, stride, padding)
    assert got.dtype == data.dtype
    np.testing.assert_allclose(
        got, _depthwise_oracle(data, kernel, stride, padding),
        rtol=1e-4, atol=1e-4)
    _assert_batch_is_singles(ref.depthwise_conv2d_nchw, data, kernel, stride,
                             padding)


@pytest.mark.parametrize("name", ["3x3-s1-p1", "3x3-s2-p1", "non-square",
                                  "tuple-stride-padding", "in_c-1", "batch-2"])
def test_reference_conv2d_transpose_matches_oracle(name):
    data, out_c, window, stride, padding, rng = _case(name)
    kernel = rng.standard_normal((data.shape[1], out_c) + window).astype("float32")
    got = ref.conv2d_transpose_nchw(data, kernel, stride, padding)
    assert got.dtype == data.dtype
    np.testing.assert_allclose(
        got, _transpose_oracle(data, kernel, stride, padding),
        rtol=1e-4, atol=1e-4)
    _assert_batch_is_singles(ref.conv2d_transpose_nchw, data, kernel, stride,
                             padding)


@pytest.mark.parametrize("name", sorted(_CONV_CASES))
def test_reference_pools_match_oracle(name):
    data, _, window, stride, padding, _ = _case(name)
    got = ref.max_pool2d(data, window, stride, padding)
    want = _window_oracle(data, window, stride, padding,
                          lambda patch: patch.max(axis=(1, 2)), -np.inf)
    assert got.dtype == data.dtype
    np.testing.assert_array_equal(got, want.astype("float32"))   # max is exact
    _assert_batch_is_singles(ref.max_pool2d, data, window, stride, padding)
    # Padding counts towards the average (count_include_pad semantics).
    got = ref.avg_pool2d(data, window, stride, padding)
    want = _window_oracle(data, window, stride, padding,
                          lambda patch: patch.mean(axis=(1, 2)))
    assert got.dtype == data.dtype
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    _assert_batch_is_singles(ref.avg_pool2d, data, window, stride, padding)


def test_reference_output_dtype_is_the_datas():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((1, 4, 6, 6)).astype("float32")
    wide = rng.standard_normal((4, 4, 3, 3))                    # float64
    assert ref.conv2d_nchw(data, wide, 1, 1).dtype == np.float32
    assert ref.depthwise_conv2d_nchw(data, wide[:, :1], 1, 1).dtype == np.float32
    assert ref.conv2d_nchw(data.astype("float64"), wide, 1, 1).dtype == np.float64
    for pool in (ref.max_pool2d, ref.avg_pool2d):
        assert pool(data, 3, 2, 1).dtype == np.float32
        assert pool(data.astype("float64"), 3, 2, 1).dtype == np.float64


@pytest.mark.parametrize("window", [(3, 3), (1, 1)])
def test_conv2d_tiles_are_bounded_and_cover_the_output_once(monkeypatch, window):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((2, 16, 20, 20)).astype("float32")
    kernel = rng.standard_normal((8, 16) + window).astype("float32")
    padding = window[0] // 2
    whole = ref.conv2d_nchw(data, kernel, 1, padding)
    monkeypatch.setattr(ref, "WORKSPACE_BYTES", 25_000)
    seen = np.zeros(whole.shape, dtype=int)
    tiles = []

    def epilogue(out, index):       # runs once per tile, in place
        tiles.append(out[index].shape)
        seen[index] += 1
        np.maximum(out[index], 0, out=out[index])

    got = ref.conv2d_nchw(data, kernel, 1, padding, epilogue)
    assert (seen == 1).all() and len(tiles) >= 2 * 2     # 2 images, >1 tile each
    depth = 16 * window[0] * window[1]
    for _, channels, rows, width in tiles:
        assert channels == 8 and depth * rows * width * 4 <= 25_000
    np.testing.assert_allclose(got, np.maximum(whole, 0), rtol=1e-5, atol=1e-5)


def test_reference_shape_errors_name_both_shapes():
    data = np.zeros((1, 3, 4, 4), dtype="float32")
    with pytest.raises(ValueError, match=r"\(1, 3, 4, 4\).*\(8, 5, 3, 3\)"):
        ref.conv2d_nchw(data, np.zeros((8, 5, 3, 3), dtype="float32"))
    with pytest.raises(ValueError, match=r"\(1, 3, 4, 4\).*\(4, 1, 3, 3\)"):
        ref.depthwise_conv2d_nchw(data, np.zeros((4, 1, 3, 3), dtype="float32"))
    # A window larger than the padded input: both shapes, not a negative dim.
    with pytest.raises(ValueError, match=r"\(8, 3, 7, 7\).*\(1, 3, 6, 6\)"):
        ref.conv2d_nchw(data, np.zeros((8, 3, 7, 7), dtype="float32"), 1, 1)
    with pytest.raises(ValueError, match=r"\(3, 1, 5, 5\).*\(1, 3, 4, 4\)"):
        ref.depthwise_conv2d_nchw(data, np.zeros((3, 1, 5, 5), dtype="float32"))
    for pool in (ref.max_pool2d, ref.avg_pool2d):
        with pytest.raises(ValueError, match=r"\(5, 5\).*\(1, 3, 4, 4\)"):
            pool(data, 5, 1)


def test_reference_pooling_and_softmax():
    rng = np.random.default_rng(2)
    data = rng.random((1, 2, 6, 6)).astype("float32")
    pooled = ref.max_pool2d(data, 2, 2)
    assert pooled.shape == (1, 2, 3, 3)
    assert pooled[0, 0, 0, 0] == data[0, 0, :2, :2].max()
    avg = ref.avg_pool2d(data, 2, 2)
    np.testing.assert_allclose(avg[0, 0, 0, 0], data[0, 0, :2, :2].mean(), rtol=1e-6)
    soft = ref.softmax(rng.random((3, 7)).astype("float32"))
    np.testing.assert_allclose(soft.sum(axis=1), np.ones(3), rtol=1e-6)


def test_reference_bitserial_quantized_semantics():
    rng = np.random.default_rng(3)
    data = rng.random((1, 4, 8, 8)).astype("float32")
    kernel = rng.random((8, 4, 3, 3)).astype("float32")
    out = ref.bitserial_conv2d_nchw(data, kernel, 1, 1, activation_bits=2,
                                    weight_bits=1)
    assert out.dtype == np.int32
    assert out.shape == (1, 8, 8, 8)
    assert out.max() > 0


def test_te_conv2d_lowered_matches_reference():
    rng = np.random.default_rng(4)
    data_np = rng.random((1, 3, 8, 8)).astype("float32")
    kernel_np = rng.random((4, 3, 3, 3)).astype("float32")
    data = te.placeholder((1, 3, 8, 8), name="data")
    kernel = te.placeholder((4, 3, 3, 3), name="kernel")
    conv = nn.conv2d_nchw(data, kernel, stride=2, padding=1)
    s = te.create_schedule(conv.op)
    func = tir.lower(s, [data, kernel, conv])
    out = np.zeros((1, 4, 4, 4), dtype="float32")
    tir.run_lowered(func, data_np, kernel_np, out)
    np.testing.assert_allclose(out, ref.conv2d_nchw(data_np, kernel_np, 2, 1),
                               rtol=1e-4)


def test_te_depthwise_lowered_matches_reference():
    rng = np.random.default_rng(5)
    data_np = rng.random((1, 4, 6, 6)).astype("float32")
    kernel_np = rng.random((4, 1, 3, 3)).astype("float32")
    data = te.placeholder((1, 4, 6, 6), name="data")
    kernel = te.placeholder((4, 1, 3, 3), name="kernel")
    conv = nn.depthwise_conv2d_nchw(data, kernel, stride=1, padding=1)
    s = te.create_schedule(conv.op)
    func = tir.lower(s, [data, kernel, conv])
    out = np.zeros((1, 4, 6, 6), dtype="float32")
    tir.run_lowered(func, data_np, kernel_np, out)
    np.testing.assert_allclose(out, ref.depthwise_conv2d_nchw(data_np, kernel_np, 1, 1),
                               rtol=1e-4)


@pytest.mark.parametrize("target", ["cuda", "mali", "arm_cpu", "pynq_cpu", "vdla"])
@pytest.mark.parametrize("op", ["conv2d", "depthwise_conv2d", "dense"])
def test_lowered_templates_match_reference(op, target):
    """ROADMAP item 2(c), interpreter == reference: the TIR the tuner scores
    (each target's schedule template under sampled configs) computes what
    the NumPy kernel the executor runs computes."""
    b = ModelBuilder("leg", seed=0)
    if op == "dense":
        out = b.dense(b.input("data", (2, 12)), 6, name="op")
    else:
        data = b.input("data", (1, 4, 6, 6))
        out = (b.conv2d(data, 6, 3, 2, 1, name="op") if op == "conv2d"
               else b.depthwise_conv2d(data, 3, 1, 1, name="op"))
    node = b.finalize(out)[0].find("op")
    task = make_task_for_node(node, create_target(target))
    rng = np.random.default_rng(11)
    arrays = [rng.standard_normal(parent.shape).astype("float32")
              for parent in node.inputs]
    want = (ref.dense(*arrays) if op == "dense" else
            getattr(ref, f"{op}_nchw")(*arrays, node.attrs["strides"],
                                       node.attrs["padding"]))
    for config in task.config_space.sample(3, random.Random(11)):
        got = np.zeros(node.shape, dtype="float32")
        tir.run_lowered(task.lower(config), *arrays, got)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5,
                                   err_msg=f"config {config.index}")


def test_te_dense_relu_softmax_lowered():
    rng = np.random.default_rng(6)
    data_np = rng.random((2, 8)).astype("float32")
    weight_np = rng.random((5, 8)).astype("float32")
    data = te.placeholder((2, 8), name="data")
    weight = te.placeholder((5, 8), name="weight")
    out = nn.relu(nn.dense(data, weight))
    s = te.create_schedule(out.op)
    func = tir.lower(s, [data, weight, out])
    result = np.zeros((2, 5), dtype="float32")
    tir.run_lowered(func, data_np, weight_np, result)
    np.testing.assert_allclose(result, ref.relu(ref.dense(data_np, weight_np)),
                               rtol=1e-5)

    soft = nn.softmax(te.placeholder((2, 5), name="x"))
    s2 = te.create_schedule(soft.op)
    func2 = tir.lower(s2, [soft.op.input_tensors()[0], soft] if False else
                      [next(t for t in soft.op.input_tensors() if t.op.name == "x"), soft])
    out2 = np.zeros((2, 5), dtype="float32")
    tir.run_lowered(func2, result, out2)
    np.testing.assert_allclose(out2, ref.softmax(result), rtol=1e-4)


def test_te_pooling_lowered():
    rng = np.random.default_rng(7)
    data_np = rng.random((1, 2, 6, 6)).astype("float32")
    data = te.placeholder((1, 2, 6, 6), name="data")
    pooled = nn.max_pool2d(data, 2, 2)
    s = te.create_schedule(pooled.op)
    func = tir.lower(s, [data, pooled])
    out = np.zeros((1, 2, 3, 3), dtype="float32")
    tir.run_lowered(func, data_np, out)
    np.testing.assert_allclose(out, ref.max_pool2d(data_np, 2, 2), rtol=1e-6)


def test_bitserial_declaration_shapes():
    assert packed_shape(64) == 2
    assert packed_shape(20) == 1
    data, weight, out = bitserial_conv2d_packed(1, 64, 14, 14, 128, 3, 1, 1,
                                                activation_bits=2, weight_bits=1)
    assert out.shape_values() == (1, 128, 14, 14)
    assert data.dtype == "int32"
    # Lowered features should count intrinsic-free integer work.
    s = te.create_schedule(out.op)
    features = tir.extract_features(tir.lower(s, [data, weight, out]))
    assert features.flops > 0 or features.int_ops > 0


def test_winograd_declaration_reduces_multiplications():
    _d, _w, _b, _a, direct_equivalent = winograd_conv2d_pretransformed(1, 16, 14, 14, 32)
    s = te.create_schedule(direct_equivalent.op)
    args = list(direct_equivalent.op.input_tensors())
    features = tir.extract_features(
        tir.lower(s, [_d, _w, _b, _a, direct_equivalent]))
    direct_flops = 2 * 14 * 14 * 32 * 16 * 9
    # The batched-GEMM stage performs ~(4x4)/(2x2*9) = 0.44x of the direct
    # multiplications; transforms add some overhead but total stays below direct.
    assert features.total_flops < direct_flops * 2.5


def test_conv2d_shape_validation():
    data = te.placeholder((1, 3, 8, 8), name="data")
    kernel = te.placeholder((4, 5, 3, 3), name="kernel")
    with pytest.raises(ValueError):
        nn.conv2d_nchw(data, kernel, 1, 1)
