"""Integration tests: lowering schedules to loop programs and executing them.

Every test checks the lowered program's numerical output against NumPy,
verifying that schedule primitives preserve the program's semantics
(the paper's core requirement for schedule transformations).
"""

import random

import numpy as np
import pytest

from repro import te, tir
from repro.analysis.errors import OutOfBoundsError
from repro.analysis.tir_verify import verify_func
from repro.autotvm.space import ConfigSpace
from repro.te.expr import FloatImm
from repro.tir.interpreter import EvalError
from repro.topi.bitserial import bitserial_conv2d_packed
from repro.topi.schedules.cpu import bitserial_conv2d_cpu_template
from repro.topi.schedules.vdla import declare_gemm_intrin, gemm_vdla_template


def _run(schedule, args, *arrays):
    func = tir.lower(schedule, args)
    tir.run_lowered(func, *arrays)
    return func


def test_elementwise_lowering():
    A = te.placeholder((6, 7), name="A")
    B = te.compute((6, 7), lambda i, j: A[i, j] * 2.0 + 1.0, name="B")
    s = te.create_schedule(B.op)
    a = np.random.rand(6, 7).astype("float32")
    b = np.zeros((6, 7), dtype="float32")
    _run(s, [A, B], a, b)
    np.testing.assert_allclose(b, a * 2 + 1, rtol=1e-6)


def test_matmul_default_schedule():
    M, N, K = 9, 5, 7
    A = te.placeholder((M, K), name="A")
    B = te.placeholder((K, N), name="B")
    k = te.reduce_axis((0, K), name="k")
    C = te.compute((M, N), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k), name="C")
    s = te.create_schedule(C.op)
    a = np.random.rand(M, K).astype("float32")
    b = np.random.rand(K, N).astype("float32")
    c = np.zeros((M, N), dtype="float32")
    _run(s, [A, B, C], a, b, c)
    np.testing.assert_allclose(c, a @ b, rtol=1e-5)


def test_matmul_tiled_reordered_unrolled_vectorized():
    M, N, K = 12, 10, 8
    A = te.placeholder((M, K), name="A")
    B = te.placeholder((K, N), name="B")
    k = te.reduce_axis((0, K), name="k")
    C = te.compute((M, N), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k), name="C")
    s = te.create_schedule(C.op)
    i, j = s[C].op.axis
    io, jo, ii, ji = s[C].tile(i, j, 4, 5)
    ko, ki = s[C].split(k, factor=4)
    s[C].reorder(io, jo, ko, ii, ji, ki)
    s[C].unroll(ki)
    s[C].vectorize(ji)
    a = np.random.rand(M, K).astype("float32")
    b = np.random.rand(K, N).astype("float32")
    c = np.zeros((M, N), dtype="float32")
    _run(s, [A, B, C], a, b, c)
    np.testing.assert_allclose(c, a @ b, rtol=1e-5)


def test_imperfect_split_guard():
    """A split that does not divide the extent must still produce correct results."""
    A = te.placeholder((10,), name="A")
    B = te.compute((10,), lambda i: A[i] + 1.0, name="B")
    s = te.create_schedule(B.op)
    outer, inner = s[B].split(s[B].op.axis[0], factor=4)   # 10 = 3*4 with guard
    a = np.arange(10, dtype="float32")
    b = np.zeros(10, dtype="float32")
    _run(s, [A, B], a, b)
    np.testing.assert_allclose(b, a + 1)


def test_fuse_then_split_lowering():
    A = te.placeholder((6, 8), name="A")
    B = te.compute((6, 8), lambda i, j: A[i, j] * 3.0, name="B")
    s = te.create_schedule(B.op)
    i, j = s[B].op.axis
    fused = s[B].fuse(i, j)
    outer, inner = s[B].split(fused, factor=5)   # imperfect split of fused loop
    a = np.random.rand(6, 8).astype("float32")
    b = np.zeros((6, 8), dtype="float32")
    _run(s, [A, B], a, b)
    np.testing.assert_allclose(b, a * 3, rtol=1e-6)


def test_compute_inline():
    A = te.placeholder((4, 4), name="A")
    B = te.compute((4, 4), lambda i, j: A[i, j] + 1.0, name="B")
    C = te.compute((4, 4), lambda i, j: B[i, j] * 2.0, name="C")
    s = te.create_schedule(C.op)
    s[B].compute_inline()
    func = tir.lower(s, [A, C])
    # The inlined stage must not allocate an intermediate buffer.
    assert all("B" != alloc.name for alloc in func.allocations)
    a = np.random.rand(4, 4).astype("float32")
    c = np.zeros((4, 4), dtype="float32")
    tir.run_lowered(func, a, c)
    np.testing.assert_allclose(c, (a + 1) * 2, rtol=1e-6)


def test_cache_write_and_compute_at():
    A = te.placeholder((8, 16), name="A")
    B = te.placeholder((8, 12), name="B")
    k = te.reduce_axis((0, 8), name="k")
    C = te.compute((16, 12), lambda y, x: te.sum(A[k, y] * B[k, x], axis=k), name="C")
    s = te.create_schedule(C.op)
    CL = s.cache_write(C, "local")
    y, x = s[C].op.axis
    yo, yi = s[C].split(y, factor=4)
    xo, xi = s[C].split(x, factor=4)
    s[C].reorder(yo, xo, yi, xi)
    s[CL].compute_at(s[C], xo)
    a = np.random.rand(8, 16).astype("float32")
    b = np.random.rand(8, 12).astype("float32")
    c = np.zeros((16, 12), dtype="float32")
    _run(s, [A, B, C], a, b, c)
    np.testing.assert_allclose(c, a.T @ b, rtol=1e-5)


def test_cache_read_shared_with_barrier():
    A = te.placeholder((8, 16), name="A")
    B = te.placeholder((8, 12), name="B")
    k = te.reduce_axis((0, 8), name="k")
    C = te.compute((16, 12), lambda y, x: te.sum(A[k, y] * B[k, x], axis=k), name="C")
    s = te.create_schedule(C.op)
    CL = s.cache_write(C, "local")
    y, x = s[C].op.axis
    yo, yi = s[C].split(y, factor=4)
    xo, xi = s[C].split(x, factor=4)
    s[C].reorder(yo, xo, yi, xi)
    s[CL].compute_at(s[C], xo)
    AA = s.cache_read(A, "shared", [CL])
    BB = s.cache_read(B, "shared", [CL])
    ko, ki = s[CL].split(s[CL].op.reduce_axis[0], factor=4)
    yl, xl = s[CL].op.axis
    s[CL].reorder(ko, yl, xl, ki)
    s[AA].compute_at(s[CL], ko)
    s[BB].compute_at(s[CL], ko)
    func = tir.lower(s, [A, B, C])
    counts = tir.count_statements(func.body)
    assert counts.get("Barrier", 0) >= 1            # inserted after shared stages
    a = np.random.rand(8, 16).astype("float32")
    b = np.random.rand(8, 12).astype("float32")
    c = np.zeros((16, 12), dtype="float32")
    tir.run_lowered(func, a, b, c)
    np.testing.assert_allclose(c, a.T @ b, rtol=1e-5)


def test_gpu_cooperative_matmul_schedule_correct():
    from repro.topi import nn
    from repro.topi.schedules import gpu as gpu_sched

    A = te.placeholder((32, 32), name="A")
    B = te.placeholder((32, 32), name="B")
    C = nn.matmul(A, B)
    s = gpu_sched.schedule_matmul_gpu(A, B, C, use_shared=True, tile=4, threads=4)
    func = tir.lower(s, [A, B, C])
    features = tir.extract_features(func)
    assert features.num_threads > 1
    assert features.bytes_in_scope("shared") > 0
    a = np.random.rand(32, 32).astype("float32")
    b = np.random.rand(32, 32).astype("float32")
    c = np.zeros((32, 32), dtype="float32")
    tir.run_lowered(func, a, b, c)
    np.testing.assert_allclose(c, a @ b, rtol=1e-4)


def test_max_reduction():
    A = te.placeholder((5, 9), name="A")
    k = te.reduce_axis((0, 9), name="k")
    B = te.compute((5,), lambda i: te.max(A[i, k], axis=k), name="B")
    s = te.create_schedule(B.op)
    a = np.random.rand(5, 9).astype("float32")
    b = np.zeros((5,), dtype="float32")
    _run(s, [A, B], a, b)
    np.testing.assert_allclose(b, a.max(axis=1), rtol=1e-6)


def test_tensorize_gemm_intrinsic():
    """Tensorized matmul must match the untensorized result (Section 4.3)."""
    from repro.topi.schedules.vdla import declare_gemm_intrin

    size, tile = 8, 4
    A = te.placeholder((size, size), name="A")
    B = te.placeholder((size, size), name="B")
    k = te.reduce_axis((0, size), name="k")
    C = te.compute((size, size), lambda i, j: te.sum(A[i, k] * B[k, j], axis=k),
                   name="C")
    s = te.create_schedule(C.op)
    i, j = s[C].op.axis
    io, ii = s[C].split(i, factor=tile)
    jo, ji = s[C].split(j, factor=tile)
    ko, ki = s[C].split(k, factor=tile)
    s[C].reorder(io, jo, ko, ii, ji, ki)
    s[C].tensorize(ii, declare_gemm_intrin(tile))
    func = tir.lower(s, [A, B, C])
    assert tir.count_statements(func.body).get("IntrinsicStmt", 0) > 0
    a = np.random.rand(size, size).astype("float32")
    b = np.random.rand(size, size).astype("float32")
    c = np.zeros((size, size), dtype="float32")
    tir.run_lowered(func, a, b, c)
    np.testing.assert_allclose(c, a @ b, rtol=1e-4)


def _vdla_gemm(cfg):
    # a 2 KiB accumulator holds a 32 x 16 block: two column blocks, so the
    # vthread knob has a loop to split
    return gemm_vdla_template(cfg, 32, 32, 16, acc_buffer_bytes=2048)


def _bitserial_conv(cfg):
    # 64 input channels pack into two words: the intrinsic's tile is 2 long
    data, weight, out = bitserial_conv2d_packed(1, 64, 4, 4, 4, 3, 1, 1)
    return bitserial_conv2d_cpu_template(cfg, data, weight, out)


@pytest.mark.parametrize("template", [_vdla_gemm, _bitserial_conv],
                         ids=["vdla_gemm", "bitserial_conv2d"])
def test_tensorized_programs_verify_and_match_the_plain_lowering(template):
    """Section 4.3's two tensorized programs under sampled configs: the
    interpreter, which runs each intrinsic's declared behaviour, matches the
    untensorized lowering of the same compute, and the verifier accepts
    the program.  ``tensorize`` itself checks no body match; this does."""
    space = ConfigSpace()
    template(space)
    rng = np.random.default_rng(0)
    for cfg in space.sample(3, random.Random(0)):
        schedule, tensors = template(cfg)
        func = tir.lower(schedule, tensors)
        assert tir.count_statements(func.body).get("IntrinsicStmt", 0) > 0
        plain = tir.lower(te.create_schedule(tensors[-1].op), tensors)
        *inputs, output = tensors
        # small enough that no product overflows the operands' dtype
        arrays = [rng.integers(0, int(np.sqrt(np.iinfo(t.dtype).max)),
                               size=t.shape_values(), dtype=t.dtype)
                  for t in inputs]
        got = np.zeros(output.shape_values(), dtype=output.dtype)
        want = np.zeros_like(got)
        tir.run_lowered(func, *arrays, got)
        tir.run_lowered(plain, *arrays, want)
        np.testing.assert_array_equal(got, want, err_msg=repr(cfg))
        verify_func(func)


def test_an_intrinsic_tile_of_the_wrong_rank_is_rejected():
    """A 1-D dot product applied to the bit-serial conv's 5-D operands:
    NumPy would slice only their first dimension."""
    length = 2
    w = te.placeholder((length,), dtype="int32", name="w_bits")
    x = te.placeholder((length,), dtype="int32", name="x_bits")
    k = te.reduce_axis((0, length), name="k")
    dot = te.compute((1,), lambda _i: te.sum(w[k] * x[k], axis=k),
                     name="dot", dtype="int32")
    data, weight, out = bitserial_conv2d_packed(1, 64, 4, 4, 4, 3, 1, 1)
    s = te.create_schedule(out.op)
    s[out].tensorize(s[out].op.reduce_axis[-1], te.decl_tensor_intrin(dot))
    func = tir.lower(s, [data, weight, out])
    with pytest.raises(OutOfBoundsError, match=r"tile of shape \(2,\)"):
        verify_func(func)
    arrays = [np.zeros(t.shape_values(), dtype="int32")
              for t in (data, weight, out)]
    with pytest.raises(EvalError, match=r"has rank 1 but"):
        tir.run_lowered(func, *arrays)


def test_virtual_thread_lowering_preserves_semantics():
    A = te.placeholder((8, 8), name="A")
    B = te.compute((8, 8), lambda i, j: A[i, j] + 5.0, name="B")
    s = te.create_schedule(B.op)
    i, j = s[B].op.axis
    vt, ii = s[B].split(i, nparts=2)
    s[B].bind(vt, te.thread_axis("vthread"))
    func = tir.lower(s, [A, B])
    expanded = tir.inject_virtual_threads(func)
    a = np.random.rand(8, 8).astype("float32")
    b = np.zeros((8, 8), dtype="float32")
    tir.run_lowered(expanded, a, b)
    np.testing.assert_allclose(b, a + 5, rtol=1e-6)


def test_lower_rejects_wrong_argument_count():
    A = te.placeholder((4,), name="A")
    B = te.compute((4,), lambda i: A[i] * 2.0, name="B")
    s = te.create_schedule(B.op)
    func = tir.lower(s, [A, B])
    with pytest.raises(ValueError):
        tir.run_lowered(func, np.zeros(4, dtype="float32"))


# ---------------------------------------------------------------------------
# The interpreter faults on an access outside its buffer
# ---------------------------------------------------------------------------

def test_interpreter_rejects_a_store_before_the_buffer():
    """``A[i - 1]`` at ``i = 0`` would wrap to ``A[3]`` in NumPy."""
    a = tir.Buffer("A", (4,))
    i = te.var("i")
    func = tir.LoweredFunc("shift", [a], tir.For(
        i, 0, 4, tir.BufferStore(a, [i - 1], FloatImm(1.0))))
    array = np.zeros(4, dtype="float32")
    with pytest.raises(EvalError, match=r"\(-1,\).*A with shape \(4,\)"
                                        r".*loop variables: i=0"):
        tir.run_lowered(func, array)


def test_interpreter_rejects_a_load_past_the_buffer():
    a = tir.Buffer("A", (4,))
    b = tir.Buffer("B", (4,))
    i = te.var("i")
    func = tir.LoweredFunc("shift", [a, b], tir.For(
        i, 0, 4, tir.BufferStore(b, [i], tir.BufferLoad(a, [i + 1]))))
    with pytest.raises(EvalError, match=r"\(4,\).*A with shape \(4,\)"
                                        r".*loop variables: i=3"):
        tir.run_lowered(func, np.arange(4, dtype="float32"),
                        np.zeros(4, dtype="float32"))


def test_interpreter_rejects_an_intrinsic_slice_past_the_buffer():
    """A 4 x 4 GEMM tile written at row 6 of an 8-row output: NumPy would
    clamp the slice to two rows."""
    from repro.topi.schedules.vdla import declare_gemm_intrin

    intrin = declare_gemm_intrin(4)
    a, b, c = (tir.Buffer(name, (8, 8)) for name in "ABC")
    func = tir.LoweredFunc("gemm", [a, b, c], tir.IntrinsicStmt(
        "gemm", intrin, [a, b], c, [[0, 0], [0, 0]], [6, 0]))
    arrays = [np.ones((8, 8), dtype="float32") for _ in range(3)]
    with pytest.raises(EvalError, match=r"\['6:10', '0:4'\].*C with shape "
                                        r"\(8, 8\)"):
        tir.run_lowered(func, *arrays)


def test_an_intrinsic_called_with_too_few_operands_is_rejected():
    a, c = tir.Buffer("A", (4, 4)), tir.Buffer("C", (4, 4))
    func = tir.LoweredFunc("gemm", [a, c], tir.IntrinsicStmt(
        "gemm", declare_gemm_intrin(4), [a], c, [[0, 0]], [0, 0]))
    with pytest.raises(OutOfBoundsError, match="declares 2 operands"):
        verify_func(func)
    with pytest.raises(EvalError, match="declares 2 operands"):
        tir.run_lowered(func, np.ones((4, 4), "float32"),
                        np.zeros((4, 4), "float32"))


def test_fused_tiles_that_cross_a_row_stay_inside_their_buffers():
    """A GPU conv fuses its output rows and columns into one ``(h, w)`` loop
    before tiling it, so one thread's tile of 4 or 9 consecutive positions
    of a 6-wide output can end on the next row.  The compact accumulator
    and the input it fills from must cover every row and column such a
    tile touches: each sampled config of this 6×6 1×1 conv verifies
    clean, and the five whose tiles cross a row compute the reference conv
    in the checked interpreter (before the fix each read
    ``data[0, 0, 0, 6]`` of a ``(1, 8, 6, 6)`` input and the verifier
    rejected it)."""
    from repro.frontend.builder import ModelBuilder
    from repro.graph.op_timing import make_task_for_node
    from repro.hardware.target import create_target
    from repro.topi import reference as ref

    b = ModelBuilder("witness", seed=0)
    out = b.conv2d(b.input("data", (1, 8, 6, 6)), 8, 1, 1, 0, name="op")
    node = b.finalize(out)[0].find("op")
    task = make_task_for_node(node, create_target("cuda"))
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(p.shape).astype("float32")
              for p in node.inputs]
    want = ref.conv2d_nchw(*arrays, node.attrs["strides"],
                           node.attrs["padding"])
    configs = task.config_space.sample(60, random.Random(0))
    crossing = {2933, 4134, 776, 824, 4494}
    assert crossing <= {c.index for c in configs}
    for config in configs:
        func = task.lower(config)
        if config.index in crossing:
            got = np.zeros(node.shape, dtype="float32")
            tir.run_lowered(func, *arrays, got)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5,
                                       err_msg=repr(config))
        verify_func(func)
