"""CPU schedule templates (embedded ARM CPU, paper Section 6.2).

CPU schedules rely on the classic Halide-style primitives: multi-level loop
tiling for the cache hierarchy, ``parallel`` over the outer loops for the
four A53 cores, ``vectorize`` on the innermost contiguous loop for NEON, and
``unroll`` for instruction-level parallelism.  The bit-serial low-precision
template additionally uses ``tensorize`` with a hand-declared micro-kernel
(Section 4.3, Figure 18).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ... import te
from ...autotvm.space import ConfigSpace

__all__ = [
    "conv2d_cpu_template",
    "depthwise_conv2d_cpu_template",
    "dense_cpu_template",
    "bitserial_conv2d_cpu_template",
]


def conv2d_cpu_template(cfg: ConfigSpace, data: te.Tensor, kernel: te.Tensor,
                        conv: te.Tensor) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Tunable direct conv2d for multi-core SIMD CPUs."""
    s = te.create_schedule(conv.op)
    n, f, y, x = s[conv].op.axis
    rc, ry, rx = s[conv].op.reduce_axis

    tile_f = cfg.define_split("tile_f", f.extent_value(), num_outputs=2)
    tile_y = cfg.define_split("tile_y", y.extent_value(), num_outputs=2)
    tile_x = cfg.define_split("tile_x", x.extent_value(), num_outputs=2)
    tile_rc = cfg.define_split("tile_rc", rc.extent_value(), num_outputs=2)
    vectorize = cfg.define_knob("vectorize", [1, 0])
    unroll = cfg.define_knob("unroll_kw", [0, 1])
    parallel = cfg.define_knob("parallel", [1, 0])

    fo, fi = tile_f.apply(s[conv], f)
    yo, yi = tile_y.apply(s[conv], y)
    xo, xi = tile_x.apply(s[conv], x)
    rco, rci = tile_rc.apply(s[conv], rc)
    s[conv].reorder(n, fo, yo, xo, rco, ry, rx, rci, fi, yi, xi)
    if parallel.val:
        s[conv].parallel(fo)
    if vectorize.val and xi.extent_value() >= 2:
        s[conv].vectorize(xi)
    if unroll.val:
        # Register-tile the per-iteration output block: unrolling the inner
        # output-channel loop lets each loaded input value feed several
        # accumulators, as the hand-written NEON kernels do.
        s[conv].unroll(rx)
        if fi.extent_value() <= 16:
            s[conv].unroll(fi)
    return s, [data, kernel, conv]


def depthwise_conv2d_cpu_template(cfg: ConfigSpace, data: te.Tensor, kernel: te.Tensor,
                                  conv: te.Tensor) -> Tuple[te.Schedule, List[te.Tensor]]:
    s = te.create_schedule(conv.op)
    n, c, y, x = s[conv].op.axis
    ry, rx = s[conv].op.reduce_axis

    tile_c = cfg.define_split("tile_c", c.extent_value(), num_outputs=2)
    tile_x = cfg.define_split("tile_x", x.extent_value(), num_outputs=2)
    vectorize = cfg.define_knob("vectorize", [1, 0])
    parallel = cfg.define_knob("parallel", [1, 0])
    unroll = cfg.define_knob("unroll", [1, 0])

    co, ci = tile_c.apply(s[conv], c)
    xo, xi = tile_x.apply(s[conv], x)
    s[conv].reorder(n, co, y, xo, ry, rx, ci, xi)
    if parallel.val:
        s[conv].parallel(co)
    if vectorize.val and xi.extent_value() >= 2:
        s[conv].vectorize(xi)
    if unroll.val:
        s[conv].unroll(rx)
    return s, [data, kernel, conv]


def dense_cpu_template(cfg: ConfigSpace, data: te.Tensor, weight: te.Tensor,
                       out: te.Tensor) -> Tuple[te.Schedule, List[te.Tensor]]:
    s = te.create_schedule(out.op)
    i, j = s[out].op.axis
    k = s[out].op.reduce_axis[0]

    tile_j = cfg.define_split("tile_j", j.extent_value(), num_outputs=2)
    tile_k = cfg.define_split("tile_k", k.extent_value(), num_outputs=2)
    vectorize = cfg.define_knob("vectorize", [1, 0])
    parallel = cfg.define_knob("parallel", [1, 0])

    jo, ji = tile_j.apply(s[out], j)
    ko, ki = tile_k.apply(s[out], k)
    s[out].reorder(i, jo, ko, ki, ji)
    if parallel.val:
        s[out].parallel(jo)
    if vectorize.val and ji.extent_value() >= 2:
        s[out].vectorize(ji)
    return s, [data, weight, out]


# ---------------------------------------------------------------------------
# Ultra low-precision conv2d with a tensorized bit-serial micro-kernel
# ---------------------------------------------------------------------------

def _declare_bitserial_gemv_intrin(length: int) -> te.TensorIntrin:
    """Declare the ARM bit-serial matrix-vector micro-kernel as a tensor
    intrinsic: an AND + popcount reduction over ``length`` packed elements."""
    w = te.placeholder((length,), dtype="int32", name="w_bits")
    x = te.placeholder((length,), dtype="int32", name="x_bits")
    k = te.reduce_axis((0, length), name="k")
    y = te.compute((1,), lambda _i: te.sum(w[k] * x[k], axis=k), name="bitserial_dot")

    def lower_rule(inputs, outputs):
        ww = inputs[0]
        xx = inputs[1]
        zz = outputs[0]
        compute = te.hardware_intrin("arm_bitserial_gemv", ww.name, xx.name, zz.name)
        reset = te.hardware_intrin("fill_zero", zz.name)
        update = te.hardware_intrin("arm_bitserial_gemv_update", ww.name, xx.name, zz.name)
        return compute, reset, update

    return te.decl_tensor_intrin(y.op, lower_rule, name="arm_bitserial_gemv")


def bitserial_conv2d_cpu_template(cfg: ConfigSpace, data: te.Tensor, kernel: te.Tensor,
                                  conv: te.Tensor,
                                  use_tensorize: bool = True,
                                  use_parallel: Optional[bool] = None
                                  ) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Schedule the (already bit-planed) low-precision convolution.

    ``conv`` must be produced by :func:`repro.topi.bitserial.bitserial_conv2d_packed`,
    whose innermost reduction runs over packed bit-plane words; that loop is
    tensorized with the micro-kernel declared above.
    """
    s = te.create_schedule(conv.op)
    n, f, y, x = s[conv].op.axis
    reduce_axes = list(s[conv].op.reduce_axis)

    tile_f = cfg.define_split("tile_f", f.extent_value(), num_outputs=2)
    tile_x = cfg.define_split("tile_x", x.extent_value(), num_outputs=2)
    parallel = cfg.define_knob("parallel", [1, 0])
    if use_parallel is not None:
        parallel_enabled = use_parallel
    else:
        parallel_enabled = bool(parallel.val)

    fo, fi = tile_f.apply(s[conv], f)
    xo, xi = tile_x.apply(s[conv], x)
    s[conv].reorder(n, fo, y, xo, fi, xi, *reduce_axes)
    if parallel_enabled:
        # Parallelise over the fused (channel-outer, row) loop so there is
        # enough work for every core regardless of the tile_f split chosen.
        foy = s[conv].fuse(fo, y)
        s[conv].parallel(foy)
    if use_tensorize and reduce_axes:
        packed_axis = reduce_axes[-1]
        intrin = _declare_bitserial_gemv_intrin(packed_axis.extent_value())
        s[conv].tensorize(packed_axis, intrin)
    return s, [data, kernel, conv]
