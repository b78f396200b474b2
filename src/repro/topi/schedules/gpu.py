"""GPU schedule templates (server-class and mobile GPUs).

These templates encode the paper's GPU optimizations: block/thread tiling
through ``bind``, cooperative fetching of input tiles into ``shared`` memory
(Section 4.2), thread-local accumulators, unrolling and vectorization.  Each
template exposes its tiling and unrolling choices as autotvm knobs.
"""

from __future__ import annotations

from typing import List, Tuple

from ... import te
from ...autotvm.space import ConfigSpace
from ...te.trace import larger, smaller

__all__ = [
    "schedule_matmul_gpu",
    "schedule_injective_gpu",
    "matmul_gpu_template",
    "conv2d_gpu_template",
    "depthwise_conv2d_gpu_template",
    "dense_gpu_template",
]


def _bind_block_thread(stage, fused, num_threads: int):
    """Split a fused spatial loop into (block, thread) and bind both."""
    block, thread = stage.split(fused, factor=num_threads)
    stage.bind(block, te.thread_axis("blockIdx.x"))
    stage.bind(thread, te.thread_axis("threadIdx.x"))
    return block, thread


def schedule_injective_gpu(out: te.Tensor, num_threads: int = 256) -> te.Schedule:
    """Schedule an elementwise/injective operator: flatten and bind."""
    s = te.create_schedule(out.op)
    stage = s[out]
    axes = list(stage.op.axis)
    fused = axes[0]
    for axis in axes[1:]:
        fused = stage.fuse(fused, axis)
    _bind_block_thread(stage, fused, num_threads)
    return s


# ---------------------------------------------------------------------------
# Matrix multiplication (used for Figure 7 and the dense layers)
# ---------------------------------------------------------------------------

def matmul_gpu_template(cfg: ConfigSpace, A: te.Tensor, B: te.Tensor, C: te.Tensor,
                        use_shared: bool = True) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Tunable GPU matmul schedule with optional cooperative shared fetching."""
    s = te.create_schedule(C.op)
    m, n = [int(te.simplify(d).value) for d in C.shape]
    k_extent = int(C.op.reduce_axis[0].extent_value())

    tile_y = cfg.define_split("tile_y", m, num_outputs=3)
    tile_x = cfg.define_split("tile_x", n, num_outputs=3)
    tile_k = cfg.define_split("tile_k", k_extent, num_outputs=2)
    unroll = cfg.define_knob("auto_unroll", [0, 1])

    CL = s.cache_write(C, "local")

    y, x = s[C].op.axis
    by, ty, yi = tile_y.apply(s[C], y)
    bx, tx, xi = tile_x.apply(s[C], x)
    s[C].reorder(by, bx, ty, tx, yi, xi)
    s[C].bind(by, te.thread_axis("blockIdx.y"))
    s[C].bind(bx, te.thread_axis("blockIdx.x"))
    s[C].bind(ty, te.thread_axis("threadIdx.y"))
    s[C].bind(tx, te.thread_axis("threadIdx.x"))

    s[CL].compute_at(s[C], tx)
    k_axis = s[CL].op.reduce_axis[0]
    ko, ki = tile_k.apply(s[CL], k_axis)
    yl, xl = s[CL].op.axis
    s[CL].reorder(ko, ki, yl, xl)
    if unroll.val:
        s[CL].unroll(ki)
        s[CL].unroll(yl)

    if use_shared:
        AS = s.cache_read(A, "shared", [CL])
        BS = s.cache_read(B, "shared", [CL])
        for shared_stage in (AS, BS):
            s[shared_stage].compute_at(s[CL], ko)
            ax0, ax1 = s[shared_stage].op.axis
            fused = s[shared_stage].fuse(ax0, ax1)
            tthread = smaller(tile_y.size[1] * tile_x.size[1], 512)
            outer, inner = s[shared_stage].split(fused,
                                                 factor=larger(tthread, 1))
            s[shared_stage].bind(inner, te.thread_axis("threadIdx.x"))
    return s, [A, B, C]


def schedule_matmul_gpu(A: te.Tensor, B: te.Tensor, C: te.Tensor,
                        use_shared: bool = True,
                        tile: int = 8, threads: int = 8) -> te.Schedule:
    """Fixed (non-tuned) GPU matmul schedule used by examples and baselines."""
    cfg = ConfigSpace()
    m, n = [int(te.simplify(d).value) for d in C.shape]
    k_extent = int(C.op.reduce_axis[0].extent_value())
    cfg.define_split("tile_y", m, num_outputs=3,
                     candidate_sizes=[[max(m // (tile * threads), 1), threads, tile]])
    cfg.define_split("tile_x", n, num_outputs=3,
                     candidate_sizes=[[max(n // (tile * threads), 1), threads, tile]])
    cfg.define_split("tile_k", k_extent, num_outputs=2,
                     candidate_sizes=[[max(k_extent // 8, 1), min(8, k_extent)]])
    cfg.define_knob("auto_unroll", [1])
    s, _ = matmul_gpu_template(cfg, A, B, C, use_shared=use_shared)
    return s


# ---------------------------------------------------------------------------
# conv2d (direct) — Figure 15 / Figure 14 workloads
# ---------------------------------------------------------------------------

def conv2d_gpu_template(cfg: ConfigSpace, data: te.Tensor, kernel: te.Tensor,
                        conv: te.Tensor) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Tunable direct conv2d schedule for GPUs.

    Output channels and spatial positions are tiled over (block, thread,
    inner) loops; the padded input and the weights are cooperatively staged
    into shared memory at the outer reduction loop.
    """
    s = te.create_schedule(conv.op)
    n, f, y, x = s[conv].op.axis
    out_channels = f.extent_value()
    out_h = y.extent_value()
    out_w = x.extent_value()
    rc, ry, rx = s[conv].op.reduce_axis

    tile_f = cfg.define_split("tile_f", out_channels, num_outputs=3)
    tile_yx = cfg.define_split("tile_yx", out_h * out_w, num_outputs=3)
    tile_rc = cfg.define_split("tile_rc", rc.extent_value(), num_outputs=2)
    unroll = cfg.define_knob("auto_unroll", [0, 1])
    use_shared = cfg.define_knob("use_shared", [1, 0])

    # Keep the padding stage as a separate (fused-in by the graph pass later)
    # producer; find it among the inputs.
    # The padded-input producer keeps "_pad" in its (uniquified) name,
    # e.g. "conv2d_pad" or "conv2d_pad_3".
    pad_tensor = None
    for inp in conv.op.input_tensors():
        if "_pad" in inp.op.name:
            pad_tensor = inp

    OL = s.cache_write(conv, "local")

    # cache_write rewrites the output stage into a copy with fresh axes.
    n, f, y, x = s[conv].op.axis
    bf, tf, fi = tile_f.apply(s[conv], f)
    yx = s[conv].fuse(y, x)
    byx, tyx, yxi = tile_yx.apply(s[conv], yx)
    s[conv].reorder(n, bf, byx, tf, tyx, fi, yxi)
    s[conv].bind(bf, te.thread_axis("blockIdx.y"))
    s[conv].bind(byx, te.thread_axis("blockIdx.x"))
    s[conv].bind(tf, te.thread_axis("threadIdx.y"))
    s[conv].bind(tyx, te.thread_axis("threadIdx.x"))

    s[OL].compute_at(s[conv], tyx)
    rc_axis, ry_axis, rx_axis = s[OL].op.reduce_axis
    rco, rci = tile_rc.apply(s[OL], rc_axis)
    ol_axes = list(s[OL].op.axis)
    s[OL].reorder(rco, ry_axis, rx_axis, rci, *ol_axes[1:])
    if unroll.val:
        # Fully unroll the per-thread output tile (register tiling) so every
        # staged input value is reused across the unrolled output loops.
        s[OL].unroll(rci)
        for axis in ol_axes[1:]:
            s[OL].unroll(axis)

    if use_shared.val:
        readers = [OL]
        sources = [kernel] if pad_tensor is None else [pad_tensor, kernel]
        threads = larger(tile_f.size[1] * tile_yx.size[1], 1)
        for source in sources:
            cache = s.cache_read(source, "shared", readers)
            s[cache].compute_at(s[OL], rco)
            axes = list(s[cache].op.axis)
            fused = axes[0]
            for axis in axes[1:]:
                fused = s[cache].fuse(fused, axis)
            outer, inner = s[cache].split(fused, factor=smaller(threads, 256))
            s[cache].bind(inner, te.thread_axis("threadIdx.x"))
    return s, [data, kernel, conv]


# ---------------------------------------------------------------------------
# depthwise conv2d
# ---------------------------------------------------------------------------

def depthwise_conv2d_gpu_template(cfg: ConfigSpace, data: te.Tensor, kernel: te.Tensor,
                                  conv: te.Tensor) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Tunable depthwise conv2d schedule: channel/spatial tiling, no reduction
    over channels so shared-memory staging is per-channel."""
    s = te.create_schedule(conv.op)
    n, c, y, x = s[conv].op.axis
    channels = c.extent_value()
    out_h = y.extent_value()
    out_w = x.extent_value()

    tile_c = cfg.define_split("tile_c", channels, num_outputs=3)
    tile_yx = cfg.define_split("tile_yx", out_h * out_w, num_outputs=3)
    unroll = cfg.define_knob("auto_unroll", [0, 1])

    OL = s.cache_write(conv, "local")

    n, c, y, x = s[conv].op.axis
    bc, tc, ci = tile_c.apply(s[conv], c)
    yx = s[conv].fuse(y, x)
    byx, tyx, yxi = tile_yx.apply(s[conv], yx)
    s[conv].reorder(n, bc, byx, tc, tyx, ci, yxi)
    s[conv].bind(bc, te.thread_axis("blockIdx.y"))
    s[conv].bind(byx, te.thread_axis("blockIdx.x"))
    s[conv].bind(tc, te.thread_axis("threadIdx.y"))
    s[conv].bind(tyx, te.thread_axis("threadIdx.x"))

    s[OL].compute_at(s[conv], tyx)
    ry_axis, rx_axis = s[OL].op.reduce_axis
    if unroll.val:
        s[OL].unroll(ry_axis)
        s[OL].unroll(rx_axis)
    return s, [data, kernel, conv]


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_gpu_template(cfg: ConfigSpace, data: te.Tensor, weight: te.Tensor,
                       out: te.Tensor) -> Tuple[te.Schedule, List[te.Tensor]]:
    s = te.create_schedule(out.op)
    i, j = s[out].op.axis
    out_dim = j.extent_value()
    k_extent = int(s[out].op.reduce_axis[0].extent_value())

    tile_j = cfg.define_split("tile_j", out_dim, num_outputs=3)
    tile_k = cfg.define_split("tile_k", k_extent, num_outputs=2)
    unroll = cfg.define_knob("auto_unroll", [0, 1])

    OL = s.cache_write(out, "local")
    i, j = s[out].op.axis
    bj, tj, ji = tile_j.apply(s[out], j)
    s[out].reorder(i, bj, tj, ji)
    s[out].bind(bj, te.thread_axis("blockIdx.x"))
    s[out].bind(tj, te.thread_axis("threadIdx.x"))
    s[OL].compute_at(s[out], tj)
    ko, ki = tile_k.apply(s[OL], s[OL].op.reduce_axis[0])
    if unroll.val:
        s[OL].unroll(ki)
    WS = s.cache_read(weight, "shared", [OL])
    s[WS].compute_at(s[OL], ko)
    return s, [data, weight, out]
