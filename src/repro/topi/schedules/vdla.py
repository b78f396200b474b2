"""VDLA accelerator schedule templates (paper Sections 4.3, 4.4 and 6.4).

Accelerator schedules use the two TVM-specific primitives the paper
introduces for TPU-like hardware: ``tensorize`` (mapping a 16x16x16 block of
the computation onto the GEMM core) and virtual threading (exposing pipeline
parallelism that the DAE hardware recovers through explicit dependence
tokens).  Operands are staged through the accelerator's specialised memory
scopes (``inp_buffer`` / ``wgt_buffer`` / ``acc_buffer``).
"""

from __future__ import annotations

from typing import List, Tuple

from ... import te
from ...autotvm.space import ConfigSpace

__all__ = ["declare_gemm_intrin", "gemm_vdla_template", "schedule_gemm_vdla",
           "conv2d_as_gemm_workload"]


def declare_gemm_intrin(size: int = 16) -> te.TensorIntrin:
    """Declare the VDLA ``gemm16x16`` tensor intrinsic (Figure 5's vdla.gemm8x8,
    scaled to the PYNQ prototype's 16x16 unit)."""
    a = te.placeholder((size, size), name="a_tile")
    b = te.placeholder((size, size), name="b_tile")
    k = te.reduce_axis((0, size), name="k")
    c = te.compute((size, size),
                   lambda i, j: te.sum(a[i, k] * b[k, j], axis=k),
                   name="gemm_tile")
    return te.decl_tensor_intrin(c.op, name=f"vdla_gemm{size}x{size}")


def conv2d_as_gemm_workload(batch: int, in_channels: int, height: int, width: int,
                            out_channels: int, kernel: int, stride: int,
                            padding: int) -> Tuple[int, int, int]:
    """Map a conv2d layer to the (M, N, K) GEMM the VDLA executes.

    The accelerator consumes convolutions in an im2col-style blocked layout
    (the paper's "blocked 3-dimensional tensors"); the equivalent GEMM has
    M = output channels, N = output pixels, K = in_channels * kernel^2.
    """
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    m = out_channels
    n = batch * out_h * out_w
    k = in_channels * kernel * kernel
    return m, n, k


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def gemm_vdla_template(cfg: ConfigSpace, m: int, n: int, k: int,
                       tile: int = 16,
                       acc_buffer_bytes: int = 128 << 10
                       ) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Tunable GEMM schedule for the VDLA.

    The output is blocked into ``(row_block x col_block)`` macro-tiles that
    live in the 128 kB accumulator buffer; for each reduction step a
    ``tile x col_block`` slice of the data matrix and a ``row_block x tile``
    slice of the weights are DMA-ed into the on-chip input/weight buffers and
    consumed by tensorized 16x16x16 GEMM-core invocations.  Large column
    blocks are what give the accelerator its operand reuse; virtual threads
    over the column-block loop expose pipeline parallelism for latency hiding
    (Section 4.4).
    """
    m_pad, n_pad, k_pad = (_round_up(m, tile), _round_up(n, tile), _round_up(k, tile))
    A = te.placeholder((m_pad, k_pad), name="A", dtype="int8")
    B = te.placeholder((k_pad, n_pad), name="B", dtype="int8")
    kk = te.reduce_axis((0, k_pad), name="k")
    C = te.compute((m_pad, n_pad),
                   lambda i, j: te.sum(A[i, kk] * B[kk, j], axis=kk),
                   name="C", dtype="int32")

    vthreads = cfg.define_knob("vthread", [2, 1, 4])
    row_choice = cfg.define_knob("row_block", [64, 32, 16])

    # Keep the accumulator macro-tile within the on-chip accumulator storage.
    row_block = min(int(row_choice.val), m_pad)
    row_block = max(tile, (row_block // tile) * tile)
    max_cols = max(tile, (acc_buffer_bytes // (4 * row_block) // tile) * tile)
    col_block = min(n_pad, max_cols)

    s = te.create_schedule(C.op)
    CL = s.cache_write(C, "acc_buffer")
    AL = s.cache_read(A, "wgt_buffer", [CL])   # weights
    BL = s.cache_read(B, "inp_buffer", [CL])   # im2col activations

    i, j = s[C].op.axis
    io, ii = s[C].split(i, factor=row_block)
    jo, ji = s[C].split(j, factor=col_block)
    s[C].reorder(io, jo, ii, ji)

    num_vthreads = int(vthreads.val)
    if num_vthreads > 1 and jo.extent_value() >= num_vthreads:
        jv, jo = s[C].split(jo, nparts=num_vthreads)
        s[C].bind(jv, te.thread_axis("vthread"))
        s[C].reorder(io, jv, jo, ii, ji)
    attach_axis = jo

    s[CL].compute_at(s[C], attach_axis)
    k_axis = s[CL].op.reduce_axis[0]
    ko, ki = s[CL].split(k_axis, factor=tile)
    yl, xl = s[CL].op.axis
    ylo, yli = s[CL].split(yl, factor=tile)
    xlo, xli = s[CL].split(xl, factor=tile)
    s[CL].reorder(ko, ylo, xlo, yli, xli, ki)
    s[AL].compute_at(s[CL], ko)
    s[BL].compute_at(s[CL], ko)

    intrin = declare_gemm_intrin(tile)
    s[CL].tensorize(yli, intrin)
    return s, [A, B, C]


def schedule_gemm_vdla(m: int, n: int, k: int, vthreads: int = 2,
                       tile: int = 16) -> Tuple[te.Schedule, List[te.Tensor]]:
    """Fixed VDLA GEMM schedule with an explicit virtual-thread count."""
    cfg = ConfigSpace()
    cfg.define_knob("vthread", [vthreads])
    cfg.define_split("tile_n", max(_round_up(n, tile) // tile, 1), num_outputs=2)
    return gemm_vdla_template(cfg, m, n, k, tile)
