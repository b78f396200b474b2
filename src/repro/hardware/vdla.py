"""Vanilla Deep Learning Accelerator (VDLA) simulator (paper Section 6.4).

The VDLA is the paper's minimalist TPU-like accelerator: a tensor processor
with a GEMM core, explicitly managed on-chip memories (input / weight /
accumulator buffers and a micro-op SRAM), and a decoupled access-execute
(DAE) pipeline whose load, execute and store stages synchronise through
explicit dependence-token queues (Figures 9 and 20).

This module provides two layers:

* :func:`build_instruction_trace` — walks a lowered loop program and emits a
  per-pipeline-iteration instruction trace (LOAD / EXECUTE / STORE micro-ops
  with cycle costs derived from the data they move / compute).
* :class:`VDLAAccelerator` — an event-driven simulator of the DAE pipeline.
  With latency hiding (virtual threads → interleaved instruction stream with
  dependence tokens) the load and execute units overlap; without it the
  pipeline degenerates to the monolithic serial execution of Figure 9's left
  side.  Peak-utilisation numbers comparable to the paper's roofline
  (Figure 10) fall out of the simulation rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tir.analysis import ProgramFeatures, extract_features
from ..tir.stmt import (
    Allocate,
    AttrStmt,
    Barrier,
    BufferStore,
    DepPop,
    DepPush,
    Evaluate,
    For,
    IfThenElse,
    IntrinsicStmt,
    LoweredFunc,
    SeqStmt,
    Stmt,
    dtype_bytes,
)
from .base import HardwareModel, HardwareParams

__all__ = [
    "VDLAParams",
    "VDLAInstruction",
    "VDLAAccelerator",
    "build_instruction_trace",
    "pynq_vdla_params",
]


@dataclass
class VDLAParams(HardwareParams):
    """VDLA configuration matching the paper's PYNQ prototype."""

    frequency: float = 200e6
    gemm_rows: int = 16
    gemm_cols: int = 16
    #: multiply-accumulates retired per cycle by the GEMM core
    macs_per_cycle: int = 256
    #: DRAM <-> SRAM DMA bandwidth in bytes per cycle
    dma_bytes_per_cycle: float = 8.0
    inp_buffer_bytes: float = 32 << 10
    wgt_buffer_bytes: float = 32 << 10
    acc_buffer_bytes: float = 128 << 10
    uop_buffer_bytes: float = 32 << 10
    #: fixed overhead cycles per instruction (decode + queue management)
    instruction_overhead: float = 4.0


def pynq_vdla_params() -> VDLAParams:
    """The paper's PYNQ-board VDLA: 16x16 GEMM @ 200 MHz, ~102.4 GOPS peak."""
    return VDLAParams(
        name="vdla-pynq",
        frequency=200e6,
        peak_flops=102.4e9,
        dram_bandwidth=1.6e9,
        onchip_bandwidth=12.8e9,
        launch_overhead=1e-4,
        noise_std=0.02,
    )


@dataclass
class VDLAInstruction:
    """One micro-op in the accelerator's instruction stream."""

    stage: str                 # "ld" | "ex" | "st"
    cycles: float
    vthread: int = 0
    pushes: List[str] = field(default_factory=list)   # stages to notify
    pops: List[str] = field(default_factory=list)     # stages to wait on

    def __repr__(self) -> str:
        return f"{self.stage}({self.cycles:.0f}cyc, vt{self.vthread})"


def _classify_store(store: BufferStore) -> Optional[str]:
    scope = store.buffer.scope
    if scope in ("inp_buffer", "wgt_buffer"):
        return "ld"
    if scope in ("acc_buffer", "local"):
        return "ex"
    if scope == "global":
        return "st"
    return None


def build_instruction_trace(func: LoweredFunc, params: Optional[VDLAParams] = None,
                            max_unroll: int = 4096) -> List[VDLAInstruction]:
    """Flatten a lowered program into a VDLA instruction trace.

    Loops are unrolled up to ``max_unroll`` total iterations; beyond that the
    trace is truncated and the caller scales the simulated time (steady-state
    pipelines repeat the same pattern, so truncation preserves behaviour).
    """
    params = params or VDLAParams()
    trace: List[VDLAInstruction] = []
    vthread_of: List[int] = [0]

    def data_bytes(store: BufferStore, trip: float) -> float:
        return trip * dtype_bytes(store.buffer.dtype)

    def emit(stage: str, cycles: float) -> None:
        trace.append(VDLAInstruction(stage, cycles + params.instruction_overhead,
                                     vthread=vthread_of[-1]))

    def walk(stmt: Stmt, trip: float) -> None:
        if len(trace) >= max_unroll:
            return
        if isinstance(stmt, SeqStmt):
            for sub in stmt.stmts:
                walk(sub, trip)
            return
        if isinstance(stmt, For):
            try:
                extent = stmt.extent_value()
            except ValueError:
                extent = 1
            # A loop nest that only copies data into one pipeline stage's
            # buffers is a single DMA transfer (the paper's dma_copy2d /
            # fill_zero micro-ops), not one instruction per element.
            copy = _copy_loop_summary(stmt)
            if copy is not None:
                stage, elements, elem_bytes = copy
                if stage in ("ld", "st"):
                    emit(stage, elements * elem_bytes / params.dma_bytes_per_cycle)
                else:
                    emit(stage, elements / max(params.macs_per_cycle, 1.0))
                return
            body_instrs = _count_pipeline_ops(stmt.body)
            if body_instrs == 0:
                return
            # Unroll pipeline loops so the DAE simulator sees the real stream;
            # cap the expansion and let the caller scale the result.
            iterations = extent
            if len(trace) + iterations * body_instrs > max_unroll:
                iterations = max(1, (max_unroll - len(trace)) // max(body_instrs, 1))
            for _ in range(int(iterations)):
                walk(stmt.body, trip)
            if iterations < extent:
                # Record truncation by a scaling marker instruction.
                pass
            return
        if isinstance(stmt, IfThenElse):
            walk(stmt.then_body, trip)
            if stmt.else_body is not None:
                walk(stmt.else_body, trip)
            return
        if isinstance(stmt, (Allocate,)):
            walk(stmt.body, trip)
            return
        if isinstance(stmt, AttrStmt):
            if stmt.key == "vthread_instance":
                vthread_of.append(int(stmt.value))
                walk(stmt.body, trip)
                vthread_of.pop()
            else:
                walk(stmt.body, trip)
            return
        if isinstance(stmt, BufferStore):
            stage = _classify_store(stmt)
            if stage is None:
                return
            bytes_moved = data_bytes(stmt, 1.0)
            if stage in ("ld", "st"):
                emit(stage, bytes_moved / params.dma_bytes_per_cycle)
            else:
                emit(stage, 1.0)
            return
        if isinstance(stmt, IntrinsicStmt):
            macs = stmt.intrin.flop / 2.0
            emit("ex", macs / params.macs_per_cycle)
            return
        if isinstance(stmt, DepPush):
            if trace:
                trace[-1].pushes.append(f"{stmt.from_stage}->{stmt.to_stage}")
            return
        if isinstance(stmt, DepPop):
            # The pop attaches to the *next* instruction; mark it pending.
            trace.append(VDLAInstruction("pending_pop", 0.0,
                                         pops=[f"{stmt.from_stage}->{stmt.to_stage}"]))
            return
        if isinstance(stmt, (Barrier, Evaluate)):
            return

    walk(func.body, 1.0)

    # Fold the pending_pop markers into the instruction that follows them.
    folded: List[VDLAInstruction] = []
    pending: List[str] = []
    for instr in trace:
        if instr.stage == "pending_pop":
            pending.extend(instr.pops)
            continue
        if pending:
            instr.pops.extend(pending)
            pending = []
        folded.append(instr)
    return folded


def _copy_loop_summary(loop: For) -> Optional[Tuple[str, float, float]]:
    """If ``loop`` is a pure copy/initialisation nest feeding one pipeline
    stage, return ``(stage, total_elements, element_bytes)``; else ``None``.

    Such nests correspond to single DMA / fill micro-ops on the accelerator
    (Figure 5's ``vdla.dma_copy2d`` and ``vdla.fill_zero``), so the trace
    builder emits one instruction for the whole nest.
    """
    stages: set = set()
    elem_bytes: List[float] = []
    elements = [0.0]

    def scan(stmt: Stmt, trip: float) -> bool:
        if isinstance(stmt, SeqStmt):
            return all(scan(sub, trip) for sub in stmt.stmts)
        if isinstance(stmt, For):
            try:
                extent = stmt.extent_value()
            except ValueError:
                extent = 1
            return scan(stmt.body, trip * max(extent, 1))
        if isinstance(stmt, IfThenElse):
            ok = scan(stmt.then_body, trip)
            if stmt.else_body is not None:
                ok = ok and scan(stmt.else_body, trip)
            return ok
        if isinstance(stmt, (Allocate, AttrStmt)):
            return scan(stmt.body, trip)
        if isinstance(stmt, BufferStore):
            stage = _classify_store(stmt)
            if stage is None:
                return False
            stages.add(stage)
            elements[0] += trip
            elem_bytes.append(dtype_bytes(stmt.buffer.dtype))
            return True
        if isinstance(stmt, (Barrier, Evaluate)):
            return True
        return False  # intrinsics / dependence tokens end the copy pattern

    try:
        extent = loop.extent_value()
    except ValueError:
        extent = 1
    if not scan(loop.body, float(max(extent, 1))):
        return None
    if len(stages) != 1 or not elements[0]:
        return None
    return next(iter(stages)), elements[0], max(elem_bytes)


def _count_pipeline_ops(stmt: Stmt) -> int:
    count = 0
    stack = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (BufferStore, IntrinsicStmt)):
            count += 1
        if isinstance(node, SeqStmt):
            stack.extend(node.stmts)
        elif isinstance(node, For):
            stack.append(node.body)
        elif isinstance(node, IfThenElse):
            stack.append(node.then_body)
            if node.else_body is not None:
                stack.append(node.else_body)
        elif isinstance(node, (Allocate, AttrStmt)):
            stack.append(node.body)
    return count


@dataclass
class PipelineResult:
    """Outcome of a DAE pipeline simulation."""

    total_cycles: float
    busy_cycles: Dict[str, float]
    instructions: int

    def utilization(self, stage: str = "ex") -> float:
        if self.total_cycles <= 0:
            return 0.0
        return min(self.busy_cycles.get(stage, 0.0) / self.total_cycles, 1.0)


class VDLAAccelerator(HardwareModel):
    """Event-driven decoupled access-execute pipeline simulator."""

    device_type = "vdla"

    def __init__(self, params: Optional[VDLAParams] = None):
        super().__init__(params or pynq_vdla_params())
        self.vdla: VDLAParams = self.params  # type: ignore[assignment]

    # ------------------------------------------------------------------ pipeline
    def simulate_trace(self, trace: Sequence[VDLAInstruction],
                       latency_hiding: bool = True) -> PipelineResult:
        """Simulate the instruction trace through the ld/ex/st pipeline.

        With ``latency_hiding`` each functional unit consumes its own
        instruction queue and only waits when an explicit dependence token
        forces it to; without it, instructions execute strictly in program
        order (monolithic pipeline).
        """
        units = {"ld": 0.0, "ex": 0.0, "st": 0.0}
        busy = {"ld": 0.0, "ex": 0.0, "st": 0.0}
        if not trace:
            return PipelineResult(0.0, busy, 0)

        if not latency_hiding:
            clock = 0.0
            for instr in trace:
                if instr.stage not in units:
                    continue
                clock += instr.cycles
                busy[instr.stage] += instr.cycles
            return PipelineResult(clock, busy, len(trace))

        # Token queues: completion times of pushed tokens per edge.
        tokens: Dict[str, List[float]] = {}
        for instr in trace:
            if instr.stage not in units:
                continue
            unit_free = units[instr.stage]
            start = unit_free
            for edge in instr.pops:
                # Wait for the producer's token if one is available, otherwise
                # the dependence is unsatisfiable in-order and we serialise.
                queue = tokens.get(edge, [])
                if queue:
                    start = max(start, queue.pop(0))
                else:
                    start = max(start, max(units.values()))
            finish = start + instr.cycles
            units[instr.stage] = finish
            busy[instr.stage] += instr.cycles
            for edge in instr.pushes:
                tokens.setdefault(edge, []).append(finish)
        total = max(units.values())
        return PipelineResult(total, busy, len(trace))

    # ------------------------------------------------------------------ model
    def estimate(self, features: ProgramFeatures) -> float:
        """Feature-level fallback estimate (used by the generic tuner path)."""
        vdla = self.vdla
        macs = (features.intrinsic_flops + features.flops) / 2.0
        compute_cycles = macs / vdla.macs_per_cycle
        dma_bytes = features.bytes_in_scope("global")
        dma_cycles = dma_bytes / vdla.dma_bytes_per_cycle
        overlap = features.vthread_extent > 1 or features.dep_token_count > 0
        if overlap:
            cycles = max(compute_cycles, dma_cycles) * 1.08
        else:
            cycles = compute_cycles + dma_cycles
        cycles += features.intrinsic_calls * vdla.instruction_overhead
        return cycles / vdla.frequency + vdla.launch_overhead

    def estimate_func(self, func: LoweredFunc, latency_hiding: Optional[bool] = None) -> float:
        """Cycle-level estimate by simulating the lowered program's trace."""
        features = extract_features(func)
        trace = build_instruction_trace(func, self.vdla)
        if latency_hiding is None:
            latency_hiding = features.vthread_extent > 1 or features.dep_token_count > 0
        result = self.simulate_trace(trace, latency_hiding=latency_hiding)
        simulated_ops = max(result.busy_cycles.get("ex", 0.0), 1.0)
        # Scale up if the trace was truncated: compare simulated compute work
        # against the program's total work.
        total_compute_cycles = (features.intrinsic_flops + features.flops) / 2.0 \
            / self.vdla.macs_per_cycle
        scale = max(total_compute_cycles / simulated_ops, 1.0)
        cycles = result.total_cycles * scale
        return cycles / self.vdla.frequency + self.vdla.launch_overhead

    def compute_utilization(self, func: LoweredFunc, latency_hiding: bool = True) -> float:
        """Fraction of peak compute achieved (Figure 10's utilisation numbers)."""
        features = extract_features(func)
        time = self.estimate_func(func, latency_hiding=latency_hiding)
        ops = features.intrinsic_flops + features.flops
        peak_ops = self.vdla.peak_flops * time
        if peak_ops <= 0:
            return 0.0
        return min(ops / peak_ops, 1.0)
