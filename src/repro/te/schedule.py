"""Schedules and schedule primitives (Section 4 of the paper).

A :class:`Schedule` owns one :class:`Stage` per operation in the dataflow
graph rooted at the output tensors.  Stages are transformed incrementally by
schedule primitives — ``split``, ``tile``, ``reorder``, ``fuse``, ``bind``,
``compute_at``, ``cache_read``, ``cache_write``, ``set_scope``,
``vectorize``, ``unroll``, ``parallel``, ``tensorize`` and
virtual threading — each of which preserves the program's logical semantics
while changing the loop structure that lowering will generate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .expr import (
    Expr,
    ExprMutator,
    IntImm,
    Range,
    Reduce,
    TensorRead,
    Var,
    as_expr,
    simplify,
)
from .intrin import TensorIntrin
from .trace import SymInt
from .tensor import ComputeOp, IterVar, IterVarType, Operation, PlaceholderOp, Tensor

__all__ = [
    "Schedule",
    "Stage",
    "SplitRelation",
    "FuseRelation",
    "create_schedule",
    "MEMORY_SCOPES",
]

#: Memory scopes understood by the lowering pipeline and hardware models.
#: ``global`` is off-chip memory; ``shared`` is the GPU cooperative scope;
#: ``local`` is per-thread registers; the remaining scopes model the VDLA
#: accelerator's specialised on-chip buffers (Section 6.4).
MEMORY_SCOPES = (
    "global",
    "shared",
    "local",
    "warp",
    "acc_buffer",
    "inp_buffer",
    "wgt_buffer",
)


class SplitRelation:
    """Records ``parent -> (outer, inner)`` loop splitting."""

    def __init__(self, parent: IterVar, outer: IterVar, inner: IterVar, factor: int):
        self.parent = parent
        self.outer = outer
        self.inner = inner
        self.factor = factor

    def __repr__(self) -> str:
        return f"split({self.parent.name} -> {self.outer.name}, {self.inner.name}, factor={self.factor})"


class FuseRelation:
    """Records ``(outer, inner) -> fused`` loop fusion."""

    def __init__(self, outer: IterVar, inner: IterVar, fused: IterVar, inner_extent: int):
        self.outer = outer
        self.inner = inner
        self.fused = fused
        self.inner_extent = inner_extent

    def __repr__(self) -> str:
        return f"fuse({self.outer.name}, {self.inner.name} -> {self.fused.name})"


class Stage:
    """Schedule state for one operation."""

    def __init__(self, op: Operation):
        self.op = op
        self.relations: List[object] = []
        self.iter_var_attrs: Dict[IterVar, Dict[str, object]] = {}
        self.attach_type = "root"  # root | inline | scope
        self.attach_stage: Optional["Stage"] = None
        self.attach_ivar: Optional[IterVar] = None
        self.scope = "global"
        self.tensorize_map: Dict[IterVar, TensorIntrin] = {}
        self.is_output = False
        if isinstance(op, ComputeOp):
            self.leaf_iter_vars: List[IterVar] = list(op.axis) + list(op.reduce_axis)
            self.all_iter_vars: List[IterVar] = list(self.leaf_iter_vars)
        else:
            self.leaf_iter_vars = []
            self.all_iter_vars = []

    # -- introspection -------------------------------------------------------
    @property
    def name(self) -> str:
        return self.op.name

    def __repr__(self) -> str:
        leaves = ", ".join(iv.name for iv in self.leaf_iter_vars)
        return f"Stage({self.name}: [{leaves}], scope={self.scope})"

    def _attrs(self, ivar: IterVar) -> Dict[str, object]:
        return self.iter_var_attrs.setdefault(ivar, {})

    def _check_leaf(self, ivar: IterVar) -> None:
        if ivar not in self.leaf_iter_vars:
            raise ValueError(f"{ivar!r} is not a leaf iter var of stage {self.name}")

    # -- loop structure primitives --------------------------------------------
    def split(self, ivar: IterVar, factor: Optional[int] = None,
              nparts: Optional[int] = None) -> Tuple[IterVar, IterVar]:
        """Split ``ivar`` into an outer/inner pair by ``factor`` or ``nparts``."""
        self._check_leaf(ivar)
        extent = ivar.extent_value()
        if factor is None and nparts is None:
            raise ValueError("split requires either factor or nparts")
        if factor is None:
            factor = max(1, -(-extent // nparts))
        if type(factor) is not SymInt:
            factor = int(factor)
        if factor <= 0:
            raise ValueError("split factor must be positive")
        outer_extent = -(-extent // factor)
        outer = IterVar(Range.from_extent(outer_extent), f"{ivar.name}.outer", ivar.iter_type)
        inner = IterVar(Range.from_extent(factor), f"{ivar.name}.inner", ivar.iter_type)
        relation = SplitRelation(ivar, outer, inner, factor)
        self.relations.append(relation)
        idx = self.leaf_iter_vars.index(ivar)
        self.leaf_iter_vars[idx:idx + 1] = [outer, inner]
        self.all_iter_vars.extend([outer, inner])
        return outer, inner

    def tile(self, x: IterVar, y: IterVar, x_factor: int,
             y_factor: int) -> Tuple[IterVar, IterVar, IterVar, IterVar]:
        """Two-dimensional tiling; returns ``(xo, yo, xi, yi)``."""
        xo, xi = self.split(x, factor=x_factor)
        yo, yi = self.split(y, factor=y_factor)
        self.reorder(xo, yo, xi, yi)
        return xo, yo, xi, yi

    def fuse(self, outer: IterVar, inner: IterVar) -> IterVar:
        """Fuse two adjacent loops into one."""
        self._check_leaf(outer)
        self._check_leaf(inner)
        o_idx = self.leaf_iter_vars.index(outer)
        i_idx = self.leaf_iter_vars.index(inner)
        if i_idx != o_idx + 1:
            raise ValueError("fuse requires the two loops to be adjacent (outer then inner)")
        inner_extent = inner.extent_value()
        fused_extent = outer.extent_value() * inner_extent
        fused = IterVar(Range.from_extent(fused_extent),
                        f"{outer.name}.{inner.name}.fused", outer.iter_type)
        self.relations.append(FuseRelation(outer, inner, fused, inner_extent))
        self.leaf_iter_vars[o_idx:i_idx + 1] = [fused]
        self.all_iter_vars.append(fused)
        return fused

    def reorder(self, *ivars: IterVar) -> None:
        """Reorder the listed loops (others keep their relative position)."""
        for ivar in ivars:
            self._check_leaf(ivar)
        positions = sorted(self.leaf_iter_vars.index(iv) for iv in ivars)
        for pos, ivar in zip(positions, ivars):
            self.leaf_iter_vars[pos] = ivar

    # -- annotations -----------------------------------------------------------
    def vectorize(self, ivar: IterVar) -> None:
        self._check_leaf(ivar)
        self._attrs(ivar)["annotation"] = "vectorize"

    def unroll(self, ivar: IterVar) -> None:
        self._check_leaf(ivar)
        self._attrs(ivar)["annotation"] = "unroll"

    def parallel(self, ivar: IterVar) -> None:
        self._check_leaf(ivar)
        self._attrs(ivar)["annotation"] = "parallel"

    def bind(self, ivar: IterVar, thread_ivar: IterVar) -> None:
        """Bind a loop to a hardware thread index (or virtual thread)."""
        self._check_leaf(ivar)
        attrs = self._attrs(ivar)
        attrs["bind_thread"] = thread_ivar
        if thread_ivar.iter_type == IterVarType.VIRTUAL_THREAD:
            attrs["annotation"] = "vthread"
        else:
            attrs["annotation"] = "thread_binding"

    def set_scope(self, scope: str) -> None:
        if scope not in MEMORY_SCOPES:
            raise ValueError(f"Unknown memory scope {scope!r}; expected one of {MEMORY_SCOPES}")
        self.scope = scope

    def tensorize(self, ivar: IterVar, intrin: TensorIntrin) -> None:
        """Replace the loop nest rooted at ``ivar`` with a hardware intrinsic."""
        self._check_leaf(ivar)
        self.tensorize_map[ivar] = intrin
        self._attrs(ivar)["annotation"] = "tensorize"

    # -- compute placement -----------------------------------------------------
    def compute_at(self, parent: "Stage", ivar: IterVar) -> None:
        """Attach this stage's computation inside ``parent`` at loop ``ivar``."""
        parent._check_leaf(ivar)
        self.attach_type = "scope"
        self.attach_stage = parent
        self.attach_ivar = ivar

    def compute_inline(self) -> None:
        """Inline this stage into its consumers (no separate buffer)."""
        self.attach_type = "inline"

    def compute_root(self) -> None:
        self.attach_type = "root"
        self.attach_stage = None
        self.attach_ivar = None

    # -- queries used by lowering ----------------------------------------------
    def annotation_of(self, ivar: IterVar) -> Optional[str]:
        return self.iter_var_attrs.get(ivar, {}).get("annotation")

    def bound_thread(self, ivar: IterVar) -> Optional[IterVar]:
        return self.iter_var_attrs.get(ivar, {}).get("bind_thread")


class _ReaderRewriter(ExprMutator):
    """Rewrite reads of ``old`` tensor to reads of ``new`` tensor."""

    def __init__(self, old: Tensor, new: Tensor):
        self.old = old
        self.new = new

    def visit_tensorread(self, expr: TensorRead) -> Expr:
        indices = [self.visit(i) for i in expr.indices]
        if isinstance(expr.tensor, Tensor) and expr.tensor == self.old:
            return TensorRead(self.new, indices)
        if all(n is o for n, o in zip(indices, expr.indices)):
            return expr
        return TensorRead(expr.tensor, indices)


class Schedule:
    """A schedule over the dataflow graph rooted at ``outputs``."""

    def __init__(self, outputs: Sequence[Operation]):
        self.outputs = list(outputs)
        self.stage_map: Dict[Operation, Stage] = {}
        self.stage_order: List[Stage] = []
        for op in _topo_order(self.outputs):
            stage = Stage(op)
            if op in self.outputs:
                stage.is_output = True
            self.stage_map[op] = stage
            self.stage_order.append(stage)

    # -- access ----------------------------------------------------------------
    def __getitem__(self, key: Union[Operation, Tensor]) -> Stage:
        op = key.op if isinstance(key, Tensor) else key
        if op not in self.stage_map:
            raise KeyError(f"Operation {op} is not part of this schedule")
        return self.stage_map[op]

    @property
    def stages(self) -> List[Stage]:
        return list(self.stage_order)

    # -- cache stages ------------------------------------------------------------
    def cache_read(self, tensor: Tensor, scope: str,
                   readers: Sequence[Union[Tensor, Operation]]) -> Tensor:
        """Create a cached copy of ``tensor`` in ``scope`` read by ``readers``.

        The cache stage copies the tensor element-by-element; the reader
        operations are rewritten to read from the cache.  The returned tensor
        can then be scheduled (typically ``compute_at`` a consumer loop).
        """
        axis = [IterVar(Range.from_extent(dim), f"ax{idx}")
                for idx, dim in enumerate(tensor.shape)]
        body = TensorRead(tensor, [iv.var for iv in axis])
        cache_op = ComputeOp(f"{tensor.name}.{scope}", axis, body, tensor.shape, tensor.dtype)
        cache_tensor = cache_op.output(0)

        reader_ops = [r.op if isinstance(r, Tensor) else r for r in readers]
        rewriter = _ReaderRewriter(tensor, cache_tensor)
        insert_at = len(self.stage_order)
        for reader_op in reader_ops:
            if not isinstance(reader_op, ComputeOp):
                raise TypeError("cache_read readers must be compute operations")
            reader_op.body = rewriter.visit(reader_op.body)
            insert_at = min(insert_at, self.stage_order.index(self.stage_map[reader_op]))

        stage = Stage(cache_op)
        stage.scope = scope
        self.stage_map[cache_op] = stage
        self.stage_order.insert(insert_at, stage)
        return cache_tensor

    def cache_write(self, tensor: Tensor, scope: str) -> Tensor:
        """Compute ``tensor`` into a cache buffer in ``scope``, then copy out.

        Returns the cache tensor holding the original computation; the
        original stage becomes a copy from the cache to the output buffer.
        """
        op = tensor.op
        if not isinstance(op, ComputeOp):
            raise TypeError("cache_write expects a compute tensor")
        cache_op = ComputeOp(f"{op.name}.{scope}", list(op.axis), op.body,
                             op.shape, op.dtype)
        cache_tensor = cache_op.output(0)

        # The original op becomes a simple copy from the cache with fresh axes.
        new_axis = [IterVar(Range.from_extent(dim), f"c{idx}")
                    for idx, dim in enumerate(op.shape)]
        op.axis = new_axis
        op.body = TensorRead(cache_tensor, [iv.var for iv in new_axis])

        original_stage = self.stage_map[op]
        original_stage.leaf_iter_vars = list(new_axis)
        original_stage.all_iter_vars = list(new_axis)
        original_stage.relations = []
        original_stage.iter_var_attrs = {}

        cache_stage = Stage(cache_op)
        cache_stage.scope = scope
        self.stage_map[cache_op] = cache_stage
        index = self.stage_order.index(original_stage)
        self.stage_order.insert(index, cache_stage)
        return cache_tensor

    def __repr__(self) -> str:
        lines = [f"Schedule({len(self.stage_order)} stages)"]
        for stage in self.stage_order:
            lines.append(f"  {stage!r}")
        return "\n".join(lines)


def _visit_producers_first(op: Operation, visited: Dict[int, bool],
                           order: List[Operation]) -> None:
    if id(op) in visited:
        return
    visited[id(op)] = True
    for tensor in op.input_tensors():
        _visit_producers_first(tensor.op, visited, order)
    order.append(op)


def _topo_order(outputs: Sequence[Operation]) -> List[Operation]:
    """Topological order (producers first) of the ops feeding ``outputs``."""
    order: List[Operation] = []
    visited: Dict[int, bool] = {}
    for op in outputs:
        _visit_producers_first(op, visited, order)
    return order


def create_schedule(ops: Union[Operation, Tensor, Sequence[Union[Operation, Tensor]]]) -> Schedule:
    """Create a schedule for the given output operation(s)."""
    if isinstance(ops, (Operation, Tensor)):
        ops = [ops]
    normalized = [o.op if isinstance(o, Tensor) else o for o in ops]
    return Schedule(normalized)
