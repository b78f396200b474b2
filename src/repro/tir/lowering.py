"""Lowering from scheduled tensor expressions to the loop IR.

This implements the "code lowering" step of Figure 6 in the paper: given a
:class:`~repro.te.schedule.Schedule` and the operator's argument tensors, it
performs bound inference, generates the nested loop structure dictated by the
schedule (splits, reorders, fusions, annotations, thread bindings), realises
cache stages at their ``compute_at`` attachment points with compact buffers,
inserts memory barriers after cooperative (shared scope) stages, and replaces
tensorized loop nests with hardware intrinsic calls.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..te.expr import (
    Expr,
    ExprMutator,
    IntImm,
    Max,
    Reduce,
    TensorRead,
    Var,
    as_expr,
    compile_bounds,
    eval_bounds,
    expr_children,
    simplify,
    simplify_scope,
    substitute,
)
from ..te.schedule import FuseRelation, Schedule, SplitRelation, Stage
from ..te.tensor import ComputeOp, IterVar, IterVarType, PlaceholderOp, Tensor
from .stmt import (
    Allocate,
    AttrStmt,
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    For,
    ForKind,
    IfThenElse,
    IntrinsicStmt,
    LoweredFunc,
    SeqStmt,
    Stmt,
    seq,
)

__all__ = ["lower", "BufferBinding", "LoweringError"]


class LoweringError(RuntimeError):
    """Raised when a schedule cannot be lowered."""


class BufferBinding:
    """Associates a tensor with its backing buffer and per-dim offsets.

    Cache stages attached inside consumer loops get *compact* buffers sized
    to the region the consumer needs; ``offsets`` rebase global tensor
    coordinates into the compact buffer's coordinate system.
    """

    def __init__(self, buffer: Buffer, offsets: Optional[List[Expr]] = None):
        self.buffer = buffer
        self.offsets = offsets

    def rebase(self, indices: List[Expr]) -> List[Expr]:
        if self.offsets is None:
            return indices
        return [simplify(idx - off) for idx, off in zip(indices, self.offsets)]


_ANNOTATION_TO_KIND = {
    None: ForKind.SERIAL,
    "unroll": ForKind.UNROLLED,
    "vectorize": ForKind.VECTORIZED,
    "parallel": ForKind.PARALLEL,
    "thread_binding": ForKind.THREAD_BINDING,
    "vthread": ForKind.VTHREAD,
    "tensorize": ForKind.TENSORIZED,
}


class _Lowerer:
    def __init__(self, schedule: Schedule, args: Sequence[Tensor], name: str):
        self.schedule = schedule
        self.args = list(args)
        self.name = name
        self.bindings: Dict[Tensor, BufferBinding] = {}
        self.allocations: List[Buffer] = []
        self.arg_buffers: List[Buffer] = []
        # stages attached at (stage, itervar uid)
        self.attachments: Dict[Tuple[int, int], List[Stage]] = {}
        self.inline_stages: Dict[Tensor, ComputeOp] = {}
        self._used_names: Dict[str, int] = {}
        # Per attached stage: planned (root_extents, root_offsets) computed in
        # a pre-pass so compact buffers exist before consumer bodies are built.
        self._planned_regions: Dict[int, Tuple[Dict[int, int], Dict[int, Expr]]] = {}
        # Extents of loop vars bound to hardware thread indices; used to relax
        # thread dimensions when sizing cooperatively-filled shared buffers.
        self._thread_ranges: Dict[Var, Tuple[int, int]] = {}

    # ------------------------------------------------------------------ setup
    def run(self) -> LoweredFunc:
        self._bind_arguments()
        self._collect_attachments()
        root_stages: List[Stage] = []
        for stage in self.schedule.stages:
            if not isinstance(stage.op, ComputeOp):
                continue
            if stage.attach_type == "inline":
                self.inline_stages[stage.op.output(0)] = stage.op
                continue
            if stage.attach_type == "scope":
                continue  # generated at its attachment point
            self._ensure_binding(stage)
            root_stages.append(stage)
        # Planning pass: create compact buffers for all attached stages before
        # any consumer body is converted to buffer loads.
        for stage in root_stages:
            self._plan_stage(stage, None, None)
        body_parts = [self._build_stage(stage) for stage in root_stages]
        body = seq(*body_parts)
        return LoweredFunc(self.name, self.arg_buffers, body, self.allocations)

    def _plan_stage(self, stage: Stage,
                    root_extents: Optional[Dict[int, int]],
                    root_offsets: Optional[Dict[int, Expr]]) -> None:
        """Recursively compute required regions of stages attached inside
        ``stage`` and create their (compact) buffer bindings."""
        op = stage.op
        assert isinstance(op, ComputeOp)
        dom_map = self._dom_map(stage, root_extents)
        value_map = self._leaf_value_map(stage, dom_map)
        if root_offsets:
            for axis in op.axis:
                offset = root_offsets.get(axis.uid)
                if offset is not None:
                    value_map[axis.var] = simplify(offset + value_map[axis.var])
        leaf_ranges = {iv.var: (0, dom_map[iv.uid] - 1)
                       for iv in stage.leaf_iter_vars}
        for ivar in stage.leaf_iter_vars:
            bound = stage.bound_thread(ivar)
            if bound is not None and bound.thread_tag.startswith("threadIdx"):
                self._thread_ranges[ivar.var] = (0, dom_map[ivar.uid] - 1)
        for ivar in stage.leaf_iter_vars:
            for producer_stage in self.attachments.get((id(op), ivar.uid), []):
                inner_vars = self._vars_inside(stage, ivar)
                region = self._required_region(producer_stage, stage, inner_vars,
                                               leaf_ranges, value_map)
                self._ensure_binding(producer_stage, region)
                extents = {iv.uid: extent
                           for iv, (_, extent) in zip(producer_stage.op.axis, region)}
                offsets = {iv.uid: offset
                           for iv, (offset, _) in zip(producer_stage.op.axis, region)}
                self._planned_regions[id(producer_stage.op)] = (extents, offsets)
                self._plan_stage(producer_stage, extents, offsets)

    def _unique(self, name: str) -> str:
        count = self._used_names.get(name, 0)
        self._used_names[name] = count + 1
        return name if count == 0 else f"{name}.{count}"

    def _bind_arguments(self) -> None:
        for tensor in self.args:
            shape = tensor.shape_values()
            buffer = Buffer(self._unique(tensor.name), shape, tensor.dtype, "global")
            self.bindings[tensor] = BufferBinding(buffer)
            self.arg_buffers.append(buffer)

    def _collect_attachments(self) -> None:
        for stage in self.schedule.stages:
            if stage.attach_type == "scope":
                if stage.attach_stage is None or stage.attach_ivar is None:
                    raise LoweringError(f"Stage {stage.name} attached without a location")
                key = (id(stage.attach_stage.op), stage.attach_ivar.uid)
                self.attachments.setdefault(key, []).append(stage)

    def _ensure_binding(self, stage: Stage,
                        region: Optional[List[Tuple[Expr, int]]] = None) -> BufferBinding:
        """Create (or return) the buffer binding for a stage's output tensor."""
        tensor = stage.op.output(0)
        if tensor in self.bindings and region is None:
            return self.bindings[tensor]
        if region is None:
            shape = tensor.shape_values()
            offsets = None
        else:
            shape = tuple(extent for _, extent in region)
            offsets = [offset for offset, _ in region]
        buffer = Buffer(self._unique(tensor.name), shape, tensor.dtype, stage.scope)
        binding = BufferBinding(buffer, offsets)
        self.bindings[tensor] = binding
        if not stage.is_output and tensor not in self.args:
            self.allocations.append(buffer)
        return binding

    # ----------------------------------------------------------- value mapping
    @staticmethod
    def _leaf_value_map(stage: Stage, dom_map: Dict[int, int]) -> Dict[Var, Expr]:
        """Map original iter vars to expressions over leaf loop vars."""
        value_map: Dict[Var, Expr] = {iv.var: iv.var for iv in stage.leaf_iter_vars}
        for relation in reversed(stage.relations):
            if isinstance(relation, SplitRelation):
                outer = value_map.get(relation.outer.var, relation.outer.var)
                inner = value_map.get(relation.inner.var, relation.inner.var)
                value_map[relation.parent.var] = simplify(outer * relation.factor + inner)
            elif isinstance(relation, FuseRelation):
                fused = value_map.get(relation.fused.var, relation.fused.var)
                # The inner extent may have been narrowed by region inference
                # when the stage is attached inside a consumer, so read it
                # from the per-lowering domain map rather than the schedule.
                inner_extent = dom_map.get(relation.inner.uid, relation.inner_extent)
                value_map[relation.outer.var] = simplify(fused // inner_extent)
                value_map[relation.inner.var] = simplify(fused % inner_extent)
        return value_map

    @staticmethod
    def _root_axes(stage: Stage) -> List[IterVar]:
        op = stage.op
        assert isinstance(op, ComputeOp)
        return list(op.axis) + list(op.reduce_axis)

    def _dom_map(self, stage: Stage,
                 root_extents: Optional[Dict[int, int]] = None) -> Dict[int, int]:
        """Extent of every iter var of the stage (root and derived)."""
        dom: Dict[int, int] = {}
        for ivar in self._root_axes(stage):
            if root_extents is not None and ivar.uid in root_extents:
                dom[ivar.uid] = root_extents[ivar.uid]
            else:
                dom[ivar.uid] = ivar.extent_value()
        for relation in stage.relations:
            if isinstance(relation, SplitRelation):
                parent = dom[relation.parent.uid]
                dom[relation.outer.uid] = max(1, math.ceil(parent / relation.factor))
                dom[relation.inner.uid] = min(relation.factor, parent)
            elif isinstance(relation, FuseRelation):
                dom[relation.fused.uid] = dom[relation.outer.uid] * dom[relation.inner.uid]
        return dom

    # ----------------------------------------------------------- expr rewriting
    def _convert_expr(self, expr: Expr, value_map: Dict[Var, Expr]) -> Expr:
        """Substitute iter vars and turn tensor reads into buffer loads."""
        expr = substitute(expr, value_map)
        return _ReadConverter(self).visit(expr)

    # ----------------------------------------------------------- stage building
    def _build_stage(self, stage: Stage,
                     root_extents: Optional[Dict[int, int]] = None,
                     root_offsets: Optional[Dict[int, Expr]] = None) -> Stmt:
        """Generate the loop nest for one stage.

        ``root_extents`` and ``root_offsets`` restrict/rebase root axis
        domains when the stage is attached inside a consumer and only a
        sub-region is required.  The stage then computes global coordinates ``offset + local`` while its
        compact buffer is indexed by the local coordinate.
        """
        op = stage.op
        assert isinstance(op, ComputeOp)
        dom_map = self._dom_map(stage, root_extents)
        value_map = self._leaf_value_map(stage, dom_map)

        binding = self.bindings[op.output(0)]
        body_expr = op.body

        # Ranges for this stage's leaf vars (used when computing regions of
        # stages attached inside this one).
        leaf_ranges: Dict[Var, Tuple[int, int]] = {}
        for ivar in stage.leaf_iter_vars:
            leaf_ranges[ivar.var] = (0, dom_map[ivar.uid] - 1)

        # Guard conditions produced by imperfect splits (computed on local
        # coordinates, before region offsets are applied).
        guards: List[Expr] = []
        for relation in stage.relations:
            if isinstance(relation, SplitRelation):
                parent_extent = dom_map[relation.parent.uid]
                if dom_map[relation.outer.uid] * relation.factor > parent_extent:
                    guards.append(value_map[relation.parent.var] < parent_extent)

        # Rebase root spatial axes to global coordinates for attached stages.
        if root_offsets:
            for axis in op.axis:
                offset = root_offsets.get(axis.uid)
                if offset is not None:
                    value_map[axis.var] = simplify(offset + value_map[axis.var])

        is_reduction = isinstance(body_expr, Reduce)
        reduce_uids = {iv.uid for iv in op.reduce_axis}

        # One list for the init store, the accumulator load and the update
        # store: the feature extractor compiles an index's bounds once per
        # node identity.
        axis_indices = binding.rebase([simplify(value_map[iv.var])
                                       for iv in op.axis])

        def make_init() -> Stmt:
            assert isinstance(body_expr, Reduce)
            init_value = (self._convert_expr(body_expr.init, value_map)
                          if body_expr.init is not None
                          else as_expr(float(body_expr.identity)))
            return BufferStore(binding.buffer, axis_indices, init_value)

        def make_update() -> Stmt:
            if is_reduction:
                source = self._convert_expr(body_expr.source, value_map)
                current = BufferLoad(binding.buffer, axis_indices)
                if body_expr.combiner == "sum":
                    value: Expr = current + source
                else:
                    value = Max(current, source)
            else:
                value = self._convert_expr(body_expr, value_map)
            store: Stmt = BufferStore(binding.buffer, axis_indices, value)
            for guard in guards:
                store = IfThenElse(self._convert_expr(guard, value_map), store)
            return store

        def is_reduce_leaf(ivar: IterVar) -> bool:
            return self._derives_from_reduce(stage, ivar, reduce_uids)

        leaves = stage.leaf_iter_vars
        # The loops stop at the first tensorized leaf: an intrinsic replaces
        # the nest from there down.
        depth = next((idx for idx, iv in enumerate(leaves)
                      if iv in stage.tensorize_map), len(leaves))

        # Before entering the first reduction loop, initialise the output
        # over the remaining data-parallel axes (Figure 5's fill-zero).
        init_at = None
        if is_reduction:
            init_at = next((idx for idx in range(depth)
                            if is_reduce_leaf(leaves[idx])), None)
        if init_at is not None:
            init_stmt: Stmt = make_init()
            for guard in guards:
                init_stmt = IfThenElse(self._convert_expr(guard, value_map), init_stmt)
            for iv in reversed([iv for iv in leaves[init_at:]
                                if not is_reduce_leaf(iv)]):
                init_stmt = For(iv.var, 0, dom_map[iv.uid], init_stmt)

        if depth == len(leaves):
            nest = make_update()
        else:
            nest = self._make_intrinsic(stage, depth, value_map, dom_map, binding)
        for idx in range(depth - 1, -1, -1):
            ivar = leaves[idx]
            nest = self._attach_producers(stage, ivar, nest, leaf_ranges, value_map)
            annotation = stage.annotation_of(ivar)
            kind = _ANNOTATION_TO_KIND.get(annotation, ForKind.SERIAL)
            thread = stage.bound_thread(ivar)
            thread_tag = thread.thread_tag if thread is not None else ""
            nest = For(ivar.var, 0, dom_map[ivar.uid], nest, kind, thread_tag)
            if idx == init_at:
                nest = seq(init_stmt, nest)
        if stage.scope != "global":
            nest = AttrStmt("storage_scope", binding.buffer, stage.scope, nest)
        return nest

    def _derives_from_reduce(self, stage: Stage, ivar: IterVar,
                             reduce_uids: set) -> bool:
        """True if a leaf iter var derives (via splits/fuses) from a reduce axis."""
        if ivar.uid in reduce_uids:
            return True
        for relation in stage.relations:
            if isinstance(relation, SplitRelation):
                if ivar in (relation.outer, relation.inner):
                    return self._derives_from_reduce(stage, relation.parent, reduce_uids)
            elif isinstance(relation, FuseRelation):
                if ivar is relation.fused:
                    return (self._derives_from_reduce(stage, relation.outer, reduce_uids)
                            or self._derives_from_reduce(stage, relation.inner, reduce_uids))
        return False

    # ----------------------------------------------------------- attachments
    def _attach_producers(self, consumer: Stage, ivar: IterVar, inner: Stmt,
                          leaf_ranges: Dict[Var, Tuple[int, int]],
                          value_map: Dict[Var, Expr]) -> Stmt:
        attached = self.attachments.get((id(consumer.op), ivar.uid), [])
        if not attached:
            return inner
        parts: List[Stmt] = []
        inner_vars = self._vars_inside(consumer, ivar)
        for producer_stage in attached:
            root_extents, root_offsets = self._planned_regions[id(producer_stage.op)]
            producer_nest = self._build_stage(producer_stage, root_extents,
                                              root_offsets)
            parts.append(producer_nest)
            if producer_stage.scope == "shared":
                parts.append(Barrier("shared"))
        parts.append(inner)
        return seq(*parts)

    @staticmethod
    def _vars_inside(consumer: Stage, ivar: IterVar) -> List[Var]:
        index = consumer.leaf_iter_vars.index(ivar)
        return [iv.var for iv in consumer.leaf_iter_vars[index + 1:]]

    def _required_region(self, producer: Stage, consumer: Stage,
                         inner_vars: List[Var],
                         leaf_ranges: Dict[Var, Tuple[int, int]],
                         value_map: Dict[Var, Expr]) -> List[Tuple[Expr, int]]:
        """Compute, per output dimension of ``producer``, the (offset, extent)
        region required by ``consumer`` iterations below the attachment point."""
        producer_tensor = producer.op.output(0)
        reads = _collect_reads(consumer.op.body, producer_tensor)
        if not reads:
            raise LoweringError(
                f"Stage {producer.name} is attached inside {consumer.name} "
                "but never read by it")
        ndim = len(producer_tensor.shape)
        offsets: List[Expr] = []
        extents: List[int] = []
        inner_set = set(inner_vars)
        # A shared-scope producer is cooperatively filled by the whole thread
        # block: the region must cover every thread's slice, so thread-bound
        # consumer loops count as "inner" even above the attachment point.
        relax_ranges: Dict[Var, Tuple[int, int]] = {}
        if producer.scope == "shared":
            for leaf in consumer.leaf_iter_vars:
                bound = consumer.bound_thread(leaf)
                if bound is not None and bound.thread_tag.startswith("threadIdx"):
                    inner_set.add(leaf.var)
            # Thread-bound loops of enclosing stages (reached through region
            # offsets) also span the block for cooperatively-filled buffers.
            relax_ranges = dict(self._thread_ranges)
        # Offset substitution: inner (and relaxed thread) vars pinned to
        # zero, outer vars stay symbolic.  Fixed across dims and reads.
        zero_map = {v: 0 for v in inner_set}
        zero_map.update({v: 0 for v in relax_ranges})
        for dim in range(ndim):
            dim_offset: Optional[Expr] = None
            dim_extent = 1
            for read in reads:
                index_expr = substitute(read.indices[dim], value_map)
                # Extent: inner vars span their ranges, everything else fixed.
                free, program = compile_bounds(index_expr)
                ranges: Dict[Var, Tuple[int, int]] = {}
                for var in free:
                    if var in inner_set and var in leaf_ranges:
                        ranges[var] = leaf_ranges[var]
                    elif var in relax_ranges:
                        ranges[var] = relax_ranges[var]
                    else:
                        ranges[var] = (0, 0)
                low, high = eval_bounds(program, ranges)
                extent = int(high - low + 1)
                offset = simplify(substitute(index_expr, zero_map))
                if dim_offset is None:
                    dim_offset = offset
                dim_extent = max(dim_extent, extent)
            full = producer_tensor.shape_values()[dim]
            dim_extent = min(dim_extent, full)
            offsets.append(dim_offset if dim_offset is not None else as_expr(0))
            extents.append(dim_extent)
        return list(zip(offsets, extents))

    # ----------------------------------------------------------- tensorization
    def _make_intrinsic(self, stage: Stage, leaf_idx: int,
                        value_map: Dict[Var, Expr], dom_map: Dict[int, int],
                        binding: BufferBinding) -> Stmt:
        ivar = stage.leaf_iter_vars[leaf_idx]
        intrin = stage.tensorize_map[ivar]
        op = stage.op
        assert isinstance(op, ComputeOp)
        inner_vars = {iv.var for iv in stage.leaf_iter_vars[leaf_idx:]}
        zero_inner = {v: 0 for v in inner_vars}

        def offset_of(indices: List[Expr], tensor_binding: BufferBinding) -> List[Expr]:
            substituted = [simplify(substitute(substitute(idx, value_map), zero_inner))
                           for idx in indices]
            return tensor_binding.rebase(substituted)

        # Output offsets.
        out_indices = [value_map[iv.var] for iv in op.axis]
        out_offset = [simplify(substitute(idx, zero_inner)) for idx in out_indices]
        out_offset = binding.rebase(out_offset)

        # Input tensors read by the computation.
        body = op.body.source if isinstance(op.body, Reduce) else op.body
        input_buffers: List[Buffer] = []
        input_offsets: List[List[Expr]] = []
        for read in _collect_reads(body):
            tensor = read.tensor
            if not isinstance(tensor, Tensor) or tensor not in self.bindings:
                continue
            tensor_binding = self.bindings[tensor]
            input_buffers.append(tensor_binding.buffer)
            input_offsets.append(offset_of(read.indices, tensor_binding))

        # The reduction accumulates across outer reduce loops when some
        # reduce-derived leaf var lies outside the tensorized region.
        reduce_uids = {iv.uid for iv in op.reduce_axis}
        outer_leaves = stage.leaf_iter_vars[:leaf_idx]
        reduction_update = isinstance(op.body, Reduce) and any(
            self._derives_from_reduce(stage, iv, reduce_uids) for iv in outer_leaves)

        return IntrinsicStmt(
            name=intrin.name,
            intrin=intrin,
            inputs=input_buffers,
            output=binding.buffer,
            input_offsets=input_offsets,
            output_offset=out_offset,
            reduction_update=reduction_update,
        )


class _ReadConverter(ExprMutator):
    """Convert :class:`TensorRead` nodes to :class:`BufferLoad`, applying
    inline substitution and compact-buffer rebasing."""

    def __init__(self, lowerer: _Lowerer):
        self.lowerer = lowerer

    def visit_tensorread(self, expr: TensorRead) -> Expr:
        indices = [self.visit(i) for i in expr.indices]
        tensor = expr.tensor
        if isinstance(tensor, Tensor) and tensor in self.lowerer.inline_stages:
            op = self.lowerer.inline_stages[tensor]
            mapping = {iv.var: idx for iv, idx in zip(op.axis, indices)}
            return self.visit(substitute(op.body, mapping))
        if isinstance(tensor, Tensor):
            if tensor not in self.lowerer.bindings:
                # Intermediate tensor produced by a non-scheduled op: bind lazily.
                stage = self.lowerer.schedule.stage_map.get(tensor.op)
                if stage is None:
                    raise LoweringError(f"Tensor {tensor.name} has no stage or buffer")
                self.lowerer._ensure_binding(stage)
            binding = self.lowerer.bindings[tensor]
            return BufferLoad(binding.buffer,
                              [simplify(i) for i in binding.rebase(indices)])
        return TensorRead(tensor, indices)


def _collect_reads(expr: Expr, tensor: Optional[Tensor] = None) -> List[TensorRead]:
    """Tensor reads in ``expr`` in preorder — those of ``tensor``, if given."""
    reads: List[TensorRead] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, TensorRead) and (
                tensor is None
                or isinstance(node.tensor, Tensor) and node.tensor == tensor):
            reads.append(node)
        stack.extend(reversed(expr_children(node)))
    return reads


def lower(schedule: Schedule, args: Sequence[Tensor], name: str = "main") -> LoweredFunc:
    """Lower a scheduled computation to a :class:`LoweredFunc`.

    Parameters
    ----------
    schedule:
        The schedule to lower.
    args:
        Argument tensors in calling order (inputs followed by outputs).
    name:
        Name of the generated function.
    """
    with simplify_scope():
        return _Lowerer(schedule, args, name).run()
