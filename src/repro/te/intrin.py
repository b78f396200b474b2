"""Tensor intrinsic declarations (Section 4.3: Tensorization).

A :class:`TensorIntrin` is a behavioural description of a hardware tensor
instruction, expressed in the same tensor expression language used for
operators.  That compute op is the intrinsic's only meaning: the interpreter
executes it, the feature extractor counts it and the verifier checks each
operand tile it declares.  The ``tensorize`` schedule primitive replaces a
loop nest with one call of the intrinsic; it does not check that the nest
computes what the behaviour declares.
"""

from __future__ import annotations

from typing import List

from .expr import simplify
from .tensor import ComputeOp, Tensor

__all__ = ["TensorIntrin", "decl_tensor_intrin"]


class TensorIntrin:
    """A declared hardware tensor intrinsic.

    Parameters
    ----------
    op:
        The :class:`ComputeOp` describing the intrinsic's behaviour.  Each
        input placeholder is one operand tile, of the rank of the buffer the
        intrinsic reads it from; the output is the tile it writes.
    name:
        Human readable name used in lowered code and cost features.
    """

    def __init__(self, op: ComputeOp, name: str = ""):
        self.op = op
        self.name = name or op.name
        self.inputs = op.input_tensors()

    @property
    def output_shape(self) -> List[int]:
        return [int(simplify(dim).value) for dim in self.op.shape]

    @property
    def flop(self) -> int:
        """Floating point (or MAC) operations performed per intrinsic call."""
        count = 1
        for dim in self.output_shape:
            count *= dim
        for axis in self.op.reduce_axis:
            count *= axis.extent_value()
        # one multiply and one add per reduction element
        return count * 2

    def __repr__(self) -> str:
        shape = "x".join(str(s) for s in self.output_shape)
        return f"TensorIntrin({self.name}, out={shape})"


def decl_tensor_intrin(op_or_tensor: object, name: str = "") -> TensorIntrin:
    """Declare a tensor intrinsic from a behaviour description.

    The paper's ``t.decl_tensor_intrin(y.op, gemm_intrin_lower)`` without the
    lowering rule.  Accepts either the :class:`ComputeOp` or its output
    :class:`Tensor`.
    """
    if isinstance(op_or_tensor, Tensor):
        op = op_or_tensor.op
    else:
        op = op_or_tensor
    if not isinstance(op, ComputeOp):
        raise TypeError("decl_tensor_intrin expects a ComputeOp behaviour description")
    return TensorIntrin(op, name=name)
