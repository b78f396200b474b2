"""Compile-time IR verification and static analysis.

The analysis layer certifies compiler output instead of trusting it:

* :mod:`~repro.analysis.graph_verify` — graph-IR well-formedness, shape and
  dtype re-inference, fused-group legality, layout consistency and the
  memory-plan alias audit;
* :mod:`~repro.analysis.tir_verify` — static out-of-bounds detection on
  lowered loop nests (interval analysis with linear-form cancellation),
  def-before-use of loop variables and buffers, and the parallel-hazard
  detector for ``parallel``/``vectorize`` annotations;
* :mod:`~repro.analysis.mutate` — the seeded IR-mutation harness proving
  each check actually fires.

All violations raise a typed :class:`VerifierError` subclass from
:mod:`~repro.analysis.errors` naming the check, the IR object and the pass.
"""

from .errors import (
    DanglingInputError,
    DtypeMismatchError,
    DuplicateNodeNameError,
    FusionLegalityError,
    GraphVerifierError,
    LayoutError,
    MemoryAliasError,
    OutOfBoundsError,
    ParallelHazardError,
    ShapeMismatchError,
    StorageSizeError,
    TIRVerifierError,
    TopologicalOrderError,
    UnknownOperatorError,
    UseBeforeDefError,
    VerifierError,
)
from .graph_verify import (
    verify_fusion,
    verify_graph,
    verify_layout,
    verify_memory_plan,
    verify_shapes,
    verify_well_formed,
)
from .mutate import MUTATIONS, run_all, run_mutation
from .tir_verify import verify_func

__all__ = [
    "VerifierError",
    "GraphVerifierError",
    "TIRVerifierError",
    "DuplicateNodeNameError",
    "TopologicalOrderError",
    "DanglingInputError",
    "UnknownOperatorError",
    "ShapeMismatchError",
    "DtypeMismatchError",
    "FusionLegalityError",
    "LayoutError",
    "MemoryAliasError",
    "StorageSizeError",
    "OutOfBoundsError",
    "UseBeforeDefError",
    "ParallelHazardError",
    "verify_graph",
    "verify_well_formed",
    "verify_shapes",
    "verify_fusion",
    "verify_layout",
    "verify_memory_plan",
    "verify_func",
    "MUTATIONS",
    "run_mutation",
    "run_all",
]
