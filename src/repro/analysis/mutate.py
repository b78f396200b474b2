"""Seeded IR mutation harness: the verifier's own test generator.

Each registered mutation class takes a freshly built, *valid* artifact — a
small graph (with fusion groups and a memory plan) or a hand-built TIR
function — applies one targeted corruption, and declares which typed
:class:`~repro.analysis.errors.VerifierError` subclass the verifier must
raise for it.  :func:`run_all` executes every class and reports, per class,
whether the violation was caught with the exact expected type; a class the
verifier misses is a verifier bug, and the CI ``static-analysis`` job fails.

The harness is deliberately deterministic (``seed`` picks which node/loop of
the artifact gets corrupted, via :class:`random.Random`) so a failure
reproduces exactly from its class name and seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Type

from ..graph.ir import Graph, Node
from ..graph.passes import fuse_ops, plan_memory
from ..te.expr import Add, FloatImm, IntImm, Mul, Var
from ..tir.stmt import (Buffer, BufferLoad, BufferStore, For, ForKind,
                        IntrinsicStmt, LoweredFunc)
from ..topi.schedules.vdla import declare_gemm_intrin
from .errors import (
    DanglingInputError,
    DtypeMismatchError,
    DuplicateNodeNameError,
    FusionLegalityError,
    LayoutError,
    MemoryAliasError,
    OutOfBoundsError,
    ParallelHazardError,
    ShapeMismatchError,
    StorageSizeError,
    TopologicalOrderError,
    UnknownOperatorError,
    UseBeforeDefError,
    VerifierError,
)
from .graph_verify import verify_graph
from .tir_verify import verify_func

__all__ = ["Mutation", "MUTATIONS", "MutationOutcome", "run_mutation",
           "run_all"]


# ---------------------------------------------------------------------------
# Seed artifacts (rebuilt fresh for every mutation)
# ---------------------------------------------------------------------------

def _seed_graph() -> Graph:
    """conv2d -> bias_add -> relu -> dense-free injective tail, plus a second
    consumer so liveness is non-trivial."""
    data = Node("null", "data")
    weight = Node("null", "weight")
    bias = Node("null", "bias")
    conv = Node("conv2d", "conv0", [data, weight],
                {"strides": 1, "padding": 1})
    biased = Node("bias_add", "bias0", [conv, bias])
    act = Node("relu", "relu0", [biased])
    residual = Node("add", "add0", [act, biased])
    graph = Graph([residual])
    graph.infer_shapes({"data": (1, 3, 8, 8), "weight": (8, 3, 3, 3),
                        "bias": (1, 8, 8, 8)})
    return graph


def _seed_tir() -> LoweredFunc:
    """``for i in [0, 16): b[i] = a[i] + 1`` over two 16-element buffers."""
    a = Buffer("a", (16,))
    b = Buffer("b", (16,))
    i = Var("i")
    body = For(i, 0, 16,
               BufferStore(b, [i], Add(BufferLoad(a, [i]), FloatImm(1.0))))
    return LoweredFunc("elemwise", [a, b], body)


def _seed_intrinsic_tir() -> LoweredFunc:
    """``for i in [0, 2): C[4i:4i+4, :] = gemm4x4(A[4i:4i+4, :], B)`` with
    ``A``, ``C`` of 8 x 4 and ``B`` of 4 x 4: every tile ends at its
    buffer's last row or column."""
    a, b, c = Buffer("A", (8, 4)), Buffer("B", (4, 4)), Buffer("C", (8, 4))
    i = Var("i")
    row = Mul(i, IntImm(4))
    call = IntrinsicStmt("gemm", declare_gemm_intrin(4), [a, b], c,
                         [[row, IntImm(0)], [IntImm(0), IntImm(0)]],
                         [row, IntImm(0)])
    return LoweredFunc("gemm", [a, b, c], For(i, 0, 2, call))


# ---------------------------------------------------------------------------
# Mutation classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mutation:
    """One corruption class: how to break the IR, what must be raised."""

    name: str
    expected: Type[VerifierError]
    description: str
    apply: Callable[[random.Random], None]


MUTATIONS: Dict[str, Mutation] = {}


def _register(name: str, expected: Type[VerifierError], description: str):
    def decorator(fn: Callable[[random.Random], None]) -> Mutation:
        mutation = Mutation(name, expected, description, fn)
        MUTATIONS[name] = mutation
        return mutation

    return decorator


def _verify_all(graph: Graph, groups=None, memory_plan=None) -> None:
    verify_graph(graph, groups=groups, memory_plan=memory_plan)


@_register("swapped_shapes", ShapeMismatchError,
           "a node's shape annotation is transposed against re-inference")
def _swapped_shapes(rng: random.Random) -> None:
    graph = _seed_graph()
    victim = rng.choice(graph.op_nodes)
    shape = tuple(victim.shape)
    victim.shape = shape[::-1] if shape[::-1] != shape else shape[:-1] + (99,)
    _verify_all(graph)


@_register("dropped_node", DanglingInputError,
           "a producer is removed from the node list but still referenced")
def _dropped_node(rng: random.Random) -> None:
    graph = _seed_graph()
    interior = [n for n in graph.op_nodes if n not in graph.outputs]
    victim = rng.choice(interior)
    graph.nodes = [n for n in graph.nodes if n is not victim]
    _verify_all(graph)


@_register("duplicate_names", DuplicateNodeNameError,
           "two distinct nodes are given the same name")
def _duplicate_names(rng: random.Random) -> None:
    graph = _seed_graph()
    first, second = rng.sample(graph.op_nodes, 2)
    second.name = first.name
    _verify_all(graph)


@_register("topo_disorder", TopologicalOrderError,
           "the node list is reordered so a consumer precedes its producer")
def _topo_disorder(rng: random.Random) -> None:
    graph = _seed_graph()
    ops = graph.op_nodes
    producer = rng.choice(ops[:-1])
    graph.nodes.remove(producer)
    graph.nodes.append(producer)  # now after every consumer
    _verify_all(graph)


@_register("unknown_operator", UnknownOperatorError,
           "a node's operator is renamed to an unregistered name")
def _unknown_operator(rng: random.Random) -> None:
    graph = _seed_graph()
    victim = rng.choice(graph.op_nodes)
    victim.op = "totally_unregistered_op"
    _verify_all(graph)


@_register("dtype_corruption", DtypeMismatchError,
           "a node's dtype annotation disagrees with dtype inference")
def _dtype_corruption(rng: random.Random) -> None:
    graph = _seed_graph()
    victim = rng.choice(graph.op_nodes)
    victim.dtype = "float16"
    _verify_all(graph)


@_register("double_fusion", FusionLegalityError,
           "one operator is claimed by two fused groups")
def _double_fusion(rng: random.Random) -> None:
    graph = _seed_graph()
    groups = fuse_ops(graph)
    donor = next(g for g in groups if len(g.nodes) > 1)
    receiver = rng.choice([g for g in groups if g is not donor])
    receiver.nodes.append(donor.nodes[-1])
    _verify_all(graph, groups=groups)


@_register("fusion_dominance", FusionLegalityError,
           "groups are reordered so a kernel reads a tensor produced later")
def _fusion_dominance(rng: random.Random) -> None:
    graph = _seed_graph()
    groups = fuse_ops(graph)
    del rng
    groups.reverse()  # the consumer kernel now executes first
    _verify_all(graph, groups=groups)


@_register("layout_break", LayoutError,
           "an operator demands a tiled layout its producer does not emit")
def _layout_break(rng: random.Random) -> None:
    graph = _seed_graph()
    consumers = [n for n in graph.op_nodes
                 if any(not p.is_variable for p in n.inputs)]
    victim = rng.choice(consumers)
    victim.attrs["data_layout"] = "NCHW16c"
    _verify_all(graph)


@_register("aliased_storage", MemoryAliasError,
           "two simultaneously-live tensors are forced onto one token")
def _aliased_storage(rng: random.Random) -> None:
    graph = _seed_graph()
    plan = plan_memory(graph)
    # relu0 and bias0 are both live when add0 executes: placing them on the
    # same token is exactly the alias bug the planner must never introduce.
    del rng
    plan.storage_of["relu0"] = plan.storage_of["bias0"]
    _verify_all(graph, memory_plan=plan)


@_register("undersized_storage", StorageSizeError,
           "a storage token is shrunk below its tensor's dtype-aware size")
def _undersized_storage(rng: random.Random) -> None:
    graph = _seed_graph()
    plan = plan_memory(graph)
    token = rng.choice(sorted(plan.token_bytes))
    plan.token_bytes[token] //= 2
    _verify_all(graph, memory_plan=plan)


@_register("oob_buffer_access", OutOfBoundsError,
           "a loop runs past the end of the buffer it stores to")
def _oob_buffer_access(rng: random.Random) -> None:
    func = _seed_tir()
    loop = func.body
    loop.extent = IntImm(16 + rng.randrange(1, 8))
    loop._extent_value = None
    verify_func(func)


@_register("shifted_intrinsic_offset", OutOfBoundsError,
           "a tensor intrinsic's operand tile starts past its buffer's fit")
def _shifted_intrinsic_offset(rng: random.Random) -> None:
    func = _seed_intrinsic_tir()
    call = func.body.body
    offsets = call.input_offsets + [call.output_offset]
    operand = rng.choice(offsets)
    dim = rng.randrange(len(operand))
    operand[dim] = Add(operand[dim], IntImm(rng.randrange(1, 4)))
    verify_func(func)


@_register("undefined_loop_var", UseBeforeDefError,
           "a buffer index uses a variable no enclosing loop defines")
def _undefined_loop_var(rng: random.Random) -> None:
    func = _seed_tir()
    del rng
    store = func.body.body
    store.indices = [Var("phantom")]
    verify_func(func)


@_register("undefined_buffer", UseBeforeDefError,
           "a kernel reads a buffer that is neither argument nor allocation")
def _undefined_buffer(rng: random.Random) -> None:
    func = _seed_tir()
    del rng
    store = func.body.body
    store.value = Add(BufferLoad(Buffer("ghost", (16,)),
                                 [func.body.loop_var]), FloatImm(1.0))
    verify_func(func)


@_register("parallelized_reduction", ParallelHazardError,
           "a reduction loop is annotated parallel (write-write hazard)")
def _parallelized_reduction(rng: random.Random) -> None:
    del rng
    a = Buffer("a", (16,))
    out = Buffer("out", (1,))
    i = Var("i")
    body = For(i, 0, 16,
               BufferStore(out, [IntImm(0)],
                           Add(BufferLoad(out, [IntImm(0)]),
                               BufferLoad(a, [i]))),
               kind=ForKind.PARALLEL)
    verify_func(LoweredFunc("reduce", [a, out], body))


@_register("vectorized_raw", ParallelHazardError,
           "a vectorized loop reads an element another lane writes")
def _vectorized_raw(rng: random.Random) -> None:
    del rng
    b = Buffer("b", (16,))
    i = Var("i")
    body = For(i, 0, 16,
               BufferStore(b, [i],
                           Add(BufferLoad(b, [IntImm(0)]), FloatImm(1.0))),
               kind=ForKind.VECTORIZED)
    verify_func(LoweredFunc("scan", [b], body))


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

@dataclass
class MutationOutcome:
    """Result of one mutation class under the verifier."""

    name: str
    expected: str
    caught: bool
    error_type: Optional[str] = None
    message: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.caught


def run_mutation(name: str, seed: int = 0) -> MutationOutcome:
    """Apply one mutation class and check the verifier catches it."""
    mutation = MUTATIONS[name]
    rng = random.Random(seed)
    try:
        mutation.apply(rng)
    except mutation.expected as exc:
        return MutationOutcome(name, mutation.expected.__name__, True,
                               type(exc).__name__, str(exc))
    except VerifierError as exc:  # caught, but with the wrong type
        return MutationOutcome(name, mutation.expected.__name__, False,
                               type(exc).__name__, str(exc))
    return MutationOutcome(name, mutation.expected.__name__, False, None,
                           "verifier accepted the corrupted IR")


def run_all(seed: int = 0) -> List[MutationOutcome]:
    """Run every mutation class; the returned list is MUTATIONS-ordered."""
    return [run_mutation(name, seed=seed) for name in MUTATIONS]
