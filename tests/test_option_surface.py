"""The option surface, pinned.

Every keyword of the five front doors (``compile``, ``autotune``, ``serve``,
``Executor``, ``load``) and of the components they are assembled from is
listed here with its default, as one literal table.  Each independent option
doubles what the correctness suites and the benchmark workloads have to
cover, so adding one is a decision, not a side effect: a new keyword fails
this test and has to arrive with the two non-test callers that need
different values of it (README "Options" names them for every entry below).
A value only one caller ever sets is a constant; a value the code can work
out from its inputs is worked out.
"""

import dataclasses
import inspect

import pytest

import repro
from repro.autotvm import GATuner, Measurer, ModelBasedTuner, TuningOptions
from repro.compiler import Pass
from repro.graph.ir import Graph, Node
from repro.graph.op_timing import is_templated
from repro.hardware.target import create_target
from repro.runtime import Executor, InferenceEngine
from repro.runtime.procpool import ModuleWorkerPool
from repro.runtime.traffic import TraceReplayer

REQUIRED = inspect.Parameter.empty

#: callable -> {keyword: default}, in declaration order
OPTION_SURFACE = {
    repro.compile: {
        "model": REQUIRED, "target": None, "params": None,
        "input_shapes": None, "opt_level": None,
        "heterogeneous_targets": None, "verify": False},
    repro.PassContext: {
        "opt_level": 2, "disabled_passes": ()},
    repro.autotune: {
        "model": REQUIRED, "target": None, "trials": None, "tuner": None,
        "options": None, "database": None, "params": None,
        "input_shapes": None},
    TuningOptions: {
        "trials": 64, "batch_size": 8, "early_stopping": None, "seed": 0,
        "tuner": "model", "n_parallel": 4,
        "verify": False, "ensure_no_regression": True,
        "callbacks": ()},
    repro.serve: {
        "module_or_path": REQUIRED, "devices": None, "max_batch": 8,
        "timeout_ms": 2.0, "max_queue": 1024, "p99_target_ms": None,
        "adaptive_max_batch": 8, "pool": "thread"},
    InferenceEngine.shutdown: {"wait": True, "drain": True},
    Executor: {"module": REQUIRED, "device": None},
    repro.load: {"path": REQUIRED, "params": None},
    Measurer: {"number": 3, "seed": 0, "verify": False, "n_parallel": 1},
    ModelBasedTuner: {"task": REQUIRED, "cost_model": None, "seed": 0},
    GATuner: {"task": REQUIRED, "seed": 0},
    ModuleWorkerPool: {
        "module": REQUIRED, "bundle_path": REQUIRED, "devices": REQUIRED},
    TraceReplayer: {
        "engines": REQUIRED, "trace": REQUIRED, "inputs_for": None,
        "giveup_ms": None, "result_timeout_s": 120.0,
        "store_outputs": False},
    create_target: {"name": REQUIRED},
}


def _surface(fn) -> dict:
    return {name: param.default
            for name, param in inspect.signature(fn).parameters.items()
            if name != "self"}


@pytest.mark.parametrize(
    "fn", list(OPTION_SURFACE),
    ids=[getattr(fn, "__qualname__", repr(fn)) for fn in OPTION_SURFACE])
def test_keywords_and_defaults_are_pinned(fn):
    actual = _surface(fn)
    expected = OPTION_SURFACE[fn]
    assert list(actual) == list(expected), (
        f"{fn.__qualname__} keywords changed: "
        f"added {sorted(set(actual) - set(expected))}, "
        f"removed {sorted(set(expected) - set(actual))} — a new option needs "
        f"two non-test callers with different values (see README 'Options')")
    assert actual == expected


def test_pass_context_has_no_free_form_config():
    with pytest.raises(TypeError, match="config"):
        repro.PassContext(config={"verify": True})
    assert not hasattr(repro.PassContext(), "config")


def test_pass_is_a_four_field_record():
    fields = [(f.name, f.default) for f in dataclasses.fields(Pass)]
    assert fields == [("name", dataclasses.MISSING),
                      ("fn", dataclasses.MISSING),
                      ("opt_level", 0), ("rewrites", False)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        Pass("audit", print).opt_level = 3


def test_is_templated_is_the_one_heavy_operator_predicate():
    data, weight = Node("null", "data"), Node("null", "weight")
    conv = Node("conv2d", "conv", [data, weight], {"strides": 1, "padding": 1})
    dense = Node("dense", "fc", [Node("null", "x"), Node("null", "w")])
    relu = Node("relu", "act", [conv])
    Graph([relu]).infer_shapes({"data": (1, 16, 8, 8),
                                "weight": (16, 16, 3, 3)})
    cuda, vdla = create_target("cuda"), create_target("vdla")
    assert is_templated(conv, cuda) and is_templated(dense, vdla)
    assert not is_templated(relu, cuda)
    # vdla convolutions take the accelerator's fixed GEMM mapping: never
    # tuned, never looked up in history, never program-verified.
    assert not is_templated(conv, vdla)
    assert repro.autotvm.extract_tasks(Graph([relu]), vdla) == []
