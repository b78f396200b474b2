"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure from the paper's
evaluation.  The helpers here cache expensive artefacts (tuning databases,
compiled modules) across benchmarks within one pytest session so the whole
suite stays fast, and provide a uniform way to print the rows/series each
figure reports.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

import repro
from repro.autotvm import ApplyHistoryBest, TuningOptions
from repro.autotvm.database import TuningDatabase
from repro.frontend import (
    dcgan_generator,
    dqn,
    lstm_language_model,
    mobilenet,
    resnet18,
)
from repro.graph import clear_timing_cache
from repro.hardware import Target, arm_cpu, cuda, mali, pynq_cpu, vdla

#: trials per workload used by the benchmark suite (kept modest so the whole
#: suite runs in minutes; increase for tighter results)
TUNE_TRIALS = 20

MODEL_BUILDERS = {
    "resnet-18": resnet18,
    "mobilenet": mobilenet,
    "lstm-lm": lstm_language_model,
    "dqn": dqn,
    "dcgan": dcgan_generator,
}

_TARGET_FACTORIES = {
    "cuda": cuda,
    "arm_cpu": arm_cpu,
    "pynq_cpu": pynq_cpu,
    "mali": mali,
    "vdla": vdla,
}

_tuning_cache: Dict[Tuple[str, str, str], TuningDatabase] = {}
_module_cache: Dict[Tuple[str, str, int, str], object] = {}


def get_target(name: str) -> Target:
    return _TARGET_FACTORIES[name]()


def build_model(name: str, dtype: str = "float32"):
    graph, params, shapes = MODEL_BUILDERS[name](batch=1, dtype=dtype)
    return graph, params, shapes


def tuned_database(model: str, target_name: str, dtype: str = "float32",
                   n_trial: int = TUNE_TRIALS) -> TuningDatabase:
    """Tune (once per session) every heavy workload of a model for a target."""
    key = (model, target_name, dtype)
    if key not in _tuning_cache:
        report = repro.autotune(build_model(model, dtype),
                                target=get_target(target_name),
                                options=TuningOptions(trials=n_trial,
                                                      tuner="model"))
        _tuning_cache[key] = report.database
    return _tuning_cache[key]


def compile_model(model: str, target_name: str, opt_level: int = 2,
                  dtype: str = "float32", tuned: bool = True):
    """Compile a model end-to-end and return the compiled module."""
    key = (model, target_name, opt_level, dtype, tuned)
    if key not in _module_cache:
        target = get_target(target_name)
        if tuned:
            db = tuned_database(model, target_name, dtype)
            with ApplyHistoryBest(db):
                module = repro.compile(build_model(model, dtype), target=target,
                                       opt_level=opt_level)
        else:
            module = repro.compile(build_model(model, dtype), target=target,
                                   opt_level=opt_level)
        _module_cache[key] = module
    return _module_cache[key]


def print_series(title: str, rows: List[Tuple[str, Dict[str, float]]],
                 unit: str = "ms") -> None:
    """Print a figure's data series in a compact table."""
    print(f"\n=== {title} ===")
    if not rows:
        return
    columns = list(rows[0][1].keys())
    header = "workload".ljust(14) + "".join(c.rjust(18) for c in columns)
    print(header)
    for name, values in rows:
        line = name.ljust(14)
        for column in columns:
            value = values.get(column, float("nan"))
            line += f"{value:18.4f}"
        print(line + f"   [{unit}]")


def eval_cache_rates() -> Dict[str, float]:
    """Hit rates of the shared evaluation cache, as BENCH_SUMMARY fields
    (``features_cache_hit_rate`` plus raw hit counters)."""
    from repro.autotvm import eval_cache_stats

    fields: Dict[str, float] = {}
    for cache, stats in eval_cache_stats().items():
        lookups = stats["hits"] + stats["misses"]
        fields[f"{cache}_cache_hit_rate"] = (
            round(stats["hits"] / lookups, 4) if lookups else 0.0)
        fields[f"{cache}_cache_hits"] = stats["hits"]
        fields[f"{cache}_cache_misses"] = stats["misses"]
    return fields


def emit_summary(suite: str, data: Dict[str, object]) -> None:
    """Print the benchmark's single machine-readable summary line.

    Every ``bench_*.py`` ends with one of these so dashboards and CI greps
    can consume results without parsing the human-readable tables::

        BENCH_SUMMARY {"suite": "serving", ...}

    Values must be JSON-serialisable; keep the payload small (headline
    numbers, not full row dumps).  The shared evaluation-cache hit rates are
    attached to every line automatically (explicit same-named fields in
    ``data`` win), so cross-task cache payoff is visible in CI for every
    suite.
    """
    print("BENCH_SUMMARY " + json.dumps(
        {"suite": suite, **eval_cache_rates(), **data},
        sort_keys=True, default=float))


def run_header(clock: str) -> Dict[str, object]:
    """Where a ``BENCH_*.json`` artifact was measured: the fields of the
    end-to-end benchmark's run header (commit — ``-dirty`` when the tree has
    uncommitted changes — core count, python, numpy, BLAS threads) and the
    clock its numbers are on (``"wall"`` or ``"simulated"``)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=Path(__file__).parent, text=True, capture_output=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "clock": clock}


def conv_graph(batch, in_channels, height, width, out_channels, kernel, stride,
               padding, depthwise=False, dtype="float32"):
    """A single-convolution graph (for per-operator tuning/benchmarks)."""
    from repro.graph.ir import Graph

    return Graph([_conv_node(batch, in_channels, height, width, out_channels,
                             kernel, stride, padding, depthwise=depthwise,
                             dtype=dtype)])


def _conv_node(batch, in_channels, height, width, out_channels, kernel, stride,
               padding, depthwise=False, dtype="float32"):
    """Build a standalone conv/depthwise graph node for single-kernel timing."""
    from repro.graph.ir import Node
    from repro.graph.ops import OP_REGISTRY

    data = Node("null", "data")
    data.shape = (batch, in_channels, height, width)
    data.dtype = dtype
    weight = Node("null", "weight")
    if depthwise:
        weight.shape = (in_channels, 1, kernel, kernel)
        node = Node("depthwise_conv2d", "dw", [data, weight],
                    {"strides": stride, "padding": padding})
    else:
        weight.shape = (out_channels, in_channels, kernel, kernel)
        node = Node("conv2d", "conv", [data, weight],
                    {"strides": stride, "padding": padding})
    weight.dtype = dtype
    node.dtype = dtype
    node.shape = OP_REGISTRY[node.op].infer_shape([data.shape, weight.shape], node.attrs)
    return node


def tvm_conv_time(workload, target_name: str, depthwise: bool = False,
                  dtype: str = "float32") -> float:
    """TVM's single-kernel time for a Table 2 workload (fallback search)."""
    from repro.graph.op_timing import kernel_time

    target = get_target(target_name)
    if depthwise:
        node = _conv_node(1, workload.channels, workload.height, workload.width,
                          workload.channels, workload.kernel, workload.stride,
                          workload.padding, depthwise=True, dtype=dtype)
    else:
        node = _conv_node(1, workload.in_channels, workload.height, workload.width,
                          workload.out_channels, workload.kernel, workload.stride,
                          workload.padding, dtype=dtype)
    return kernel_time(node, target).time
