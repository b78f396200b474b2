"""Figure 4: impact of operator fusion.

Relative speedup of fused vs non-fused execution for conv+bn+relu,
depthwise-conv+bn+relu, and RNN/LSTM cells on the server GPU.  The paper
reports 1.2x-2.0x speedups from removing intermediate-result round trips.

The simulated columns are the figure.  Beside them, the same two modules on
the wall clock: the median ms of ``Executor.run`` over ``WALL_RUNS``
alternated runs each, and the ``tracemalloc`` peak bytes of one run.  Fused
and unfused outputs must be bitwise equal; the wall columns are reported
whatever they read.
"""

import statistics
import time
import tracemalloc

import numpy as np
import pytest

import repro
from common import emit_summary, get_target, print_series
from repro.frontend.builder import ModelBuilder

#: alternated fused / unfused runs per workload on the wall clock
WALL_RUNS = 21


def _workloads():
    specs = []

    def conv_bn_relu():
        b = ModelBuilder("fig4_conv", seed=0)
        data = b.input("data", (1, 128, 28, 28))
        net = b.relu(b.batch_norm(b.conv2d(data, 256, 1, 1, 0, name="conv")))
        return b.finalize(net)

    def depthwise_bn_relu():
        b = ModelBuilder("fig4_dw", seed=0)
        data = b.input("data", (1, 512, 14, 14))
        net = b.relu(b.batch_norm(b.depthwise_conv2d(data, 3, 1, 1, name="dw")))
        return b.finalize(net)

    def rnn_cell(hidden=128):
        b = ModelBuilder("fig4_rnn", seed=0)
        x = b.input("x", (1, hidden))
        h = b.input("h", (1, hidden))
        out = b.tanh(b.add(b.dense(x, hidden), b.dense(h, hidden)))
        return b.finalize(out), {"x": (1, hidden), "h": (1, hidden)}

    def lstm_cell(hidden=128):
        b = ModelBuilder("fig4_lstm", seed=0)
        x = b.input("x", (1, hidden))
        h = b.input("h", (1, hidden))
        c = b.input("c", (1, hidden))
        h2, _c2 = b.lstm_cell(x, h, c, hidden)
        return b.finalize(h2), {"x": (1, hidden), "h": (1, hidden), "c": (1, hidden)}

    specs.append(("conv+bn+relu", conv_bn_relu(), {"data": (1, 128, 28, 28)}))
    specs.append(("dwconv+bn+relu", depthwise_bn_relu(), {"data": (1, 512, 14, 14)}))
    (rnn_graph, rnn_shapes) = rnn_cell()
    specs.append(("rnn cell", rnn_graph, rnn_shapes))
    (lstm_graph, lstm_shapes) = lstm_cell()
    specs.append(("lstm cell", lstm_graph, lstm_shapes))
    return specs


def _wall_clock(name, modules, shapes):
    """Median wall ms over ``WALL_RUNS`` alternated runs and the traced peak
    bytes of one run, per module; asserts their outputs are bitwise equal."""
    rng = np.random.default_rng(0)
    inputs = {key: rng.standard_normal(shape).astype("float32")
              for key, shape in shapes.items()}
    executors = [repro.Executor(module) for module in modules]
    fused, unfused = ([out.tobytes() for out in executor.run(inputs).outputs]
                      for executor in executors)
    assert fused == unfused, f"{name}: fused output differs from unfused"
    seconds = [[] for _ in executors]
    for _ in range(WALL_RUNS):
        for executor, samples in zip(executors, seconds):
            start = time.perf_counter()
            executor.run(inputs)
            samples.append(time.perf_counter() - start)
    peaks = []
    for executor in executors:
        tracemalloc.start()
        try:
            executor.run(inputs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return [statistics.median(samples) * 1e3 for samples in seconds], peaks


def _evaluate():
    target = get_target("cuda")
    rows = []
    for name, (graph, params), shapes in _workloads():
        fused = repro.compile(graph, target=target, params=params,
                              input_shapes=shapes)
        # The "TVM w/o graph opt" ablation: disable the fusion pass by name
        # instead of the legacy magic opt_level=0.
        with repro.PassContext(disabled_passes=["fuse_ops"]):
            unfused = repro.compile(graph, target=target, params=params,
                                    input_shapes=shapes)
        (wall_fused, wall_unfused), (peak_fused, peak_unfused) = _wall_clock(
            name, [fused, unfused], shapes)
        rows.append((name, {
            "w/o fusion (ms)": unfused.total_time * 1e3,
            "w/ fusion (ms)": fused.total_time * 1e3,
            "speedup": unfused.total_time / fused.total_time,
            "wall w/o (ms)": wall_unfused,
            "wall w/ (ms)": wall_fused,
            "peak w/o (bytes)": peak_unfused,
            "peak w/ (bytes)": peak_fused,
        }))
    return rows


def test_fig4_operator_fusion(benchmark):
    rows = benchmark.pedantic(_evaluate, rounds=1, iterations=1)
    print_series("Figure 4: fused vs non-fused relative speedup", rows, unit="see col")
    emit_summary("fig4_fusion", {
        "fusion_speedup": {name: round(entry["speedup"], 3)
                           for name, entry in rows},
        "wall_ms": {name: {"fused": round(entry["wall w/ (ms)"], 4),
                           "unfused": round(entry["wall w/o (ms)"], 4)}
                    for name, entry in rows},
        "traced_peak_bytes": {name: {"fused": entry["peak w/ (bytes)"],
                                     "unfused": entry["peak w/o (bytes)"]}
                              for name, entry in rows}})
    for name, entry in rows:
        benchmark.extra_info[f"{name}_speedup"] = round(entry["speedup"], 2)
        # Fusion must help, and in the paper's 1.2x-2x range (loosely checked).
        assert entry["speedup"] > 1.05, f"fusion did not help for {name}"
        assert entry["speedup"] < 5.0
