"""Trace-replay traffic benchmark: goodput/SLO curves, static vs adaptive.

Replays the three seeded trace families from ``repro.runtime.traffic``
(Poisson, diurnal, burst) against ``InferenceEngine`` at several offered-load
levels, once with the static batcher (``max_batch=8`` with a fixed coalescing
window) and once with adaptive batch sizing (``max_batch="adaptive"``), and
writes ``BENCH_traffic.json`` next to this file with a goodput and
SLO-violation curve per (family, load level, policy) cell.

The scenario is deliberately deadline-hostile for the static policy: every
request carries a 120 ms deadline while the static batcher's coalescing
window is 150 ms, so under light load a static engine holds lone requests
past their deadline where the adaptive batcher — which prices a batch in the
wall seconds the engine measured per batch size, against the current queue
headroom — dispatches immediately.  On this runtime a batch of k costs k
solo runs, so the adaptive engine serves batches of one; under heavy load
the static engine fills batches quickly and the two converge.

The JSON starts with the end-to-end benchmark's run header (commit, core
count, numpy, BLAS threads, ``clock: "wall"``); run it with
``OPENBLAS_NUM_THREADS=1`` to match ``benchmarks/e2e``.

Acceptance gates (enforced here; ``--smoke`` enforces them in CI):

* **goodput** — adaptive goodput >= static goodput at *every* (family,
  level) cell, modulo a small documented scheduling-jitter slack, and
  strictly greater summed over all cells.
* **no hung futures** — every submitted request resolves to a terminal
  outcome in every run.
* **bit-identical outputs** — every served request's output equals a solo
  ``Executor`` run of the same input, for both policies.

Usage::

    python benchmarks/bench_traffic.py            # full run (5 s traces)
    python benchmarks/bench_traffic.py --smoke    # CI-sized (2 s traces)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import Executor, InferenceEngine
from repro.runtime.traffic import TraceReplayer, TraceSpec

from common import emit_summary, run_header

DEVICES = 2
MAX_QUEUE = 512
DEADLINE_MS = 120.0
STATIC_WINDOW_MS = 150.0
MAX_BATCH = 8
LOAD_LEVELS_RPS = (25.0, 100.0, 400.0)
INPUT_POOL = 8
TRACE_SEED = 20260808

#: per-cell goodput slack (rps) tolerated for host scheduling jitter — the
#: two policies replay the same wall-clock trace on a shared host, so a tie
#: can wobble by a few requests either way; the summed-goodput gate below is
#: strict, so adaptive must still win overall.
def _jitter_slack_rps(static_goodput: float) -> float:
    return max(3.0, 0.05 * static_goodput)


def _small_cnn():
    b = ModelBuilder("traffic-cnn", seed=0)
    data = b.input("data", (1, 3, 16, 16))
    net = b.relu(b.batch_norm(b.conv2d(data, 8, 3, 1, 1, name="conv0")))
    net = b.max_pool2d(net, 2, 2)
    net = b.flatten(net)
    net = b.softmax(b.dense(net, 10, "fc"))
    return b.finalize(net)


def _input_pool(seed: int):
    pool = []
    for slot in range(INPUT_POOL):
        digest = hashlib.sha256(f"traffic-bench:{seed}:{slot}".encode())
        rng = np.random.default_rng(int.from_bytes(digest.digest()[:8],
                                                   "little"))
        pool.append({"data": rng.random((1, 3, 16, 16)).astype("float32")})
    return pool


def _trace_spec(family: str, rate_rps: float, duration_s: float) -> TraceSpec:
    extra = {}
    if family == "diurnal":
        extra = {"diurnal_period_s": duration_s, "diurnal_amplitude": 0.8}
    elif family == "burst":
        extra = {"burst_every_s": 1.0, "burst_duration_s": 0.25,
                 "burst_factor": 4.0}
    return TraceSpec(family=family, rate_rps=rate_rps, duration_s=duration_s,
                     seed=TRACE_SEED, deadline_ms=DEADLINE_MS, **extra)


def _make_engine(module, policy: str) -> InferenceEngine:
    if policy == "adaptive":
        return InferenceEngine(module, devices=DEVICES,
                               max_batch="adaptive",
                               p99_target_ms=DEADLINE_MS,
                               adaptive_max_batch=MAX_BATCH,
                               max_queue=MAX_QUEUE)
    return InferenceEngine(module, devices=DEVICES, max_batch=MAX_BATCH,
                           timeout_ms=STATIC_WINDOW_MS, max_queue=MAX_QUEUE)


def run_cell(module, reference, pool, family: str, rate_rps: float,
             duration_s: float, policy: str) -> dict:
    """Replay one (family, load, policy) cell and return its row."""
    trace = _trace_spec(family, rate_rps, duration_s).generate()
    engine = _make_engine(module, policy)
    try:
        replayer = TraceReplayer(
            engine, trace, store_outputs=True,
            inputs_for=lambda request: pool[request.index % INPUT_POOL])
        wall_start = time.monotonic()
        report = replayer.replay()
        wall_s = time.monotonic() - wall_start
        stats = engine.stats()
    finally:
        engine.shutdown()

    bit_identical = True
    for record in report.records:
        if record["outcome"] != "served":
            continue
        outs = report.outputs[record["index"]]
        ref = reference[record["index"] % INPUT_POOL]
        if len(outs) != len(ref) or not all(
                (np.asarray(a) == np.asarray(b)).all()
                for a, b in zip(outs, ref)):
            bit_identical = False
            break

    counts = report.counts()
    return {
        "family": family,
        "offered_rps_target": rate_rps,
        "offered_rps": report.trace.offered_rps(),
        "policy": policy,
        "requests": len(trace),
        "trace_sha256": hashlib.sha256(
            trace.to_jsonl().encode()).hexdigest(),
        "outcomes": counts,
        "served_ok": report.served_ok,
        "served_late": report.served_late,
        "goodput_rps": report.goodput_rps,
        "violation_rate": report.violation_rate,
        "latency_split_ms": report.latency_split_ms(),
        "goodput_curve": report.windowed_goodput(),
        "adaptive_decisions": stats["adaptive"]["decisions"],
        "hung": counts["hung"],
        "bit_identical_outputs": bit_identical,
        "replay_wall_s": wall_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (shorter traces), same gates")
    parser.add_argument("--budget", type=float, default=420.0,
                        help="soft wall-clock budget in seconds (recorded)")
    parser.add_argument("--output", type=Path, default=None,
                        help="output JSON path (default: BENCH_traffic.json "
                             "or BENCH_traffic_smoke.json next to this file)")
    args = parser.parse_args(argv)

    duration_s = 2.0 if args.smoke else 5.0
    default_name = ("BENCH_traffic_smoke.json" if args.smoke
                    else "BENCH_traffic.json")
    out_path = args.output or Path(__file__).parent / default_name

    t_start = time.monotonic()
    module = repro.compile(_small_cnn(), target=cuda())
    pool = _input_pool(TRACE_SEED)
    solo = Executor(module)
    reference = [[np.asarray(o) for o in solo.run(inputs).outputs]
                 for inputs in pool]

    rows = []
    for family in ("poisson", "diurnal", "burst"):
        for rate in LOAD_LEVELS_RPS:
            for policy in ("static", "adaptive"):
                row = run_cell(module, reference, pool, family, rate,
                               duration_s, policy)
                rows.append(row)
                print(f"{family:8s} @{rate:6.1f} rps {policy:8s}: "
                      f"goodput {row['goodput_rps']:8.2f} rps, "
                      f"violations {row['violation_rate']:.3f}, "
                      f"outcomes {row['outcomes']}")

    # ----------------------------------------------------------- gates
    cells = []
    static_total = adaptive_total = 0.0
    hung_total = 0
    bit_identical_all = True
    for family in ("poisson", "diurnal", "burst"):
        for rate in LOAD_LEVELS_RPS:
            static = next(r for r in rows if r["family"] == family
                          and r["offered_rps_target"] == rate
                          and r["policy"] == "static")
            adaptive = next(r for r in rows if r["family"] == family
                            and r["offered_rps_target"] == rate
                            and r["policy"] == "adaptive")
            slack = _jitter_slack_rps(static["goodput_rps"])
            cells.append({
                "family": family,
                "offered_rps_target": rate,
                "static_goodput_rps": static["goodput_rps"],
                "adaptive_goodput_rps": adaptive["goodput_rps"],
                "jitter_slack_rps": slack,
                "passed": bool(adaptive["goodput_rps"]
                               >= static["goodput_rps"] - slack),
            })
            static_total += static["goodput_rps"]
            adaptive_total += adaptive["goodput_rps"]
            hung_total += static["hung"] + adaptive["hung"]
            bit_identical_all = (bit_identical_all
                                 and static["bit_identical_outputs"]
                                 and adaptive["bit_identical_outputs"])

    acceptance = {
        "goodput": {
            "criterion": "adaptive goodput >= static goodput at every "
                         "(family, load) cell (modulo scheduling-jitter "
                         "slack) and strictly greater summed over all cells",
            "cells": cells,
            "static_total_goodput_rps": static_total,
            "adaptive_total_goodput_rps": adaptive_total,
            "passed": bool(all(c["passed"] for c in cells)
                           and adaptive_total > static_total),
        },
        "no_hung_futures": {
            "criterion": "every submitted request resolves to a terminal "
                         "outcome in every run",
            "hung": hung_total,
            "passed": hung_total == 0,
        },
        "bit_identical_outputs": {
            "criterion": "every served request's output equals a solo "
                         "Executor run of the same input",
            "passed": bit_identical_all,
        },
    }
    elapsed = time.monotonic() - t_start

    payload = {
        "suite": "traffic",
        **run_header("wall"),
        "smoke": args.smoke,
        "machine": platform.machine(),
        "devices": DEVICES,
        "deadline_ms": DEADLINE_MS,
        "static_window_ms": STATIC_WINDOW_MS,
        "max_batch": MAX_BATCH,
        "load_levels_rps": list(LOAD_LEVELS_RPS),
        "trace_duration_s": duration_s,
        "trace_seed": TRACE_SEED,
        "rows": rows,
        "acceptance": acceptance,
        "elapsed_s": elapsed,
        "budget_s": args.budget,
    }
    out_path.write_text(json.dumps(payload, indent=2, default=float) + "\n")
    print(f"\nwrote {out_path} ({elapsed:.1f}s)")

    emit_summary("traffic", {
        "smoke": args.smoke,
        "static_total_goodput_rps": round(static_total, 2),
        "adaptive_total_goodput_rps": round(adaptive_total, 2),
        "mean_violation_rate_static": round(
            sum(r["violation_rate"] for r in rows
                if r["policy"] == "static") / (len(rows) / 2), 4),
        "mean_violation_rate_adaptive": round(
            sum(r["violation_rate"] for r in rows
                if r["policy"] == "adaptive") / (len(rows) / 2), 4),
        "hung": hung_total,
        "gates_passed": all(g["passed"] for g in acceptance.values()),
    })

    failed = [name for name, gate in acceptance.items() if not gate["passed"]]
    if failed:
        print(f"ACCEPTANCE FAILED: {failed}", file=sys.stderr)
        return 1
    print("all acceptance gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
