"""Serving benchmark: throughput and latency vs ``max_batch`` (tracked per PR).

Measures ``repro.serve`` on resnet-18/cuda over a pool of simulated GPUs in
several modes and writes ``BENCH_serving.json`` next to this file:

* **sequential** — one blocking client, one device, no engine: the seed-era
  deployment pattern (one request finishes before the next starts).
* **threaded** — the engine with ``max_batch=1``: concurrent requests spread
  across the device pool but never coalesced.
* **batched** — the engine with dynamic batching at several ``max_batch``
  settings: requests coalesce along the batch axis and each free device
  pulls the next whole batch.
* **process / process-batched** — the engine with ``pool="process"``: one
  worker OS process per device over a shared-memory parameter arena, so
  execution escapes the GIL and *wall-clock* throughput can actually scale
  with the device pool (the thread modes above scale only in simulated time).

Throughput is reported in *simulated* time (per-batch kernel estimates — a
batch costs what compiling the model at that batch size estimates, never the
sum of per-request times) alongside host wall-clock observations.  Every
request's output is checked to be bit-identical to a solo execution, a
determinism fingerprint over the timing-independent quantities (single/batch
kernel estimates and an output digest) is recorded so behaviour changes are
visible per commit, and after all runs ``/dev/shm`` is audited for leaked
pool segments.

Wall-clock columns are observations, not gates — wall clock is judged by
``benchmarks/e2e`` on paired runs; the host's core count is recorded so the
rows stay interpretable.  The process-pool acceptance is correctness only:
bit-identical outputs and no leaked segment.

Usage::

    python benchmarks/bench_serving.py                    # full run, all modes
    python benchmarks/bench_serving.py --smoke            # CI-sized, enforces
                                                          # the >=3x sim bound
    python benchmarks/bench_serving.py --smoke --pool process
                                                          # CI process-pool job
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.runtime import Executor, InferenceEngine
from repro.runtime.procpool import leaked_segments

from common import emit_summary

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_serving.json"

MODEL = "resnet-18"
TARGET = "cuda"
DEVICES = 4                    #: simulated GPU pool the engine's workers serve
BATCH_SIZES = (2, 4, 8)
PROCESS_BATCH = 8              #: max_batch of the process-batched mode
COALESCE_TIMEOUT_MS = 250.0    #: generous window so batches fill deterministically


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # non-Linux
        return os.cpu_count() or 1


def _requests(n: int, shape) -> list:
    rng = np.random.default_rng(0)
    return [rng.random(shape).astype("float32") for _ in range(n)]


def run_sequential(module, inputs) -> tuple:
    """One blocking client on one device; returns (row, reference outputs)."""
    executor = Executor(module)
    outputs = []
    start = time.perf_counter()
    for data in inputs:
        outputs.append(executor.run({"data": data}).outputs[0])
    wall = time.perf_counter() - start
    n = len(inputs)
    single = module.total_time
    row = {
        "mode": "sequential", "devices": 1, "max_batch": 1,
        "requests": n,
        "mean_batch_occupancy": 1.0,
        "sim_throughput_rps": 1.0 / single,
        "sim_latency_p50_ms": single * 1e3,
        "sim_latency_p99_ms": single * 1e3,
        "wall_throughput_rps": n / wall,
        "wall_latency_p50_ms": wall / n * 1e3,
        "wall_latency_p99_ms": wall / n * 1e3,
    }
    return row, outputs


def run_engine_mode(module, inputs, mode: str, max_batch: int,
                    reference, pool: str = "thread") -> dict:
    engine = InferenceEngine(module, devices=DEVICES, max_batch=max_batch,
                             timeout_ms=COALESCE_TIMEOUT_MS, pool=pool)
    try:
        # Warm the batch cost model so the first batch doesn't pay the
        # one-off estimation inside its wall-clock window.
        engine.estimated_batch_time(max_batch)
        results = engine.infer_many([{"data": data} for data in inputs],
                                    timeout=600)
    finally:
        engine.shutdown()
    bit_identical = all(np.array_equal(got[0], want)
                        for got, want in zip(results, reference))
    stats = engine.stats()
    sim, wall = stats["simulated"], stats["wall"]
    return {
        "mode": mode, "pool": pool, "devices": DEVICES, "max_batch": max_batch,
        "requests": stats["requests"],
        "batches": stats["batches"],
        "batch_occupancy": stats["batch_occupancy"],
        "mean_batch_occupancy": stats["mean_batch_occupancy"],
        "bit_identical_outputs": bool(bit_identical),
        "sim_throughput_rps": sim["throughput_rps"],
        "sim_latency_p50_ms": sim["latency"]["p50_ms"],
        "sim_latency_p99_ms": sim["latency"]["p99_ms"],
        "wall_throughput_rps": wall["throughput_rps"],
        "wall_latency_p50_ms": wall["latency"]["p50_ms"],
        "wall_latency_p99_ms": wall["latency"]["p99_ms"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per mode (default 64; 32 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: fewer requests, enforce the >=3x "
                             "acceptance bound and the wall-clock budget")
    parser.add_argument("--budget", type=float, default=None,
                        help="fail if the whole benchmark exceeds this many "
                             "seconds (default 420 with --smoke)")
    parser.add_argument("--output", type=Path, default=None,
                        help="output JSON path; --smoke defaults to "
                             "BENCH_serving_smoke.json so the tracked "
                             "full-run numbers are not clobbered")
    parser.add_argument("--pool", choices=("thread", "process", "both"),
                        default="both",
                        help="which engine pools to benchmark (sequential "
                             "and threaded always run as baselines)")
    args = parser.parse_args(argv)
    n_requests = args.requests or (32 if args.smoke else 64)
    budget = args.budget or (420.0 if args.smoke else None)
    output = args.output or (DEFAULT_OUTPUT.with_name("BENCH_serving_smoke.json")
                             if args.smoke else DEFAULT_OUTPUT)

    suite_start = time.perf_counter()
    print(f"Compiling {MODEL} for {TARGET} ...")
    module = repro.compile(MODEL, target=TARGET)
    shape = next(spec.shape for spec in Executor(module).input_specs)
    inputs = _requests(n_requests, shape)

    print(f"sequential: {n_requests} requests on 1 device ...")
    sequential, reference = run_sequential(module, inputs)
    rows = [sequential]
    print(f"  sim {sequential['sim_throughput_rps']:.0f} rps")

    print(f"threaded:   {n_requests} requests, {DEVICES} devices, "
          f"max_batch=1 ...")
    threaded = run_engine_mode(module, inputs, "threaded", 1, reference)
    rows.append(threaded)
    print(f"  sim {threaded['sim_throughput_rps']:.0f} rps, "
          f"wall {threaded['wall_throughput_rps']:.1f} rps")

    if args.pool in ("thread", "both"):
        for max_batch in BATCH_SIZES:
            print(f"batched:    {n_requests} requests, {DEVICES} devices, "
                  f"max_batch={max_batch} ...")
            rows.append(run_engine_mode(module, inputs, "batched", max_batch,
                                        reference))
            print(f"  sim {rows[-1]['sim_throughput_rps']:.0f} rps, occupancy "
                  f"{rows[-1]['mean_batch_occupancy']:.2f}")

    process_row = None
    if args.pool in ("process", "both"):
        print(f"process:    {n_requests} requests, {DEVICES} worker "
              f"processes, max_batch=1 ...")
        process_row = run_engine_mode(module, inputs, "process", 1,
                                      reference, pool="process")
        rows.append(process_row)
        print(f"  sim {process_row['sim_throughput_rps']:.0f} rps, "
              f"wall {process_row['wall_throughput_rps']:.1f} rps")
        print(f"process-batched: {n_requests} requests, {DEVICES} worker "
              f"processes, max_batch={PROCESS_BATCH} ...")
        rows.append(run_engine_mode(module, inputs, "process-batched",
                                    PROCESS_BATCH, reference, pool="process"))
        print(f"  sim {rows[-1]['sim_throughput_rps']:.0f} rps, "
              f"wall {rows[-1]['wall_throughput_rps']:.1f} rps")

    base = sequential["sim_throughput_rps"]
    for row in rows:
        row["sim_speedup_vs_sequential"] = row["sim_throughput_rps"] / base
        row["wall_speedup_vs_sequential"] = (row["wall_throughput_rps"]
                                             / sequential["wall_throughput_rps"])

    # Timing-independent determinism fingerprint: kernel estimates at each
    # batch size plus a digest of the first request's output.
    batch_estimates = {"1": module.total_time}
    probe = InferenceEngine(module, devices=1, max_batch=max(BATCH_SIZES))
    try:
        for size in BATCH_SIZES:
            batch_estimates[str(size)] = probe.estimated_batch_time(size)
    finally:
        probe.shutdown()
    digest = hashlib.sha256()
    digest.update(reference[0].tobytes())
    digest.update(json.dumps(batch_estimates, sort_keys=True).encode())
    fingerprint = digest.hexdigest()

    acceptance = {}
    batched8 = next((r for r in rows
                     if r["mode"] == "batched" and r["max_batch"] == 8), None)
    if batched8 is not None:
        acceptance["batching"] = {
            "criterion": "serve(max_batch=8) >= 3x sequential simulated "
                         "throughput on resnet-18/gpu with bit-identical "
                         "outputs",
            "sim_speedup": batched8["sim_speedup_vs_sequential"],
            "bit_identical_outputs": batched8["bit_identical_outputs"],
            "passed": bool(batched8["sim_speedup_vs_sequential"] >= 3.0
                           and batched8["bit_identical_outputs"]),
        }
    cores = _host_cores()
    if process_row is not None:
        acceptance["process_pool"] = {
            "criterion": f"pool='process' over {DEVICES} workers: "
                         f"bit-identical outputs",
            "bit_identical_outputs": process_row["bit_identical_outputs"],
            "passed": bool(process_row["bit_identical_outputs"]),
        }
    leaked = leaked_segments()
    acceptance["shm_leaks"] = {
        "criterion": "no repro-pp-* segment left in /dev/shm after all "
                     "engine shutdowns",
        "leaked_segments": leaked,
        "passed": not leaked,
    }
    elapsed = time.perf_counter() - suite_start

    results = {
        "suite": "serving",
        "model": MODEL,
        "target": TARGET,
        "requests_per_mode": n_requests,
        "coalesce_timeout_ms": COALESCE_TIMEOUT_MS,
        "smoke": bool(args.smoke),
        "python": platform.python_version(),
        "host_cores": cores,
        "rows": rows,
        "batch_time_estimates_s": batch_estimates,
        "acceptance": acceptance,
        "determinism_fingerprint": fingerprint,
        "elapsed_s": elapsed,
    }
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nWrote {output}")
    for name, check in acceptance.items():
        print(f"acceptance[{name}]: "
              f"{'PASS' if check['passed'] else 'FAIL'}")
    emit_summary("serving", {
        "modes": {row["mode"]: {
            "wall_rps": round(row["wall_throughput_rps"], 2),
            "sim_rps": round(row["sim_throughput_rps"], 2),
            "wall_p99_ms": round(row["wall_latency_p99_ms"], 2),
            "sim_p99_ms": round(row["sim_latency_p99_ms"], 2),
        } for row in rows},
        "host_cores": cores,
        "fingerprint": fingerprint[:16],
        "passed": all(check["passed"] for check in acceptance.values()),
        "elapsed_s": round(elapsed, 1),
    })

    if not all(check["passed"] for check in acceptance.values()):
        print("FAIL: acceptance criterion not met", file=sys.stderr)
        return 1
    if budget is not None and elapsed > budget:
        print(f"FAIL: exceeded wall-clock budget ({elapsed:.1f}s > "
              f"{budget:.0f}s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
