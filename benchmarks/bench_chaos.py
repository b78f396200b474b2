"""Chaos benchmark: serving under deterministic fault injection.

Runs the serving engine's process pool through a seeded
:class:`repro.faults.FaultPlan` (worker SIGKILLs, torn pipe frames) and
enforces the robustness contract as hard gates, writing
``BENCH_chaos.json`` next to this file (it starts with the end-to-end
benchmark's run header):

* **zero hung futures** — every submitted request resolves or raises a
  *typed* error within the timeout; no caller is ever left blocked;
* **bit-identical survivors** — every response that does arrive is
  byte-for-byte equal to the fault-free run (kills and retries never
  corrupt or duplicate work);
* **bounded shedding** — only requests with deliberately tight deadlines
  (plus the explicitly cancelled ones) may be shed; overall failure rate
  stays under 50% even while workers are being SIGKILLed;
* **no leaks** — no ``/dev/shm`` segment, no stray thread, and no
  installed fault plan survives the run.

Usage::

    python benchmarks/bench_chaos.py            # full run
    python benchmarks/bench_chaos.py --smoke    # CI-sized (same gates)
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.faults import FaultPlan, FaultSpec, active_plan
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import (DeadlineExceeded, Executor, InferenceEngine,
                           QueueFull, RequestCancelled, ServingError)
from repro.runtime.procpool import leaked_segments

from common import emit_summary, run_header

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_chaos.json"

RESULT_TIMEOUT_S = 180.0       #: per-future bound; anything slower is "hung"
TYPED_ERRORS = (DeadlineExceeded, QueueFull, RequestCancelled, ServingError,
                RuntimeError)


def _small_cnn():
    b = ModelBuilder("chaos-cnn", seed=0)
    data = b.input("data", (1, 3, 16, 16))
    net = b.relu(b.batch_norm(b.conv2d(data, 8, 3, 1, 1, name="conv0")))
    net = b.max_pool2d(net, 2, 2)
    net = b.flatten(net)
    net = b.softmax(b.dense(net, 10, "fc"))
    graph, params = b.finalize(net)
    return graph, params, {"data": (1, 3, 16, 16)}


# ---------------------------------------------------------------------------
# Scenario 1: serving under worker kills + torn pipe frames
# ---------------------------------------------------------------------------

def run_serve_chaos(module, n_requests: int) -> dict:
    rng = np.random.default_rng(0)
    inputs = [rng.random((1, 3, 16, 16)).astype("float32")
              for _ in range(n_requests)]
    solo = Executor(module)
    reference = [solo.run({"data": x}).outputs[0] for x in inputs]

    tight = set(range(7, n_requests, 8))       #: sacrificial 1ms deadlines
    to_cancel = {3, n_requests - 2} - tight

    plan = FaultPlan(seed=7, faults=[
        FaultSpec("worker_kill", at=[1, 4], max_count=2,
                  match={"pool": "repro-serve-pool"}),
        FaultSpec("frame_truncate", match={"protocol": "RPP1"}, after=6,
                  max_count=2),
    ])
    engine = InferenceEngine(module, devices=2, max_batch=4, timeout_ms=50,
                             max_queue=256, pool="process")
    futures = []
    try:
        with plan:
            for i, x in enumerate(inputs):
                deadline_ms = 1.0 if i in tight else 120_000.0
                futures.append(engine.submit(
                    data=x, deadline_ms=deadline_ms, priority=i % 3))
            cancelled = sum(futures[i].cancel() for i in to_cancel)
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(RESULT_TIMEOUT_S))
                except TimeoutError:
                    outcomes.append("HUNG")
                except TYPED_ERRORS as exc:
                    outcomes.append(exc)
                except BaseException as exc:  # noqa: BLE001 — gate: untyped
                    outcomes.append(("UNTYPED", exc))
    finally:
        engine.shutdown()

    hung = sum(1 for o in outcomes if o == "HUNG")
    untyped = sum(1 for o in outcomes
                  if isinstance(o, tuple) and o and o[0] == "UNTYPED")
    mismatched = resolved = failed = 0
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, list):
            resolved += 1
            if not np.array_equal(outcome[0], reference[i]):
                mismatched += 1
        elif isinstance(outcome, BaseException):
            failed += 1
    stats = engine.stats()
    respawns = sum(w["respawns"] for w in stats.get("process_workers", []))
    failure_rate = (n_requests - resolved) / n_requests
    gates = {
        "zero_hung_futures": hung == 0,
        "zero_untyped_errors": untyped == 0,
        "survivors_bit_identical": mismatched == 0,
        "failure_rate_bounded": failure_rate <= 0.5,
        "faults_actually_fired": plan.total_injected() >= 1,
        "killed_workers_respawned": respawns >= 1,
    }
    return {
        "scenario": "serve-chaos",
        "requests": n_requests,
        "tight_deadlines": len(tight),
        "cancelled": cancelled,
        "resolved": resolved,
        "failed_typed": failed,
        "hung": hung,
        "untyped_errors": untyped,
        "mismatched_outputs": mismatched,
        "failure_rate": round(failure_rate, 4),
        "respawns": respawns,
        "slo": stats["slo"],
        "fault_plan": plan.stats(),
        "gates": gates,
        "passed": all(gates.values()),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer requests, same "
                             "gates); writes BENCH_chaos_smoke.json")
    parser.add_argument("--requests", type=int, default=None,
                        help="serving requests (default 48; 16 with --smoke)")
    parser.add_argument("--budget", type=float, default=None,
                        help="fail if the run exceeds this many seconds "
                             "(default 420 with --smoke)")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    n_requests = args.requests or (16 if args.smoke else 48)
    budget = args.budget or (420.0 if args.smoke else None)
    output = args.output or (DEFAULT_OUTPUT.with_name("BENCH_chaos_smoke.json")
                             if args.smoke else DEFAULT_OUTPUT)

    threads_before = {t.name for t in threading.enumerate()}
    suite_start = time.perf_counter()
    print("Compiling the chaos workload ...")
    module = repro.compile(_small_cnn(), target=cuda())

    print(f"serve-chaos: {n_requests} requests, 2 worker processes, "
          f"SIGKILLs + torn RPP1 frames ...")
    scenarios = [run_serve_chaos(module, n_requests)]
    print(f"  resolved {scenarios[-1]['resolved']}/{n_requests}, "
          f"hung {scenarios[-1]['hung']}, respawns "
          f"{scenarios[-1]['respawns']}, injected "
          f"{scenarios[-1]['fault_plan']['total_injected']}")

    # ----------------------------------------------------------------- audits
    leaked = leaked_segments()
    lingering = []
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        lingering = sorted({t.name for t in threading.enumerate()}
                           - threads_before)
        if not lingering:
            break
        time.sleep(0.05)
    audits = {
        "scenario": "audits",
        "gates": {
            "no_shm_leaks": not leaked,
            "no_thread_leaks": not lingering,
            "no_plan_left_installed": active_plan() is None,
        },
        "leaked_segments": leaked,
        "lingering_threads": lingering,
        "passed": None,
    }
    audits["passed"] = all(audits["gates"].values())
    scenarios.append(audits)

    elapsed = time.perf_counter() - suite_start
    passed = all(s["passed"] for s in scenarios)
    results = {
        "suite": "chaos",
        **run_header("wall"),
        "smoke": bool(args.smoke),
        "requests": n_requests,
        "scenarios": scenarios,
        "elapsed_s": round(elapsed, 2),
        "passed": passed,
    }
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nWrote {output}")
    for scenario in scenarios:
        flags = "".join(f"\n    {name}: {'PASS' if ok else 'FAIL'}"
                        for name, ok in scenario["gates"].items())
        print(f"{scenario['scenario']}: "
              f"{'PASS' if scenario['passed'] else 'FAIL'}{flags}")
    emit_summary("chaos", {
        "requests": n_requests,
        "serve_resolved": scenarios[0]["resolved"],
        "serve_hung": scenarios[0]["hung"],
        "serve_respawns": scenarios[0]["respawns"],
        "faults_injected": sum(
            s.get("fault_plan", {}).get("total_injected", 0)
            for s in scenarios),
        "passed": passed,
        "elapsed_s": round(elapsed, 1),
    })

    if not passed:
        print("FAIL: chaos gate not met", file=sys.stderr)
        return 1
    if budget is not None and elapsed > budget:
        print(f"FAIL: exceeded wall-clock budget ({elapsed:.1f}s > "
              f"{budget:.0f}s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
