"""Open-loop traffic benchmark: goodput/SLO curves, static vs adaptive.

Sends the three seeded arrival families of ``arrivals.py`` (Poisson,
diurnal, burst) to ``InferenceEngine`` at several offered-load levels
through the end-to-end benchmark's open-loop driver
(``e2e/openloop.py::run_open_loop``), once with the static batcher
(``max_batch=8`` with a fixed coalescing window) and once with adaptive
batch sizing (``max_batch="adaptive"``), and writes ``BENCH_traffic.json``
next to this file with a goodput and SLO-violation curve per (family, load
level, policy) cell.

Every latency here is on the due clock: a request is timed from the moment
its schedule said it was due, so a stalled engine or a late generator is
charged to every request it delayed.  A request meets its SLO when it is
served within ``DEADLINE_MS`` of its due time.

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

    python benchmarks/bench_traffic.py            # full run (5 s schedules)
    python benchmarks/bench_traffic.py --smoke    # CI-sized (2 s schedules)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

import repro
from repro.frontend import ModelBuilder
from repro.hardware import cuda
from repro.runtime import Executor, InferenceEngine

from arrivals import FAMILIES, arrivals
from common import emit_summary, run_header

# Appended, not prepended: e2e/trace.py must not shadow the stdlib ``trace``.
sys.path.append(str(Path(__file__).resolve().parent / "e2e"))
from openloop import Sent, run_open_loop  # noqa: E402

DEVICES = 2
MAX_QUEUE = 512
DEADLINE_MS = 120.0
STATIC_WINDOW_MS = 150.0
MAX_BATCH = 8
LOAD_LEVELS_RPS = (25.0, 100.0, 400.0)
INPUT_POOL = 8
SEED = 20260808
#: a request still unresolved this long after the schedule ended is hung
HUNG_AFTER_S = 120.0
#: arrival-window width of the goodput curve, seconds
GOODPUT_WINDOW_S = 0.5

#: request outcomes, in reporting order
OUTCOMES = ("served", "shed", "expired", "failed", "hung")
#: the outcome of a request by the class of the error ``run_open_loop``
#: recorded for it (a ``TimeoutError`` is a future unresolved at give-up)
_OUTCOME_OF_ERROR = {"QueueFull": "shed", "DeadlineExceeded": "expired",
                     "TimeoutError": "hung"}


#: per-cell goodput slack (rps) tolerated for host scheduling jitter — the
#: two policies replay the same wall-clock schedule on a shared host, so a
#: tie can wobble by a few requests either way; the summed-goodput gate below
#: is strict, so adaptive must still win overall.
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


def _outcome(request: Sent) -> str:
    if request.error is None:
        return "served"
    return _OUTCOME_OF_ERROR.get(request.error.split(":", 1)[0], "failed")


def _stats_ms(seconds: Sequence[float], prefix: str) -> Dict[str, float]:
    """Mean, p50 and p99 of ``seconds`` in milliseconds (0.0 when empty)."""
    ms = np.asarray(seconds, dtype=float) * 1e3
    if not len(ms):
        return {f"{prefix}_{stat}_ms": 0.0 for stat in ("mean", "p50", "p99")}
    return {f"{prefix}_mean_ms": float(ms.mean()),
            f"{prefix}_p50_ms": float(np.percentile(ms, 50)),
            f"{prefix}_p99_ms": float(np.percentile(ms, 99))}


def summarise(sent: List[Sent], offsets: Sequence[float],
              duration_s: float) -> Dict[str, object]:
    """Outcome counts, goodput, SLO-violation rate, the goodput curve and the
    latency split of one cell, from ``run_open_loop``'s records.

    A request is good when it is served within ``DEADLINE_MS`` of its due
    time.  The split says where a served request's due-clock latency went:
    ``late`` from its due time to the engine's enqueue (the generator's
    lateness plus the submit call), then the engine's ``queue_wait`` and
    ``execute``.
    """
    outcomes = [_outcome(request) for request in sent]
    served = [request for request, outcome in zip(sent, outcomes)
              if outcome == "served"]
    good = {request.index for request in served
            if request.latency <= DEADLINE_MS / 1e3}

    n_windows = max(1, math.ceil(duration_s / GOODPUT_WINDOW_S))
    offered, ok = [0] * n_windows, [0] * n_windows
    for request in sent:
        window = min(int(offsets[request.index] / GOODPUT_WINDOW_S),
                     n_windows - 1)
        offered[window] += 1
        ok[window] += request.index in good
    return {
        "outcomes": {outcome: outcomes.count(outcome)
                     for outcome in OUTCOMES},
        "served_ok": len(good),
        "served_late": len(served) - len(good),
        "goodput_rps": len(good) / duration_s,
        "violation_rate": 1.0 - len(good) / len(sent) if sent else 0.0,
        "latency_ms": _stats_ms([r.latency for r in served], "due"),
        "latency_split_ms": {
            **_stats_ms([r.submitted - r.due for r in served], "late"),
            **_stats_ms([r.future.queue_wait for r in served], "queue_wait"),
            **_stats_ms([r.future.execute_latency for r in served],
                        "execute")},
        "goodput_curve": [{"window_start_s": index * GOODPUT_WINDOW_S,
                           "offered": offered[index],
                           "served_ok": ok[index],
                           "goodput_rps": ok[index] / GOODPUT_WINDOW_S}
                          for index in range(n_windows)],
    }


def _make_engine(module, policy: str) -> InferenceEngine:
    if policy == "adaptive":
        return InferenceEngine(module, devices=DEVICES,
                               max_batch="adaptive",
                               p99_target_ms=DEADLINE_MS,
                               adaptive_max_batch=MAX_BATCH,
                               max_queue=MAX_QUEUE)
    return InferenceEngine(module, devices=DEVICES, max_batch=MAX_BATCH,
                           timeout_ms=STATIC_WINDOW_MS, max_queue=MAX_QUEUE)


def _same_outputs(outputs, reference) -> bool:
    return len(outputs) == len(reference) and all(
        (np.asarray(got) == want).all()
        for got, want in zip(outputs, reference))


def run_cell(module, reference, pool, family: str, rate_rps: float,
             duration_s: float, policy: str) -> dict:
    """Send one (family, load, policy) cell open-loop and return its row."""
    offsets = arrivals(family, rate_rps, duration_s, SEED)
    engine = _make_engine(module, policy)
    try:
        wall_start = time.monotonic()
        result = run_open_loop(
            lambda index: engine.submit(pool[index % INPUT_POOL],
                                        deadline_ms=DEADLINE_MS),
            offsets, HUNG_AFTER_S)
        wall_s = time.monotonic() - wall_start
        stats = engine.stats()
    finally:
        engine.shutdown()

    bit_identical = all(
        _same_outputs(request.outputs, reference[request.index % INPUT_POOL])
        for request in result.succeeded)
    return {
        "family": family,
        "offered_rps_target": rate_rps,
        "offered_rps": len(offsets) / duration_s,
        "policy": policy,
        "requests": len(offsets),
        "arrivals_sha256": hashlib.sha256(
            repr(offsets).encode()).hexdigest(),
        **summarise(result.sent, offsets, duration_s),
        "adaptive_decisions": stats["adaptive"]["decisions"],
        "bit_identical_outputs": bit_identical,
        "wall_s": wall_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (shorter schedules), same gates")
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
    pool = _input_pool(SEED)
    solo = Executor(module)
    reference = [[np.asarray(o) for o in solo.run(inputs).outputs]
                 for inputs in pool]

    rows = []
    for family in FAMILIES:
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
    for family in FAMILIES:
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
            hung_total += (static["outcomes"]["hung"]
                           + adaptive["outcomes"]["hung"])
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
        "latency_clock": "due",
        "duration_s": duration_s,
        "seed": SEED,
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
