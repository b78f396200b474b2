"""Repo-performance benchmark suite (tracked across PRs).

Unlike the ``bench_fig*`` modules — which regenerate the *paper's* figures —
this suite times the **reproduction itself**: the compile path and the
candidate-evaluation loop that every tuning session hammers (lower ->
featurise -> score, paper §5.2–5.3).  It writes ``BENCH_perf.json`` next to
this file so the perf trajectory of the repo is machine-readable per commit.

Measured:

* ``repro.compile(resnet-18)`` cold (empty caches) and warm (memoised).
* A ``repro.autotune`` ModelBasedTuner session on resnet-18 (64 trials per
  task by default), plus a determinism fingerprint — the per-task best
  config indices and a checksum of the trial curves — so speedups can be
  checked to be *behaviour-preserving* under a fixed seed.
* Shared evaluation-cache hit rates (see ``repro.autotvm.eval_cache``).

Usage::

    python benchmarks/bench_perf_suite.py              # full suite (64 trials)
    python benchmarks/bench_perf_suite.py --smoke      # CI-sized, with budget
    python benchmarks/bench_perf_suite.py --trials 16 --tasks 4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import repro
from repro.autotvm import TuningOptions, eval_cache_stats
from repro.autotvm.session import (_extract_task_nodes, _normalise_model,
                                   _run_session)
from repro.graph import clear_timing_cache

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_perf.json"


def time_compile(model: str, target: str) -> dict:
    """Cold and warm wall-clock of ``repro.compile``."""
    clear_timing_cache()
    start = time.perf_counter()
    repro.compile(model, target=target)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    repro.compile(model, target=target)
    warm = time.perf_counter() - start
    return {"cold_s": cold, "warm_s": warm}


def time_tuning_session(model: str, target: str, trials: int,
                        max_tasks: int | None, seed: int = 0) -> dict:
    """Wall-clock and determinism fingerprint of a ModelBasedTuner session."""
    clear_timing_cache()
    graph, resolved = _normalise_model(model, target, None, None)
    pairs = _extract_task_nodes(graph, resolved)
    if max_tasks is not None:
        pairs = pairs[:max_tasks]

    # The real repro.autotune session flow (shared database -> transfer-
    # learning warm starts, fallback-floor validation), so the determinism
    # fingerprint matches what users of autotune() get.
    options = TuningOptions(trials=trials, tuner="model", seed=seed)
    start = time.perf_counter()
    report = _run_session(pairs, options, None, resolved.name)
    elapsed = time.perf_counter() - start

    best = {r.task_name: r.best_config.index for r in report.results}
    curves = hashlib.sha256()
    for result in report.results:
        curves.update(result.task_name.encode())
        curves.update(repr([f"{v:.12e}" for v in result.curve]).encode())
    return {
        "elapsed_s": elapsed,
        "tasks": len(report.results),
        "trials_per_task": trials,
        "total_trials": report.total_trials,
        "seconds_per_trial": elapsed / max(report.total_trials, 1),
        "best_config_indices": best,
        "curve_sha256": curves.hexdigest(),
        "eval_cache": eval_cache_stats(),
    }


def run_suite(model: str = "resnet-18", target: str = "gpu", trials: int = 64,
              max_tasks: int | None = None, seed: int = 0) -> dict:
    results = {
        "suite": "bench_perf_suite",
        "model": model,
        "target": target,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    print(f"[perf] compile {model} ({target}) cold/warm ...", flush=True)
    results["compile"] = time_compile(model, target)
    print(f"[perf]   cold {results['compile']['cold_s']:.2f}s, "
          f"warm {results['compile']['warm_s']:.3f}s", flush=True)

    task_note = f"{max_tasks} tasks" if max_tasks else "all tasks"
    print(f"[perf] autotune {model}: {trials} trials x {task_note} ...",
          flush=True)
    results["tuning_session"] = time_tuning_session(model, target, trials,
                                                    max_tasks, seed=seed)
    session = results["tuning_session"]
    # Surface the shared-cache counters (with derived hit rates) as a
    # top-level section so per-commit dashboards need not dig into the
    # session record.
    results["eval_cache"] = {
        name: {**counters,
               "hit_rate": counters["hits"] / max(counters["hits"]
                                                  + counters["misses"], 1)}
        for name, counters in session["eval_cache"].items()}
    hit_rate = results["eval_cache"]["features"]["hit_rate"]
    print(f"[perf]   {session['elapsed_s']:.1f}s for "
          f"{session['total_trials']} trials "
          f"({session['seconds_per_trial']*1000:.0f} ms/trial, "
          f"feature-cache hit rate {hit_rate:.0%})", flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="resnet-18")
    parser.add_argument("--target", default="gpu")
    parser.add_argument("--trials", type=int, default=64,
                        help="measurement trials per task (default 64)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="limit the number of tuned tasks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None,
                        help=f"JSON output path (default {DEFAULT_OUTPUT}; "
                             "--smoke defaults to BENCH_perf_smoke.json so "
                             "it never clobbers the tracked full-run record)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 8 trials x 3 tasks, enforced "
                             "wall-clock budget")
    parser.add_argument("--budget", type=float, default=None,
                        help="fail if the tuning session exceeds this many "
                             "seconds (default 120 with --smoke)")
    args = parser.parse_args(argv)

    trials, max_tasks = args.trials, args.tasks
    budget = args.budget
    if args.smoke:
        trials = min(trials, 8)
        max_tasks = min(max_tasks, 3) if max_tasks else 3
        if budget is None:
            budget = 120.0
    if args.output is None:
        args.output = (DEFAULT_OUTPUT.with_name("BENCH_perf_smoke.json")
                       if args.smoke else DEFAULT_OUTPUT)

    results = run_suite(model=args.model, target=args.target, trials=trials,
                        max_tasks=max_tasks, seed=args.seed)
    results["smoke"] = bool(args.smoke)

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[perf] wrote {args.output}")
    from common import emit_summary

    session = results["tuning_session"]
    emit_summary("perf", {
        "compile_cold_s": round(results["compile"]["cold_s"], 3),
        "compile_warm_s": round(results["compile"]["warm_s"], 4),
        "tuning_elapsed_s": round(session["elapsed_s"], 2),
        "ms_per_trial": round(session["seconds_per_trial"] * 1e3, 2),
        "feature_cache_hit_rate":
            round(results["eval_cache"]["features"]["hit_rate"], 4),
        "curve_sha256": session["curve_sha256"][:16],
    })

    if budget is not None:
        elapsed = results["tuning_session"]["elapsed_s"]
        if elapsed > budget:
            print(f"[perf] FAIL: tuning session took {elapsed:.1f}s "
                  f"(budget {budget:.0f}s)", file=sys.stderr)
            return 1
        print(f"[perf] tuning session within budget "
              f"({elapsed:.1f}s <= {budget:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
