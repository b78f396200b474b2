"""Transfer from a tuning log (paper Section 5.2; tracked across PRs).

A tuning session's knowledge is its :class:`repro.autotvm.TuningDatabase`:
the recorded bests plus the trial log (``<path>.trials``).  A later session
given that database warm-starts its cost model from the bests and, once
the log holds enough rows of an operator on a target, starts from a model
pre-fit on them.  This benchmark measures what that buys on an unseen
shape and writes ``BENCH_tuning.json`` next to this file:

* **Identity** — a session given an empty file database is bitwise equal
  (best configs, estimates, trial curves) to a session given none.
* **Transfer** — per seed, eight history conv shapes are tuned into one
  file database; the database is reopened and the unseen 96-channel conv
  is tuned cold (no database) and file-warm (the reopened one).  Reported
  per seed: trials to reach the cold run's best (within 5%), the best
  estimate at equal trials, whether the warm session was pre-fit, its warm
  samples, and the wall seconds of the eight history sessions.

The JSON starts with the end-to-end benchmark's run header; the gated
numbers are on the simulated clock (``*_wall_s`` fields are wall seconds).

Usage::

    python benchmarks/bench_tuning.py              # seeds 0 - 4
    python benchmarks/bench_tuning.py --smoke      # seed 0, CI gates

The smoke gates: the identity holds, the warm session is pre-fit, its best
is no worse than cold's, and it reaches the cold best in no more trials.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import repro
from repro.autotvm import TuningDatabase, TuningOptions, clear_eval_caches

from common import conv_graph, emit_summary, run_header

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_tuning.json"

#: the workload the identity section tunes (one cheap conv task)
BASE_SHAPE = dict(batch=1, in_channels=16, height=16, width=16,
                  out_channels=32, kernel=3, stride=1, padding=1)
#: output channels of the history shapes tuned into the file database
TRANSFER_CHANNELS = (16, 24, 32, 40, 48, 56, 64, 72)
#: output channels of the unseen shape tuned cold vs file-warm
TRANSFER_TARGET_CHANNELS = 96


def trials_to_target(curve: Sequence[float], target_time: float,
                     rtol: float = 0.05) -> Optional[int]:
    """First (1-based) trial whose best-so-far time is within ``rtol`` of
    ``target_time`` — the convergence-speed metric of a tuning curve.
    ``None`` when the curve never gets there."""
    if not curve or not math.isfinite(target_time):
        return None
    threshold = target_time * (1.0 + rtol)
    for trial, value in enumerate(curve):
        if value <= threshold:
            return trial + 1
    return None


def _graph(out_channels=None):
    shape = dict(BASE_SHAPE)
    if out_channels is not None:
        shape["out_channels"] = out_channels
    return conv_graph(**shape)


def _fingerprint(report) -> dict:
    return {r.task_name: {"config": r.best_config.index,
                          "estimate": r.estimate,
                          "curve": [f"{v:.12e}" for v in r.curve]}
            for r in report}


def bench_identity(trials: int, seed: int, tmp_dir: Path) -> dict:
    """A session given an empty file database vs a session given none."""
    options = TuningOptions(trials=trials, seed=seed, batch_size=4)
    clear_eval_caches()
    bare = repro.autotune(_graph(), target="cuda", options=options)
    clear_eval_caches()
    with TuningDatabase(str(tmp_dir / "identity.jsonl")) as database:
        filed = repro.autotune(_graph(), target="cuda", options=options,
                               database=database)
    identical = _fingerprint(filed) == _fingerprint(bare)
    print(f"[tuning] empty file database bit-identical to none: "
          f"{identical}", flush=True)
    return {"bit_identical": identical}


def bench_transfer(trials: int, seed: int, tmp_dir: Path) -> dict:
    """History into a file database, reopen it, tune an unseen shape."""
    options = TuningOptions(trials=trials, seed=seed, batch_size=4)
    path = str(tmp_dir / f"transfer_seed{seed}.jsonl")
    started = time.perf_counter()
    with TuningDatabase(path) as history:
        for channels in TRANSFER_CHANNELS:
            clear_eval_caches()
            repro.autotune(_graph(channels), target="cuda", options=options,
                           database=history)
    history_wall_s = time.perf_counter() - started

    clear_eval_caches()
    cold, = repro.autotune(_graph(TRANSFER_TARGET_CHANNELS), target="cuda",
                           options=options).results
    clear_eval_caches()
    with TuningDatabase(path) as reopened:
        trial_rows = len(reopened.trials)
        warm, = repro.autotune(_graph(TRANSFER_TARGET_CHANNELS),
                               target="cuda", options=options,
                               database=reopened).results

    # Convergence toward the *cold* run's best time: how many trials does
    # each session need to reach it (within 5%)?
    cold_tt = trials_to_target(cold.curve, cold.best_time)
    warm_tt = trials_to_target(warm.curve, cold.best_time)
    print(f"[tuning] seed {seed}: trials to cold best cold {cold_tt}, warm "
          f"{warm_tt}; best us cold {cold.estimate * 1e6:.2f}, warm "
          f"{warm.estimate * 1e6:.2f}; pre-fit {warm.pretrained}, "
          f"{warm.warm_samples} warm samples, {trial_rows} trial rows; "
          f"history {history_wall_s:.1f}s", flush=True)
    return {"seed": seed,
            "trial_rows": trial_rows,
            "history_wall_s": round(history_wall_s, 2),
            "pretrained": warm.pretrained,
            "warm_samples": warm.warm_samples,
            "cold_best_s": cold.estimate,
            "warm_best_s": warm.estimate,
            "cold_trials_to_target": cold_tt,
            "warm_trials_to_target": warm_tt}


def check_acceptance(results: dict) -> list:
    """The smoke gates."""
    failures = []
    if not results["identity"]["bit_identical"]:
        failures.append("a session given an empty file database diverged "
                        "from a session given none")
    for row in results["transfer"]:
        seed = row["seed"]
        if not row["pretrained"]:
            failures.append(f"seed {seed}: the file-warm session was not "
                            f"pre-fit")
        if row["warm_best_s"] > row["cold_best_s"] * (1 + 1e-9):
            failures.append(f"seed {seed}: warm best regressed against the "
                            f"cold best")
        warm_tt, cold_tt = (row["warm_trials_to_target"],
                            row["cold_trials_to_target"])
        if warm_tt is None or (cold_tt is not None and warm_tt > cold_tt):
            failures.append(f"seed {seed}: file-warm did not reach the cold "
                            f"best faster (cold {cold_tt}, warm {warm_tt} "
                            f"trials)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=24,
                        help="trials per task (12 with --smoke)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
                        help="transfer seeds (seed 0 only with --smoke)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"JSON output path (default {DEFAULT_OUTPUT}; "
                             "--smoke defaults to BENCH_tuning_smoke.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run that enforces the gates")
    args = parser.parse_args(argv)

    trials, seeds = args.trials, list(args.seeds)
    if args.smoke:
        trials, seeds = min(trials, 12), seeds[:1]
    if args.output is None:
        args.output = (DEFAULT_OUTPUT.with_name("BENCH_tuning_smoke.json")
                       if args.smoke else DEFAULT_OUTPUT)

    started = time.perf_counter()
    results = {"suite": "bench_tuning", **run_header("simulated"),
               "smoke": bool(args.smoke), "trials": trials, "seeds": seeds,
               "history_shapes": len(TRANSFER_CHANNELS)}
    with tempfile.TemporaryDirectory(prefix="bench_tuning_") as tmp:
        results["identity"] = bench_identity(trials, seeds[0], Path(tmp))
        results["transfer"] = [bench_transfer(trials, seed, Path(tmp))
                               for seed in seeds]
    results["elapsed_wall_s"] = round(time.perf_counter() - started, 2)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[tuning] wrote {args.output}")

    rows = results["transfer"]
    emit_summary("tuning", {
        "bit_identical": results["identity"]["bit_identical"],
        "seeds": len(rows),
        "pretrained": sum(row["pretrained"] for row in rows),
        "cold_trials_to_target": [row["cold_trials_to_target"]
                                  for row in rows],
        "warm_trials_to_target": [row["warm_trials_to_target"]
                                  for row in rows],
        "history_wall_s": [row["history_wall_s"] for row in rows],
    })

    failures = check_acceptance(results)
    for failure in failures:
        print(f"[tuning] FAIL: {failure}", file=sys.stderr)
    if args.smoke:
        if failures:
            return 1
        print("[tuning] all transfer gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
