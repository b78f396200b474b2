"""Distributed-tuning-service benchmark (tracked across PRs).

Exercises the shared :class:`repro.autotvm.service.TuningService` end to end
and records the numbers the service exists to improve, writing
``BENCH_tuning.json`` next to this file:

* **Bit-identity** — a single session against a fresh service must produce
  exactly the serviceless report (best configs, estimates and trial curves).
* **Global dedup** — two concurrent sessions tuning the same workloads skip
  repeat measurements through the service's trial store; the fraction
  skipped is reported (and enforced >= 25% under ``--smoke``).
* **Transfer** — a service restarted on an accumulated database pretrains
  its cost model and warm-starts a session on an *unseen* shape; trials to
  reach the cold run's best time are compared cold vs warm.
* **Zoo drive** — :func:`repro.autotvm.service.zoo.schedule_zoo` tunes the
  model zoo against one service, reporting seconds-per-trial and
  trials-to-target per workload.

Usage::

    python benchmarks/bench_tuning.py              # full run
    python benchmarks/bench_tuning.py --smoke      # CI-sized + acceptance
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.autotvm import TuningOptions, clear_eval_caches
from repro.autotvm.service import TuningService
from repro.autotvm.service.zoo import schedule_zoo, trials_to_target

from common import conv_graph, emit_summary

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_tuning.json"

#: the workload every identity/dedup session tunes (one cheap conv task)
BASE_SHAPE = dict(batch=1, in_channels=16, height=16, width=16,
                  out_channels=32, kernel=3, stride=1, padding=1)
#: shape family tuned to accumulate the transfer database
TRANSFER_CHANNELS = (16, 24, 32, 40, 48, 56, 64, 72)
#: the unseen shape the transfer section tunes cold vs warm
TRANSFER_TARGET_CHANNELS = 96


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


def _result_rows(report) -> list:
    return [{"workload": r.task_name, "trials": r.trials,
             "elapsed_s": round(r.elapsed, 4),
             "seconds_per_trial": round(r.elapsed / max(r.trials, 1), 6),
             "trials_to_target": trials_to_target(r.curve, r.best_time),
             "dedup_hits": r.dedup_hits, "warm_samples": r.warm_samples,
             "pretrained": r.pretrained} for r in report]


def bench_identity(trials: int, seed: int) -> dict:
    """A single session against a fresh service vs tuning locally."""
    opts = dict(trials=trials, seed=seed, batch_size=4)
    clear_eval_caches()
    solo = repro.autotune(_graph(), target="cuda",
                          options=TuningOptions(**opts))
    with TuningService() as service:
        clear_eval_caches()
        serviced = repro.autotune(
            _graph(), target="cuda",
            options=TuningOptions(service=service.address, **opts))
    identical = _fingerprint(serviced) == _fingerprint(solo)
    print(f"[tuning] single serviced session bit-identical to solo: "
          f"{identical}", flush=True)
    return {"bit_identical": identical,
            "solo_rows": _result_rows(solo),
            "serviced_stats": serviced.service_stats}


def bench_concurrent_dedup(trials: int, seed: int) -> dict:
    """Two concurrent sessions sharing one service; how much is skipped?"""
    opts = dict(trials=trials, seed=seed, batch_size=4, warm_start=False)
    clear_eval_caches()
    solo = repro.autotune(_graph(), target="cuda",
                          options=TuningOptions(**opts))
    reports, errors = {}, []
    with TuningService() as service:
        def run(name: str, delay: float) -> None:
            try:
                if delay:
                    time.sleep(delay)   # stagger: the late joiner reuses work
                reports[name] = repro.autotune(
                    _graph(), target="cuda",
                    options=TuningOptions(service=service.address, **opts))
            except Exception as exc:     # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=run, args=("a", 0.0)),
                   threading.Thread(target=run, args=("b", 0.15))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()
    if errors:
        raise errors[0]
    session_trials = sum(r.trials for r in reports["b"].results)
    fraction = stats["dedup_hits"] / max(session_trials, 1)
    solo_fp = _fingerprint(solo)
    both_match = all(_fingerprint(reports[k]) == solo_fp for k in ("a", "b"))
    print(f"[tuning] concurrent sessions: {stats['dedup_hits']} of "
          f"{session_trials} repeat trials deduped ({fraction:.0%}), "
          f"fingerprints match solo: {both_match}", flush=True)
    return {"both_match_solo": both_match,
            "dedup_hits": stats["dedup_hits"],
            "session_trials": session_trials,
            "dedup_fraction": round(fraction, 4),
            "service_stats": stats}


def bench_transfer(trials: int, seed: int, tmp_dir: Path) -> dict:
    """Accumulate a database through the service, restart, tune a new shape."""
    opts = dict(trials=trials, seed=seed, batch_size=4)
    db_path = str(tmp_dir / "bench_tuning_transfer.jsonl")
    with TuningService(db_path=db_path) as service:
        for channels in TRANSFER_CHANNELS:
            repro.autotune(_graph(channels), target="cuda",
                           options=TuningOptions(service=service.address,
                                                 **opts))

    clear_eval_caches()
    cold = repro.autotune(_graph(TRANSFER_TARGET_CHANNELS), target="cuda",
                          options=TuningOptions(**opts))
    cold_result, = cold.results

    # Restarting on the accumulated log pretrains the conv2d cost model.
    with TuningService(db_path=db_path) as service:
        pretrained_models = service.stats()["pretrained_models"]
        clear_eval_caches()
        warm = repro.autotune(_graph(TRANSFER_TARGET_CHANNELS), target="cuda",
                              options=TuningOptions(service=service.address,
                                                    **opts))
    warm_result, = warm.results

    # Convergence toward the *cold* run's best time: how many trials does
    # each session need to reach it (within 5%)?
    cold_tt = trials_to_target(cold_result.curve, cold_result.best_time)
    warm_tt = trials_to_target(warm_result.curve, cold_result.best_time)
    no_regression = warm_result.estimate <= cold_result.estimate * (1 + 1e-9)
    print(f"[tuning] transfer: {pretrained_models} pretrained model(s), "
          f"{warm_result.warm_samples} warm samples; trials to cold best: "
          f"cold {cold_tt}, warm {warm_tt}; no regression: {no_regression}",
          flush=True)
    return {"history_shapes": len(TRANSFER_CHANNELS),
            "pretrained_models": pretrained_models,
            "warm_samples": warm_result.warm_samples,
            "pretrained": warm_result.pretrained,
            "cold_best_s": cold_result.estimate,
            "warm_best_s": warm_result.estimate,
            "cold_trials_to_target": cold_tt,
            "warm_trials_to_target": warm_tt,
            "no_regression": no_regression}


def run_suite(trials: int, zoo_models, zoo_trials: int, seed: int,
              tmp_dir: Path) -> dict:
    results = {
        "suite": "bench_tuning",
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "trials": trials,
    }
    print(f"[tuning] identity: solo vs serviced ({trials} trials) ...",
          flush=True)
    results["identity"] = bench_identity(trials, seed)
    print("[tuning] concurrent dedup: two sessions, one service ...",
          flush=True)
    results["concurrent"] = bench_concurrent_dedup(trials, seed)
    print(f"[tuning] transfer: {len(TRANSFER_CHANNELS)} shapes -> restart -> "
          f"unseen shape ...", flush=True)
    results["transfer"] = bench_transfer(trials, seed, tmp_dir)
    print(f"[tuning] zoo drive: {', '.join(zoo_models)} "
          f"({zoo_trials} trials) ...", flush=True)
    clear_eval_caches()
    results["zoo"] = schedule_zoo(models=zoo_models, target="cuda",
                                  trials=zoo_trials)
    per_trial = [row["seconds_per_trial"] for row in results["zoo"]["workloads"]]
    print(f"[tuning]   {len(results['zoo']['workloads'])} workloads, "
          f"{max(per_trial) * 1e3:.0f} ms/trial worst case", flush=True)
    return results


def check_acceptance(results: dict) -> list:
    """The smoke gate: every guarantee the service advertises, enforced."""
    failures = []
    if not results["identity"]["bit_identical"]:
        failures.append("serviced session diverged from the solo session")
    if not results["concurrent"]["both_match_solo"]:
        failures.append("a concurrent session diverged from the solo report")
    if results["concurrent"]["dedup_fraction"] < 0.25:
        failures.append(
            f"dedup fraction {results['concurrent']['dedup_fraction']:.2f} "
            f"< 0.25")
    transfer = results["transfer"]
    if not transfer["warm_samples"]:
        failures.append("transfer session got no warm samples")
    if not transfer["pretrained"]:
        failures.append("transfer session got no pretrained model")
    if not transfer["no_regression"]:
        failures.append("warm best regressed against the cold best")
    warm_tt, cold_tt = (transfer["warm_trials_to_target"],
                        transfer["cold_trials_to_target"])
    if warm_tt is None or (cold_tt is not None and warm_tt > cold_tt):
        failures.append(f"warm start did not converge faster "
                        f"(cold {cold_tt}, warm {warm_tt} trials)")
    if not results["zoo"]["workloads"]:
        failures.append("zoo drive produced no workload rows")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=24,
                        help="trials per task in the service sections")
    parser.add_argument("--zoo-trials", type=int, default=16,
                        help="trials per task in the zoo drive")
    parser.add_argument("--zoo-models", nargs="+",
                        default=["resnet-18", "mobilenet", "dqn"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None,
                        help=f"JSON output path (default {DEFAULT_OUTPUT}; "
                             "--smoke defaults to BENCH_tuning_smoke.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run that enforces the service's "
                             "acceptance guarantees")
    args = parser.parse_args(argv)

    trials, zoo_trials, zoo_models = (args.trials, args.zoo_trials,
                                      list(args.zoo_models))
    if args.smoke:
        trials = min(trials, 12)
        zoo_trials = min(zoo_trials, 6)
        zoo_models = zoo_models[-1:]           # one small model
    if args.output is None:
        args.output = (DEFAULT_OUTPUT.with_name("BENCH_tuning_smoke.json")
                       if args.smoke else DEFAULT_OUTPUT)

    threads_before = set(threading.enumerate())
    with tempfile.TemporaryDirectory(prefix="bench_tuning_") as tmp:
        results = run_suite(trials, zoo_models, zoo_trials, args.seed,
                            Path(tmp))
    leaked = [t.name for t in threading.enumerate()
              if t not in threads_before and t.is_alive()]
    results["leaked_threads"] = leaked
    results["smoke"] = bool(args.smoke)

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[tuning] wrote {args.output}")

    emit_summary("tuning", {
        "bit_identical": results["identity"]["bit_identical"],
        "dedup_fraction": results["concurrent"]["dedup_fraction"],
        "warm_samples": results["transfer"]["warm_samples"],
        "cold_trials_to_target": results["transfer"]["cold_trials_to_target"],
        "warm_trials_to_target": results["transfer"]["warm_trials_to_target"],
        "zoo_workloads": len(results["zoo"]["workloads"]),
        "zoo_ms_per_trial_max": round(max(
            row["seconds_per_trial"]
            for row in results["zoo"]["workloads"]) * 1e3, 2),
        "leaked_threads": len(leaked),
    })

    if args.smoke:
        failures = check_acceptance(results)
        if leaked:
            failures.append(f"leaked threads after shutdown: {leaked}")
        if failures:
            for failure in failures:
                print(f"[tuning] FAIL: {failure}", file=sys.stderr)
            return 1
        print("[tuning] all service acceptance checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
