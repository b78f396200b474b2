"""Static-verification benchmark (tracked across PRs).

Exercises the :mod:`repro.analysis` layer over the whole model zoo and
records the two numbers the layer must hold to stay on by default, writing
``BENCH_verify.json`` next to this file:

* **Zero false positives** — every zoo model compiles verify-clean at every
  optimization level on the CPU and the GPU target; a single
  :class:`~repro.analysis.errors.VerifierError` on known-good IR fails the
  run.
* **Sampled verdicts** — the share of sampled resnet-18/cuda tuning
  candidates the verifier rejects, and the best estimate among the
  accepted ones, beside the same numbers measured before fused GPU tiles
  that cross a row got sound regions.
* **Bounded overhead** — zoo-aggregate compile time with ``verify=True``
  must stay within 15% of verify-off (warm caches, median of repeats).
* **Full mutation coverage** — every seeded IR-mutation class is caught
  with its exact typed error (a missed class is a verifier bug).
* **Invariant lint** — ``tools/lint_invariants.py`` reports the source tree
  clean.

Usage::

    python benchmarks/bench_verify.py              # full run
    python benchmarks/bench_verify.py --smoke      # CI-sized + acceptance
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

import repro
from repro.analysis import VerifierError
from repro.analysis.mutate import run_all
from repro.analysis.tir_verify import verify_func
from repro.autotvm import extract_tasks

from common import emit_summary, run_header

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_verify.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

ZOO_MODELS = ("resnet-18", "mobilenet", "dqn", "dcgan", "lstm-lm")
OPT_LEVELS = (0, 1, 2, 3)
#: the gate: verify-on may cost at most this factor over verify-off,
#: aggregated across the zoo sweep
MAX_OVERHEAD = 1.15
#: the zoo sweep's targets; the overhead run times the first
TARGETS = ("arm_cpu", "cuda")
#: candidates sampled per resnet-18/cuda task for the verdict census
SAMPLES_PER_TASK = 15
#: the census at the commit before fused GPU tiles that cross a row got
#: sound regions (``tir/lowering.py::_tile_of``), same recipe
VERDICTS_BEFORE = {"sampled": 195, "rejected": 26, "rejected_share": 0.1333,
                   "best_accepted_us": 1222.004, "best_any_us": 1142.975}


def bench_zoo_clean() -> dict:
    """Compile every zoo model at every opt level with verification on."""
    cells = []
    failures = []
    for target in TARGETS:
        for model in ZOO_MODELS:
            for level in OPT_LEVELS:
                cell = {"target": target, "model": model, "opt_level": level}
                try:
                    module = repro.compile(model, target=target,
                                           opt_level=level, verify=True)
                    cell["kernels"] = len(module.kernels)
                    cell["clean"] = True
                except VerifierError as exc:
                    cell["clean"] = False
                    cell["error"] = f"{type(exc).__name__}: {exc}"
                    failures.append(f"{model}/{target}@opt{level}: "
                                    f"{cell['error']}")
                cells.append(cell)
    return {"targets": list(TARGETS), "cells": cells,
            "false_positives": failures}


def bench_sampled_verdicts() -> dict:
    """Verdicts on :data:`SAMPLES_PER_TASK` candidates of each resnet-18
    tuning task on cuda (``random.Random(1)`` per task), and the sum over
    tasks of the best hardware-model estimate, among the accepted
    candidates and among all."""
    sampled = rejected = 0
    best_accepted = best_any = 0.0
    for task in extract_tasks("resnet-18", "cuda"):
        accepted, scored = [], []
        for config in task.config_space.sample(SAMPLES_PER_TASK,
                                               random.Random(1)):
            sampled += 1
            estimate = float(task.target.model.estimate(
                task.features_of(config.index)))
            scored.append(estimate)
            try:
                verify_func(task.lower(config))
                accepted.append(estimate)
            except VerifierError:
                rejected += 1
        best_accepted += min(accepted, default=float("inf"))
        best_any += min(scored)
    return {"after": {"sampled": sampled, "rejected": rejected,
                      "rejected_share": round(rejected / sampled, 4),
                      "best_accepted_us": round(best_accepted * 1e6, 3),
                      "best_any_us": round(best_any * 1e6, 3)},
            "before": VERDICTS_BEFORE}


def bench_overhead(repeats: int) -> dict:
    """Warm-cache compile-time ratio, verify-on vs verify-off."""
    rows = []
    total_off = total_on = 0.0
    for model in ZOO_MODELS:
        for level in OPT_LEVELS:
            offs, ons = [], []
            for _ in range(repeats):
                started = time.perf_counter()
                repro.compile(model, target=TARGETS[0], opt_level=level)
                offs.append(time.perf_counter() - started)
                started = time.perf_counter()
                repro.compile(model, target=TARGETS[0], opt_level=level,
                              verify=True)
                ons.append(time.perf_counter() - started)
            off = statistics.median(offs)
            on = statistics.median(ons)
            total_off += off
            total_on += on
            rows.append({"model": model, "opt_level": level,
                         "off_ms": round(off * 1e3, 2),
                         "on_ms": round(on * 1e3, 2),
                         "ratio": round(on / off, 3)})
    return {"target": TARGETS[0], "repeats": repeats, "rows": rows,
            "total_off_ms": round(total_off * 1e3, 1),
            "total_on_ms": round(total_on * 1e3, 1),
            "aggregate_ratio": round(total_on / total_off, 4),
            "max_overhead": MAX_OVERHEAD}


def bench_mutations(seeds) -> dict:
    """Every mutation class must be caught with its exact typed error."""
    missed = []
    classes = 0
    for seed in seeds:
        outcomes = run_all(seed=seed)
        classes = len(outcomes)
        missed.extend(f"{o.name}@seed{seed}: expected {o.expected}, got "
                      f"{o.error_type}" for o in outcomes if not o.ok)
    return {"classes": classes, "seeds": list(seeds), "missed": missed,
            "caught_fraction": round(
                1.0 - len(missed) / (classes * len(list(seeds))), 4)}


def bench_lint() -> dict:
    """The AST invariant linter over the source tree."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import lint_invariants
    finally:
        sys.path.pop(0)
    violations = lint_invariants.lint_tree([REPO_ROOT / "src" / "repro"])
    return {"rules": sorted(lint_invariants.RULES),
            "violations": [str(v) for v in violations]}


def run_suite(repeats: int, seeds) -> dict:
    print(f"[verify] zoo sweep: {len(ZOO_MODELS)} models x "
          f"{len(OPT_LEVELS)} opt levels on {', '.join(TARGETS)}")
    zoo = bench_zoo_clean()  # also warms every cache for the overhead run
    print(f"[verify] false positives: {len(zoo['false_positives'])}")
    verdicts = bench_sampled_verdicts()
    print(f"[verify] sampled resnet-18/cuda candidates rejected: "
          f"{verdicts['after']['rejected']} / {verdicts['after']['sampled']} "
          f"(before: {VERDICTS_BEFORE['rejected']} / "
          f"{VERDICTS_BEFORE['sampled']})")
    overhead = bench_overhead(repeats)
    print(f"[verify] aggregate verify-on overhead: "
          f"{overhead['aggregate_ratio']:.3f}x "
          f"(gate <= {MAX_OVERHEAD:.2f}x)")
    mutations = bench_mutations(seeds)
    print(f"[verify] mutation classes: {mutations['classes']}, "
          f"caught {mutations['caught_fraction']:.0%}")
    lint = bench_lint()
    print(f"[verify] lint violations: {len(lint['violations'])}")
    return {**run_header("wall"), "seeds": list(seeds), "zoo": zoo,
            "sampled_verdicts": verdicts, "overhead": overhead,
            "mutations": mutations, "lint": lint}


def check_acceptance(results: dict) -> list:
    failures = []
    if results["zoo"]["false_positives"]:
        failures.extend(f"false positive: {line}"
                        for line in results["zoo"]["false_positives"])
    ratio = results["overhead"]["aggregate_ratio"]
    if ratio > MAX_OVERHEAD:
        failures.append(f"verify-on overhead {ratio:.3f}x exceeds "
                        f"{MAX_OVERHEAD:.2f}x")
    if results["mutations"]["missed"]:
        failures.extend(f"mutation missed: {line}"
                        for line in results["mutations"]["missed"])
    if results["mutations"]["classes"] < 8:
        failures.append(f"only {results['mutations']['classes']} mutation "
                        "classes registered (need >= 8)")
    if results["lint"]["violations"]:
        failures.extend(f"lint: {line}"
                        for line in results["lint"]["violations"])
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="result JSON path (default BENCH_verify.json; "
                             "--smoke defaults to BENCH_verify_smoke.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run that enforces the acceptance "
                             "gates via the exit code")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per (model, opt level) cell")
    args = parser.parse_args()

    repeats = args.repeats or (3 if args.smoke else 7)
    seeds = range(3) if args.smoke else range(6)
    if args.output is None:
        args.output = (DEFAULT_OUTPUT.with_name("BENCH_verify_smoke.json")
                       if args.smoke else DEFAULT_OUTPUT)

    results = run_suite(repeats, seeds)
    results["smoke"] = bool(args.smoke)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[verify] wrote {args.output}")

    emit_summary("verify", {
        "false_positives": len(results["zoo"]["false_positives"]),
        "aggregate_overhead": results["overhead"]["aggregate_ratio"],
        "mutation_classes": results["mutations"]["classes"],
        "mutation_caught_fraction": results["mutations"]["caught_fraction"],
        "lint_violations": len(results["lint"]["violations"]),
    })

    failures = check_acceptance(results)
    if args.smoke and failures:
        for failure in failures:
            print(f"[verify] FAIL: {failure}", file=sys.stderr)
        return 1
    if failures:
        for failure in failures:
            print(f"[verify] WARN: {failure}", file=sys.stderr)
    elif args.smoke:
        print("[verify] all static-analysis acceptance checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
