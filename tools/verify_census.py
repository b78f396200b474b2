#!/usr/bin/env python
"""Census of the shipped kernels of the zoo's default compiles.

Compiles each of the five zoo models on ``cuda`` and ``arm_cpu`` with no
option set, from cold caches, and checks that every templated kernel
(:func:`repro.graph.op_timing.is_templated`) ships a configuration whose
lowered program :meth:`repro.autotvm.Task.verify` accepts.  Per (model,
target) it prints the templated kernels, how many TIR verdicts the compile
asked for, how many of them were rejections, and the wall time they cost
beside the compile's.  The compiles run their fallback searches in this
process (a parked thread keeps them off the fork pool), so every verdict is
counted here.  Run from anywhere::

    python tools/verify_census.py

Exit status is 0 when every templated kernel ships a verified config and
no verdict the compiles asked for was a rejection, 1 otherwise: the
fallback pick absorbs a rejected would-be-best config, so a verifier false
positive shows nowhere else.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.analysis import tir_verify  # noqa: E402
from repro.graph import clear_timing_cache  # noqa: E402
from repro.graph.op_timing import is_templated, make_task_for_node  # noqa: E402
from repro.hardware.target import create_target  # noqa: E402

MODELS = ("resnet-18", "mobilenet", "dqn", "dcgan", "lstm-lm")
TARGETS = ("cuda", "arm_cpu")


class _VerdictSpy:
    """Counts and times the verifier's calls (each one is a memo miss)."""

    def __init__(self):
        self.real = tir_verify.verify_func
        self.calls = self.rejected = 0
        self.seconds = 0.0

    def __call__(self, func):
        started = time.perf_counter()
        try:
            return self.real(func)
        except Exception:
            self.rejected += 1
            raise
        finally:
            self.calls += 1
            self.seconds += time.perf_counter() - started


def census(model: str, target_name: str) -> dict:
    clear_timing_cache()
    spy = _VerdictSpy()
    tir_verify.verify_func = spy
    release = threading.Event()
    parked = threading.Thread(target=release.wait, daemon=True)
    parked.start()
    try:
        started = time.perf_counter()
        module = repro.compile(model, target=target_name)
        compile_s = time.perf_counter() - started
    finally:
        tir_verify.verify_func = spy.real
        release.set()
        parked.join()
    target = create_target(target_name)
    templated, unverified = 0, []
    for kernel in module.kernels:
        master = kernel.group.master
        if not is_templated(master, target):
            continue
        templated += 1
        try:
            if kernel.config_index is None:
                raise ValueError("no config (priced memory-bound)")
            make_task_for_node(master, target).verify(kernel.config_index)
        except Exception as exc:
            unverified.append(f"{kernel.name}: {type(exc).__name__}: {exc}")
    return {"templated": templated, "unverified": unverified,
            "verdicts": spy.calls, "rejected": spy.rejected,
            "verify_s": spy.seconds, "compile_s": compile_s}


def main() -> int:
    print(f"{'model/target':<20} {'kernels':>7} {'verdicts':>8} "
          f"{'rejected':>8} {'verify ms':>9} {'compile ms':>10}  unverified")
    failed = 0
    totals = {"verdicts": 0, "rejected": 0, "verify_s": 0.0, "compile_s": 0.0}
    for target in TARGETS:
        for model in MODELS:
            row = census(model, target)
            for key in totals:
                totals[key] += row[key]
            failed += len(row["unverified"])
            print(f"{model + '/' + target:<20} {row['templated']:>7} "
                  f"{row['verdicts']:>8} {row['rejected']:>8} "
                  f"{row['verify_s'] * 1e3:>9.1f} "
                  f"{row['compile_s'] * 1e3:>10.1f}  "
                  f"{len(row['unverified'])}")
            for line in row["unverified"]:
                print(f"    {line}")
    print(f"{'total':<20} {'':>7} {totals['verdicts']:>8} "
          f"{totals['rejected']:>8} {totals['verify_s'] * 1e3:>9.1f} "
          f"{totals['compile_s'] * 1e3:>10.1f}  {failed}")
    return 1 if failed or totals["rejected"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
