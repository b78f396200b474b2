#!/usr/bin/env python
"""Recompute the committed determinism fingerprints (ROADMAP item 10).

Prints each digest beside its committed literal — the ``ProgramFeatures``
of every template's sampled configs (of each lowered tree, and again
through ``Task.features_of``, from the structure classes' plans), the compile of the five
``compile_deploy_zoo`` pairs at ``opt_level`` 0 - 3, the zoo's initial
weights, the TIR verifier's verdicts on sampled resnet-18/cuda configs,
and the trial curves of one seeded two-workload tuning session — using the recipes of the tests that pin them
(``tests/test_analysis_hardware.py``, ``tests/test_fingerprints.py``).
Run from anywhere::

    python tools/fingerprint.py

Exit status is 0 when every digest matches its literal, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

import conftest  # noqa: E402
import test_analysis_hardware as features  # noqa: E402
import test_fingerprints as zoo  # noqa: E402


def main() -> int:
    rows = [
        ("features", features._features_fingerprint,
         features.FEATURES_FINGERPRINT),
        ("features (plan)",
         lambda: features._features_fingerprint(planned=True),
         features.FEATURES_FINGERPRINT),
        ("compile", lambda: zoo._digest(zoo.zoo_compile_records()),
         zoo.COMPILE_FINGERPRINT),
        ("weights", lambda: zoo.weights_digest(zoo.zoo_weights()),
         zoo.WEIGHTS_FINGERPRINT),
        ("verdict", lambda: zoo._digest(
            zoo.verdict_records(conftest.row_crossing_read())),
         zoo.VERDICT_FINGERPRINT),
        ("curve", lambda: zoo.curve_digest(
            (r.task_name, r.curve) for r in zoo.curve_session()),
         zoo.CURVE_FINGERPRINT),
    ]
    mismatches = 0
    for name, compute, literal in rows:
        digest = compute()
        verdict = "ok" if digest == literal else "MISMATCH"
        mismatches += digest != literal
        print(f"{name:<15} {digest}  committed {literal}  {verdict}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
