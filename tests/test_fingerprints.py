"""Fingerprints of what the system computes (ROADMAP item 10).

A rewrite that claims to compute the same results must keep these literals.
Each literal was computed at the parent of the change that added it; a
change that *means* to move one edits the literal and says why.

Compile fingerprint: the five ``compile_deploy_zoo`` model/target pairs of
``benchmarks/e2e/spec.py`` at ``opt_level`` 0 – 3 (default shapes), hashing
per compile the kernel names, ``repr(total_time)``, planned bytes, each
executed pass's name and ``nodes_after``, ``tuned_kernels``,
``layout_transforms`` and every kernel's config index.
"""

import hashlib

import pytest

import repro
import repro.compiler.driver as driver

#: sha256 prefix of :func:`_digest` over :data:`COMPILE_PAIRS` x opt 0 - 3
COMPILE_FINGERPRINT = "7275a3474f785f4b"

#: the ``compile_deploy_zoo`` pairs (``benchmarks/e2e/spec.py``)
COMPILE_PAIRS = [("resnet-18", "cuda"), ("mobilenet", "arm_cpu"),
                 ("dcgan", "cuda"), ("dqn", "arm_cpu"), ("lstm-lm", "cuda")]


def _compile_record(name, target, opt_level):
    module = repro.compile(name, target=target, opt_level=opt_level)
    return (name, target, opt_level,
            [k.name for k in module.kernels],
            repr(module.total_time),
            module.memory_plan.planned_bytes,
            [(r.name, r.nodes_after) for r in module.pass_records],
            module.tuned_kernels,
            module.layout_transforms,
            [k.config_index for k in module.kernels])


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def compile_records():
    return [_compile_record(name, target, opt_level)
            for name, target in COMPILE_PAIRS for opt_level in range(4)]


def test_compile_fingerprint(compile_records):
    assert _digest(compile_records) == COMPILE_FINGERPRINT


def test_compile_fingerprint_sees_one_kernel_time(compile_records,
                                                  monkeypatch):
    """One kernel's estimate moved by one part in 1e9 moves the
    fingerprint."""
    real = driver.fused_kernel_time
    calls = []

    def nudged(*args, **kwargs):
        master, total = real(*args, **kwargs)
        calls.append(total)
        if len(calls) == 1:
            total *= 1.0 + 1e-9
        return master, total

    monkeypatch.setattr(driver, "fused_kernel_time", nudged)
    position = COMPILE_PAIRS.index(("dqn", "arm_cpu")) * 4 + 3
    perturbed = list(compile_records)
    perturbed[position] = _compile_record("dqn", "arm_cpu", 3)
    assert calls
    assert perturbed[position] != compile_records[position]
    assert _digest(perturbed) != COMPILE_FINGERPRINT
