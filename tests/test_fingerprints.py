"""Fingerprints of what the system computes (ROADMAP item 10).

A rewrite that claims to compute the same results must keep these literals.
Each literal was computed at the parent of the change that added it; a
change that *means* to move one edits the literal and says why.

Compile fingerprint: the five ``compile_deploy_zoo`` model/target pairs of
``benchmarks/e2e/spec.py`` at ``opt_level`` 0 – 3 (default shapes), hashing
per compile the kernel names, ``repr(total_time)``, planned bytes, each
executed pass's name and ``nodes_after``, ``tuned_kernels``,
``layout_transforms`` and every kernel's config index.

Weights fingerprint: the parameters ``get_model`` draws for the models of
the same five pairs, in order; per model the params sorted by name, per
param its name, ``str(dtype)``, ``repr(shape)`` and raw bytes.

Verdict fingerprint: the TIR verifier's verdict on 8 configs of every
resnet-18/cuda tuning task, drawn per task with
``np.random.default_rng(0).choice(len(space), 8, replace=False)``; per
config ``(task, index, "ok")`` or ``(task, index, error class, check,
node)``, the node's tensor name without the ``_<n>`` suffix that the
process-wide name counter adds (it depends on what ran before).  The
sample verifies clean, so one hand-built program that reads past a row end
(``conftest.row_crossing_read``) closes the records with a rejection.

Curve fingerprint: the ``curve_sha256`` recipe of ``benchmarks/e2e`` (per
task its name and its best-so-far curve at 12 significant digits) over one
seeded ``repro.autotune`` session, given no ``database=``, of a graph with
two conv2d workloads of different shapes (cuda, 12 trials each, batch 4,
seed 0).  Tuning one task must not change what the next task explores.
"""

import hashlib
import re

import numpy as np
import pytest

import repro
import repro.compiler.driver as driver
from repro.analysis import verify_func
from repro.analysis.errors import VerifierError
from repro.autotvm import TuningOptions
from repro.frontend import ModelBuilder, get_model

#: sha256 prefix of :func:`_digest` over :data:`COMPILE_PAIRS` x opt 0 - 3
COMPILE_FINGERPRINT = "c6fafedbccb17d4c"

#: sha256 prefix of :func:`weights_digest` over the models of
#: :data:`COMPILE_PAIRS`
WEIGHTS_FINGERPRINT = "f0d522867abd8963"

#: sha256 prefix of :func:`_digest` over :func:`verdict_records`
VERDICT_FINGERPRINT = "18da01239c2c4ac8"

#: sha256 prefix of :func:`curve_digest` over :func:`curve_session`
CURVE_FINGERPRINT = "84a1088561889801"

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


def zoo_compile_records():
    """:func:`_compile_record` of every :data:`COMPILE_PAIRS` pair at
    ``opt_level`` 0 - 3, in order."""
    return [_compile_record(name, target, opt_level)
            for name, target in COMPILE_PAIRS for opt_level in range(4)]


@pytest.fixture(scope="module")
def compile_records():
    return zoo_compile_records()


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


def zoo_weights():
    """The ``get_model`` params of every :data:`COMPILE_PAIRS` model, in
    order."""
    return [get_model(name)[1] for name, _ in COMPILE_PAIRS]


def weights_digest(models):
    """sha256 prefix over a list of param dicts."""
    digest = hashlib.sha256()
    for params in models:
        for name in sorted(params):
            array = params[name]
            for field in (name, str(array.dtype), repr(array.shape)):
                digest.update(field.encode())
            digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def zoo_params():
    return zoo_weights()


def test_weights_fingerprint(zoo_params):
    """The zoo's randomly initialised weights are pinned bitwise: a change
    to how the frontend draws them must keep this hash."""
    assert weights_digest(zoo_params) == WEIGHTS_FINGERPRINT


def test_weights_fingerprint_sees_one_element(zoo_params):
    """One element of one weight moved by one ulp moves the fingerprint."""
    perturbed = [dict(params) for params in zoo_params]
    name = sorted(perturbed[2])[0]
    array = perturbed[2][name].copy()
    array.flat[0] = np.nextafter(array.flat[0], np.float32(np.inf))
    perturbed[2][name] = array
    assert weights_digest(perturbed) != WEIGHTS_FINGERPRINT


def _verdict(name, index, verify):
    try:
        verify()
    except VerifierError as exc:
        node = re.sub(r"_\d+(?=\.|$)", "", exc.node or "")
        return (name, index, type(exc).__name__, exc.check, node)
    return (name, index, "ok")


def verdict_records(row_crossing):
    """The verifier's verdict on 8 seeded configs of every resnet-18/cuda
    task, in task order, then on the ``row_crossing`` program."""
    records = []
    for task in repro.autotvm.extract_tasks("resnet-18", "cuda"):
        space = len(task.config_space)
        for index in np.random.default_rng(0).choice(space, 8, replace=False):
            records.append(_verdict(task.name, int(index),
                                    lambda: task.verify(int(index))))
    records.append(_verdict(row_crossing.name, 0,
                            lambda: verify_func(row_crossing)))
    return records


@pytest.fixture(scope="module")
def verdicts(row_crossing):
    return verdict_records(row_crossing)


def test_verdict_fingerprint(verdicts):
    """The verifier accepts and rejects the same sampled schedules, for the
    same reason at the same node."""
    assert any(record[2] == "ok" for record in verdicts)
    assert any(record[2] != "ok" for record in verdicts)
    assert _digest(verdicts) == VERDICT_FINGERPRINT


def test_verdict_fingerprint_sees_one_node_name(verdicts):
    """One rejection blamed on another node moves the fingerprint."""
    position = next(i for i, record in enumerate(verdicts)
                    if record[2] != "ok")
    perturbed = list(verdicts)
    perturbed[position] = perturbed[position][:4] + ("elsewhere",)
    assert _digest(perturbed) != VERDICT_FINGERPRINT


def _two_conv_model():
    b = ModelBuilder("curve-pair", seed=0)
    data = b.input("data", (1, 8, 16, 16))
    net = b.relu(b.conv2d(data, 16, 3, 1, 1, name="conv0"))
    net = b.conv2d(net, 32, 3, 2, 1, name="conv1")
    graph, params = b.finalize(net)
    return graph, params, {"data": (1, 8, 16, 16)}


def curve_session():
    """One seeded tuning session over two conv2d workloads, no database."""
    return repro.autotune(_two_conv_model(), target="cuda",
                          options=TuningOptions(trials=12, batch_size=4,
                                                seed=0))


def curve_digest(results):
    """The ``curve_sha256`` recipe (``benchmarks/e2e/helpers.py``) over
    ``(task_name, curve)`` pairs, as a 16-hex-digit prefix."""
    digest = hashlib.sha256()
    for task_name, curve in results:
        digest.update(task_name.encode())
        digest.update(repr([f"{v:.12e}" for v in curve]).encode())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def curves():
    return [(r.task_name, list(r.curve)) for r in curve_session()]


def test_curve_fingerprint(curves):
    """A seeded session explores the same candidates in the same order."""
    assert len(curves) == 2 and all(len(curve) == 12 for _, curve in curves)
    assert curve_digest(curves) == CURVE_FINGERPRINT


def test_curve_fingerprint_sees_one_trial(curves):
    """The second task's last best-so-far value moved by one part in 1e9
    moves the fingerprint."""
    perturbed = [(name, list(curve)) for name, curve in curves]
    perturbed[1][1][-1] *= 1.0 + 1e-9
    assert curve_digest(perturbed) != CURVE_FINGERPRINT
