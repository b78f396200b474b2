"""The four workloads.  Each is a ``setup(run) -> state`` / ``measure(run,
state) -> (end_to_end, per_layer)`` pair driven by ``run.py``.

Importing this module imports ``repro`` and numpy: that cost is part of every
workload's set-up, so ``run.py`` imports it after it has started the clock.
Only the public surface of ``repro`` is used, and nothing ROADMAP item 4 plans
to delete.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import tir
from repro.autotvm import (GradientBoostedTrees, LocalMeasurer, MeasureInput,
                           TuningOptions, extract_tasks)
from repro.frontend import get_model
from repro.graph import Graph, clear_timing_cache

try:
    from repro.autotvm import eval_cache_stats
except ImportError:     # ROADMAP item 2 may delete the evaluation cache
    eval_cache_stats = None

import spec
from helpers import (curve_sha256, geomean, inputs_sha256, outputs_close,
                     outputs_identical, percentile, poisson_schedule,
                     seeded_inputs)
from openloop import run_open_loop
from trace import Tracer

__all__ = ["Run", "WORKLOADS", "write_golden"]

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

_HEAVY_OPS = ("conv2d", "depthwise_conv2d", "dense", "conv2d_transpose")
_PASSES = ("fold_constants", "simplify_inference", "alter_layout",
           "fuse_ops", "plan_memory")


class Run:
    """State of one benchmark run: its arguments, its tracer, and the count
    of operations attempted and failed (an output check is an operation)."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tracer: Tracer, scratch: Path):
        self.workload = workload
        self.spec = spec.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: seconds, one per sample of the workload's operation latency
        self.op_latencies: List[float] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        """One output check: an attempted operation that fails if not ok."""
        self.attempt()
        if not ok:
            self.fail(what)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _build(run: Run, name: str, counts: Optional[Dict[str, int]] = None):
    """Frontend model build, as its own layer."""
    with run.tracer.span("frontend.build", model=name):
        model = get_model(name)
    if counts is not None:
        counts[name] = len(model[0].nodes)
    return model


def _cut(model, node_name: Optional[str]):
    """The model truncated after ``node_name`` (the whole model if None)."""
    if node_name is None:
        return model
    graph, params, shapes = model
    graph.infer_shapes(shapes)
    return Graph([graph.find(node_name)]), params, shapes


def _golden_path(model: str) -> Path:
    return GOLDEN_DIR / f"{model}.npz"


def _check_numerics(run: Run, model_name: str, model, target: str, module
                    ) -> None:
    """Default-opt output of ``module`` against the ``opt_level=0`` build of
    the same model and, at seed 0 for zoo models, against the committed
    expected file (made once from the unfused build — an expected file, not
    the compiler under test)."""
    executor = repro.Executor(module)
    inputs = seeded_inputs(executor.input_specs, run.seed, model_name)
    got = executor.run(inputs).outputs
    with run.tracer.span("check.opt_level_0", model=model_name):
        unfused = repro.compile(model, target=target, opt_level=0)
        expected = repro.Executor(unfused).run(inputs).outputs
    run.check(outputs_close(got, expected, spec.RTOL, spec.ATOL_SHARE),
              f"{model_name}/{target}: default-opt output differs from the "
              f"opt_level=0 build")
    if run.seed == 0 and model_name in spec.GOLDEN_MODELS:
        with np.load(_golden_path(model_name)) as golden:
            same_input = str(golden["input_sha256"]) == inputs_sha256(inputs)
            wanted = [golden[f"output_{i}"] for i in range(len(got))]
        run.check(same_input and
                  outputs_close(got, wanted, spec.RTOL, spec.ATOL_SHARE),
                  f"{model_name}/{target}: output differs from "
                  f"golden/{model_name}.npz"
                  + ("" if same_input else " (seed-0 input drifted)"))


def write_golden() -> None:
    """Regenerate ``golden/*.npz`` from the unfused (``opt_level=0``) build.
    Run deliberately, never by the benchmark."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for model in spec.GOLDEN_MODELS:
        executor = repro.Executor(
            repro.compile(model, target="cuda", opt_level=0))
        inputs = seeded_inputs(executor.input_specs, 0, model)
        outputs = executor.run(inputs).outputs
        np.savez_compressed(
            _golden_path(model), input_sha256=inputs_sha256(inputs),
            **{f"output_{i}": out for i, out in enumerate(outputs)})
        print(f"wrote {_golden_path(model)}")


def _sim_latency_ms(modules) -> float:
    """Geomean simulated latency of the modules a workload built."""
    return geomean([m.total_time * 1e3 for m in modules])


def _cache_misses() -> Optional[int]:
    """Feature-cache misses so far (each is one candidate lowered and
    featurised), or None if the evaluation cache no longer exists."""
    if eval_cache_stats is None:
        return None
    return int(eval_cache_stats()["features"]["misses"])


# ---------------------------------------------------------------------------
# tune_session
# ---------------------------------------------------------------------------

def _tune_setup(run: Run) -> dict:
    nodes: Dict[str, int] = {}
    stages = []
    for name, cut, target, trials in run.spec["stages"]:
        label = f"{name}[:{cut}]" if cut else name
        stages.append((label, _cut(_build(run, name, nodes), cut), target,
                       trials))
    return {"stages": stages, "nodes": nodes}


def _tune_stage(run: Run, model, target: str, trials: int,
                batches: Optional[List[dict]] = None):
    """One ``repro.autotune`` session; returns ``(report, wall seconds)``.
    ``batches`` (traced runs) collects one row per measured batch, seen
    through ``TuningOptions.callbacks``."""
    tracer = run.tracer
    last = {"t": 0.0, "misses": None if batches is None else _cache_misses()}

    def on_batch(event) -> None:
        if not event.batch_times:       # terminal early-stop marker
            return
        now = time.perf_counter()
        row = {"seconds": now - last["t"], "trials": len(event.batch_times),
               "invalid": sum(1 for t in event.batch_times
                              if not np.isfinite(t)),
               "misses": None}
        if last["misses"] is not None:
            misses = _cache_misses()
            row["misses"] = misses - last["misses"]
            last["misses"] = misses
        batches.append(row)
        tracer.record("autotvm.batch", last["t"], now, tracer.current(),
                      task=event.task_name, trial=event.trial)
        last["t"] = now

    options = TuningOptions(trials=trials, seed=spec.TUNING_SEED,
                            n_parallel=run.spec["n_parallel"],
                            callbacks=[] if batches is None else [on_batch])
    with tracer.span("autotvm.autotune", target=target, trials=trials):
        last["t"] = start = time.perf_counter()
        report = repro.autotune(model, target, options=options)
        wall = time.perf_counter() - start
    return report, wall


def _tune_measure(run: Run, state: dict):
    tracer = run.tracer
    rounds = max(1, round(run.seconds / run.spec["round_seconds"]))
    batches: Optional[List[dict]] = [] if tracer.enabled else None
    rates: List[float] = []
    per_trial: List[float] = []
    reports = []
    expected = total_trials = 0
    cpu_start = time.process_time()
    for _ in range(rounds):
        clear_timing_cache()
        trials = wall = 0.0
        reports = []
        for name, model, target, per_task in state["stages"]:
            with tracer.span("autotvm.extract_tasks", model=name):
                tasks = extract_tasks(model, target)
            expected += sum(min(per_task, len(t.config_space)) for t in tasks)
            report, seconds = _tune_stage(run, model, target, per_task,
                                          batches)
            reports.append(report)
            per_trial.append(seconds / report.total_trials)
            trials += report.total_trials
            wall += seconds
        rates.append(trials / wall)
        total_trials += int(trials)
    cpu = time.process_time() - cpu_start
    run.attempt(expected)
    if total_trials < expected:
        run.fail(f"{expected - total_trials} of {expected} trials not "
                 f"recorded", expected - total_trials)

    # Compile each tuned model under its history; the tuned build must use
    # the history, must not be slower (simulated) than the untuned build, and
    # must compute what the unfused build computes.
    tuned_modules, ratios = [], []
    for (name, model, target, _), report in zip(state["stages"], reports):
        with report.apply_history_best():
            with tracer.span("compiler.tuned_compile", model=name):
                tuned = repro.compile(model, target=target)
        untuned = repro.compile(model, target=target)
        run.check(tuned.tuned_kernels > 0,
                  f"{name}/{target}: compile under history used no tuned "
                  f"kernel")
        run.check(tuned.total_time <= untuned.total_time * (1 + 1e-9),
                  f"{name}/{target}: tuned build slower than untuned "
                  f"(simulated)")
        _check_numerics(run, name, model, target, tuned)
        tuned_modules.append(tuned)
        ratios.append(untuned.total_time / tuned.total_time)

    # One latency sample per autotune session (its wall / its trials), which
    # weighs the GPU-template and the CPU-template session equally.  Per
    # batch the distribution is bimodal — a random batch costs ~10 ms a trial,
    # a model-guided one ~40 — and its median sits in the gap between the
    # modes, where it moved 22 % on a day throughput moved 7 %.
    run.op_latencies = per_trial
    end_to_end = {
        "op_p50_ms": percentile(run.op_latencies, 50.0) * 1e3,
        "ops_per_s": percentile(rates, 50.0),
    }
    if not tracer.enabled:
        return end_to_end, {}

    layer = {
        "frontend.nodes": float(sum(state["nodes"].values())),
        "autotvm.trials_per_s": end_to_end["ops_per_s"],
        "autotvm.extract_tasks_s": tracer.total("autotvm.extract_tasks")
        / rounds,
        "compiler.tuned_compile_s": tracer.total("compiler.tuned_compile"),
        "autotvm.trial_invalid_share":
            sum(b["invalid"] for b in batches)
            / sum(b["trials"] for b in batches),
        "autotvm.floored_tasks":
            float(sum(r.floored for rep in reports for r in rep.results)),
        "autotvm.best_vs_fallback_ratio": geomean(ratios),
        "sim.latency_ms": _sim_latency_ms(tuned_modules),
        "bench.cpu_ms_per_op": cpu / total_trials * 1e3,
    }
    if batches[0]["misses"] is not None:
        # A guided batch scores a simulated-annealing walk with the cost
        # model, so it featurises far more candidates than it measures; a
        # random batch featurises only what it measures.
        guided = [b for b in batches if b["misses"] > 4 * b["trials"]]
        plain = [b for b in batches if b["misses"] <= 4 * b["trials"]]
        if guided:
            layer["autotvm.batch_s.guided"] = percentile(
                [b["seconds"] for b in guided], 50.0)
        if plain:
            layer["autotvm.batch_s.random"] = percentile(
                [b["seconds"] for b in plain], 50.0)
        layer["autotvm.lowerings_per_trial"] = (
            sum(b["misses"] for b in batches)
            / sum(b["trials"] for b in batches))
        for cache, counters in eval_cache_stats().items():
            looked_up = counters["hits"] + counters["misses"]
            layer[f"autotvm.eval_cache.{cache}_hit_rate"] = (
                counters["hits"] / looked_up if looked_up else 0.0)

    # Determinism: the cheapest stage tuned again from empty caches must
    # reproduce its trial curves exactly.
    name, model, target, per_task = state["stages"][-1]
    clear_timing_cache()
    with tracer.span("check.tune_repeat", model=name):
        again, _ = _tune_stage(run, model, target, per_task)
    repeat_ok = curve_sha256(again) == curve_sha256(reports[-1])
    run.check(repeat_ok, f"{name}/{target}: curve_sha256 differs between two "
                         f"identical sessions")
    layer["bench.curve_repeat_ok"] = float(repeat_ok)

    with tracer.span("probe.candidate_eval"):
        layer.update(_probe_candidate_eval(run))
    return end_to_end, layer


def _probe_candidate_eval(run: Run) -> Dict[str, float]:
    """Per-candidate cost of each candidate-evaluation stage, on fixed tasks
    and fixed configs (so the numbers compare across commits), called from
    here one stage at a time: template instantiation (te), lowering (tir),
    featurisation (tir), hardware-model estimate, then the cost model's fit
    and predict on the resulting features and one serial measured batch."""
    stages = {"te.instantiate_ms": [], "tir.lower_ms": [],
              "tir.extract_features_ms": [], "hardware.estimate_us": []}
    vectors, estimates = [], []
    picked = []
    for model, target in run.spec["probe_models"]:
        tasks = extract_tasks(model, target)
        step = max(1, len(tasks) // (run.spec["probe_tasks"] + 1))
        picked.extend(tasks[step::step][:run.spec["probe_tasks"]])
    for task in picked:
        rng = random.Random(zlib.crc32(task.name.encode()))
        space = task.config_space
        for index in rng.sample(range(len(space)),
                                min(run.spec["probe_configs"], len(space))):
            config = space.get(index)
            try:
                t0 = time.perf_counter()
                schedule, tensors = task.instantiate(config)
                t1 = time.perf_counter()
                func = tir.lower(schedule, tensors, name="probe")
                t2 = time.perf_counter()
                features = tir.extract_features(func)
                t3 = time.perf_counter()
                estimate = float(task.target.model.estimate(features))
                t4 = time.perf_counter()
            except Exception:   # an invalid schedule: not a candidate
                continue
            stages["te.instantiate_ms"].append((t1 - t0) * 1e3)
            stages["tir.lower_ms"].append((t2 - t1) * 1e3)
            stages["tir.extract_features_ms"].append((t3 - t2) * 1e3)
            stages["hardware.estimate_us"].append((t4 - t3) * 1e6)
            if np.isfinite(estimate) and estimate > 0:
                vectors.append(features.vector())
                estimates.append(estimate)
    layer = {name: percentile(values, 50.0)
             for name, values in stages.items() if values}

    x = np.stack(vectors)
    y = 1.0 / np.asarray(estimates)
    model = GradientBoostedTrees(seed=0)
    start = time.perf_counter()
    model.fit(x, y / y.max())
    layer["autotvm.cost_model.fit_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    model.predict(x)
    layer["autotvm.cost_model.predict_us_per_row"] = (
        (time.perf_counter() - start) / len(x) * 1e6)

    clear_timing_cache()
    task = picked[0]
    rng = random.Random(1)
    inputs = [MeasureInput(task, task.config_space.get(i))
              for i in rng.sample(range(len(task.config_space)), 16)]
    start = time.perf_counter()
    LocalMeasurer(number=2, seed=0).measure(inputs)
    layer["autotvm.measure_ms_per_trial"] = (
        (time.perf_counter() - start) / len(inputs) * 1e3)
    return layer


# ---------------------------------------------------------------------------
# compile_deploy_zoo
# ---------------------------------------------------------------------------

def _zoo_setup(run: Run) -> dict:
    nodes: Dict[str, int] = {}
    for name in dict.fromkeys(m for m, _ in run.spec["pairs"]):
        _build(run, name, nodes)
    for name, target in run.spec["warmup"]:
        with run.tracer.span("setup.warmup_compile", model=name):
            repro.compile(name, target=target)
    return {"nodes": nodes}


def _timed(tracer: Tracer, span_name: str, call, **args):
    with tracer.span(span_name, **args):
        start = time.perf_counter()
        value = call()
        return value, time.perf_counter() - start


def _zoo_measure(run: Run, state: dict):
    tracer = run.tracer
    passes = max(1, round(run.seconds / run.spec["round_seconds"]))
    warm: List[float] = []
    exports: List[float] = []
    loads: List[float] = []
    cold_by_pass: List[float] = []
    modules: Dict[Tuple[str, str], object] = {}
    loaded: Dict[Tuple[str, str], object] = {}
    sizes: Dict[Tuple[str, str], int] = {}
    calls = 0
    bundle_dir = Path(tempfile.mkdtemp(prefix="bundles-", dir=run.scratch))
    try:
        cpu_start = time.process_time()
        section_start = time.perf_counter()
        for _ in range(passes):
            clear_timing_cache()
            this_pass = 0.0
            for name, target in run.spec["pairs"]:
                run.attempt(2)
                module, seconds = _timed(
                    tracer, "compiler.compile_cold",
                    lambda: repro.compile(name, target=target), model=name)
                this_pass += seconds
                _, seconds = _timed(
                    tracer, "compiler.compile_warm",
                    lambda: repro.compile(name, target=target), model=name)
                warm.append(seconds)
                modules[(name, target)] = module
                calls += 2
            cold_by_pass.append(this_pass)
            for name, target in run.spec["deploy"]:
                run.attempt(2)
                path = str(bundle_dir / f"{name}-{target}.module")
                _, seconds = _timed(
                    tracer, "runtime.artifact.export",
                    lambda: modules[(name, target)].export(path), model=name)
                exports.append(seconds)
                sizes[(name, target)] = os.path.getsize(path)
                loaded[(name, target)], seconds = _timed(
                    tracer, "runtime.artifact.load",
                    lambda: repro.load(path), model=name)
                loads.append(seconds)
                calls += 2
        section = time.perf_counter() - section_start
        cpu = time.process_time() - cpu_start
    finally:
        shutil.rmtree(bundle_dir, ignore_errors=True)

    for (name, target), module in modules.items():
        _check_numerics(run, name, name, target, module)
    for (name, target), restored in loaded.items():
        original = modules[(name, target)]
        executor = repro.Executor(original)
        inputs = seeded_inputs(executor.input_specs, run.seed, name)
        run.check(
            restored.total_time == original.total_time
            and outputs_identical(repro.Executor(restored).run(inputs).outputs,
                                  executor.run(inputs).outputs),
            f"{name}/{target}: loaded artifact is not bit-identical to the "
            f"module it was exported from")

    # One latency sample per pass (cold wall / compiles), as tune_session
    # samples per batch: the median of ten walls from five unlike models
    # would hinge on which model lands in the middle.
    run.op_latencies = [seconds / len(run.spec["pairs"])
                        for seconds in cold_by_pass]
    end_to_end = {
        "op_p50_ms": percentile(run.op_latencies, 50.0) * 1e3,
        "ops_per_s": calls / section,
    }
    if not tracer.enabled:
        return end_to_end, {}

    megabytes = sum(sizes.values()) / 1e6
    pass_seconds = {p: 0.0 for p in _PASSES}
    for module in modules.values():
        for name, seconds in module.pass_timings().items():
            if name in pass_seconds:
                pass_seconds[name] += seconds
    # ``modules`` holds the last pass's cold builds, so compare like for like
    last_cold = cold_by_pass[-1]
    kernel_gen = last_cold - sum(pass_seconds.values())
    heavy = sum(1 for m in modules.values() for k in m.kernels
                if k.group.master.op in _HEAVY_OPS)
    layer = {
        "frontend.nodes": float(sum(state["nodes"].values())),
        "compiler.compile_cold_s": percentile(cold_by_pass, 50.0),
        "compiler.compile_warm_s": sum(warm) / passes,
        "compiler.kernel_gen_s": kernel_gen,
        "graph.op_timing.fallback_s_per_node": kernel_gen / heavy,
        "graph.kernels_after_fuse":
            float(sum(len(m.kernels) for m in modules.values())),
        "graph.memory_plan.planned_mb":
            sum(m.memory_plan.planned_bytes for m in modules.values()) / 1e6,
        "graph.memory_plan.reuse_ratio":
            geomean([m.memory_plan.reuse_ratio for m in modules.values()]),
        "runtime.artifact.export_s": sum(exports) / passes,
        "runtime.artifact.load_s": sum(loads) / passes,
        "runtime.artifact.export_mb_per_s": megabytes * passes / sum(exports),
        "runtime.artifact.load_mb_per_s": megabytes * passes / sum(loads),
        "runtime.artifact.bytes": float(sum(sizes.values())),
        "sim.latency_ms": _sim_latency_ms(modules.values()),
        "bench.cpu_ms_per_op": cpu / calls * 1e3,
    }
    for name, seconds in pass_seconds.items():
        layer[f"compiler.pass_s.{name}"] = seconds

    # Verifier cost: one cold compile with the static verifier on over the
    # same cold compile with it off.
    name, target = run.spec["verify_probe"]
    with tracer.span("probe.verify_overhead", model=name):
        clear_timing_cache()
        _, plain = _timed(tracer, "compiler.compile_cold",
                          lambda: repro.compile(name, target=target))
        clear_timing_cache()
        _, verified = _timed(
            tracer, "compiler.compile_verified",
            lambda: repro.compile(name, target=target, verify=True))
    layer["analysis.verify_overhead_ratio"] = verified / plain
    return end_to_end, layer


# ---------------------------------------------------------------------------
# serve_conv / serve_small
# ---------------------------------------------------------------------------

def _serve_setup(run: Run) -> dict:
    tracer = run.tracer
    name, target = run.spec["model"], run.spec["target"]
    nodes: Dict[str, int] = {}
    model = _build(run, name, nodes)
    with tracer.span("compiler.compile_cold", model=name):
        module = repro.compile(model, target=target)
    executor = repro.Executor(module)
    with tracer.span("runtime.serving.start"):
        engine = repro.serve(module, **spec.SERVE_ENGINE)
    return {"module": module, "executor": executor, "engine": engine,
            "model": model, "nodes": nodes}


def _serve_measure(run: Run, state: dict):
    engine = state["engine"]
    try:
        return _serve_phases(run, state)
    finally:
        with run.tracer.span("runtime.serving.shutdown"):
            engine.shutdown()


def _occupancy(engine) -> Tuple[int, int]:
    """(requests, batches) the engine has executed so far."""
    stats = engine.stats()
    return stats["requests"], stats["batches"]


def _serve_phases(run: Run, state: dict):
    tracer = run.tracer
    module, executor, engine = (state["module"], state["executor"],
                                state["engine"])
    name = run.spec["model"]
    pool = [seeded_inputs(executor.input_specs, run.seed, f"{name}#{i}")
            for i in range(spec.WINDOW)]
    cpu_start = time.process_time()

    # -- solo: closed loop, one caller, Executor.run.  The first sweep of
    # the pool yields the reference outputs every served result must equal.
    references: List[list] = []
    solo: List[float] = []
    deadline = time.perf_counter() + spec.PHASE_SHARE["solo"] * run.seconds
    with tracer.span("phase.solo"):
        while len(solo) < 2 * spec.WINDOW or time.perf_counter() < deadline:
            index = len(solo) % spec.WINDOW
            with tracer.span("runtime.executor.run"):
                start = time.perf_counter()
                outputs = executor.run(pool[index]).outputs
                solo.append(time.perf_counter() - start)
            run.attempt()
            if len(references) < spec.WINDOW:
                references.append(outputs)
            elif not outputs_identical(outputs, references[index]):
                run.fail(f"solo run {len(solo)}: output changed between two "
                         f"runs on the same input")

    # -- window: closed loop, one caller, infer_many(8); drives batch > 1
    # through the kernels solo and open run at batch 1.
    windows: List[float] = []
    with tracer.span("phase.window"):
        for _ in range(run.spec["warmup_windows"]):
            engine.infer_many(pool, timeout=spec.HUNG_AFTER_S)
        before = _occupancy(engine)
        deadline = (time.perf_counter()
                    + spec.PHASE_SHARE["window"] * run.seconds)
        while len(windows) < 3 or time.perf_counter() < deadline:
            with tracer.span("runtime.serving.window"):
                start = time.perf_counter()
                results = engine.infer_many(pool, timeout=spec.HUNG_AFTER_S)
                windows.append(time.perf_counter() - start)
            run.attempt(spec.WINDOW)
            wrong = sum(not outputs_identical(got, want)
                        for got, want in zip(results, references))
            if wrong:
                run.fail(f"window {len(windows)}: {wrong} served results "
                         f"differ from Executor.run", wrong)
        after = _occupancy(engine)

    # -- open: one generator thread, seeded Poisson arrivals, latency from
    # each request's due time.
    schedule = poisson_schedule(run.spec["rate_rps"],
                                spec.PHASE_SHARE["open"] * run.seconds,
                                run.seed)
    with tracer.span("phase.open") as phase:
        result = run_open_loop(
            lambda i: engine.submit(pool[i % spec.WINDOW]), schedule,
            spec.HUNG_AFTER_S)
    cpu = time.process_time() - cpu_start
    run.attempt(len(result.sent))
    for request in result.failed:
        run.fail(f"open request {request.index}: {request.error}")
    latencies = []
    for request in result.succeeded:
        if not outputs_identical(request.outputs,
                                 references[request.index % spec.WINDOW]):
            request.error = "served result differs from Executor.run"
            run.fail(f"open request {request.index}: {request.error}")
            continue
        latencies.append(request.latency)
        if tracer.enabled:
            _record_request(tracer, phase.id, request)

    _check_numerics(run, name, state["model"], run.spec["target"], module)

    run.op_latencies = solo
    end_to_end = {
        "op_p50_ms": percentile(solo, 50.0) * 1e3,
        # median window, not requests / wall: one stalled window (a GC
        # pause, a worker descheduled) moved the mean by 10 %, the median by 1
        "ops_per_s": spec.WINDOW / percentile(windows, 50.0),
    }
    if not tracer.enabled:
        return end_to_end, {}

    good = [r for r in result.sent if r.error is None]
    futures = [r.future for r in good]
    solo_p50 = percentile(solo, 50.0)
    operations = len(solo) + spec.WINDOW * len(windows) + len(result.sent)
    limit = run.spec["limit_ms"] / 1e3
    slo = engine.stats()["slo"]
    batch_one = [f.execute_latency for f in futures if f.batch_size == 1]
    layer = {
        "frontend.nodes": float(sum(state["nodes"].values())),
        "graph.kernels_after_fuse": float(len(module.kernels)),
        "graph.memory_plan.planned_mb":
            module.memory_plan.planned_bytes / 1e6,
        "graph.memory_plan.reuse_ratio": module.memory_plan.reuse_ratio,
        "compiler.compile_cold_s": tracer.total("compiler.compile_cold"),
        "runtime.executor.run_ms_p50": end_to_end["op_p50_ms"],
        "runtime.executor.run_ms_p90": percentile(solo, 90.0) * 1e3,
        "runtime.serving.start_s": tracer.total("runtime.serving.start"),
        "runtime.serving.window_rps": end_to_end["ops_per_s"],
        "runtime.serving.open_ms_p50": percentile(latencies, 50.0) * 1e3,
        "runtime.serving.open_ms_p90": percentile(latencies, 90.0) * 1e3,
        "runtime.serving.wall_ms_p99":
            percentile([f.wall_latency for f in futures], 99.0) * 1e3,
        "runtime.serving.ok_share":
            sum(1 for r in good if r.latency <= limit) / len(result.sent),
        "runtime.serving.queue_wait_ms_p50":
            percentile([f.queue_wait for f in futures], 50.0) * 1e3,
        "runtime.serving.queue_wait_ms_p90":
            percentile([f.queue_wait for f in futures], 90.0) * 1e3,
        "runtime.serving.execute_ms_p50":
            percentile([f.execute_latency for f in futures], 50.0) * 1e3,
        "runtime.serving.execute_ms_p90":
            percentile([f.execute_latency for f in futures], 90.0) * 1e3,
        # The engine defines wall = queue wait + execute, so what it adds on
        # top is the submit call itself (validate, copy, enqueue).
        "runtime.serving.engine_overhead_ms": percentile(
            [r.submitted - r.due - r.late for r in good], 50.0) * 1e3,
        "runtime.serving.batch_mean.open":
            sum(f.batch_size for f in futures) / len(futures),
        "runtime.serving.batch_mean.window":
            (after[0] - before[0]) / (after[1] - before[1]),
        "runtime.serving.shed": float(slo["shed_queue_full"]),
        "runtime.serving.expired": float(slo["shed_expired"]),
        "runtime.serving.failed": float(len(result.failed)),
        "sim.latency_ms": module.total_time * 1e3,
        "bench.generator_late_ms_p99":
            percentile([r.late for r in result.sent], 99.0) * 1e3,
        "bench.drain_s": result.drain_s,
        "bench.cpu_ms_per_op": cpu / operations * 1e3,
    }
    if batch_one:
        # > 1 when worker threads contend (GIL-bound kernels): the same
        # batch-1 execution takes longer inside the engine than alone.
        layer["runtime.serving.exec_inflation"] = (
            percentile(batch_one, 50.0) / solo_p50)
    with tracer.span("probe.kernel_walk"):
        layer.update(_probe_kernels(run, module, executor, pool[0]))
    return end_to_end, layer


def _record_request(tracer: Tracer, parent, request) -> None:
    """A served request as spans: due -> resolved, split into the generator's
    lateness, the admission-queue wait and the batch execution.  What is
    left is the request span's self time: engine overhead."""
    future = request.future
    queued = request.submitted
    started = queued + future.queue_wait
    span = tracer.record("runtime.serving.request", request.due,
                         queued + future.wall_latency, parent,
                         index=request.index, batch=future.batch_size)
    tracer.record("bench.generator_late", request.due,
                  request.due + request.late, span)
    tracer.record("runtime.serving.queue_wait", queued, started, span)
    tracer.record("runtime.serving.execute", started,
                  started + future.execute_latency, span)


def _kernel_class(op: str) -> str:
    if op in ("conv2d", "dense"):
        return op
    return "pool" if "pool" in op else "other"


def _probe_kernels(run: Run, module, executor, inputs) -> Dict[str, float]:
    """Walk ``module.kernels`` on the benchmark's own tensor map: per
    operator class, the kernel wall of one inference (each ``kernel.run``
    timed), and what ``Executor.run`` costs on top of its kernels (the same
    walk untimed, interleaved with ``Executor.run`` — a timer per 20 us
    kernel would cost more than the overhead it is looking for).  The conv2d
    FLOP count is computed from the kernels' shapes, not measured."""
    tracer = run.tracer

    def fresh() -> Dict[str, np.ndarray]:
        tensors = dict(module.params)
        tensors.update(inputs)
        return tensors

    per_class: Dict[str, List[float]] = {c: [] for c in
                                         ("conv2d", "dense", "pool", "other")}
    for _ in range(3):
        tensors = fresh()
        sums = dict.fromkeys(per_class, 0.0)
        for kernel in module.kernels:
            cls = _kernel_class(kernel.group.master.op)
            with tracer.span(f"runtime.executor.kernel.{cls}"):
                start = time.perf_counter()
                kernel.run(tensors)
                sums[cls] += time.perf_counter() - start
        for cls, seconds in sums.items():
            per_class[cls].append(seconds)

    walks: List[float] = []
    runs: List[float] = []
    for _ in range(5):
        tensors = fresh()
        start = time.perf_counter()
        for kernel in module.kernels:
            kernel.run(tensors)
        walks.append(time.perf_counter() - start)
        start = time.perf_counter()
        executor.run(inputs)
        runs.append(time.perf_counter() - start)

    flop = 0.0
    for kernel in module.kernels:
        node = kernel.group.master
        if node.op == "conv2d":
            _, in_per_group, k_h, k_w = node.inputs[1].shape
            flop += 2.0 * float(np.prod(node.shape)) * in_per_group * k_h * k_w
    conv_wall = percentile(per_class["conv2d"], 50.0)
    layer = {f"runtime.executor.kernel_ms.{cls}": percentile(v, 50.0) * 1e3
             for cls, v in per_class.items()}
    layer.update({
        "runtime.executor.kernels_per_infer": float(len(module.kernels)),
        "runtime.executor.overhead_ms":
            (percentile(runs, 50.0) - percentile(walks, 50.0)) * 1e3,
        "runtime.executor.live_tensor_mb":
            sum(t.nbytes for t in tensors.values()) / 1e6,
        "topi.conv2d_gflop_per_infer": flop / 1e9,
        "topi.conv2d_wall_gflops": flop / 1e9 / conv_wall if flop else 0.0,
    })
    return layer


#: workload name -> (setup, measure)
WORKLOADS = {
    "tune_session": (_tune_setup, _tune_measure),
    "compile_deploy_zoo": (_zoo_setup, _zoo_measure),
    "serve_conv": (_serve_setup, _serve_measure),
    "serve_small": (_serve_setup, _serve_measure),
}
