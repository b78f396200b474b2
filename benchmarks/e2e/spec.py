"""What the benchmark runs and what it reports: the single source the runner,
``BENCHMARK.json`` and the helper tests are checked against.

Every size below is a constant; ``--seed`` changes only generated inputs
(input tensors, the request pool, the open-loop arrival schedule) and
``--seconds`` scales the time-boxed phases (see ``README.md``).
"""

from __future__ import annotations

from typing import Dict, List

#: seconds one run measures; the sizes below are chosen for this value
RUN_SECONDS = 15

#: ``TuningOptions.seed`` of every tuning session.  Deliberately *not* drawn
#: from ``--seed``: whether a task's second batch is model-guided depends on
#: how many of its first eight random configs are valid, so the search work
#: of one session swings 2x with the tuning seed (5.3 s .. 11.2 s measured
#: here), which would bury any bound.  The model and target are the tuner's
#: input; its RNG seed is a setting.
TUNING_SEED = 0

# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

WORKLOADS: Dict[str, dict] = {
    "tune_session": {
        "why": "closed, 1 caller: autotune resnet-18[:bn7]/cuda x16 + dqn/arm_cpu"
               " x32 trials, then compile under history; candidate evaluation"
               " (te/tir/autotvm/hardware) does ~all the work, runtime none",
        "loop": "closed", "callers": 1, "setups": 3,
        "op": "one measured tuning trial (latency sampled per autotune"
              " session: its wall / its trials)",
        # (zoo model, node the graph is cut after or None, target, trials)
        "stages": [("resnet-18", "bn7", "cuda", 16),
                   ("dqn", None, "arm_cpu", 32)],
        "n_parallel": 2,
        # one session is ~14 s here; --seconds adds whole repeat sessions
        "round_seconds": 14,
        # candidate-evaluation probe (traced run): configs per task, tasks
        "probe_configs": 32, "probe_tasks": 3,
        "probe_models": [("resnet-18", "cuda"), ("resnet-18", "arm_cpu")],
    },
    "compile_deploy_zoo": {
        "why": "closed, 1 caller: cold+warm repro.compile over 5 model/target"
               " pairs per pass, export+load of 2; same candidate evaluation"
               " as tune_session but via fallback search; only user of"
               " runtime.artifact",
        "loop": "closed", "callers": 1, "setups": 3,
        "op": "one public API call (compile/export/load); latency = one cold"
              " compile, sampled per pass as cold wall / compiles",
        "pairs": [("resnet-18", "cuda"), ("mobilenet", "arm_cpu"),
                  ("dcgan", "cuda"), ("dqn", "arm_cpu"), ("lstm-lm", "cuda")],
        "deploy": [("mobilenet", "arm_cpu"), ("dqn", "arm_cpu")],
        # absorbs one-off lazy imports for both target families in set-up
        "warmup": [("dqn", "arm_cpu"), ("lstm-lm", "cuda")],
        # one pass is ~10 s here; passes = max(1, round(seconds / this))
        "round_seconds": 7,
        "verify_probe": ("dcgan", "cuda"),
    },
    "serve_conv": {
        "why": "resnet-18/cuda, 2 devices, adaptive batch<=4: solo runs, closed"
               " windows of 8, open-loop Poisson 4 rps; kernel-bound (conv2d is"
               " ~95% of kernel wall), so executor/engine overhead is noise",
        "loop": "closed (solo, window) then open", "callers": 1, "setups": 1,
        "op": "one inference (latency: solo Executor.run; throughput: closed"
              " windows of 8 through the engine)",
        "model": "resnet-18", "target": "cuda",
        "rate_rps": 4.0, "limit_ms": 500.0, "warmup_windows": 1,
    },
    "serve_small": {
        "why": "lstm-lm/cuda, same engine: solo, windows of 8, open-loop"
               " Poisson 300 rps; dispatch-bound and conv-free (56 kernels of"
               " ~20 us), so Executor loop, queueing and batching dominate",
        "loop": "closed (solo, window) then open", "callers": 1, "setups": 3,
        "op": "one inference (latency: solo Executor.run; throughput: closed"
              " windows of 8 through the engine)",
        "model": "lstm-lm", "target": "cuda",
        "rate_rps": 300.0, "limit_ms": 10.0, "warmup_windows": 2,
    },
}

#: engine settings shared by both serving workloads
SERVE_ENGINE = {"devices": 2, "max_batch": "adaptive", "adaptive_max_batch": 4}
#: requests per closed window, and size of the seeded request pool
WINDOW = 8
#: share of ``--seconds`` each serving phase gets
PHASE_SHARE = {"solo": 0.30, "window": 0.50, "open": 0.20}
#: a request not resolved this long after the schedule ends counts as hung
HUNG_AFTER_S = 30.0

#: zoo models with a committed expected output (``golden/<model>.npz``)
GOLDEN_MODELS = ["resnet-18", "mobilenet", "dcgan", "dqn", "lstm-lm"]
#: every numeric output check (default-opt vs opt_level=0 vs golden):
#: |got - expected| <= RTOL * |expected| + ATOL_SHARE * max|expected|
RTOL, ATOL_SHARE = 1e-4, 1e-5

# --------------------------------------------------------------------------
# End-to-end metrics: every workload reports every one (tracing off)
# --------------------------------------------------------------------------
# The operation differs per workload (``WORKLOADS[name]["op"]``); the
# statistic does not.  All are on the wall clock.  The timing bounds are the
# widest the contract allows because this class of host has noisy phases:
# ten-seed spreads measured here were 2-6 % in quiet hours and 8-14 % an hour
# later with no code change.

END_TO_END: List[dict] = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "what": "median wall latency of one operation"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "what": "operations completed per wall second of the throughput phase"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10,
     "what": "peak resident set of the measuring process"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "imports, model build, compile and repro.serve() construction"
             " before the first timed operation (median over set-ups)"},
]

# --------------------------------------------------------------------------
# Per-layer metrics (traced run).  ``moves`` is the prediction, written down
# before measuring: the (end-to-end metric, workload) pairs a change in this
# number should move.  A workload that never enters the layer reports 0.
# --------------------------------------------------------------------------

_ALL = ["tune_session", "compile_deploy_zoo", "serve_conv", "serve_small"]
_SERVE = ["serve_conv", "serve_small"]


def _moves(metric: str, workloads: List[str]) -> List[List[str]]:
    return [[metric, w] for w in workloads]


def _layer(name, unit, better, moves, clock="wall"):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "clock": clock}


_CANDIDATE_EVAL = (_moves("ops_per_s", ["tune_session", "compile_deploy_zoo"])
                   + _moves("op_p50_ms", ["tune_session",
                                          "compile_deploy_zoo"]))
_TUNE = (_moves("ops_per_s", ["tune_session"])
         + _moves("op_p50_ms", ["tune_session"]))
_COMPILE = (_moves("ops_per_s", ["compile_deploy_zoo"])
            + _moves("op_p50_ms", ["compile_deploy_zoo"])
            + _moves("setup_s", _SERVE))
_DEPLOY = _moves("ops_per_s", ["compile_deploy_zoo"])
_KERNEL = (_moves("op_p50_ms", ["serve_conv"])
           + _moves("ops_per_s", ["serve_conv"]))
_DISPATCH = (_moves("op_p50_ms", ["serve_small"])
             + _moves("ops_per_s", ["serve_small"]))
_SERVING = _moves("ops_per_s", _SERVE)

PER_LAYER: List[dict] = [
    # frontend
    _layer("frontend.build_s", "s", "lower", _moves("setup_s", _ALL)),
    _layer("frontend.nodes", "count", "lower", _moves("setup_s", _ALL)),
    # compiler / graph / analysis
    _layer("compiler.compile_cold_s", "s", "lower", _COMPILE),
    _layer("compiler.compile_warm_s", "s", "lower", _COMPILE),
    _layer("compiler.tuned_compile_s", "s", "lower", []),
    _layer("compiler.pass_s.fold_constants", "s", "lower", _COMPILE),
    _layer("compiler.pass_s.simplify_inference", "s", "lower", _COMPILE),
    _layer("compiler.pass_s.alter_layout", "s", "lower", _COMPILE),
    _layer("compiler.pass_s.fuse_ops", "s", "lower", _COMPILE),
    _layer("compiler.pass_s.plan_memory", "s", "lower", _COMPILE),
    _layer("compiler.kernel_gen_s", "s", "lower", _COMPILE),
    _layer("graph.op_timing.fallback_s_per_node", "s", "lower", _COMPILE),
    _layer("graph.kernels_after_fuse", "count", "lower", _KERNEL + _DISPATCH),
    _layer("graph.memory_plan.planned_mb", "MB", "lower",
           _moves("peak_rss_mb", _SERVE)),
    _layer("graph.memory_plan.reuse_ratio", "ratio", "higher",
           _moves("peak_rss_mb", _SERVE)),
    _layer("analysis.verify_overhead_ratio", "ratio", "lower", []),
    # candidate evaluation
    _layer("te.instantiate_ms", "ms", "lower", _CANDIDATE_EVAL),
    _layer("tir.lower_ms", "ms", "lower", _CANDIDATE_EVAL),
    _layer("tir.extract_features_ms", "ms", "lower", _CANDIDATE_EVAL),
    _layer("hardware.estimate_us", "us", "lower", _CANDIDATE_EVAL),
    # autotvm
    _layer("autotvm.trials_per_s", "1/s", "higher", _TUNE),
    _layer("autotvm.extract_tasks_s", "s", "lower", _TUNE),
    _layer("autotvm.cost_model.fit_ms", "ms", "lower", _TUNE),
    _layer("autotvm.cost_model.predict_us_per_row", "us", "lower", _TUNE),
    _layer("autotvm.measure_ms_per_trial", "ms", "lower", _TUNE),
    _layer("autotvm.batch_s.random", "s", "lower", _TUNE),
    _layer("autotvm.batch_s.guided", "s", "lower", _TUNE),
    _layer("autotvm.lowerings_per_trial", "count", "lower", _TUNE),
    _layer("autotvm.eval_cache.features_hit_rate", "ratio", "higher", _TUNE),
    _layer("autotvm.eval_cache.lowered_hit_rate", "ratio", "higher", _TUNE),
    _layer("autotvm.trial_invalid_share", "ratio", "lower", _TUNE),
    _layer("autotvm.floored_tasks", "count", "lower", [], "simulated"),
    _layer("autotvm.best_vs_fallback_ratio", "ratio", "higher", [],
           "simulated"),
    # runtime.artifact
    _layer("runtime.artifact.export_s", "s", "lower", _DEPLOY),
    _layer("runtime.artifact.load_s", "s", "lower", _DEPLOY),
    _layer("runtime.artifact.export_mb_per_s", "MB/s", "higher", _DEPLOY),
    _layer("runtime.artifact.load_mb_per_s", "MB/s", "higher", _DEPLOY),
    _layer("runtime.artifact.bytes", "count", "lower", _DEPLOY),
    # runtime.executor / topi
    _layer("runtime.executor.run_ms_p50", "ms", "lower", _KERNEL + _DISPATCH),
    _layer("runtime.executor.run_ms_p90", "ms", "lower", _KERNEL + _DISPATCH),
    _layer("runtime.executor.kernel_ms.conv2d", "ms", "lower", _KERNEL),
    _layer("runtime.executor.kernel_ms.dense", "ms", "lower",
           _KERNEL + _DISPATCH),
    _layer("runtime.executor.kernel_ms.pool", "ms", "lower", _KERNEL),
    _layer("runtime.executor.kernel_ms.other", "ms", "lower",
           _KERNEL + _DISPATCH),
    _layer("runtime.executor.kernels_per_infer", "count", "lower", _DISPATCH),
    _layer("runtime.executor.overhead_ms", "ms", "lower", _DISPATCH),
    _layer("runtime.executor.live_tensor_mb", "MB", "lower",
           _moves("peak_rss_mb", _SERVE)),
    _layer("topi.conv2d_gflop_per_infer", "GFLOP", "lower", _KERNEL),
    _layer("topi.conv2d_wall_gflops", "GFLOP/s", "higher", _KERNEL),
    # runtime.serving
    _layer("runtime.serving.start_s", "s", "lower", _moves("setup_s", _SERVE)),
    _layer("runtime.serving.shutdown_s", "s", "lower", []),
    _layer("runtime.serving.window_rps", "1/s", "higher",
           _moves("ops_per_s", _SERVE)),
    _layer("runtime.serving.open_ms_p50", "ms", "lower", []),
    _layer("runtime.serving.open_ms_p90", "ms", "lower", []),
    _layer("runtime.serving.wall_ms_p99", "ms", "lower", []),
    _layer("runtime.serving.ok_share", "ratio", "higher", []),
    _layer("runtime.serving.queue_wait_ms_p50", "ms", "lower", _SERVING),
    _layer("runtime.serving.queue_wait_ms_p90", "ms", "lower", _SERVING),
    _layer("runtime.serving.execute_ms_p50", "ms", "lower", _SERVING),
    _layer("runtime.serving.execute_ms_p90", "ms", "lower", _SERVING),
    _layer("runtime.serving.engine_overhead_ms", "ms", "lower", _DISPATCH),
    _layer("runtime.serving.exec_inflation", "ratio", "lower",
           _moves("ops_per_s", ["serve_conv"])),
    _layer("runtime.serving.batch_mean.open", "count", "higher", _SERVING),
    _layer("runtime.serving.batch_mean.window", "count", "higher",
           _moves("ops_per_s", _SERVE)),
    _layer("runtime.serving.shed", "count", "lower", []),
    _layer("runtime.serving.expired", "count", "lower", []),
    _layer("runtime.serving.failed", "count", "lower", []),
    # the paper's own clock, beside every wall number
    _layer("sim.latency_ms", "ms", "lower", [], "simulated"),
    # the benchmark itself
    _layer("bench.cpu_ms_per_op", "ms", "lower", []),
    _layer("bench.generator_late_ms_p99", "ms", "lower", []),
    _layer("bench.drain_s", "s", "lower", []),
    _layer("bench.trace_overhead_ratio", "ratio", "lower", []),
    _layer("bench.span_residual_share", "ratio", "lower", []),
    _layer("bench.curve_repeat_ok", "count", "higher", []),
]


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }
