"""Tests for the static-analysis layer: graph/TIR verifiers, the mutation
harness, ``compile(verify=True)`` wiring, candidate-schedule rejection in the
measurers and the invariant linter."""

import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import te
from repro.analysis import (
    DtypeMismatchError,
    DuplicateNodeNameError,
    OutOfBoundsError,
    ParallelHazardError,
    ShapeMismatchError,
    StorageSizeError,
    TIRVerifierError,
    UseBeforeDefError,
    VerifierError,
    verify_func,
    verify_graph,
)
from repro.analysis.mutate import MUTATIONS, run_all, run_mutation
from repro.autotvm import Task, TuningOptions, clear_eval_caches
from repro.autotvm.measure import Measurer, MeasureInput
from repro.autotvm.task import _FailureMarker
from repro.graph.ir import Graph, Node
from repro.graph.passes import fuse_ops, plan_memory
from repro.hardware import cuda
from repro.te.expr import Add, FloatImm, IntImm, Var
from repro.tir.stmt import (Buffer, BufferLoad, BufferStore, For, ForKind,
                            LoweredFunc)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _small_graph(dtypes=None):
    """conv2d -> bias_add -> relu with a residual add (two consumers)."""
    data = Node("null", "data")
    weight = Node("null", "weight")
    bias = Node("null", "bias")
    conv = Node("conv2d", "conv0", [data, weight],
                {"strides": 1, "padding": 1})
    biased = Node("bias_add", "bias0", [conv, bias])
    act = Node("relu", "relu0", [biased])
    residual = Node("add", "add0", [act, biased])
    graph = Graph([residual])
    graph.infer_shapes({"data": (1, 3, 8, 8), "weight": (8, 3, 3, 3),
                        "bias": (1, 8, 8, 8)}, dtypes=dtypes)
    return graph


def _elemwise_func(extent=16, size=16):
    a = Buffer("a", (size,))
    b = Buffer("b", (size,))
    i = Var("i")
    body = For(i, 0, extent,
               BufferStore(b, [i], Add(BufferLoad(a, [i]), FloatImm(1.0))))
    return LoweredFunc("elemwise", [a, b], body)


# ---------------------------------------------------------------------------
# Graph verifier
# ---------------------------------------------------------------------------

class TestGraphVerifier:
    def test_clean_graph_verifies(self):
        graph = _small_graph()
        verify_graph(graph, groups=fuse_ops(graph),
                     memory_plan=plan_memory(graph))

    def test_shape_corruption_names_check_node_and_pass(self):
        graph = _small_graph()
        node = next(n for n in graph.op_nodes if n.name == "relu0")
        node.shape = (2, 2)
        with pytest.raises(ShapeMismatchError) as err:
            verify_graph(graph, pass_name="bad_pass")
        assert err.value.check == "shape_inference"
        assert "relu0" in str(err.value)
        assert err.value.pass_name == "bad_pass"
        assert "bad_pass" in str(err.value)

    def test_duplicate_names_rejected(self):
        graph = _small_graph()
        next(n for n in graph.op_nodes if n.name == "relu0").name = "bias0"
        with pytest.raises(DuplicateNodeNameError):
            verify_graph(graph)

    def test_undersized_storage_rejected(self):
        graph = _small_graph()
        plan = plan_memory(graph)
        token = plan.storage_of["conv0"]
        plan.token_bytes[token] //= 2
        with pytest.raises(StorageSizeError):
            verify_graph(graph, memory_plan=plan)

    def test_all_errors_subclass_verifier_error(self):
        graph = _small_graph()
        graph.op_nodes[0].shape = (1,)
        with pytest.raises(VerifierError):
            verify_graph(graph)


# ---------------------------------------------------------------------------
# TIR verifier
# ---------------------------------------------------------------------------

class TestTIRVerifier:
    def test_clean_func_verifies(self):
        verify_func(_elemwise_func())

    def test_static_oob_detected(self):
        with pytest.raises(OutOfBoundsError) as err:
            verify_func(_elemwise_func(extent=32, size=16))
        assert err.value.check == "buffer_bounds"

    def test_undefined_loop_var_detected(self):
        a = Buffer("a", (16,))
        b = Buffer("b", (16,))
        i, phantom = Var("i"), Var("phantom")
        body = For(i, 0, 16, BufferStore(b, [phantom], BufferLoad(a, [i])))
        with pytest.raises(UseBeforeDefError):
            verify_func(LoweredFunc("bad", [a, b], body))

    def test_parallel_reduction_hazard_detected(self):
        a = Buffer("a", (16,))
        out = Buffer("out", (1,))
        i = Var("i")
        body = For(i, 0, 16,
                   BufferStore(out, [IntImm(0)],
                               Add(BufferLoad(out, [IntImm(0)]),
                                   BufferLoad(a, [i]))),
                   kind=ForKind.PARALLEL)
        with pytest.raises(ParallelHazardError) as err:
            verify_func(LoweredFunc("reduce", [a, out], body))
        assert err.value.check == "parallel_hazard"


# ---------------------------------------------------------------------------
# Mutation harness: every class caught with the exact typed error
# ---------------------------------------------------------------------------

class TestMutationHarness:
    def test_at_least_eight_classes(self):
        assert len(MUTATIONS) >= 8

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_caught_with_exact_type(self, name):
        outcome = run_mutation(name, seed=0)
        assert outcome.ok, (f"{name}: expected {outcome.expected}, got "
                            f"{outcome.error_type}: {outcome.message}")

    def test_run_all_deterministic_across_seeds(self):
        for seed in (1, 2, 3):
            outcomes = run_all(seed=seed)
            failed = [o.name for o in outcomes if not o.ok]
            assert not failed, f"seed {seed}: verifier missed {failed}"


# ---------------------------------------------------------------------------
# compile(verify=True) wiring
# ---------------------------------------------------------------------------

class TestCompileVerify:
    @pytest.mark.parametrize("opt_level", [0, 2, 3])
    def test_zoo_model_verifies_clean(self, opt_level):
        module = repro.compile("dqn", target="arm_cpu",
                               opt_level=opt_level, verify=True)
        assert module.kernels

    def test_early_graph_output_keeps_its_storage(self):
        # a graph output nothing consumes used to release its token right
        # after the step producing it, so 'tanh0' was planned onto live
        # output memory and verify=True rejected the compiler's own plan
        from repro.frontend.builder import ModelBuilder

        def two_outputs():
            builder = ModelBuilder("two_outputs", seed=0)
            hidden = builder.relu(builder.dense(builder.input("data", (1, 16)), 32))
            early = builder.sigmoid(hidden)
            late = builder.tanh(builder.relu(
                builder.dense(builder.tanh(hidden), 32)))
            return builder.finalize([early, late])

        data = np.random.default_rng(0).standard_normal((1, 16)).astype("float32")
        results = []
        for opt_level in (0, 2):
            module = repro.compile(two_outputs(), target="cuda",
                                   opt_level=opt_level, verify=True)
            early = module.graph.outputs[0]
            names = [node.name for node in module.graph.nodes]
            storage_of = module.memory_plan.storage_of
            later = names[names.index(early.name) + 1:]
            assert storage_of[early.name] not in {
                storage_of[name] for name in later if name in storage_of}
            results.append([out.asnumpy() for out in repro.Executor(module)(data)])
        for reference, fused in zip(*results):
            np.testing.assert_array_equal(fused, reference)

    def test_corrupting_pass_caught_and_named(self, splice_pass):
        def clobber_names(state):
            ops = state.graph.op_nodes
            ops[1].name = ops[0].name

        splice_pass(clobber_names)
        with pytest.raises(DuplicateNodeNameError) as err:
            repro.compile("dqn", target="arm_cpu", opt_level=2, verify=True)
        assert err.value.pass_name == "clobber_names"

    def test_verify_off_by_default(self, splice_pass):
        def clobber_dtype(state):
            state.graph.op_nodes[0].dtype = "float16"

        # Without verify the corruption flows through silently; with verify
        # the re-inference disagreement is caught right after the pass.
        splice_pass(clobber_dtype)
        repro.compile("dqn", target="arm_cpu", opt_level=2)
        with pytest.raises(DtypeMismatchError) as err:
            repro.compile("dqn", target="arm_cpu", opt_level=2, verify=True)
        assert err.value.pass_name == "clobber_dtype"

    def test_verify_checks_input_every_pass_and_codegen(self, monkeypatch):
        from repro.analysis import graph_verify

        checked = []
        real = graph_verify.verify_graph

        def spy(graph, **kwargs):
            checked.append(kwargs.get("pass_name"))
            return real(graph, **kwargs)

        monkeypatch.setattr(graph_verify, "verify_graph", spy)
        repro.compile("dqn", target="arm_cpu")
        assert checked == []
        module = repro.compile("dqn", target="arm_cpu", verify=True)
        executed = [r.name for r in module.pass_records]
        assert checked == [None] + executed + ["codegen"]

    def test_clear_timing_cache_forgets_verified_programs(self, monkeypatch):
        from repro.analysis import tir_verify
        from repro.graph import clear_timing_cache

        calls = []
        real = tir_verify.verify_func

        def counting(func):
            calls.append(func.name)
            return real(func)

        monkeypatch.setattr(tir_verify, "verify_func", counting)

        def verified_compile() -> int:
            before = len(calls)
            repro.compile("dqn", target="arm_cpu", verify=True)
            return len(calls) - before

        clear_timing_cache()
        cold = verified_compile()
        assert cold > 0
        assert verified_compile() == 0      # each program certified once
        clear_timing_cache()
        # Regression: the clear left the verified set populated, so a "cold"
        # verified compile skipped every program seen earlier in the process.
        assert verified_compile() == cold

    def test_program_verified_while_tuning_is_not_verified_again(
            self, monkeypatch):
        calls = _count_verify_calls(monkeypatch)
        clear_eval_caches()
        # ensure_no_regression=False: the recorded best is a measured config
        report = repro.autotune(_small_graph(), target="cuda", trials=8,
                                options=TuningOptions(
                                    verify=True, ensure_no_regression=False))
        tuning = len(calls)
        assert tuning > 0
        with report.apply_history_best():
            module = repro.compile(_small_graph(), target="cuda", verify=True)
        assert module.tuned_kernels == 1
        assert len(calls) == tuning     # one memo: the verdict is reused


# ---------------------------------------------------------------------------
# Candidate-schedule verification in the measurer
# ---------------------------------------------------------------------------

def _count_verify_calls(monkeypatch):
    """Count the lowered programs the TIR verifier is called on."""
    from repro.analysis import tir_verify

    calls = []
    real = tir_verify.verify_func

    def counting(func):
        calls.append(func.name)
        return real(func)

    monkeypatch.setattr(tir_verify, "verify_func", counting)
    return calls


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def _eight_knob_template(cfg):
    cfg.define_knob("k", list(range(8)))
    a = te.placeholder((16,), name="a")
    b = te.compute((16,), lambda i: a[i] + 1.0, name="b")
    return te.create_schedule(b.op), [a, b]


class _BrokenTask(Task):
    """A task whose every schedule lowers to an OOB program."""

    def __init__(self):
        super().__init__("broken_task", _eight_knob_template, (), cuda(),
                         workload="broken")

    def lower(self, config):
        return _elemwise_func(extent=32, size=16)


class TestMeasurerVerify:
    def test_illegal_schedule_rejected_as_typed_error(self):
        measurer = Measurer(verify=True)
        inp = MeasureInput(task=_BrokenTask(),
                           config=SimpleNamespace(index=7))
        with pytest.raises(TIRVerifierError):
            measurer._verify_one(inp)
        assert measurer.num_rejected == 1

    def test_rejection_memoized_per_config(self, monkeypatch):
        calls = _count_verify_calls(monkeypatch)
        clear_eval_caches()
        measurer = Measurer(verify=True)
        inp = MeasureInput(task=_BrokenTask(),
                           config=SimpleNamespace(index=7))
        for _ in range(3):
            with pytest.raises(TIRVerifierError):
                measurer._verify_one(inp)
        assert measurer.num_rejected == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("n_parallel", [1, 4])
    def test_replayed_rejections_are_fresh_exceptions(self, n_parallel):
        # A cached rejection used to be one live exception re-raised from
        # every worker thread, its traceback two frames longer per raise.
        measurer = Measurer(verify=True, n_parallel=n_parallel)
        inp = MeasureInput(task=_BrokenTask(),
                           config=SimpleNamespace(index=5))

        def reject(_):
            try:
                measurer._verify_one(inp)
            except TIRVerifierError as exc:
                return exc
            raise AssertionError("an illegal schedule was accepted")

        with ThreadPoolExecutor(max_workers=n_parallel) as pool:
            errors = list(pool.map(reject, range(8)))
        assert len({id(exc) for exc in errors}) == len(errors)
        assert len({_traceback_depth(exc) for exc in errors}) == 1
        assert len({str(exc) for exc in errors}) == 1

    def test_replayed_verifier_error_keeps_its_class(self):
        original = OutOfBoundsError("index 32 past extent 16", node="x")
        replayed = _FailureMarker.of(original).replay()
        assert type(replayed) is OutOfBoundsError
        assert replayed is not original
        assert (str(replayed), replayed.check, replayed.node) \
            == (str(original), "buffer_bounds", "x")

    def test_rejected_candidate_becomes_errored_measurement(self):
        measurer = Measurer(verify=True)
        inp = MeasureInput(task=_BrokenTask(),
                           config=SimpleNamespace(index=3))
        record = measurer._measure_one(inp)
        assert record.mean_time == float("inf")
        assert record.error and "buffer_bounds" in record.error

    @pytest.mark.parametrize("n_parallel", [1, 4])
    def test_rejections_counted_once_per_batch_entry(self, n_parallel):
        measurer = Measurer(verify=True, n_parallel=n_parallel)
        task = _BrokenTask()
        batch = [MeasureInput(task=task, config=SimpleNamespace(index=i))
                 for i in range(6)]
        records = measurer.measure(batch)
        assert all(r.error and "buffer_bounds" in r.error for r in records)
        assert measurer.num_rejected == 6
        assert measurer.num_measured == 6

    def test_verify_off_skips_the_check(self):
        measurer = Measurer()
        assert not measurer.verify
        assert measurer.num_rejected == 0


# ---------------------------------------------------------------------------
# Dtype-aware memory planning (low-precision regression)
# ---------------------------------------------------------------------------

class TestLowPrecisionPlanning:
    def test_fp16_halves_planned_bytes_and_keeps_reuse_ratio(self):
        fp32 = plan_memory(_small_graph())
        half_dtypes = {"data": "float16", "weight": "float16",
                       "bias": "float16"}
        fp16 = plan_memory(_small_graph(dtypes=half_dtypes))
        assert fp16.planned_bytes * 2 == fp32.planned_bytes
        assert fp16.naive_bytes * 2 == fp32.naive_bytes
        assert fp16.reuse_ratio == pytest.approx(fp32.reuse_ratio)
        assert fp16.reuse_ratio > 1.0  # planning actually reuses storage

    def test_int8_quarter_sized_tokens(self):
        int8_dtypes = {"data": "int8", "weight": "int8", "bias": "int8"}
        int8 = plan_memory(_small_graph(dtypes=int8_dtypes))
        fp32 = plan_memory(_small_graph())
        assert int8.planned_bytes * 4 == fp32.planned_bytes

    def test_verifier_audits_plan_with_matching_sizes(self):
        half_dtypes = {"data": "float16", "weight": "float16",
                       "bias": "float16"}
        graph = _small_graph(dtypes=half_dtypes)
        verify_graph(graph, memory_plan=plan_memory(graph))
        # auditing the fp16 plan against the same graph in fp32 must fail
        with pytest.raises(StorageSizeError):
            verify_graph(_small_graph(), memory_plan=plan_memory(graph))


# ---------------------------------------------------------------------------
# Invariant linter
# ---------------------------------------------------------------------------

def _load_linter():
    spec = importlib.util.spec_from_file_location(
        "lint_invariants", REPO_ROOT / "tools" / "lint_invariants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


class TestLintInvariants:
    def test_source_tree_is_clean(self):
        linter = _load_linter()
        violations = linter.lint_tree([REPO_ROOT / "src" / "repro"])
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_rules_fire_on_violations(self, tmp_path):
        linter = _load_linter()
        bad = tmp_path / "runtime" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(
            "import pickle, threading, time, warnings\n"
            "try:\n    pass\nexcept:\n    pass\n"
            "warnings.warn('old', DeprecationWarning)\n"
            "pickle.load(open('module.pkl', 'rb'))\n"
            "t = threading.Thread(target=print)\n"
            "def poll():\n"
            "    while True:\n"
            "        time.sleep(1)\n")
        rules = [v.rule for v in linter.lint_file(bad)]
        assert set(rules) == {"bare-except", "implicit-daemon",
                              "unbounded-sleep-poll", "legacy-shim"}
        assert rules.count("legacy-shim") == 2
        # A whole-tensor weight draw in the frontend, outside the helper.
        frontend = tmp_path / "frontend"
        frontend.mkdir()
        helper = ("def draw_weight(rng, shape, scale, dtype):\n"
                  "    return rng.standard_normal(shape)\n")
        (frontend / "builder.py").write_text(helper)
        assert linter.lint_file(frontend / "builder.py") == []
        planted = frontend / "converters.py"
        planted.write_text(
            helper + "def init(rng, shape):\n"
            "    a = (rng.standard_normal(shape) * 0.1).astype('float32')\n"
            "    return a + rng.uniform(size=shape) + rng.normal(size=shape)\n")
        assert [(v.rule, v.line) for v in linter.lint_file(planted)] \
            == [("one-weight-draw", line) for line in (2, 4, 5, 5)]

    def test_one_executor_rule(self, tmp_path):
        linter = _load_linter()
        runtime = tmp_path / "runtime"
        (runtime / "procpool").mkdir(parents=True)
        caller = "def run(executor, x):\n    return executor._execute(x)\n"
        for allowed in (runtime / "executor.py",
                        runtime / "procpool" / "worker.py"):
            allowed.write_text(caller)
            assert linter.lint_file(allowed) == []
        elsewhere = runtime / "traffic.py"
        elsewhere.write_text(caller)
        assert [v.rule for v in linter.lint_file(elsewhere)] == ["one-executor"]

        engine = runtime / "serving.py"
        engine.write_text(
            "class InferenceEngine:\n"
            "    def __init__(self, module, pool):\n"
            "        from .executor import Executor\n"
            "        from .procpool import ModuleWorkerPool\n"
            "        self._backend = ModuleWorkerPool(module, None, [0])\n"
            "    def _run_batch(self, index, batch):\n"
            "        return self._backend.run_batch(index, batch)\n")
        assert linter.lint_file(engine) == []
        engine.write_text(
            "from .executor import Executor\n"
            "class InferenceEngine:\n"
            "    def _run_batch(self, index, batch):\n"
            "        if self._procpool is not None:\n"
            "            return self._procpool.run_batch(index, batch)\n")
        violations = linter.lint_file(engine)
        assert {v.rule for v in violations} == {"one-executor"}
        assert {v.line for v in violations} == {1, 4, 5}
        # The back-end contract is three methods: nothing else is asked.
        engine.write_text(
            "class InferenceEngine:\n"
            "    def _worker_loop(self, index):\n"
            "        self._backend.run_batch(index, [])\n"
            "        self._backend.release(index)\n"
            "    def stats(self):\n"
            "        return self._backend.stats()\n"
            "    def _finalize(self):\n"
            "        self._backend.shutdown()\n")
        violations = linter.lint_file(engine)
        assert [(v.rule, v.line) for v in violations] == [("one-executor", 4)]

    def test_one_serving_queue_rule(self, tmp_path):
        linter = _load_linter()
        runtime = tmp_path / "runtime"
        runtime.mkdir()
        engine = runtime / "serving.py"
        engine.write_text(
            "import queue, threading\n"
            "class InferenceEngine:\n"
            "    def __init__(self, devices):\n"
            "        self._workers = [threading.Thread(\n"
            "            target=print, daemon=True,\n"
            "            name=f'repro-serve-worker-{dev}') for dev in devices]\n"
            "    def shutdown(self):\n"
            "        threading.Thread(target=print, daemon=True,\n"
            "                         name='repro-serve-finalize').start()\n")
        assert linter.lint_file(engine) == []
        engine.write_text(
            "import queue, threading\n"
            "class InferenceEngine:\n"
            "    def __init__(self, devices):\n"
            "        self._worker_queues = [queue.Queue(maxsize=2)]\n"
            "        threading.Thread(target=print, daemon=True,\n"
            "                         name='repro-serve-batcher').start()\n"
            "    def _dispatch(self, batch):\n"
            "        self._worker_queues[0].put(batch, timeout=0.05)\n")
        violations = linter.lint_file(engine)
        assert [(v.rule, v.line) for v in violations] \
            == [("one-serving-queue", line) for line in (4, 5, 8)]
        admission = runtime / "admission.py"
        admission.write_text(
            "def pop(q, remaining):\n"
            "    q.get(timeout=remaining)\n"       # computed: a deadline
            "    return q.get(timeout=0.2)\n")     # literal: a poll
        assert [(v.rule, v.line) for v in linter.lint_file(admission)] \
            == [("one-serving-queue", 3)]

    def test_no_free_form_config_rule(self, tmp_path):
        linter = _load_linter()
        source = (
            "def run(state, ctx, inp):\n"
            "    eps = ctx.config.get('simplify_inference.epsilon', 1e-5)\n"
            "    db = ctx.config['tuning_db']\n"
            "    return inp.config.index, ctx.config.get(eps)\n")  # not keys
        compiler = tmp_path / "compiler" / "passes.py"
        compiler.parent.mkdir()
        compiler.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(compiler)] \
            == [("no-free-form-config", 2), ("no-free-form-config", 3)]
        elsewhere = tmp_path / "autotvm" / "measure.py"
        elsewhere.parent.mkdir()
        elsewhere.write_text(source)
        assert linter.lint_file(elsewhere) == []

    def test_no_deep_kernel_loops_rule(self, tmp_path):
        linter = _load_linter()
        source = (
            "def conv(cols, data, in_c, k_h, k_w):\n"
            "    for c in range(in_c):\n"
            "        for dy in range(k_h):\n"
            "            for dx in range(k_w):\n"      # the old im2col fill
            "                cols[c, dy, dx] = data[c, dy, dx]\n"
            "def pool(out, windows, k_h, k_w):\n"
            "    for dy in range(k_h):\n"
            "        for dx in range(k_w):\n"          # window offsets: fine
            "            out += windows[..., dy, dx]\n")
        kernels = tmp_path / "topi" / "reference.py"
        kernels.parent.mkdir()
        kernels.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(kernels)] \
            == [("no-deep-kernel-loops", 4)]
        elsewhere = tmp_path / "topi" / "nn.py"
        elsewhere.write_text(source)
        assert linter.lint_file(elsewhere) == []

    def test_one_interval_arithmetic_rule(self, tmp_path):
        linter = _load_linter()
        source = (
            "from ..te.expr import BOUNDS_OF, _bounds_add\n"
            "from repro.tir.analysis import _ZERO_BOUNDS\n"
            "from .errors import _private_is_fine_at_home\n"
            "def _bounds_shift(a, k):\n"
            "    return (a[0] + k, a[1] + k)\n"
            "def _iv_add(a, b): return a\n"
            "def _compile_bounds(expr): return [], []\n"
            "def eval_bounds(program, env): return (0, 0)\n"
            "def _atom_bounds(expr): return (0, 0)\n")   # not a twin
        verifier = tmp_path / "analysis" / "tir_verify.py"
        verifier.parent.mkdir()
        verifier.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(verifier)] \
            == [("one-interval-arithmetic", line) for line in (1, 2, 4, 6, 7, 8)]
        owner = tmp_path / "te" / "expr.py"
        owner.parent.mkdir()
        owner.write_text(source)
        assert linter.lint_file(owner) == []

    def test_no_recursive_closure_rule(self, tmp_path):
        linter = _load_linter()
        source = (
            "import gc\n"
            "from gc import freeze\n"
            "def collect(expr, children):\n"
            "    found = []\n"
            "    def walk(node):\n"                 # closes over itself
            "        found.append(node)\n"
            "        for child in children(node):\n"
            "            walk(child)\n"
            "    def leaf(node):\n"                 # nested, not recursive
            "        return not children(node)\n"
            "    walk(expr)\n"
            "    gc.disable()\n"
            "    return found\n"
            "def depth(node, children):\n"         # module level: no cell
            "    return 1 + max(map(depth, children(node)), default=0)\n"
            "class Walker:\n"
            "    def visit(self, node):\n"         # a method: no cell
            "        return [self.visit(c) for c in node.children]\n")
        lowering = tmp_path / "tir" / "lowering.py"
        lowering.parent.mkdir()
        lowering.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(lowering)] \
            == [("no-recursive-closure", line) for line in (2, 5, 12)]
        # the collector switches are rejected everywhere, the closure only
        # where the per-candidate object graphs are built
        elsewhere = tmp_path / "autotvm" / "tuner.py"
        elsewhere.parent.mkdir()
        elsewhere.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(elsewhere)] \
            == [("no-recursive-closure", line) for line in (2, 12)]

    def test_no_pass_plugins_rule(self, tmp_path):
        linter = _load_linter()
        source = (     # the plug-in points the pipeline once had
            "class PassContext:\n"
            "    def __init__(self, opt_level=2, extra_passes=(),\n"
            "                 instruments=()):\n"
            "        self.opt_level = opt_level\n"
            "def run_pipeline(state, ctx, passes):\n"
            "    for pass_ in passes + list(ctx.extra_passes):\n"
            "        for instrument in ctx.instruments:\n"
            "            instrument.run_before_pass(pass_, state)\n"
            "        pass_.fn(state)\n"
            "    return PassContext(opt_level=1, instruments=[])\n")
        manager = tmp_path / "compiler" / "pass_manager.py"
        manager.parent.mkdir()
        manager.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(manager)] \
            == [("no-pass-plugins", line) for line in (2, 3, 6, 7, 8, 10)]
        verifier = tmp_path / "analysis" / "graph_verify.py"
        verifier.parent.mkdir()
        verifier.write_text(source)
        assert len(linter.lint_file(verifier)) == 6
        elsewhere = tmp_path / "autotvm" / "tuner.py"
        elsewhere.parent.mkdir()
        elsewhere.write_text(source)
        assert linter.lint_file(elsewhere) == []

    def test_one_verification_memo_rule(self, tmp_path):
        linter = _load_linter()
        source = (
            "from ..analysis import tir_verify\n"
            "from ..analysis.tir_verify import verify_func\n"
            "def _verify_once(key, make_task):\n"
            "    verify_func(make_task().lower(key))\n"    # the memo itself
            "def _verify_one(self, inp):\n"
            "    tir_verify.verify_func(inp.task.lower(inp.config))\n"
            "    verify_func(inp.task.lower(inp.config))\n"
            "    inp.task.verify(inp.config.index)\n")     # through the memo
        memo = tmp_path / "autotvm" / "task.py"
        memo.parent.mkdir()
        memo.write_text(source)
        assert [(v.rule, v.line) for v in linter.lint_file(memo)] \
            == [("one-verification-memo", line) for line in (6, 7)]
        # only task.py's _verify_once is the memo; analysis/ defines the
        # verifier and its mutation harness calls it
        driver = tmp_path / "compiler" / "driver.py"
        driver.parent.mkdir()
        driver.write_text(source)
        assert [v.line for v in linter.lint_file(driver)] == [4, 6, 7]
        harness = tmp_path / "analysis" / "mutate.py"
        harness.parent.mkdir()
        harness.write_text(source)
        assert linter.lint_file(harness) == []

    def test_no_compressed_weights_rule(self, tmp_path):
        linter = _load_linter()
        artifact = tmp_path / "runtime" / "artifact.py"
        artifact.parent.mkdir()
        artifact.write_text(
            "import numpy as np\n"
            "from numpy import savez_compressed\n"
            "def export(handle, params):\n"
            "    np.savez(handle, **params)\n"                # stored: fine
            "    np.savez_compressed(handle, **params)\n"
            "    savez_compressed(handle, **params)\n")
        assert [(v.rule, v.line) for v in linter.lint_file(artifact)] \
            == [("no-compressed-weights", line) for line in (5, 6)]

    def test_library_has_a_caller_rule(self, tmp_path):
        linter = _load_linter()
        assert len(linter.RULES) == 16
        assert "library-has-a-caller" in linter.RULES
        root = tmp_path / "pkg"
        files = {
            "__init__.py": ("from typing import TYPE_CHECKING\n"
                            "if TYPE_CHECKING:\n"
                            "    from . import unused\n"),     # never runs
            "front.py": ("from .core import helper\n"
                         "def lazy():\n"
                         "    from pkg.lazy import thing\n"),  # function level
            "core/__init__.py": "from .impl import helper\n",  # a re-export
            "core/impl.py": "from .. import util\n",
            "util.py": "", "lazy.py": "", "unused.py": "", "bench.py": "",
            "extras/__init__.py": "", "extras/plot.py": "",
        }
        for name, source in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(source)
        allowed = {"bench.py": "a benchmark's library",
                   "extras/": "a whole package",
                   "gone.py": "deleted since", "util.py": "now reached"}
        violations = linter.lint_callers(root, front_doors=("front.py",),
                                         allowed=allowed)
        assert [(v.rule, v.path.relative_to(root).as_posix())
                for v in violations] == [
            ("library-has-a-caller", "unused.py"),
            ("library-has-a-caller", "gone.py"),     # stale: no such module
            ("library-has-a-caller", "util.py")]     # stale: reached
        # a renamed front door fails loudly instead of reaching nothing
        missing = linter.lint_callers(root, front_doors=("door.py",),
                                      allowed={})
        assert missing[0].path == root / "door.py"

    def test_export_without_a_caller_is_flagged(self, tmp_path):
        linter = _load_linter()
        assert "export-has-a-caller" in linter.RULES
        root = tmp_path / "pkg"
        (root / "sub").mkdir(parents=True)
        files = {
            "__init__.py": ("from .sub import shown, hidden\n"
                            "__all__ = ['shown', 'hidden', 'sub']\n"),
            "sub/__init__.py": ("from .impl import shown, hidden, recursive\n"
                                "__all__ = ['shown', 'hidden', 'recursive']\n"),
            "sub/impl.py": ("__all__ = ['shown', 'hidden', 'recursive',\n"
                            "           'helper']\n"
                            "def shown(): return helper()\n"
                            "def hidden(): pass\n"
                            "def recursive(n): return recursive(n - 1)\n"
                            "def helper(): pass\n"),
        }
        for name, source in files.items():
            (root / name).write_text(source)
        caller = tmp_path / "bench.py"
        caller.write_text("import pkg.sub\nprint(pkg.shown())\n")
        violations = linter.lint_exports(root, [root, caller])
        # 'sub' is reached through an import path, 'shown' as an attribute
        # and 'helper' from another definition; 'hidden' only through
        # re-exports and 'recursive' only from its own body
        assert sorted((v.path.relative_to(root).as_posix(),
                       v.message.split("'")[1]) for v in violations) == [
            ("__init__.py", "hidden"),
            ("sub/__init__.py", "hidden"), ("sub/__init__.py", "recursive"),
            ("sub/impl.py", "hidden"), ("sub/impl.py", "recursive")]

    def test_exiting_poll_loop_not_flagged(self, tmp_path):
        linter = _load_linter()
        ok = tmp_path / "runtime" / "ok.py"
        ok.parent.mkdir()
        ok.write_text(
            "import time\n"
            "def wait(evt):\n"
            "    while True:\n"
            "        if evt.is_set():\n"
            "            break\n"
            "        time.sleep(0.1)\n")
        assert linter.lint_file(ok) == []
