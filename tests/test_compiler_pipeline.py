"""Tests for the unified compilation pipeline (repro.compile + the passes)."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.compiler import (
    DEFAULT_PIPELINE,
    CompiledModule,
    PassContext,
    passes,
)
from repro.frontend import MODEL_REGISTRY, ModelBuilder, dqn, get_model
from repro.hardware import cuda, vdla
from repro import runtime


def _small_cnn():
    """conv+bn+relu+pool+dense: exercises folding, fusion and planning."""
    b = ModelBuilder("pipeline_cnn", seed=0)
    data = b.input("data", (1, 3, 16, 16))
    net = b.relu(b.batch_norm(b.conv2d(data, 8, 3, stride=1, padding=1,
                                       name="conv")))
    net = b.max_pool2d(net, pool_size=2, stride=2)
    net = b.softmax(b.dense(b.flatten(net), 10, name="fc"))
    graph, params = b.finalize(net)
    return graph, params, {"data": (1, 3, 16, 16)}


#: the names of the default pipeline's passes, in order
DEFAULT_NAMES = [pass_.name for pass_ in DEFAULT_PIPELINE]


# ---------------------------------------------------------------------------
# Pipeline structure
# ---------------------------------------------------------------------------

class TestPassRegistry:
    def test_default_pipeline_is_registered_in_order(self):
        assert DEFAULT_NAMES == ["fold_constants", "simplify_inference",
                                 "alter_layout", "fuse_ops", "plan_memory"]
        for pass_ in DEFAULT_PIPELINE:
            assert getattr(passes, pass_.name) is pass_

    def test_opt_level_gates(self):
        assert passes.fold_constants.opt_level == 1
        assert passes.simplify_inference.opt_level == 2
        assert passes.alter_layout.opt_level == 2
        assert passes.fuse_ops.opt_level == 2
        assert passes.plan_memory.opt_level == 0

    def test_unknown_pass_raises_with_available_names(self):
        with PassContext(disabled_passes=["no_such_pass"]):
            with pytest.raises(KeyError, match="fuse_ops"):
                repro.compile(_small_cnn(), target=cuda())


# ---------------------------------------------------------------------------
# PassContext semantics
# ---------------------------------------------------------------------------

class TestPassContext:
    def test_nesting_and_current(self):
        default = PassContext.current()
        assert default.opt_level == 2
        with PassContext(opt_level=1) as outer:
            assert PassContext.current() is outer
            with PassContext(opt_level=0, disabled_passes=["plan_memory"]) as inner:
                assert PassContext.current() is inner
            assert PassContext.current() is outer
        assert PassContext.current() is not outer

    def test_context_stack_is_thread_local(self):
        import threading

        levels = {}

        def worker():
            levels["other_thread"] = PassContext.current().opt_level

        with PassContext(opt_level=0):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            levels["this_thread"] = PassContext.current().opt_level
        assert levels["this_thread"] == 0
        assert levels["other_thread"] == 2  # default, not leaked from here

    def test_negative_opt_level_rejected(self):
        with pytest.raises(ValueError):
            PassContext(opt_level=-1)

    def test_disabled_passes_match_opt_level_0(self):
        """Disabling every gated pass by name == legacy opt_level=0."""
        model = _small_cnn()
        legacy = repro.compile(model, target=cuda(), opt_level=0)
        gated = [pass_.name for pass_ in DEFAULT_PIPELINE
                 if pass_.opt_level >= 1]
        with PassContext(opt_level=2, disabled_passes=gated):
            ablated = repro.compile(model, target=cuda())
        assert [k.name for k in ablated.kernels] == [k.name for k in legacy.kernels]
        assert ablated.total_time == pytest.approx(legacy.total_time)

    def test_disabled_passes_match_opt_level_1(self):
        model = _small_cnn()
        legacy = repro.compile(model, target=cuda(), opt_level=1)
        with PassContext(disabled_passes=["simplify_inference", "alter_layout",
                                          "fuse_ops"]):
            ablated = repro.compile(model, target=cuda())
        assert [k.name for k in ablated.kernels] == [k.name for k in legacy.kernels]
        assert ablated.total_time == pytest.approx(legacy.total_time)

    def test_disable_fusion_yields_one_kernel_per_operator(self):
        model = _small_cnn()
        with PassContext(disabled_passes=["fuse_ops"]):
            module = repro.compile(model, target=cuda())
        assert len(module.kernels) == len(module.graph.op_nodes)
        assert all(len(k.group.nodes) == 1 for k in module.kernels)
        fused = repro.compile(model, target=cuda())
        assert len(fused.kernels) < len(module.kernels)
        assert fused.total_time < module.total_time

    def test_disable_memory_planning_drops_storage_reuse(self):
        model = _small_cnn()
        planned = repro.compile(model, target=cuda())
        with PassContext(disabled_passes=["plan_memory"]):
            unplanned = repro.compile(model, target=cuda())
        assert planned.memory_plan.reuse_ratio > 1.0
        assert unplanned.memory_plan.reuse_ratio == pytest.approx(1.0)

    def test_typo_in_disabled_passes_fails_loudly(self):
        with PassContext(disabled_passes=["fuse_opss"]):
            with pytest.raises(KeyError, match="fuse_opss"):
                repro.compile(_small_cnn(), target=cuda())

    def test_extra_passes_run_before_codegen_passes(self, splice_pass):
        recorded = {}

        def audit(state):
            recorded["shapes_valid"] = all(n.shape is not None
                                           for n in state.graph.nodes)

        splice_pass(audit)
        module = repro.compile(_small_cnn(), target=cuda())
        # The spliced pass was timed, saw a shape-valid graph, and ran
        # before fusion/memory planning so its rewrites reach codegen.
        assert recorded["shapes_valid"]
        executed = [r.name for r in module.pass_records]
        assert executed.index("audit") < executed.index("fuse_ops")
        assert executed[-1] == "plan_memory"


# ---------------------------------------------------------------------------
# Pass records: what compile measures of every executed pass
# ---------------------------------------------------------------------------

class TestInstruments:
    def test_timings_present_for_every_executed_pass(self):
        module = repro.compile(_small_cnn(), target=cuda())
        executed = [r.name for r in module.pass_records]
        assert executed == DEFAULT_NAMES
        assert all(r.seconds >= 0.0 for r in module.pass_records)
        assert set(module.pass_timings()) == set(DEFAULT_NAMES)
        assert "fold_constants" in module.pass_summary()

    def test_disabled_passes_produce_no_records(self):
        with PassContext(opt_level=0):
            module = repro.compile(_small_cnn(), target=cuda())
        assert [r.name for r in module.pass_records] == ["plan_memory"]

    def test_timing_instrument_records_node_counts(self):
        module = repro.compile(_small_cnn(), target=cuda())
        simplify = [r for r in module.pass_records
                    if r.name == "simplify_inference"]
        assert simplify and simplify[0].nodes_before > 0
        # Folding the batch norm removes nodes.
        assert simplify[0].nodes_after < simplify[0].nodes_before


# ---------------------------------------------------------------------------
# compile() front door
# ---------------------------------------------------------------------------

class TestCompileFrontDoor:
    def test_accepts_target_name_and_model_tuple(self):
        module = repro.compile(_small_cnn(), target="cuda")
        assert module.target.name == "cuda"
        assert module.total_time > 0

    def test_accepts_model_zoo_name(self):
        module = repro.compile("dqn", target="cuda")
        assert len(module.kernels) > 0

    def test_rejects_bad_model_and_target(self):
        with pytest.raises(TypeError, match="model"):
            repro.compile(42, target="cuda")
        with pytest.raises(TypeError, match="target"):
            repro.compile(_small_cnn(), target=None)

    def test_compiles_every_zoo_model_in_one_call(self):
        small_kwargs = {
            "resnet-18": dict(image_size=32, num_classes=10),
            "mobilenet": dict(image_size=32, num_classes=10),
            "lstm-lm": dict(hidden_size=64, seq_len=2),
            "dqn": {},
            "dcgan": {},
        }
        for name in MODEL_REGISTRY:
            model = get_model(name, batch=1, **small_kwargs.get(name, {}))
            module = repro.compile(model, target="cuda")
            assert module.total_time > 0, name
            assert module.pass_records, name

    @pytest.mark.parametrize("form", ["name", "tuple"])
    def test_params_supplement_the_models_own(self, form):
        """``params=`` overrides the named weight and keeps the others bound:
        replacing them all left dqn's other 7 weights as runtime inputs."""
        model = "dqn" if form == "name" else get_model("dqn")
        own = get_model("dqn")[1]
        zeros = np.zeros_like(own["fc2_weight"])
        module = repro.compile(model, target="cuda",
                               params={"fc2_weight": zeros})
        assert sorted(module.params) == sorted(own)
        assert module.params["fc2_weight"] is zeros
        assert module.params["fc1_weight"].tobytes() \
            == own["fc1_weight"].tobytes()
        executor = repro.Executor(module)
        assert [spec.name for spec in executor.input_specs] == ["data"]
        out = executor(np.ones((1, 4, 84, 84), "float32"))[0]
        assert not out.asnumpy().any()  # fc2 is the last layer

    def test_heterogeneous_targets_accept_names(self):
        graph, params, shapes = get_model("resnet-18", batch=1, image_size=32,
                                          num_classes=10)
        module = repro.compile((graph, params, shapes), target="pynq_cpu",
                               heterogeneous_targets={"conv2d": "vdla"})
        devices = {k.device for k in module.kernels
                   if k.group.master.op == "conv2d"}
        assert devices == {"vdla"}

    def test_residual_model_executes_in_kernel_order(self):
        """Regression: fusion must not absorb a residual add into the first
        branch's kernel before the second branch has produced its input."""
        b = ModelBuilder("residual", seed=0)
        data = b.input("data", (1, 4, 8, 8))
        left = b.batch_norm(b.conv2d(data, 4, 3, stride=1, padding=1,
                                     name="left"))
        right = b.batch_norm(b.conv2d(data, 4, 1, stride=1, padding=0,
                                      name="right"))
        out = b.relu(b.add(left, right))
        graph, params = b.finalize(out)
        module = repro.compile(graph, target=cuda(), params=params,
                               input_shapes={"data": (1, 4, 8, 8)})

        outputs = repro.Executor(module)(
            np.random.default_rng(2).random((1, 4, 8, 8)).astype("float32"))
        assert outputs[0].shape == (1, 4, 8, 8)
        # The add fused somewhere downstream, never ahead of its producers.
        computed = set(n.name for n in module.graph.input_nodes)
        for kernel in module.kernels:
            for node in kernel.group.nodes:
                for parent in node.inputs:
                    assert parent.name in computed or parent.name in module.params
                computed.add(node.name)

    def test_executor_is_the_only_front_door(self):
        assert not hasattr(CompiledModule, "executor")
        assert not hasattr(runtime, "create")
        assert not hasattr(runtime, "GraphExecutor")


# ---------------------------------------------------------------------------
# Export / load round-trip
# ---------------------------------------------------------------------------

class TestExportLoad:
    def test_round_trip_preserves_behaviour(self, tmp_path):
        graph, params, shapes = _small_cnn()
        module = repro.compile((graph, params, shapes), target=cuda())
        path = tmp_path / "module.repro"
        module.export(path)

        loaded = repro.load(path)
        assert loaded.total_time == module.total_time
        assert [k.name for k in loaded.kernels] == [k.name for k in module.kernels]
        assert [r.name for r in loaded.pass_records] == \
            [r.name for r in module.pass_records]
        assert loaded.memory_plan.planned_bytes == module.memory_plan.planned_bytes

        data = np.random.default_rng(1).random(shapes["data"]).astype("float32")
        np.testing.assert_array_equal(_output(module, data),
                                      _output(loaded, data))

    def test_load_rejects_garbage_files(self, tmp_path):
        from repro.runtime.artifact import ArtifactError

        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x80\x04not a module artifact")
        with pytest.raises(ArtifactError, match="not a module artifact"):
            repro.load(path)

    def test_save_and_load_methods_are_gone(self):
        assert not hasattr(CompiledModule, "save")
        assert not hasattr(CompiledModule, "load")


def _output(module, data):
    return repro.Executor(module)(data=data)[0].asnumpy()


class TestFrameworkOverhead:
    def test_dispatch_overhead_comes_from_hardware_profile(self):
        from repro.compiler import framework_overhead
        from repro.hardware import arm_cpu, mali

        for target in (cuda(), arm_cpu(), mali(), vdla()):
            expected = 0.5 * target.model.params.launch_overhead
            assert framework_overhead(target) == pytest.approx(expected)
        # Different back-ends pay different dispatch costs (no more 2e-6).
        assert framework_overhead(mali()) > framework_overhead(arm_cpu())


# ---------------------------------------------------------------------------
# Lazy top-level package surface
# ---------------------------------------------------------------------------

class TestTopLevelExports:
    def test_lazy_submodules_resolve(self):
        for name in ("graph", "frontend", "hardware", "runtime", "autotvm",
                     "topi", "te", "tir", "compiler", "baselines"):
            module = getattr(repro, name)
            assert module.__name__ == f"repro.{name}"
            assert name in repro.__all__
            # every advertised name resolves (no export left behind by a
            # deleted module)
            assert all(hasattr(module, entry)
                       for entry in getattr(module, "__all__", ()))

    def test_runtime_packages_advertise_only_what_exists(self):
        # The names this round removed stay removed, and nothing in
        # __all__ points at a deleted definition.
        from repro.runtime import procpool

        for package in (repro.runtime, procpool):
            missing = [entry for entry in package.__all__
                       if not hasattr(package, entry)]
            assert missing == [], (package.__name__, missing)
        for gone in ("GraphExecutor", "create", "Context", "WorkerPool",
                     "connect_tracker", "Tracker", "RPCServer", "RPCSession"):
            assert gone not in repro.runtime.__all__
            assert not hasattr(repro.runtime, gone)
        assert "WorkerPool" not in procpool.__all__

    def test_packages_do_not_load_benchmark_only_modules(self):
        # A fresh interpreter, since this one has imported them all by now.
        # Each is one benchmark's library, imported by its full name there.
        modules = ["repro.analysis.mutate", "repro.autotvm.treernn",
                   "repro.topi.winograd"]
        # a deleted module would pass the check below without checking it
        assert all(importlib.util.find_spec(name) for name in modules)
        script = (
            "import sys\n"
            "import repro.runtime, repro.analysis, repro.autotvm\n"
            "import repro.topi\n"
            f"print(sorted(name for name in sys.modules if name in {modules}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        loaded = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"

    def test_compile_and_pass_context_exported(self):
        from repro.compiler import compile as compiler_compile

        assert repro.compile is compiler_compile
        assert repro.PassContext is PassContext
        assert repro.CompiledModule is CompiledModule
        assert "compile" in repro.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_thing"):
            repro.no_such_thing


# ---------------------------------------------------------------------------
# Pipeline runner details
# ---------------------------------------------------------------------------

class TestSequential:
    def test_custom_pipeline_by_name(self):
        with PassContext(disabled_passes=["simplify_inference",
                                          "alter_layout"]):
            module = repro.compile(_small_cnn(), target=cuda())
        assert [r.name for r in module.pass_records] == \
            ["fold_constants", "fuse_ops", "plan_memory"]
        # batch_norm survives because simplify_inference did not run.
        assert any(n.op == "batch_norm" for n in module.graph.op_nodes)

    def test_shapes_reinferred_after_rewrites(self, splice_pass):
        seen = []

        def check_shapes(state):
            seen.append(all(n.shape is not None for n in state.graph.nodes))

        splice_pass(check_shapes)
        module = repro.compile(_small_cnn(), target=cuda())
        assert seen == [True]
        assert "check_shapes" in [r.name for r in module.pass_records]
        assert all(n.shape is not None for n in module.graph.nodes)
