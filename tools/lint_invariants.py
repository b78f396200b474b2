#!/usr/bin/env python
"""AST-based invariant linter for the repro source tree.

Static checks for project invariants that ordinary linters don't express.
Run from the repository root (CI runs it in the ``static-analysis`` job)::

    python tools/lint_invariants.py            # lint src/repro
    python tools/lint_invariants.py --list     # show the rules

Rules
-----
``bare-except``
    No bare ``except:`` clauses anywhere in ``src/repro``.  A bare except
    swallows ``KeyboardInterrupt``/``SystemExit`` and hides typed
    :class:`~repro.analysis.errors.VerifierError` reports; catch
    ``Exception`` (or something narrower) instead.

``implicit-daemon``
    Every ``threading.Thread(...)`` construction must pass ``daemon=``
    explicitly.  Background threads that default to non-daemon keep the
    interpreter alive when a tuning session or serving engine is abandoned
    without ``close()``; making the choice explicit forces each call site
    to decide its shutdown story.

``unbounded-sleep-poll``
    Restricted to ``src/repro/runtime/``: a ``time.sleep(...)`` inside a
    ``while True:`` loop that contains no ``break``, ``return`` or
    ``raise`` is an infinite poll that can never exit — runtime loops must
    poll against a deadline or an event, not sleep forever.

``legacy-shim``
    No ``DeprecationWarning`` and no ``pickle.load``/``pickle.loads`` in
    ``src/repro``.  A deprecated alias is a second path to keep tested, and
    unpickling a caller-supplied file runs arbitrary code; ``repro.compile``
    / ``repro.autotune`` / ``export`` + ``repro.load`` are the only ways in.
    Change the API and migrate the callers in the same commit instead.

``one-executor``
    A compiled module executes through exactly one path.  ``._execute(`` may
    be called only from ``runtime/executor.py`` (the ``Executor`` front door
    and the in-process serving back-end) and ``runtime/procpool/worker.py``
    (the process back-end's worker); and ``runtime/serving.py`` may name
    ``procpool`` or ``Executor`` only inside ``InferenceEngine.__init__``,
    where the one back-end is constructed — an engine that re-interleaves
    back-end branches with admission and batching fails here, not in
    review.  What it may ask of ``_backend`` is the three-method contract:
    ``run_batch`` / ``shutdown`` / ``stats``.

``one-serving-queue``
    A request waits in exactly one place, the admission queue, and each
    per-device worker pulls from it.  ``runtime/serving.py`` constructs no
    ``queue.Queue`` and starts no thread other than the per-device workers
    (``repro-serve-worker-*``) and ``repro-serve-finalize``; and no
    ``.put(`` / ``.get(`` in ``runtime/serving.py`` or
    ``runtime/admission.py`` carries a literal ``timeout=`` — a polling
    hand-off between threads is a second queue in disguise.

``no-free-form-config``
    Restricted to ``src/repro/compiler``, ``graph`` and ``analysis``: no
    string-keyed ``<x>.config["..."]`` subscript and no
    ``<x>.config.get("...")`` call.  A free-form dict of string keys is an
    unvalidated, unlisted option surface (a typo'd key is silently the
    default); an option the compile path needs is a named, defaulted
    parameter of ``compile`` / ``PassContext`` that
    ``tests/test_option_surface.py`` pins.

``no-deep-kernel-loops``
    Restricted to ``src/repro/topi/reference.py``: no ``for`` nest deeper
    than 2.  The reference kernels are the runtime's kernels; a Python loop
    over a channel *and* a window extent (the old 3-deep im2col fill: 4,608
    GIL-holding iterations for a 512-channel 3x3 layer) is what made one
    inference 2x slower than its GEMMs.  Two levels cover a loop over the
    window offsets; anything deeper belongs in one strided NumPy call.

``one-interval-arithmetic``
    ``te/expr.py`` is the single owner of interval arithmetic (``BOUNDS_OF``,
    ``compile_bounds``, ``eval_bounds``): no function named ``_bounds_*``,
    ``_iv_*``, ``*compile_bounds`` or ``*eval_bounds`` is defined anywhere
    else, and no module directly under ``tir/`` or ``analysis/`` imports an
    underscore name from another package.  A hand-replicated transfer
    function can only be tested against its twin, and lowering, feature
    extraction and the verifier must agree on what an index's bounds are.

``no-recursive-closure``
    Restricted to ``src/repro/te`` and ``src/repro/tir``: a ``def`` nested in
    a function may not refer to its own name.  Each call of the enclosing
    function makes a function -> closure cell -> function reference cycle
    that captures whatever else the helper closes over (value maps, stages,
    bounds programs, statements), so nothing a candidate evaluation builds is
    freed by reference count: at 22 lowerings per measured trial that was
    2.66 M objects left to the cyclic collector and 19 % of a tuning
    session.  Write a method, a module-level function taking its state as
    arguments, or an explicit stack.  The same rule rejects ``gc.disable`` /
    ``gc.freeze`` / ``gc.set_threshold`` in every linted file: the collector
    is the process's, not the library's.

``no-pass-plugins``
    Restricted to ``src/repro/compiler`` and ``src/repro/analysis``: no call
    to an instrument hook (``run_before_pass`` / ``run_after_pass``, or the
    context / kernel hooks ``enter_pass_ctx``, ``exit_pass_ctx``,
    ``should_run``, ``observe_kernel``), and no ``instruments`` or
    ``extra_passes`` attribute, keyword or parameter.  The graph pipeline is
    ``DEFAULT_PIPELINE`` and nothing else, and ``run_pipeline`` times and
    verifies each pass itself.  Extra passes spliced in before fusion and an
    instrument protocol (with its own error type for a crashing hook) once
    sat around it; no caller outside the tests used either.

``one-verification-memo``
    ``verify_func(`` is called only by the memo ``_verify_once`` in
    ``autotvm/task.py`` (and inside ``analysis/``, which defines it and whose
    mutation harness exercises it).  "Is this candidate's program legal?" has
    one answer, memoised once in the shared evaluation cache under the
    task's cache identity: the measurer and ``compile(verify=True)`` once
    each kept their own copy under their own keys, so a program verified
    while tuning was verified again at compile, and the measurer re-raised
    one live exception object whose traceback grew with every replay.

``no-compressed-weights``
    No ``savez_compressed`` call anywhere in ``src/repro``.  Float32 weights
    shrink about 7 % under deflate, and deflate ran at 11 – 14 MB/s: the
    artifact's ``params.npz`` was deflated twice (inside the npz, then again
    as a zip entry), and export was 28 – 30 % of a compile-and-deploy pass.
    ``export_module`` streams ``np.savez`` into a ``ZIP_STORED`` entry.

``one-weight-draw``
    Restricted to ``src/repro/frontend/``: a generator draw
    (``standard_normal``, ``normal``, ``uniform``) appears only inside
    ``builder.py::draw_weight``.  Drawing a weight whole in float64, scaling
    it and casting it to float32 cost 2 - 3x the weight's bytes (dcgan's
    build peaked at 2.12x its params under ``tracemalloc``), and the float64
    temporaries raised glibc's mmap threshold, so the heap kept the memory
    afterwards; ``draw_weight`` draws the same values in bounded chunks.

``library-has-a-caller``
    Applied to the package as a whole: every module under ``src/repro`` is
    imported, directly or transitively, from a module that defines one of
    the five front doors (``repro.compile``, ``autotune``, ``load``,
    ``serve``, ``Executor``), or is listed in ``_NO_FRONT_DOOR`` with the
    benchmark or figure that needs it.  Imports count at module and at
    function level, relative imports are resolved, and importing a submodule
    runs its packages' ``__init__`` (so a package re-export reaches what it
    re-exports); an import under ``if TYPE_CHECKING:`` never runs and does
    not count.  An entry for a module that no longer exists, or that a front
    door now reaches, fails too.  A module nothing reaches is dead code or
    one benchmark's library, and the list says which.

``export-has-a-caller``
    Applied to the package as a whole, inside modules: every name in a
    literal ``__all__`` under ``src/repro`` is referenced somewhere in
    ``src/``, ``benchmarks/``, ``examples/``, ``tests/`` or ``tools/``
    outside its own top-level definition and the relative imports of a
    package ``__init__.py`` (re-exports).  A reference is a name, an
    attribute or an imported name or module path spelled the same; the
    linter does not resolve what an attribute belongs to, so a collision
    (``np.max`` for an exported ``max``) passes.  Tests count as callers: a
    name only tests call is what they check (``run_lowered`` is the oracle
    the lowering tests compare against, ``load_trace`` the read half of the
    trace format's round trip), and the rule is after names nothing runs at
    all.

Exit status is 0 when clean, 1 when any violation is found.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TREE = REPO_ROOT / "src" / "repro"

RULES = {
    "bare-except": "no bare `except:` clauses (catch Exception or narrower)",
    "implicit-daemon": "threading.Thread(...) must pass daemon= explicitly",
    "unbounded-sleep-poll": ("runtime/: no time.sleep inside a `while True` "
                             "loop with no break/return/raise"),
    "legacy-shim": "no DeprecationWarning and no pickle.load[s] (no shims)",
    "one-executor": ("._execute( only in runtime/executor.py and "
                     "runtime/procpool/worker.py; runtime/serving.py names "
                     "its back-ends only in InferenceEngine.__init__ and "
                     "calls only _backend.run_batch/shutdown/stats"),
    "one-serving-queue": ("runtime/serving.py builds no queue.Queue and "
                          "starts only worker/finalize threads; no polling "
                          ".put/.get(timeout=<literal>) there or in "
                          "runtime/admission.py"),
    "no-free-form-config": ("compiler/, graph/, analysis/: no string-keyed "
                            "<x>.config[...] / <x>.config.get(...) lookup"),
    "no-deep-kernel-loops": ("topi/reference.py: no `for` nest deeper than "
                             "2 (no Python loop over channel x window)"),
    "one-interval-arithmetic": ("no _bounds_* / _iv_* / *compile_bounds / "
                                "*eval_bounds function outside te/expr.py; "
                                "tir/ and analysis/ import no underscore "
                                "name from another package"),
    "no-recursive-closure": ("te/, tir/: no nested def that refers to its "
                             "own name (each call is a reference cycle); no "
                             "gc.disable / gc.freeze / gc.set_threshold "
                             "anywhere"),
    "no-pass-plugins": ("compiler/, analysis/: no instrument-hook call and "
                        "no `instruments` / `extra_passes` attribute, "
                        "keyword or parameter"),
    "one-verification-memo": ("verify_func( only inside analysis/ and the "
                              "memo autotvm/task.py::_verify_once"),
    "no-compressed-weights": ("no savez_compressed call (weights shrink ~7 % "
                              "under deflate at 11-14 MB/s; store them)"),
    "one-weight-draw": ("frontend/: standard_normal / normal / uniform only "
                        "inside builder.py::draw_weight (chunked, no "
                        "whole-tensor float64 temporary)"),
    "library-has-a-caller": ("every module is imported from a front-door "
                             "module or listed, with its reason, in "
                             "_NO_FRONT_DOOR; no stale entry"),
    "export-has-a-caller": ("every name in an __all__ is referenced outside "
                            "its own definition and package re-exports "
                            "(tests count)"),
}

#: files (by trailing path parts) allowed to call ``._execute(``
_EXECUTE_CALLERS = (("runtime", "executor.py"),
                    ("runtime", "procpool", "worker.py"))
#: the one scope of runtime/serving.py that may name a back-end
_BACKEND_SITE = ("InferenceEngine", "__init__")
#: everything the engine may ask of its back-end
_BACKEND_CONTRACT = ("run_batch", "shutdown", "stats")
#: packages of the compile path, where ``no-free-form-config`` applies
_COMPILE_PACKAGES = ("compiler", "graph", "analysis")
#: deepest ``for`` nest allowed in topi/reference.py
_MAX_KERNEL_LOOP_DEPTH = 2
#: packages whose modules may not import another package's private names
_BOUNDS_CLIENTS = ("tir", "analysis")
#: packages that build the per-candidate object graphs
_EXPR_IR_PACKAGES = ("te", "tir")
#: process-wide collector switches a library must not flip
_GC_SWITCHES = ("disable", "freeze", "set_threshold")
#: packages of the pass pipeline, where ``no-pass-plugins`` applies
_PIPELINE_PACKAGES = ("compiler", "analysis")
#: former instrument hook names (TVM's ``should_run`` too)
_INSTRUMENT_HOOKS = ("run_before_pass", "run_after_pass", "enter_pass_ctx",
                     "exit_pass_ctx", "should_run", "observe_kernel")
#: former plug-in points of the pipeline
_PLUGIN_NAMES = ("instruments", "extra_passes")
#: the one scope outside analysis/ that may call ``verify_func``
_VERIFY_MEMO_SITE = ("autotvm", "task.py", "_verify_once")
#: generator draws that ``one-weight-draw`` confines to the weight helper
_WEIGHT_DRAWS = ("standard_normal", "normal", "uniform")
#: the one scope of frontend/ that may draw from a generator
_WEIGHT_DRAW_SITE = ("frontend", "builder.py", "draw_weight")
#: stdlib queue classes (``queue.X(...)`` or imported bare)
_QUEUE_CLASSES = ("Queue", "SimpleQueue", "LifoQueue", "PriorityQueue")
#: the modules defining repro.compile / autotune / load / serve / Executor
_FRONT_DOORS = ("compiler/driver.py", "autotvm/session.py",
                "runtime/artifact.py", "runtime/serving.py",
                "runtime/executor.py")
#: repository trees whose code counts as a caller of an exported name
_CALLER_TREES = ("src", "benchmarks", "examples", "tests", "tools")
#: modules no front door imports -> who needs them ("x/" covers a package)
_NO_FRONT_DOOR = {
    "baselines/": "vendor-library and framework comparison points "
                  "(Figs. 14-19)",
    "runtime/traffic.py": "trace generation and replay (bench_traffic.py)",
    "analysis/mutate.py": "the verifier's mutation harness (bench_verify.py)",
    "autotvm/treernn.py": "the TreeRNN row of the cost-model ablation "
                          "(bench_ablation_cost_models.py)",
    "topi/winograd.py": "pre-transformed Winograd conv (Fig. 15, "
                        "bench_fig15_gpu_ops.py)",
    "workloads.py": "Table 2's operator workloads (the per-operator "
                    "figures, bench_table2_workloads.py, the examples)",
}


def _names_interval_arithmetic(name: str) -> bool:
    """A function name that spells a bounds transfer function or evaluator."""
    return (name.startswith(("_bounds_", "_iv_"))
            or name.endswith(("compile_bounds", "eval_bounds")))


def _names_backend(name: str) -> bool:
    """An identifier (or dotted-import part) that names an execution
    back-end: ``ModuleWorkerPool``, or anything spelled with ``procpool`` /
    ``executor`` (``Executor``, ``_executors``, ...)."""
    lowered = name.lower()
    return (name == "ModuleWorkerPool" or "procpool" in lowered
            or "executor" in lowered)


@dataclass
class Violation:
    rule: str
    path: Path
    line: int
    message: str

    def __str__(self) -> str:
        path = self.path
        try:
            path = path.relative_to(REPO_ROOT)
        except ValueError:
            pass
        return f"{path}:{self.line}: [{self.rule}] {self.message}"


def _is_thread_ctor(call: ast.Call) -> bool:
    """``threading.Thread(...)`` or bare ``Thread(...)``."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr == "Thread":
        return True
    return isinstance(fn, ast.Name) and fn.id == "Thread"


def _is_queue_ctor(call: ast.Call) -> bool:
    """``queue.Queue(...)`` (any stdlib queue class) or bare ``Queue(...)``."""
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return (fn.attr in _QUEUE_CLASSES and isinstance(fn.value, ast.Name)
                and fn.value.id == "queue")
    return isinstance(fn, ast.Name) and fn.id in _QUEUE_CLASSES


def _is_serving_thread_name(node: ast.AST) -> bool:
    """``"repro-serve-finalize"`` or an f-string ``"repro-serve-worker-..."``."""
    if isinstance(node, ast.Constant):
        return node.value == "repro-serve-finalize"
    return (isinstance(node, ast.JoinedStr) and bool(node.values)
            and isinstance(node.values[0], ast.Constant)
            and str(node.values[0].value).startswith("repro-serve-worker-"))


def _is_sleep(call: ast.Call) -> bool:
    """``time.sleep(...)`` or bare ``sleep(...)``."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr == "sleep":
        return True
    return isinstance(fn, ast.Name) and fn.id == "sleep"


def _calls(call: ast.Call, name: str) -> bool:
    """``name(...)`` or ``<x>.name(...)``."""
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr == name
    return isinstance(fn, ast.Name) and fn.id == name


def _is_unpickle(call: ast.Call) -> bool:
    """``pickle.load(...)`` / ``pickle.loads(...)``."""
    fn = call.func
    return (isinstance(fn, ast.Attribute) and fn.attr in ("load", "loads")
            and isinstance(fn.value, ast.Name) and fn.value.id == "pickle")


def _is_config_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "config"


def _is_str_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _loop_can_exit(loop: ast.While) -> bool:
    """Whether the loop body contains a break/return/raise of its own
    (not one belonging to a nested loop or function)."""
    for node in ast.walk(loop):
        if node is loop:
            continue
        if isinstance(node, (ast.Return, ast.Raise)):
            return True
        if isinstance(node, ast.Break) and _owning_loop(loop, node) is loop:
            return True
    return False


def _owning_loop(root: ast.AST, target: ast.AST):
    """The innermost for/while that a ``break`` under ``root`` belongs to."""
    owner = None

    def visit(node: ast.AST, loop) -> bool:
        if node is target:
            nonlocal owner
            owner = loop
            return True
        for child in ast.iter_child_nodes(node):
            inner = node if isinstance(node, (ast.For, ast.While)) else loop
            # break cannot cross a function boundary
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                inner = None
            if visit(child, inner):
                return True
        return False

    visit(root, root if isinstance(root, (ast.For, ast.While)) else None)
    return owner


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path, check_sleep: bool):
        self.path = path
        self.check_sleep = check_sleep
        parts = path.resolve().parts
        self.may_execute = any(parts[-len(tail):] == tail
                               for tail in _EXECUTE_CALLERS)
        self.is_engine = parts[-2:] == ("runtime", "serving.py")
        self.is_serving = self.is_engine \
            or parts[-2:] == ("runtime", "admission.py")
        self.is_compile_path = any(part in _COMPILE_PACKAGES for part in parts)
        self.is_pipeline = any(part in _PIPELINE_PACKAGES for part in parts)
        self.is_verify_memo_file = parts[-2:] == _VERIFY_MEMO_SITE[:2]
        self.is_kernels = parts[-2:] == ("topi", "reference.py")
        self.owns_bounds = parts[-2:] == ("te", "expr.py")
        self.is_weight_draw_file = parts[-2:] == _WEIGHT_DRAW_SITE[:2]
        self.package = parts[-2] if len(parts) > 1 else ""
        self.is_expr_ir = self.package in _EXPR_IR_PACKAGES
        self._for_depth = 0
        self._function_depth = 0
        self.violations: List[Violation] = []
        self._while_true_stack: List[ast.While] = []
        self._scope: List[str] = []     # enclosing class/function names

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(rule, self.path, getattr(node, "lineno", 0), message))

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report("bare-except", node,
                         "bare `except:` — catch Exception or narrower")
        self.generic_visit(node)

    def _visit_scope(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_ClassDef = _visit_scope

    def _visit_function(self, node) -> None:
        if not self.owns_bounds and _names_interval_arithmetic(node.name):
            self._report("one-interval-arithmetic", node,
                         f"`{node.name}` — interval arithmetic lives in "
                         f"te/expr.py (BOUNDS_OF / compile_bounds / "
                         f"eval_bounds); call it, do not replicate it")
        if self.is_expr_ir and self._function_depth and any(
                isinstance(inner, ast.Name) and inner.id == node.name
                for inner in ast.walk(node)):
            self._report("no-recursive-closure", node,
                         f"nested `{node.name}` refers to itself — a "
                         f"reference cycle per call; make it a method, a "
                         f"module-level function or an explicit stack")
        self._function_depth += 1
        self._visit_scope(node)
        self._function_depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def _check_backend_names(self, node: ast.AST, names: Iterable[str]) -> None:
        if not self.is_engine or tuple(self._scope[:2]) == _BACKEND_SITE:
            return
        for name in sorted(set(filter(_names_backend, names))):
            self._report("one-executor", node,
                         f"`{name}` named outside InferenceEngine.__init__ — "
                         f"the engine reaches execution through its one "
                         f"_backend")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_backend_names(node, alias.name.split("."))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")
        self._check_backend_names(
            node, module + [alias.name for alias in node.names])
        if node.module == "gc":
            for alias in node.names:
                self._check_gc_switch(node, alias.name)
        if self.package not in _BOUNDS_CLIENTS:
            return
        # the repro package the import reaches: ``from ..te.expr`` and
        # ``from repro.te.expr`` both reach ``te``; one dot stays at home
        if node.level >= 2:
            source = module[0]
        elif node.level == 0 and module[0] == "repro":
            source = ".".join(module[1:2])
        else:
            return
        if source != self.package:
            for alias in node.names:
                if alias.name.startswith("_"):
                    self._report("one-interval-arithmetic", node,
                                 f"`{alias.name}` imported from {source or 'repro'}"
                                 f" — {self.package}/ uses other packages' "
                                 f"public names only")

    def _check_gc_switch(self, node: ast.AST, name: str) -> None:
        if name in _GC_SWITCHES:
            self._report("no-recursive-closure", node,
                         f"gc.{name} — a process-global side effect; free "
                         f"by reference count instead of switching the "
                         f"collector")

    def _check_plugin_name(self, node: ast.AST, name: str) -> None:
        if self.is_pipeline and name in _PLUGIN_NAMES:
            self._report("no-pass-plugins", node,
                         f"`{name}` — the pipeline is DEFAULT_PIPELINE, "
                         f"timed and verified by run_pipeline itself")

    def visit_arg(self, node: ast.arg) -> None:
        self._check_plugin_name(node, node.arg)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_backend_names(node, [node.attr])
        self._check_plugin_name(node, node.attr)
        if isinstance(node.value, ast.Name) and node.value.id == "gc":
            self._check_gc_switch(node, node.attr)
        if (self.is_engine and isinstance(node.value, ast.Attribute)
                and node.value.attr == "_backend"
                and node.attr not in _BACKEND_CONTRACT):
            self._report("one-executor", node,
                         f"`_backend.{node.attr}` — the back-end contract is "
                         f"{' / '.join(_BACKEND_CONTRACT)}")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (self.is_compile_path and _is_config_attr(node.value)
                and _is_str_constant(node.slice)):
            self._report("no-free-form-config", node,
                         "string-keyed .config[...] — make it a named "
                         "parameter (or a constant)")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check_backend_names(node, [node.id])
        if node.id == "DeprecationWarning":
            self._report("legacy-shim", node,
                         "DeprecationWarning — remove the old path instead "
                         "of deprecating it")

    def visit_For(self, node: ast.For) -> None:
        self._for_depth += 1
        if self.is_kernels and self._for_depth == _MAX_KERNEL_LOOP_DEPTH + 1:
            self._report("no-deep-kernel-loops", node,
                         f"`for` nest deeper than {_MAX_KERNEL_LOOP_DEPTH} — "
                         f"gather with one strided NumPy call instead of "
                         f"looping over channel x window in Python")
        self.generic_visit(node)
        self._for_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        is_forever = (isinstance(node.test, ast.Constant)
                      and node.test.value is True
                      and not _loop_can_exit(node))
        if is_forever:
            self._while_true_stack.append(node)
        self.generic_visit(node)
        if is_forever:
            self._while_true_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if _is_thread_ctor(node):
            if not any(kw.arg == "daemon" for kw in node.keywords):
                self._report("implicit-daemon", node,
                             "Thread(...) without explicit daemon=")
            if self.is_engine and not any(
                    kw.arg == "name" and _is_serving_thread_name(kw.value)
                    for kw in node.keywords):
                self._report("one-serving-queue", node,
                             "the engine starts only its per-device workers "
                             "(repro-serve-worker-*) and repro-serve-finalize")
        if self.is_engine and _is_queue_ctor(node):
            self._report("one-serving-queue", node,
                         "queue.Queue in the engine — requests wait only in "
                         "the admission queue; workers pull from it")
        if (self.is_serving and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "get")
                and any(kw.arg == "timeout"
                        and isinstance(kw.value, ast.Constant)
                        for kw in node.keywords)):
            self._report("one-serving-queue", node,
                         f".{node.func.attr}(timeout=<literal>) — a polling "
                         f"hand-off; block on the admission queue's condition")
        if (self.is_compile_path and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and _is_config_attr(node.func.value)
                and node.args and _is_str_constant(node.args[0])):
            self._report("no-free-form-config", node,
                         "string-keyed .config.get(...) — make it a named "
                         "parameter (or a constant)")
        if self.is_pipeline and any(_calls(node, hook)
                                    for hook in _INSTRUMENT_HOOKS):
            self._report("no-pass-plugins", node,
                         "instrument hook call — run_pipeline times and "
                         "verifies each pass itself")
        for keyword in node.keywords:
            if keyword.arg is not None:
                self._check_plugin_name(keyword, keyword.arg)
        if (self.package != "analysis" and _calls(node, "verify_func")
                and not (self.is_verify_memo_file
                         and _VERIFY_MEMO_SITE[2] in self._scope)):
            self._report("one-verification-memo", node,
                         "verify_func( outside autotvm/task.py::_verify_once "
                         "— verify through Task.verify, the one memo")
        if (self.package == "frontend"
                and any(_calls(node, draw) for draw in _WEIGHT_DRAWS)
                and not (self.is_weight_draw_file
                         and _WEIGHT_DRAW_SITE[2] in self._scope)):
            self._report("one-weight-draw", node,
                         "generator draw outside builder.py::draw_weight — "
                         "a whole-tensor float64 draw costs 2-3x the "
                         "weight; call draw_weight")
        if _calls(node, "savez_compressed"):
            self._report("no-compressed-weights", node,
                         "savez_compressed — weights barely deflate and "
                         "deflate runs at 11-14 MB/s; np.savez into a "
                         "ZIP_STORED entry")
        if _is_unpickle(node):
            self._report("legacy-shim", node,
                         "pickle.load — artifacts load through repro.load")
        if (not self.may_execute and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_execute"):
            self._report("one-executor", node,
                         "._execute( outside runtime/executor.py and "
                         "runtime/procpool/worker.py — run modules through "
                         "Executor or the engine's back-end")
        if self.check_sleep and self._while_true_stack and _is_sleep(node):
            self._report(
                "unbounded-sleep-poll", node,
                "time.sleep inside a `while True` loop with no exit — "
                "poll against a deadline or an event")
        self.generic_visit(node)


def lint_file(path: Path) -> List[Violation]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation("syntax", path, exc.lineno or 0, str(exc.msg))]
    check_sleep = "runtime" in path.resolve().parts
    linter = _Linter(path, check_sleep)
    linter.visit(tree)
    return linter.violations


def _is_type_checking(test: ast.AST) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``."""
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"))


def _executed_imports(tree: ast.AST) -> Iterable[ast.AST]:
    """Every import statement that can run: module or function level, but
    not the body of an ``if TYPE_CHECKING:``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _files_for(root: Path, parts: Sequence[str]) -> Set[Path]:
    """The files importing ``root.<parts>`` runs: each enclosing package's
    ``__init__.py`` and the module itself (nothing for a missing name)."""
    files: Set[Path] = set()
    for depth in range(len(parts) + 1):
        here = root.joinpath(*parts[:depth])
        if (here / "__init__.py").is_file():
            files.add(here / "__init__.py")
        elif depth and here.with_suffix(".py").is_file():
            files.add(here.with_suffix(".py"))
            break
        else:
            break
    return files


def _imported_files(path: Path, root: Path) -> Set[Path]:
    """Files under ``root`` (the top-level package) that ``path`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = list(path.relative_to(root).parent.parts)
    files: Set[Path] = set()
    for node in _executed_imports(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == root.name:
                    files |= _files_for(root, parts[1:])
            continue
        module = node.module.split(".") if node.module else []
        if node.level:
            base = package[:len(package) - node.level + 1] + module
        elif module[:1] == [root.name]:
            base = module[1:]
        else:
            continue
        files |= _files_for(root, base)
        for alias in node.names:        # ``from pkg import submodule``
            files |= _files_for(root, base + [alias.name])
    return files


def lint_callers(root: Path, front_doors=_FRONT_DOORS,
                 allowed=_NO_FRONT_DOOR) -> List[Violation]:
    """Rule ``library-has-a-caller`` over the package rooted at ``root``."""
    violations: List[Violation] = []
    reached: Set[Path] = set()
    frontier: List[Path] = []
    for door in front_doors:
        if not (root / door).is_file():
            violations.append(Violation(
                "library-has-a-caller", root / door, 0,
                "front-door module is missing — update _FRONT_DOORS"))
            continue
        frontier.extend(_files_for(root, Path(door).with_suffix("").parts))
    while frontier:
        path = frontier.pop()
        if path not in reached:
            reached.add(path)
            frontier.extend(_imported_files(path, root) - reached)

    def covers(entry: str, path: Path) -> bool:
        rel = path.relative_to(root).as_posix()
        return rel.startswith(entry) if entry.endswith("/") else rel == entry

    modules = sorted(root.rglob("*.py"))
    for path in modules:
        if path not in reached and not any(covers(e, path) for e in allowed):
            violations.append(Violation(
                "library-has-a-caller", path, 1,
                "no front door imports this module — delete it, or list it "
                "in _NO_FRONT_DOOR with the benchmark that needs it"))
    for entry in allowed:
        covered = [path for path in modules if covers(entry, path)]
        if not covered or all(path in reached for path in covered):
            why = ("names no module" if not covered
                   else "is reached from a front door")
            violations.append(Violation(
                "library-has-a-caller", root / entry, 0,
                f"stale _NO_FRONT_DOOR entry {entry!r}: it {why}"))
    return violations


def _exports(tree: ast.Module) -> List[ast.Constant]:
    """The string entries of a module's literal ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            return [e for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return []


def _references(tree: ast.Module, reexports: bool) -> Set[str]:
    """Names ``tree`` refers to, each outside a top-level definition of the
    same name; ``reexports`` drops the relative imports of a package
    ``__init__.py``."""
    found: Set[str] = set()
    stack = [(node, None) for node in tree.body]
    while stack:
        node, owner = stack.pop()
        if owner is None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        names: List[str] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom) \
                and not (reexports and node.level):
            names = [alias.name for alias in node.names]
            names += node.module.split(".") if node.module else []
        found.update(name for name in names if name != owner)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


def lint_exports(root: Path, callers: Iterable[Path]) -> List[Violation]:
    """Rule ``export-has-a-caller`` over the package rooted at ``root``,
    with every ``*.py`` under ``callers`` (files or trees) as callers."""
    referenced: Set[str] = set()
    for tree_root in callers:
        paths = sorted(tree_root.rglob("*.py")) if tree_root.is_dir() \
            else [tree_root]
        for path in paths:
            reexports = path.name == "__init__.py" and root in path.parents
            referenced |= _references(
                ast.parse(path.read_text(encoding="utf-8"),
                          filename=str(path)), reexports)
    violations: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for entry in _exports(tree):
            if entry.value not in referenced:
                violations.append(Violation(
                    "export-has-a-caller", path, entry.lineno,
                    f"{entry.value!r} is exported but nothing refers to it "
                    f"outside its definition and re-exports — delete it"))
    return violations


def lint_tree(roots: Iterable[Path]) -> List[Violation]:
    violations: List[Violation] = []
    for root in roots:
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            violations.extend(lint_file(path))
        # the whole-package rules run on a top-level package only
        if (root / "__init__.py").is_file() \
                and not (root.parent / "__init__.py").is_file():
            violations.extend(lint_callers(root))
            repo = root.parent.parent
            violations.extend(lint_exports(
                root, [repo / tree for tree in _CALLER_TREES
                       if (repo / tree).is_dir()]))
    return violations


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help=f"files or trees to lint (default: {DEFAULT_TREE})")
    parser.add_argument("--list", action="store_true",
                        help="list the rules and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, doc in RULES.items():
            print(f"{name}: {doc}")
        return 0
    roots = args.paths or [DEFAULT_TREE]
    violations = lint_tree(roots)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print(f"invariants clean across {len(roots)} root(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
