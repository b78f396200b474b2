"""repro — a pure-Python reproduction of the TVM deep-learning compiler stack.

The package mirrors the paper's architecture (Figure 2):

* :mod:`repro.compiler` — the unified compilation pipeline behind
  :func:`repro.compile`: the pass pipeline and ``PassContext``.
* :mod:`repro.te` — declarative tensor expressions and schedules.
* :mod:`repro.tir` — the low-level loop program IR, lowering and transforms.
* :mod:`repro.topi` — the operator library built on tensor expressions.
* :mod:`repro.autotvm` — the ML-based automated schedule optimizer.
* :mod:`repro.graph` — the computational graph IR and high-level rewriting.
* :mod:`repro.hardware` — simulated CPU / GPU / accelerator back-ends.
* :mod:`repro.runtime` — NDArray, deployable modules, the executor, serving.
* :mod:`repro.frontend` — model builder and the model zoo used in evaluation.
* :mod:`repro.baselines` — simulated vendor libraries and framework baselines.

Everything is exported lazily (PEP 562): ``import repro`` is instant, and
``repro.compile`` / ``repro.autotune`` / ``repro.hardware`` /... resolve on
first access.  The lazily resolved top-level attributes:

===================  ====================================================
``compile``          the unified compilation pipeline (``repro.compiler``)
``CompiledModule``   its deployable result object
``PassContext``      compilation configuration scope
``VerifierError``    base of the static-analysis error hierarchy
``autotune``         the unified tuning session (``repro.autotvm``)
``TuningReport``     its result object (configs, curves, database)
``TuningOptions``    tuning-session configuration
``ApplyHistoryBest`` compile-with-tuned-configs context
``load``             restore an exported module artifact (``repro.runtime``)
``serve``            dynamic-batching inference engine over a module
``Device``           execution device (``repro.runtime``), e.g. ``gpu:1``
``Executor``         stateless thread-safe module executor
``InferenceEngine``  the serving engine returned by ``repro.serve``
===================  ====================================================

The canonical flow — compile, deploy, serve::

    import repro

    module = repro.compile("resnet-18", target="cuda")
    outputs = repro.Executor(module)(data)

    module.export("resnet18.tar")          # compile once ...
    module = repro.load("resnet18.tar")    # ... deploy anywhere

    with repro.serve(module, devices=2, max_batch=8) as engine:
        result = engine.infer(data=data)

    report = repro.autotune("resnet-18", target="cuda", trials=64)
    with report.apply_history_best():
        tuned = repro.compile("resnet-18", target="cuda")
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "0.2.0"

#: lazily imported subpackages/submodules
_SUBMODULES = frozenset({
    "analysis", "autotvm", "baselines", "compiler", "faults", "frontend",
    "graph", "hardware", "runtime", "te", "tir", "topi", "workloads",
})

#: lazily resolved top-level attributes: name -> (module, attribute)
_LAZY_ATTRS = {
    "compile": ("repro.compiler", "compile"),
    "CompiledModule": ("repro.compiler", "CompiledModule"),
    "PassContext": ("repro.compiler", "PassContext"),
    "VerifierError": ("repro.analysis", "VerifierError"),
    "autotune": ("repro.autotvm", "autotune"),
    "ApplyHistoryBest": ("repro.autotvm", "ApplyHistoryBest"),
    "TuningOptions": ("repro.autotvm", "TuningOptions"),
    "TuningReport": ("repro.autotvm", "TuningReport"),
    "load": ("repro.runtime.artifact", "load_module"),
    "serve": ("repro.runtime.serving", "serve"),
    "Device": ("repro.runtime.ndarray", "Device"),
    "Executor": ("repro.runtime.executor", "Executor"),
    "InferenceEngine": ("repro.runtime.serving", "InferenceEngine"),
}

__all__ = sorted(_SUBMODULES | set(_LAZY_ATTRS) | {"__version__"})

if TYPE_CHECKING:  # static importers see the real modules
    from . import (analysis, autotvm, baselines, compiler, faults, frontend,
                   graph, hardware, runtime, te, tir, topi, workloads)
    from .analysis import VerifierError
    from .autotvm import (ApplyHistoryBest, TuningOptions, TuningReport,
                          autotune)
    from .compiler import CompiledModule, PassContext, compile
    from .runtime.executor import Executor
    from .runtime.ndarray import Device
    from .runtime.serving import InferenceEngine, serve
    from .runtime.artifact import load_module as load


def __getattr__(name: str):
    if name in _SUBMODULES:
        module = import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    if name in _LAZY_ATTRS:
        module_name, attr = _LAZY_ATTRS[name]
        value = getattr(import_module(module_name), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
