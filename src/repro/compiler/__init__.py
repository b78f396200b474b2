"""The unified compilation pipeline (the paper's Figure 2 flow, as an API).

``repro.compile`` is the single front door: graph in, deployable
:class:`CompiledModule` out.  The graph level is one fixed pass pipeline —
:data:`DEFAULT_PIPELINE`, a tuple of opt-level gated :class:`Pass` records —
configured by a :class:`PassContext`, so benchmarks ablate passes by name and
instruments observe every rewrite::

    import repro

    with repro.PassContext(disabled_passes=["fuse_ops"]):
        unfused = repro.compile("resnet-18", target="cuda")

    module = repro.compile("resnet-18", target="cuda")
    outputs = repro.Executor(module)(data)
"""

from .driver import compile, framework_overhead
from .instruments import PassInstrument, PassRecord, TimingInstrument
from .module import CompiledKernel, CompiledModule
from .pass_context import PassContext
from .pass_manager import CompileState, Pass
from .passes import DEFAULT_PIPELINE, PASS_REGISTRY
from . import passes

__all__ = [
    "CompileState",
    "CompiledKernel",
    "CompiledModule",
    "DEFAULT_PIPELINE",
    "PASS_REGISTRY",
    "Pass",
    "PassContext",
    "PassInstrument",
    "PassRecord",
    "TimingInstrument",
    "compile",
    "framework_overhead",
    "passes",
]
