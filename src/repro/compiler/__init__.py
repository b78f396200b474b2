"""The unified compilation pipeline (the paper's Figure 2 flow, as an API).

``repro.compile`` is the single front door: graph in, deployable
:class:`CompiledModule` out.  The graph level is one fixed pass pipeline —
:data:`DEFAULT_PIPELINE`, a tuple of opt-level gated :class:`Pass` records —
configured by a :class:`PassContext`, so benchmarks ablate passes by name;
every executed pass leaves a :class:`PassRecord` on
``module.pass_records``::

    import repro

    with repro.PassContext(disabled_passes=["fuse_ops"]):
        unfused = repro.compile("resnet-18", target="cuda")

    module = repro.compile("resnet-18", target="cuda")
    outputs = repro.Executor(module)(data)
"""

from .driver import compile, framework_overhead
from .module import CompiledKernel, CompiledModule, PassRecord
from .pass_context import PassContext
from .pass_manager import CompileState, Pass
from .passes import DEFAULT_PIPELINE
from . import passes

__all__ = [
    "CompileState",
    "CompiledKernel",
    "CompiledModule",
    "DEFAULT_PIPELINE",
    "Pass",
    "PassContext",
    "PassRecord",
    "compile",
    "framework_overhead",
    "passes",
]
