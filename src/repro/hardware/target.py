"""Compilation targets.

A :class:`Target` names a hardware back-end, carries the simulated device
model used for measurement, and exposes the scheduling capabilities listed in
Figure 6 of the paper (which schedule primitives each back-end uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .base import HardwareModel
from .cpu import EmbeddedCPU, arm_a53_params, cortex_a9_params
from .gpu import MobileGPU, ServerGPU, mali_t860_params, titan_x_params
from .vdla import VDLAAccelerator, pynq_vdla_params

__all__ = ["Target", "cuda", "arm_cpu", "pynq_cpu", "mali", "vdla",
           "create_target", "known_targets", "target_from_spec",
           "SCHEDULE_PRIMITIVE_SUPPORT"]


#: Figure 6: which schedule primitives each back-end's schedules use.
SCHEDULE_PRIMITIVE_SUPPORT: Dict[str, Dict[str, bool]] = {
    "cpu": {
        "loop_transformations": True,
        "thread_binding": True,
        "compute_locality": True,
        "special_memory_scope": False,
        "tensorization": True,
        "latency_hiding": False,
    },
    "gpu": {
        "loop_transformations": True,
        "thread_binding": True,
        "compute_locality": True,
        "special_memory_scope": True,
        "tensorization": True,
        "latency_hiding": False,
    },
    "accel": {
        "loop_transformations": True,
        "thread_binding": True,
        "compute_locality": True,
        "special_memory_scope": True,
        "tensorization": True,
        "latency_hiding": True,
    },
}


@dataclass
class Target:
    """A compilation target: name, device kind and simulated device model."""

    name: str
    device_type: str                     # cpu | gpu | mali | vdla
    model: HardwareModel
    keys: Tuple[str, ...] = ()
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def primitive_support(self) -> Dict[str, bool]:
        if self.device_type in ("gpu", "mali"):
            return SCHEDULE_PRIMITIVE_SUPPORT["gpu"]
        if self.device_type == "vdla":
            return SCHEDULE_PRIMITIVE_SUPPORT["accel"]
        return SCHEDULE_PRIMITIVE_SUPPORT["cpu"]

    @property
    def max_threads_per_block(self) -> int:
        return int(getattr(self.model.params, "max_threads_per_block", 1024))

    @property
    def num_cores(self) -> int:
        return int(getattr(self.model.params, "num_cores", 1))

    def spec(self) -> Dict[str, object]:
        """A JSON-serialisable description sufficient to rebuild the target
        (used by the module artifact format)."""
        return {"name": self.name, "device_type": self.device_type}

    def __repr__(self) -> str:
        return f"Target({self.name})"


def cuda() -> Target:
    """Server-class GPU target (simulated NVIDIA Titan X)."""
    return Target("cuda", "gpu", ServerGPU(titan_x_params()),
                  keys=("cuda", "gpu"))


def mali() -> Target:
    """Mobile GPU target (simulated ARM Mali-T860MP4)."""
    return Target("opencl -device=mali", "mali", MobileGPU(mali_t860_params()),
                  keys=("mali", "opencl", "gpu"))


def arm_cpu() -> Target:
    """Embedded CPU target (simulated quad-core ARM Cortex A53)."""
    return Target("llvm -device=arm_cpu", "cpu", EmbeddedCPU(arm_a53_params()),
                  keys=("arm_cpu", "cpu"))


def pynq_cpu() -> Target:
    """Host CPU of the FPGA platform (simulated dual-core ARM Cortex A9)."""
    return Target("llvm -device=arm_cpu -model=pynq", "cpu",
                  EmbeddedCPU(cortex_a9_params()),
                  keys=("pynq_cpu", "arm_cpu", "cpu"))


def vdla() -> Target:
    """FPGA-based Vanilla Deep Learning Accelerator target."""
    return Target("vdla", "vdla", VDLAAccelerator(pynq_vdla_params()),
                  keys=("vdla", "accel"))


_FACTORIES = {
    "cuda": cuda,
    "gpu": cuda,
    "mali": mali,
    "arm_cpu": arm_cpu,
    "cpu": arm_cpu,
    "llvm": arm_cpu,
    "pynq_cpu": pynq_cpu,
    "vdla": vdla,
}


#: full canonical target names (``Target.name``) back to their factories, so
#: names recorded in artifacts round-trip exactly (``llvm -device=arm_cpu
#: -model=pynq`` must not degrade to the generic ``arm_cpu`` profile).
_CANONICAL_NAMES = {
    "cuda": cuda,
    "opencl -device=mali": mali,
    "llvm -device=arm_cpu": arm_cpu,
    "llvm -device=arm_cpu -model=pynq": pynq_cpu,
    "vdla": vdla,
}


def known_targets() -> Tuple[str, ...]:
    """Short names plus canonical full names accepted by :func:`create_target`."""
    return tuple(sorted(set(_FACTORIES) | set(_CANONICAL_NAMES)))


def create_target(name: str) -> Target:
    """Create a target from a short name (``cuda``, ``arm_cpu``, ``mali``,
    ``vdla``) or a canonical full name such as ``llvm -device=arm_cpu``."""
    if name in _CANONICAL_NAMES:
        return _CANONICAL_NAMES[name]()
    key = name.split()[0].lower()
    if key not in _FACTORIES:
        raise ValueError(f"Unknown target {name!r}; expected one of {sorted(_FACTORIES)}")
    return _FACTORIES[key]()


def target_from_spec(spec: Dict[str, object]) -> Target:
    """Rebuild a target from :meth:`Target.spec`, verifying the device kind.

    Raises :class:`ValueError` with the known target names when the recorded
    target does not exist in this build, or when the rebuilt device kind
    disagrees with the recorded one (a target mismatch, e.g. an artifact from
    a build where the name meant different hardware).  Any other key (the
    ``seed`` older bundles record) is ignored.
    """
    name = spec.get("name")
    if not isinstance(name, str):
        raise ValueError(f"Invalid target spec {spec!r}: missing 'name'")
    try:
        target = create_target(name)
    except ValueError:
        raise ValueError(
            f"Target {name!r} is not known to this build; known targets: "
            f"{list(known_targets())}") from None
    recorded = spec.get("device_type")
    if recorded is not None and recorded != target.device_type:
        raise ValueError(
            f"Target mismatch: the artifact records {name!r} as device type "
            f"{recorded!r} but this build maps it to {target.device_type!r}")
    return target
