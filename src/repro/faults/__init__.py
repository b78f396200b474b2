"""Deterministic fault injection (``repro.faults``).

Distributed-systems code is only as trustworthy as the failures it has
actually been run through.  This package provides a seeded, declarative way
to schedule faults against every concurrent path in the system — the
dynamic-batching serving engine and the shared-memory worker pool behind
it — without either knowing more than "consult the active plan here".

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules plus a seed.
Each spec names a fault *kind* (which implies the injection site), an
optional scope filter, and a firing rule — a probability drawn from the
spec's own seeded RNG stream, an explicit set of occurrence indices, or
both — plus bounds (``after``, ``max_count``).  Install a plan with
``with plan: ...`` (or :meth:`FaultPlan.install`); the injection sites
consult :func:`inject` and interpret the returned action.

Fault kinds and where they bite:

==================  =======================  ================================
kind                site                     effect
==================  =======================  ================================
``frame_drop``      ``framing.send``         frame silently not sent
``frame_delay``     ``framing.send``         sleep ``delay_s`` before sending
``frame_truncate``  ``framing.send``         torn frame; peer sees a clean
                                             :class:`TruncatedFrameError`
``socket_reset``    ``framing.send``         connection hard-closed mid-send
``worker_kill``     ``procpool.dispatch``    SIGKILL the worker process the
                                             frame was about to reach
==================  =======================  ================================

Scoping: ``match={...}`` matches context fields the site reports (e.g.
``{"pool": "repro-serve-pool"}``, or ``{"protocol": "RPP1"}`` for a frame
magic).  Per-spec injection counts are tracked in :meth:`FaultPlan.stats`,
so a chaos benchmark can assert that the faults it scheduled actually
fired.

Determinism: each spec owns one RNG seeded from ``(plan seed, spec index)``
and draws exactly one uniform variate per *matching occurrence*, so a fixed
plan over a fixed sequence of events fires identically every run.  (Under
thread concurrency the interleaving of occurrences is the only source of
variation — use ``at=`` occurrence indices or ``probability=1.0`` with
``after``/``max_count`` when a test needs exact placement.)
"""

from __future__ import annotations

import hashlib
import logging
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["FaultPlan", "FaultSpec", "FaultError", "active_plan", "inject",
           "FAULT_KINDS"]

logger = logging.getLogger("repro.faults")

#: kind -> (site, default action dict)
FAULT_KINDS: Dict[str, Tuple[str, Dict]] = {
    "frame_drop": ("framing.send", {"action": "drop"}),
    "frame_delay": ("framing.send", {"action": "delay"}),
    "frame_truncate": ("framing.send", {"action": "truncate"}),
    "socket_reset": ("framing.send", {"action": "reset"}),
    "worker_kill": ("procpool.dispatch", {"action": "kill"}),
}


class FaultError(ValueError):
    """A fault plan or spec is malformed."""


@dataclass
class FaultSpec:
    """One declarative fault rule.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`; implies the injection site.
    probability:
        Chance of firing per matching occurrence, drawn from this spec's
        seeded RNG stream.  Default 1.0 (always fire, subject to the other
        bounds).
    at:
        Explicit matching-occurrence indices (0-based) to fire on; when
        given, ``probability`` gates those occurrences only.
    after:
        Skip the first ``after`` matching occurrences entirely.
    max_count:
        Stop firing after this many injections (``None`` = unbounded).
    match:
        Context filters; every key must equal the site-reported context
        value for the spec to match.
    delay_s / truncate_bytes:
        Action parameters for delay faults and torn frames.
    """

    kind: str
    probability: float = 1.0
    at: Optional[Sequence[int]] = None
    after: int = 0
    max_count: Optional[int] = None
    match: Mapping[str, object] = field(default_factory=dict)
    delay_s: float = 0.05
    truncate_bytes: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"Unknown fault kind {self.kind!r}; known: "
                             f"{sorted(FAULT_KINDS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(f"probability must be in [0, 1], "
                             f"got {self.probability}")
        if self.after < 0:
            raise FaultError(f"after must be >= 0, got {self.after}")
        if self.max_count is not None and self.max_count < 0:
            raise FaultError(f"max_count must be >= 0, got {self.max_count}")

    @property
    def site(self) -> str:
        return FAULT_KINDS[self.kind][0]

    def action(self) -> Dict:
        """The action dict a matching site interprets."""
        action = dict(FAULT_KINDS[self.kind][1])
        if action["action"] == "delay":
            action["seconds"] = self.delay_s
        if action["action"] == "truncate":
            action["bytes"] = self.truncate_bytes
        return action


class _SpecState:
    """Runtime counters + RNG stream of one spec inside one installed plan."""

    __slots__ = ("spec", "rng", "occurrences", "injected")

    def __init__(self, spec: FaultSpec, seed: int, index: int):
        self.spec = spec
        # Stable across processes and hash randomization (unlike hash()).
        digest = hashlib.sha256(f"{seed}:{index}:{spec.kind}".encode())
        self.rng = random.Random(int.from_bytes(digest.digest()[:8], "little"))
        self.occurrences = 0
        self.injected = 0


#: the installed plan (one per process; installation nests refusal below)
_ACTIVE: Optional["FaultPlan"] = None
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> Optional["FaultPlan"]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


def inject(site: str, **context) -> Optional[Dict]:
    """Consult the active plan at an injection site.

    The site reports its context as keyword arguments.  Returns the action
    dict of the first firing spec, or ``None``.  Sites interpret actions
    themselves (sleep, drop, ``os.kill``, ...), so this module stays
    mechanism-free.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan._consult(site, context)


class FaultPlan:
    """A seeded, declarative schedule of faults; install with ``with plan:``.

    ::

        plan = FaultPlan(seed=7, faults=[
            FaultSpec("worker_kill", probability=0.2, max_count=2),
            FaultSpec("frame_truncate", match={"protocol": "RPP1"}, at=[3]),
            FaultSpec("frame_delay", delay_s=0.5, after=1, max_count=1),
        ])
        with plan:
            ...  # serve / tune; the plan fires deterministically
        print(plan.stats())
    """

    def __init__(self, faults: Sequence[FaultSpec], seed: int = 0):
        self.seed = seed
        self._lock = threading.Lock()
        self._states = [_SpecState(spec, seed, i)
                        for i, spec in enumerate(faults)]
        self._installed = False

    @property
    def faults(self) -> List[FaultSpec]:
        return [state.spec for state in self._states]

    # ------------------------------------------------------------- matching
    @staticmethod
    def _matches(spec: FaultSpec, site: str, context: Mapping) -> bool:
        if spec.site != site:
            return False
        for key, value in spec.match.items():
            if context.get(key) != value:
                return False
        return True

    def _consult(self, site: str, context: Mapping) -> Optional[Dict]:
        with self._lock:
            for state in self._states:
                spec = state.spec
                if not self._matches(spec, site, context):
                    continue
                occurrence = state.occurrences
                state.occurrences += 1
                if occurrence < spec.after:
                    continue
                if spec.max_count is not None \
                        and state.injected >= spec.max_count:
                    continue
                # One draw per matching occurrence keeps the stream aligned
                # with the occurrence index regardless of what fires.
                draw = state.rng.random()
                if spec.at is not None and occurrence not in spec.at:
                    continue
                if draw >= spec.probability:
                    continue
                state.injected += 1
                action = spec.action()
                logger.debug("fault %s fired at %s (occurrence %d): %s",
                             spec.kind, site, occurrence, action)
                return action
        return None

    # ------------------------------------------------------------- lifecycle
    def install(self) -> "FaultPlan":
        """Make this the process-wide active plan (exactly one at a time)."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is not None:
                raise RuntimeError(
                    "A FaultPlan is already installed; uninstall it first "
                    "(plans do not nest — one authoritative schedule per "
                    "process keeps runs reproducible)")
            _ACTIVE = self
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Remove this plan (idempotent; only the installed plan may)."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if not self._installed:
                return
            if _ACTIVE is self:
                _ACTIVE = None
            self._installed = False

    def __enter__(self) -> "FaultPlan":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """Per-spec occurrence/injection counters plus totals."""
        with self._lock:
            rows = [{"kind": state.spec.kind, "site": state.spec.site,
                     "occurrences": state.occurrences,
                     "injected": state.injected}
                    for state in self._states]
        return {"seed": self.seed, "specs": rows,
                "total_injected": sum(row["injected"] for row in rows)}

    def total_injected(self) -> int:
        with self._lock:
            return sum(state.injected for state in self._states)

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.faults)
        return (f"FaultPlan(seed={self.seed}, faults=[{kinds}], "
                f"injected={self.total_injected()})")
