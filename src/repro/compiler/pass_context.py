"""Compilation configuration carried through the pass pipeline.

A :class:`PassContext` is a context manager holding the optimization level,
the set of passes to disable (ablations:
``PassContext(disabled_passes=["fuse_ops"])`` is the paper's "TVM w/o graph
opt" row), extra passes to splice into the default pipeline, and the
instruments observing each executed pass::

    with repro.PassContext(opt_level=2, disabled_passes=["alter_layout"]):
        module = repro.compile(model, target="cuda")

Contexts nest; :meth:`PassContext.current` returns the innermost active one
(or a default ``opt_level=2`` context when none is active).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, List, Sequence

if TYPE_CHECKING:
    from .instruments import PassInstrument

__all__ = ["PassContext"]


class PassContext:
    """Configuration scope for :func:`repro.compile`."""

    # Per-thread stack: concurrent compilations (e.g. a parallel benchmark
    # sweep) must not observe each other's contexts.
    _tls = threading.local()

    @classmethod
    def _stack(cls) -> List["PassContext"]:
        stack = getattr(cls._tls, "stack", None)
        if stack is None:
            stack = cls._tls.stack = []
        return stack

    def __init__(self, opt_level: int = 2,
                 disabled_passes: Iterable[str] = (),
                 extra_passes: Sequence = (),
                 instruments: Sequence["PassInstrument"] = ()):
        if opt_level < 0:
            raise ValueError(f"opt_level must be >= 0, got {opt_level}")
        self.opt_level = int(opt_level)
        self.disabled_passes = frozenset(disabled_passes)
        self.extra_passes: List = list(extra_passes)
        self.instruments: List["PassInstrument"] = list(instruments)

    # ------------------------------------------------------------- scoping
    @classmethod
    def current(cls) -> "PassContext":
        """The innermost active context on this thread, or a fresh default."""
        stack = cls._stack()
        if stack:
            return stack[-1]
        return cls()

    def __enter__(self) -> "PassContext":
        self._stack().append(self)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError(
                "PassContext stack corrupted: __exit__ out of order")
        stack.pop()

    # ------------------------------------------------------------- helpers
    def cloned(self, opt_level: int) -> "PassContext":
        """A copy of this context at another ``opt_level``."""
        return PassContext(
            opt_level=opt_level,
            disabled_passes=self.disabled_passes,
            extra_passes=self.extra_passes,
            instruments=self.instruments,
        )

    def __repr__(self) -> str:
        disabled = sorted(self.disabled_passes)
        return (f"PassContext(opt_level={self.opt_level}, "
                f"disabled_passes={disabled}, "
                f"extra_passes={len(self.extra_passes)}, "
                f"instruments={len(self.instruments)})")
