"""In-memory span recorder used by the traced (``--trace 1``) benchmark run.

Spans are recorded from the benchmark's own files, around the calls it makes
into each layer of ``repro`` (spans *inside* the program are a later change,
ROADMAP item 1).  A span is ``(id, name, start, end, parent, run id, thread)``;
spans stay in memory and are written out once, when the run ends.  A layer's
*self time* is its span's duration minus the part of that interval its child
spans cover.

When tracing is off, :meth:`Tracer.span` hands back one shared no-op object,
so the untraced run — the only one end-to-end metrics come from — pays an
attribute lookup and a call per span site and records nothing.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "covered"]


@dataclass
class Span:
    """One recorded interval.  ``parent`` is the id of the span that caused
    it (``None`` for a root); ``run`` is shared by every span of one run."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    thread: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoSpan:
    """The span handed out when tracing is off: enters, exits, keeps nothing."""

    __slots__ = ()
    id = None

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class _LiveSpan:
    """Context manager that appends one :class:`Span` on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_parent", "id")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        self.id = tracer._next_id()
        stack.append(self.id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack().pop()
        tracer._append(Span(self.id, self._name, self._start, end,
                            self._parent, tracer.run, threading.get_ident(),
                            self._args))
        return False


class Tracer:
    """Span recorder for one benchmark run.

    ``Tracer(enabled=False)`` is the untraced run's tracer: every method is
    safe to call and nothing is kept.
    """

    def __init__(self, enabled: bool, run: str = ""):
        self.enabled = enabled
        self.run = run
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0

    # ------------------------------------------------------------- recording
    def span(self, name: str, **args):
        """Context manager timing one call into a layer.  Nested spans of
        the same thread record the enclosing span as their parent."""
        if not self.enabled:
            return _NO_SPAN
        return _LiveSpan(self, name, args)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, **args) -> Optional[int]:
        """Append a span whose interval was measured elsewhere (a served
        request's queue wait, a tuning batch seen through a callback)."""
        if not self.enabled:
            return None
        span_id = self._next_id()
        self._append(Span(span_id, name, start, end, parent, self.run,
                          threading.get_ident(), args))
        return span_id

    def current(self) -> Optional[int]:
        """Id of the innermost open span of the calling thread."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # --------------------------------------------------------------- reading
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def bookkeeping_seconds(self, samples: int = 2000) -> float:
        """Wall seconds this tracer's own bookkeeping cost the run: the
        measured price of one empty span times the spans recorded."""
        probe = Tracer(True)
        start = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        per_span = (time.perf_counter() - start) / samples
        return per_span * len(self.spans)

    # --------------------------------------------------------------- writing
    def write_jsonl(self, path) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run": s.run,
                    "thread": s.thread, "args": s.args}) + "\n")

    def write_chrome(self, path) -> None:
        """Chrome ``about:tracing`` / Perfetto JSON (complete events, µs)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "ph": "X", "pid": 0, "tid": s.thread,
                   "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                   "args": {**s.args, "id": s.id, "parent": s.parent,
                            "run": s.run}}
                  for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed self time per span name: each span's duration minus the part
    of its interval that its child spans cover (overlapping children, e.g.
    from worker threads, are counted once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result: Dict[str, float] = {}
    for s in spans:
        own = s.duration - covered(s.start, s.end, children.get(s.id, ()))
        result[s.name] = result.get(s.name, 0.0) + own
    return result
