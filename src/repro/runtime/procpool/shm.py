"""Shared-memory tensor arenas (`multiprocessing.shared_memory` + slot table).

An :class:`ShmArena` is one named shared-memory segment holding any number of
tensors at 64-byte-aligned offsets.  The creating process packs arrays in
(one copy); every attaching process gets **zero-copy** NumPy views over the
same physical pages.  The slot table travels as a small JSON-able spec dict
(:meth:`ShmArena.spec` / :meth:`ShmArena.attach`), so arenas compose with the
framed pipe protocol in :mod:`.protocol` — tensor *data* never enters a
message frame.

Lifetime rules (also documented in the README):

* the **creator** owns the segment: it must call :meth:`unlink` exactly once
  (``close`` merely detaches the local mapping);
* **attachers** only ever :meth:`close`; attaching suppresses the
  attach-side ``resource_tracker`` registration so a worker exiting can
  never yank a live segment out from under its siblings (CPython < 3.13
  tracks attached segments too — bpo-38119);
* every created segment is recorded in a process-local registry that an
  ``atexit`` hook drains, so even an abandoned pool cannot leak ``/dev/shm``
  entries from a normally-exiting process (:func:`leaked_segments` is the
  audit used by tests and CI).
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["ShmArena", "leaked_segments", "SEGMENT_PREFIX"]

#: every segment this package creates is named ``<prefix><pid>-<token>`` so
#: leak audits can distinguish ours from unrelated /dev/shm entries
SEGMENT_PREFIX = "repro-pp-"

_ALIGN = 64

#: names of segments created (and not yet unlinked) by *this* process
_LIVE_SEGMENTS: Dict[str, "ShmArena"] = {}
_LIVE_LOCK = threading.Lock()

#: serialises SharedMemory construction against the attach-side
#: resource-tracker registration patch (see :meth:`ShmArena.attach`)
_TRACKER_PATCH_LOCK = threading.Lock()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _as_host_array(value) -> np.ndarray:
    """Accept NumPy arrays and runtime NDArrays without copying."""
    from ..ndarray import NDArray

    if isinstance(value, NDArray):
        return value.numpy_view()
    return np.asarray(value)


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """``/dev/shm`` entries left behind by this package (should be empty).

    Used by the failure-mode tests and the CI serving smoke job: after an
    engine/pool shutdown — normal or abnormal — no segment carrying our
    prefix may remain.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):            # non-Linux: nothing to audit
        return []
    return sorted(entry for entry in os.listdir(shm_dir)
                  if entry.startswith(prefix))


def _cleanup_live_segments() -> None:
    with _LIVE_LOCK:
        arenas = list(_LIVE_SEGMENTS.values())
    for arena in arenas:
        try:
            arena.unlink()
        except Exception:
            pass


atexit.register(_cleanup_live_segments)


class ShmArena:
    """One shared-memory segment + a named-tensor slot table.

    Create with :meth:`create` (packs arrays and/or reserves empty slots),
    ship :meth:`spec` through a message frame, and :meth:`attach` in the
    receiving process.  ``arena.view(name)`` hands out a zero-copy NumPy
    view of a slot in either process.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 slots: Dict[str, Tuple[int, Tuple[int, ...], str]],
                 owner: bool):
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self._slots = slots
        self._owner = owner
        self._unlinked = False

    # ------------------------------------------------------------- creation
    @classmethod
    def create(cls, tensors: Mapping[str, object] = (), *,
               reserve: Mapping[str, Tuple[Sequence[int], str]] = (),
               name: Optional[str] = None) -> "ShmArena":
        """Create a segment holding ``tensors`` (copied in) plus zero-filled
        ``reserve`` slots (``name -> (shape, dtype)``) for results.

        The returned arena is the segment's owner and must be
        :meth:`unlink`-ed exactly once.
        """
        arrays = {key: np.ascontiguousarray(_as_host_array(value))
                  for key, value in dict(tensors).items()}
        layout: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for key, array in arrays.items():
            offset = _aligned(offset)
            layout[key] = (offset, tuple(array.shape), str(array.dtype))
            offset += array.nbytes
        for key, (shape, dtype) in dict(reserve).items():
            if key in layout:
                raise ValueError(f"Slot {key!r} both packed and reserved")
            offset = _aligned(offset)
            shape = tuple(int(dim) for dim in shape)
            layout[key] = (offset, shape, str(dtype))
            offset += int(np.dtype(dtype).itemsize * int(np.prod(shape or (1,))))
        size = max(offset, 1)

        segment_name = name or f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        with _TRACKER_PATCH_LOCK:
            segment = shared_memory.SharedMemory(name=segment_name,
                                                 create=True, size=size)
        arena = cls(segment, layout, owner=True)
        with _LIVE_LOCK:
            _LIVE_SEGMENTS[segment.name] = arena
        for key, array in arrays.items():
            arena.view(key, writeable=True)[...] = array
        return arena

    @classmethod
    def attach(cls, spec: Dict) -> "ShmArena":
        """Attach to a segment created elsewhere from its :meth:`spec` dict."""
        # CPython < 3.13 registers *attached* segments with the resource
        # tracker too (bpo-38119).  Spawned workers share the creator's
        # tracker daemon, so a register/unregister pair here would cancel the
        # *creator's* registration and break its leak net; suppress the
        # attach-side registration instead.
        with _TRACKER_PATCH_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
            try:
                segment = shared_memory.SharedMemory(name=spec["segment"])
            finally:
                resource_tracker.register = original
        slots = {key: (int(offset), tuple(shape), str(dtype))
                 for key, (offset, shape, dtype) in spec["slots"].items()}
        return cls(segment, slots, owner=False)

    # ------------------------------------------------------------- accessors
    @property
    def name(self) -> str:
        if self._segment is None:
            raise ValueError("ShmArena is closed")
        return self._segment.name

    @property
    def nbytes(self) -> int:
        if self._segment is None:
            raise ValueError("ShmArena is closed")
        return self._segment.size

    def slot_names(self) -> List[str]:
        return list(self._slots)

    def spec(self) -> Dict:
        """JSON-able description (segment name + slot table) for a frame."""
        return {"segment": self.name,
                "slots": {key: [offset, list(shape), dtype]
                          for key, (offset, shape, dtype) in self._slots.items()}}

    def view(self, key: str, writeable: bool = False) -> np.ndarray:
        """Zero-copy NumPy view of one slot (read-only unless asked)."""
        if self._segment is None:
            raise ValueError(f"ShmArena is closed; cannot view {key!r}")
        try:
            offset, shape, dtype = self._slots[key]
        except KeyError:
            raise KeyError(f"Unknown arena slot {key!r}; "
                           f"known: {sorted(self._slots)}") from None
        view = np.ndarray(shape, dtype=dtype, buffer=self._segment.buf,
                          offset=offset)
        view.flags.writeable = writeable
        return view

    def read(self, key: str) -> np.ndarray:
        """Materialised copy of one slot (safe to use after close/unlink)."""
        return np.array(self.view(key))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Detach the local mapping (the segment itself survives)."""
        if self._segment is not None:
            segment, self._segment = self._segment, None
            segment.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if self._unlinked:
            return
        if not self._owner:
            raise ValueError("Only the creating process may unlink an arena")
        if self._segment is None:
            raise ValueError("ShmArena already closed without unlink")
        self._unlinked = True
        name = self._segment.name
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass
        finally:
            self.close()
            with _LIVE_LOCK:
                _LIVE_SEGMENTS.pop(name, None)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner and not self._unlinked:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._segment is None else self._segment.name
        return (f"ShmArena({state}, slots={len(self._slots)}, "
                f"owner={self._owner})")
