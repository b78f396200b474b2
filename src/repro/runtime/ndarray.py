"""NDArray and device abstractions (the ``tvm.nd`` API of Section 2).

:class:`Device` names an execution device (type + index) and is the unit of
placement for :class:`~repro.runtime.executor.Executor` pools and the serving
engine.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Device", "NDArray", "array", "device", "empty",
           "cpu", "gpu", "DEVICE_TYPES"]

#: device types understood by the simulated back-ends
DEVICE_TYPES = ("cpu", "gpu", "mali", "vdla")


class Device:
    """An execution device: device type + index (e.g. ``gpu:1``).

    Construct one directly, via the :func:`cpu` / :func:`gpu` / :func:`mali`
    / :func:`vdla` helpers, or by parsing a string with :func:`device`.
    """

    def __init__(self, device_type: str, device_id: int = 0):
        if device_type not in DEVICE_TYPES:
            raise ValueError(f"Unknown device type {device_type!r}; "
                             f"expected one of {list(DEVICE_TYPES)}")
        if device_id < 0:
            raise ValueError(f"Device index must be >= 0, got {device_id}")
        self.device_type = device_type
        self.device_id = int(device_id)

    def __repr__(self) -> str:
        return f"{self.device_type}:{self.device_id}"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Device) and other.device_type == self.device_type
                and other.device_id == self.device_id)

    def __hash__(self) -> int:
        return hash((self.device_type, self.device_id))


DeviceLike = Union[Device, str]


def device(spec: DeviceLike) -> Device:
    """Parse a device specification: a :class:`Device`, ``"gpu"``, ``"gpu:1"``.

    The string form is ``"<type>[:<index>]"`` with the index defaulting to 0.
    """
    if isinstance(spec, Device):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"device spec must be a Device or a string like "
                        f"'gpu:1', got {type(spec).__name__}")
    kind, _sep, index = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in DEVICE_TYPES:
        raise ValueError(f"Unknown device type {kind!r} in spec {spec!r}; "
                         f"expected one of {list(DEVICE_TYPES)}")
    if not index:
        return Device(kind, 0)
    try:
        parsed = int(index)
    except ValueError:
        raise ValueError(f"Invalid device index {index!r} in spec {spec!r}; "
                         f"expected an integer, e.g. 'gpu:1'") from None
    return Device(kind, parsed)


def cpu(device_id: int = 0) -> Device:
    return Device("cpu", device_id)


def gpu(device_id: int = 0) -> Device:
    return Device("gpu", device_id)


class NDArray:
    """A device-resident tensor (backed by NumPy in this reproduction)."""

    def __init__(self, data: np.ndarray, device: Optional[Device] = None):
        self._data = np.asarray(data)
        self.device = device or cpu()

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self._data.shape)

    @property
    def dtype(self) -> str:
        return str(self._data.dtype)

    def asnumpy(self) -> np.ndarray:
        return np.array(self._data)

    def numpy_view(self) -> np.ndarray:
        """Zero-copy read-only view of the underlying host buffer.

        Used by the shared-memory arena to pack tensors without an extra
        copy; mutate through :meth:`copyfrom`, never through this view.
        """
        view = self._data.view()
        view.flags.writeable = False
        return view

    def copyfrom(self, source: Union["NDArray", np.ndarray]) -> "NDArray":
        array_data = source.asnumpy() if isinstance(source, NDArray) else np.asarray(source)
        if array_data.shape != self._data.shape:
            raise ValueError(f"Shape mismatch: {array_data.shape} vs {self._data.shape}")
        self._data[...] = array_data
        return self

    def copyto(self, target: Union["NDArray", Device, str]) -> "NDArray":
        """Copy to another array, or across devices to a fresh array.

        ``copyto(other_ndarray)`` fills ``other_ndarray`` in place (as
        before); ``copyto(device)`` / ``copyto("gpu:1")`` allocates a new
        array holding a copy of this one on that device.
        """
        if isinstance(target, NDArray):
            return target.copyfrom(self)
        return NDArray(self.asnumpy(), device(target))

    def __repr__(self) -> str:
        return f"NDArray(shape={self.shape}, dtype={self.dtype}, device={self.device})"


def array(data: np.ndarray, device: Optional[Device] = None) -> NDArray:
    """Create an NDArray on a device from host data."""
    return NDArray(np.array(data), device)


def empty(shape: Sequence[int], dtype: str = "float32",
          device: Optional[Device] = None) -> NDArray:
    """Allocate an uninitialised NDArray (``tvm.nd.empty`` in the paper)."""
    return NDArray(np.zeros(tuple(shape), dtype=dtype), device)
