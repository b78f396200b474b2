"""Length-prefixed frame codec of the process-pool pipe protocol.

The process-pool protocol (``RPP1``, :mod:`repro.runtime.procpool.protocol`)
sends one frame per ``multiprocessing`` pipe message::

    [4s magic][u8 message kind][u32 payload length][UTF-8 JSON payload]

with payloads encoded through the tuple-preserving artifact codec.  This
module is the implementation of that discipline: header packing, payload
(de)serialisation, size caps, and failure behaviour.  A peer dying
mid-frame raises :class:`TruncatedFrameError` naming exactly how many bytes
were expected and how many arrived.

It is also the frame fault-injection site: every frame sent consults
:func:`repro.faults.inject` at ``"framing.send"``, which is how a seeded
:class:`~repro.faults.FaultPlan` drops, delays, truncates or resets frames
without the protocol knowing.
"""

from __future__ import annotations

import json
import struct
import time
from typing import Dict, Tuple, Type

from ..faults import inject

__all__ = ["FrameCodec", "MessageKinds", "ProtocolError",
           "TruncatedFrameError"]

_HEADER = struct.Struct("!4sBI")

#: frames carry specs, statuses and log entries — never tensor data — so
#: anything bigger than this is a bug, not a workload
_MAX_PAYLOAD = 32 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed, truncated or oversized frame arrived on a connection."""


class TruncatedFrameError(ProtocolError, ConnectionError):
    """A peer died mid-frame: fewer bytes arrived than the frame declared.

    Subclasses :class:`ConnectionError` too, because a truncated frame *is*
    a broken connection, while protocol-level callers get the exact
    ``bytes expected`` / ``bytes got`` accounting.
    """

    def __init__(self, message: str, expected: int, got: int):
        super().__init__(message)
        self.bytes_expected = expected
        self.bytes_got = got


class MessageKinds:
    """A protocol's message vocabulary: one ``int`` class attribute per u8
    kind; :meth:`name` maps a kind back to its attribute name for error
    messages and logs."""

    _NAMES: Dict[int, str] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._NAMES = {value: key for key, value in vars(cls).items()
                      if isinstance(value, int) and not key.startswith("_")}

    @classmethod
    def name(cls, kind: int) -> str:
        return cls._NAMES.get(kind, f"?{kind}")


def _codec_funcs():
    # Imported lazily: repro.runtime.artifact imports the compiler package,
    # so a module-level import here would turn any import that *starts* at
    # runtime.artifact — e.g. a procpool worker booting from an exported
    # bundle — into a circular-import crash.
    from .artifact import _decode_attr, _encode_attr
    return _encode_attr, _decode_attr


class FrameCodec:
    """One protocol's frame codec: magic + message vocabulary.

    It raises :class:`ProtocolError` for malformed frames and
    :class:`TruncatedFrameError` for short ones; ``kinds`` names the
    message-kind bytes in error messages.
    """

    def __init__(self, magic: bytes, kinds: Type[MessageKinds]):
        if len(magic) != 4:
            raise ValueError(f"Frame magic must be 4 bytes, got {magic!r}")
        self.magic = magic
        self.name_of = kinds.name

    # ------------------------------------------------------------- packing
    def pack(self, kind: int, payload: Dict) -> bytes:
        """One complete frame (header + JSON payload) as bytes."""
        _encode_attr, _ = _codec_funcs()
        body = json.dumps({key: _encode_attr(value)
                           for key, value in payload.items()}).encode("utf-8")
        if len(body) > _MAX_PAYLOAD:
            raise ProtocolError(
                f"Refusing to send a {len(body)}-byte "
                f"{self.name_of(kind)} frame (max {_MAX_PAYLOAD}); bulk "
                f"data must travel out of band (shm arenas), not in a frame")
        return _HEADER.pack(self.magic, kind, len(body)) + body

    def unpack(self, frame: bytes) -> Tuple[int, Dict]:
        """Decode one whole frame buffer; ``(kind, payload)``."""
        if len(frame) < _HEADER.size:
            raise TruncatedFrameError(
                f"Truncated frame header: expected {_HEADER.size} bytes, "
                f"got {len(frame)}", _HEADER.size, len(frame))
        magic, kind, length = _HEADER.unpack(frame[:_HEADER.size])
        if magic != self.magic:
            raise ProtocolError(
                f"Bad frame magic {magic!r} (expected {self.magic!r})")
        if length > _MAX_PAYLOAD:
            raise ProtocolError(
                f"Oversized {self.name_of(kind)} frame: {length} bytes")
        body = frame[_HEADER.size:]
        if len(body) != length:
            raise TruncatedFrameError(
                f"Truncated {self.name_of(kind)} frame: header declares "
                f"{length} payload bytes, got {len(body)}",
                length, len(body))
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"Undecodable {self.name_of(kind)} payload: {exc}") from exc
        if not isinstance(raw, dict):
            raise ProtocolError(
                f"{self.name_of(kind)} payload is not an object")
        _, _decode_attr = _codec_funcs()
        return kind, {key: _decode_attr(value) for key, value in raw.items()}

    # ------------------------------------------------------------- pipe
    def send_pipe(self, conn, kind: int, payload: Dict) -> None:
        """Send one frame on a ``multiprocessing`` connection, acting out
        any injected fault.

        A pipe is message-oriented, so a truncated frame is delivered short
        and the pipe lives on; a reset hard-closes the connection and fails
        the local send, so the peer observes a closed pipe.
        """
        frame = self.pack(kind, payload)
        fault = inject("framing.send",
                       protocol=self.magic.decode("ascii", "replace"),
                       kind=kind, size=len(frame)) or {}
        action = fault.get("action")
        if action == "drop":
            return
        if action == "delay":
            time.sleep(float(fault.get("seconds", 0.05)))
        elif action == "truncate":
            keep = max(_HEADER.size, len(frame) - int(fault.get("bytes", 1)))
            conn.send_bytes(frame[:keep])
            return
        elif action == "reset":
            try:
                conn.close()
            except OSError:
                pass
            raise ConnectionResetError(
                f"fault injection: pipe reset while sending "
                f"{self.name_of(kind)}")
        conn.send_bytes(frame)

    def recv_pipe(self, conn) -> Tuple[int, Dict]:
        """Receive one frame on a ``multiprocessing`` connection."""
        return self.unpack(conn.recv_bytes())

    def __repr__(self) -> str:
        return f"FrameCodec({self.magic!r})"
