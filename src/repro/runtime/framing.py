"""Unified length-prefixed frame codec shared by every wire protocol.

Both framed protocols in the system — the process-pool pipe protocol
(``RPP1``, :mod:`repro.runtime.procpool.protocol`) and the tuning-service
socket protocol (``RTS1``, :mod:`repro.autotvm.service.protocol`) — use the
same frame layout::

    [4s magic][u8 message kind][u32 payload length][UTF-8 JSON payload]

with payloads encoded through the tuple-preserving artifact codec.  This
module is the one implementation of that discipline: header packing,
payload (de)serialisation, size caps, and — crucially — *uniform* failure
behaviour.  A peer dying mid-frame raises :class:`TruncatedFrameError`
naming exactly how many bytes were expected and how many arrived, on every
transport (socket reads and pipe frames alike), so partial-read handling is
one fix, not one per protocol.

It is also the system's single frame fault-injection site: every frame
sent by either protocol consults :func:`repro.faults.inject` at
``"framing.send"``, which is how a seeded :class:`~repro.faults.FaultPlan`
drops, delays, truncates or resets frames on any connection in the process
without either protocol knowing.

Transports:

* **pipe** — ``multiprocessing`` connections (``send_bytes``/``recv_bytes``;
  message-oriented, one call per frame);
* **socket** — stream sockets (``sendall`` + exact-count reads).
"""

from __future__ import annotations

import json
import struct
import time
from typing import Callable, Dict, Tuple, Type

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

    Subclasses :class:`ConnectionError` too, because a truncated frame on a
    stream *is* a broken connection: accept loops that treat peer death as
    "client went away" keep working, while protocol-level callers get the
    exact ``bytes expected`` / ``bytes got`` accounting.
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
    """One protocol's frame codec: magic + message vocabulary + error type.

    ``error`` is the protocol's own :class:`ProtocolError` subclass; the
    codec raises it for malformed frames and a dynamically derived
    ``(error, TruncatedFrameError)`` type for truncation, so callers can
    catch either the protocol's error or the shared framing errors.
    ``kinds`` names the message-kind bytes in error messages.
    """

    def __init__(self, magic: bytes, kinds: Type[MessageKinds], *,
                 error: Type[ProtocolError] = ProtocolError):
        if len(magic) != 4:
            raise ValueError(f"Frame magic must be 4 bytes, got {magic!r}")
        self.magic = magic
        self.error = error
        self.name_of = kinds.name
        if issubclass(TruncatedFrameError, error):
            self.truncated_error: Type[TruncatedFrameError] = \
                TruncatedFrameError
        else:
            self.truncated_error = type(
                f"Truncated{error.__name__}", (error, TruncatedFrameError), {})

    # ------------------------------------------------------------- packing
    def pack(self, kind: int, payload: Dict) -> bytes:
        """One complete frame (header + JSON payload) as bytes."""
        _encode_attr, _ = _codec_funcs()
        body = json.dumps({key: _encode_attr(value)
                           for key, value in payload.items()}).encode("utf-8")
        if len(body) > _MAX_PAYLOAD:
            raise self.error(
                f"Refusing to send a {len(body)}-byte "
                f"{self.name_of(kind)} frame (max {_MAX_PAYLOAD}); bulk "
                f"data must travel out of band (shm arenas), not in a frame")
        return _HEADER.pack(self.magic, kind, len(body)) + body

    def unpack_header(self, header: bytes) -> Tuple[int, int]:
        """Validate a header buffer; returns ``(kind, payload length)``."""
        magic, kind, length = _HEADER.unpack(header)
        if magic != self.magic:
            raise self.error(
                f"Bad frame magic {magic!r} (expected {self.magic!r})")
        if length > _MAX_PAYLOAD:
            raise self.error(
                f"Oversized {self.name_of(kind)} frame: {length} bytes")
        return kind, length

    def unpack_body(self, kind: int, body: bytes) -> Dict:
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self.error(
                f"Undecodable {self.name_of(kind)} payload: {exc}") from exc
        if not isinstance(raw, dict):
            raise self.error(
                f"{self.name_of(kind)} payload is not an object")
        _, _decode_attr = _codec_funcs()
        return {key: _decode_attr(value) for key, value in raw.items()}

    def unpack(self, frame: bytes) -> Tuple[int, Dict]:
        """Decode one whole frame buffer (the pipe transport's receive)."""
        if len(frame) < _HEADER.size:
            raise self.truncated_error(
                f"Truncated frame header: expected {_HEADER.size} bytes, "
                f"got {len(frame)}", _HEADER.size, len(frame))
        kind, length = self.unpack_header(frame[:_HEADER.size])
        body = frame[_HEADER.size:]
        if len(body) != length:
            raise self.truncated_error(
                f"Truncated {self.name_of(kind)} frame: header declares "
                f"{length} payload bytes, got {len(body)}",
                length, len(body))
        return kind, self.unpack_body(kind, body)

    # ------------------------------------------------------------- sending
    def _send(self, kind: int, payload: Dict, transport: str,
              write: Callable[[bytes], None], close: Callable[[], None]
              ) -> None:
        """Pack one frame and ``write`` it, acting out any injected fault.

        A pipe is message-oriented, so a truncated pipe frame is delivered
        short and the pipe lives on.  A stream cannot resync after a partial
        frame, so on a socket a truncate sends the torn prefix and then,
        like a reset on either transport, hard-closes the connection and
        fails the local send: the peer observes a death mid-frame.
        """
        frame = self.pack(kind, payload)
        fault = inject("framing.send",
                       protocol=self.magic.decode("ascii", "replace"),
                       kind=kind, transport=transport, size=len(frame)) or {}
        action = fault.get("action")
        if action == "drop":
            return
        if action == "delay":
            time.sleep(float(fault.get("seconds", 0.05)))
        elif action == "truncate":
            keep = max(_HEADER.size, len(frame) - int(fault.get("bytes", 1)))
            if transport == "pipe":
                write(frame[:keep])
                return
            try:
                write(frame[:keep])
            except OSError:
                pass
        if action in ("truncate", "reset"):
            try:
                close()
            except OSError:
                pass
            raise ConnectionResetError(
                f"fault injection: {transport} {action} while sending "
                f"{self.name_of(kind)}")
        write(frame)

    # ------------------------------------------------------------- pipe
    def send_pipe(self, conn, kind: int, payload: Dict) -> None:
        """Send one frame on a ``multiprocessing`` connection."""
        self._send(kind, payload, "pipe", conn.send_bytes, conn.close)

    def recv_pipe(self, conn) -> Tuple[int, Dict]:
        """Receive one frame on a ``multiprocessing`` connection."""
        return self.unpack(conn.recv_bytes())

    # ------------------------------------------------------------- socket
    def send_sock(self, sock, kind: int, payload: Dict) -> None:
        """Send one frame on a stream socket."""
        self._send(kind, payload, "socket", sock.sendall, sock.close)

    def _recv_exact(self, sock, count: int, what: str) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                got = count - remaining
                raise self.truncated_error(
                    f"Connection closed mid-frame reading {what}: expected "
                    f"{count} bytes, got {got}", count, got)
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_sock(self, sock) -> Tuple[int, Dict]:
        """Receive one frame on a stream socket (blocking, exact reads)."""
        header = self._recv_exact(sock, _HEADER.size, "the frame header")
        kind, length = self.unpack_header(header)
        body = self._recv_exact(sock, length,
                                f"a {self.name_of(kind)} payload")
        return kind, self.unpack_body(kind, body)

    def __repr__(self) -> str:
        return f"FrameCodec({self.magic!r})"
