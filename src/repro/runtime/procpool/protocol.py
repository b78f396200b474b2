"""Framed, pickle-free message protocol between the pool and its workers.

Every message is one raw byte frame on a ``multiprocessing`` pipe
(``send_bytes``/``recv_bytes`` — the object-pickling layer is never used):

``[4s magic "RPP1"][u8 message type][u32 payload length][payload]``

Framing, payload (de)serialisation, truncation handling and fault injection
all live in the :mod:`repro.runtime.framing` codec; this module contributes
only the ``RPP1`` magic and the message vocabulary.  The
payload is UTF-8 JSON encoded through the artifact codec, so tuple-valued
fields survive the trip exactly.  Tensors never appear in a
frame: they travel through :class:`~.shm.ShmArena` segments and frames
carry only the arena spec (segment name + slot table).

A peer dying mid-frame surfaces as
:class:`~repro.runtime.framing.TruncatedFrameError` — a
:class:`ProtocolError` naming bytes-expected/bytes-got.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..framing import (FrameCodec, MessageKinds, ProtocolError,
                       TruncatedFrameError)

__all__ = ["MSG", "ProtocolError", "TruncatedFrameError", "send_msg",
           "recv_msg"]


class MSG(MessageKinds):
    """Message types (u8 on the wire)."""

    HELLO = 1       #: worker -> pool: boot complete (pid, boot timing)
    PING = 2        #: pool -> worker: heartbeat probe
    PONG = 3        #: worker -> pool: heartbeat reply
    EXEC = 4        #: pool -> worker: execute a batch (arena spec + layout)
    RESULT = 5      #: worker -> pool: batch done (per-request status, timings)
    SHUTDOWN = 8    #: pool -> worker: exit cleanly
    BYE = 9         #: worker -> pool: acknowledging shutdown
    ERROR = 10      #: worker -> pool: request failed (message + traceback)


#: the one RPP1 codec instance (and fault-injection point) of this protocol
CODEC = FrameCodec(b"RPP1", MSG)


def send_msg(conn, kind: int, payload: Dict) -> None:
    """Send one framed message (header + JSON payload, no pickling)."""
    CODEC.send_pipe(conn, kind, payload)


def recv_msg(conn) -> Tuple[int, Dict]:
    """Receive one framed message (blocking); ``(kind, payload)``."""
    return CODEC.recv_pipe(conn)
