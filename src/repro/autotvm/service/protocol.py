"""Framed JSON message protocol of the tuning service.

Same framing discipline as the process-pool pipe protocol
(:mod:`repro.runtime.procpool.protocol`), carried over a TCP socket instead
of a ``multiprocessing`` pipe:

``[4s magic "RTS1"][u8 message type][u32 payload length][payload]``

Framing, payload (de)serialisation, truncation handling and fault injection
live in the shared :mod:`repro.runtime.framing` codec; this module
contributes the ``RTS1`` magic and the RPC vocabulary.  Payloads go through
the artifact codec so tuple-valued fields — workload args, config values —
survive the trip exactly.  Python's ``json`` round-trips ``inf`` (as
``Infinity``) and float ``repr`` is shortest-exact, so measured times
arrive bit-identical, which the service's dedup guarantee depends on.

A peer dying mid-frame raises a :class:`ServiceProtocolError` that is also
a :class:`ConnectionError` and names bytes-expected/bytes-got (see
:class:`repro.runtime.framing.TruncatedFrameError`).
"""

from __future__ import annotations

import socket
from typing import Dict, Tuple

from ...runtime.framing import FrameCodec, MessageKinds, ProtocolError

__all__ = ["MSG", "ServiceProtocolError", "send_frame", "recv_frame"]


class MSG(MessageKinds):
    """Message types (u8 on the wire).

    Kinds 8, 15 and 16 (a best-entry query and a remote shutdown with its
    acknowledgement) are retired and never reused, so every surviving frame
    keeps its bytes; a peer that sends one gets an ``ERROR`` reply.
    """

    HELLO = 1      #: client -> server: introduce (pid)
    WELCOME = 2    #: server -> client: accepted (server pid, entry count)
    LOOKUP = 3     #: client -> server: were these (task, target, config) measured?
    FOUND = 4      #: server -> client: per-key hit (time/error) or null
    PUSH = 5       #: client -> server: raw trial measurements just made
    RECORD = 6     #: client -> server: a session's floored best entry
    ACK = 7        #: server -> client: push/record accepted (new-entry count)
    WARM = 9       #: client -> server: transfer entries for an operator
    ENTRIES = 10   #: server -> client: log entries (WARM reply)
    MODEL = 11     #: client -> server: pretrained cost model for an operator?
    MODEL_SPEC = 12  #: server -> client: serialized model or null
    STATS = 13     #: client -> server: service counters?
    STATS_REPLY = 14  #: server -> client: the counters
    ERROR = 17     #: server -> client: request failed (message)


class ServiceProtocolError(ProtocolError):
    """A malformed, truncated or oversized frame arrived on a connection."""


#: the one RTS1 codec instance (and fault-injection point) of this protocol
CODEC = FrameCodec(b"RTS1", MSG, error=ServiceProtocolError)


def send_frame(sock: socket.socket, kind: int, payload: Dict) -> None:
    """Send one framed message (header + JSON payload)."""
    CODEC.send_sock(sock, kind, payload)


def recv_frame(sock: socket.socket) -> Tuple[int, Dict]:
    """Receive one framed message (blocking); ``(kind, payload)``."""
    return CODEC.recv_sock(sock)
