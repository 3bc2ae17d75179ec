"""Length-prefixed framing for the coordinator/worker protocol.

One frame is a 4-byte big-endian payload length followed by that many
payload bytes, in one of two forms:

* **bare** -- canonical JSON (sorted keys, compact separators, UTF-8).
  Every frame except ``results`` is bare, exactly as in protocol 2, so
  a protocol-2 worker's ``hello`` still parses and is answered with a
  ``reject`` it can read;
* **tailed** -- a 4-byte big-endian header length, that many bytes of
  canonical JSON header, then a binary *tail*: the chunks a message
  carries under its ``"tail"`` key (a list of ``bytes``), concatenated.
  The header records each chunk's length under ``"tail"``, and those
  lengths must account for every payload byte after the header, or
  the frame is a :class:`FrameError`.  A ``results`` frame ships each
  row's packed ``<f8`` vector this way, with no text round trip.

The two forms never collide: a header length is below
:data:`MAX_FRAME_BYTES`, so a tailed payload starts with a zero byte,
and a bare one with ``{``.

:class:`FrameTransport` wraps a connected socket.  Sends are serialized
under a lock, so frames from concurrent senders never interleave on the
wire: no caller sends from two threads today, but the transport stays
safe to share instead of every caller having to prove it never does.
Frames carry no sequence numbers: one connection is one TCP stream,
which never duplicates or reorders, so the receiver handles frames in
the order ``recv`` returns them.

Within one connection a frame is never silently lost: the chaos
transport only delays a frame, stalls it halfway, or kills the
connection before or mid-frame -- and a killed connection releases the
worker's leases.  That invariant is why a skeleton body need cross one
connection only once: every later frame of that connection arrives
after it.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Dict, Optional

from repro.errors import MelodyError

MAX_FRAME_BYTES = 8 << 20
"""Upper bound on one frame's payload.  The largest frame is a grant's
``results``: per row a ~0.3 KB header entry and a ~0.5 KB packed vector,
plus each skeleton body (~2 KB) once per connection -- under 30 KB for a
full grant of the shipped campaign, far below this bound."""

_LENGTH = struct.Struct(">I")


class FrameError(MelodyError):
    """A malformed or oversized frame."""


def _json(message: Dict[str, object]) -> bytes:
    return json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def encode_payload(message: Dict[str, object]) -> bytes:
    """Payload bytes of one message (no length prefix).

    A message with a ``"tail"`` (a list of ``bytes``) encodes tailed,
    any other bare.
    """
    tail = message.get("tail")
    if tail is None:
        return _json(message)
    header = _json(dict(message, tail=[len(chunk) for chunk in tail]))
    return b"".join([_LENGTH.pack(len(header)), header, *tail])


def encode_frame(message: Dict[str, object]) -> bytes:
    """One wire frame: length prefix + payload."""
    payload = encode_payload(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def _parse_json(data: bytes) -> Dict[str, object]:
    try:
        message = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload must be an object, got "
            f"{type(message).__name__}"
        )
    return message


def decode_payload(payload: bytes) -> Dict[str, object]:
    """Parse one frame payload back into a message dict.

    A tailed payload comes back with its chunks, as ``bytes``, under
    ``"tail"``; any disagreement between the header's tail lengths and
    the payload length is a :class:`FrameError`.
    """
    if payload[:1] != b"\x00":
        return _parse_json(payload)
    if len(payload) < _LENGTH.size:
        raise FrameError("tailed frame shorter than its header length")
    (size,) = _LENGTH.unpack_from(payload)
    start = _LENGTH.size + size
    if start > len(payload):
        raise FrameError(
            f"frame header claims {size} bytes, only "
            f"{len(payload) - _LENGTH.size} follow"
        )
    message = _parse_json(payload[_LENGTH.size:start])
    lengths = message.get("tail")
    if not isinstance(lengths, list) or not all(
        type(n) is int and n >= 0 for n in lengths
    ):
        raise FrameError(f"frame tail lengths malformed: {lengths!r}")
    if start + sum(lengths) != len(payload):
        raise FrameError(
            f"frame tail lengths sum to {sum(lengths)} bytes, the "
            f"frame carries {len(payload) - start}"
        )
    tail = []
    for length in lengths:
        tail.append(payload[start:start + length])
        start += length
    message["tail"] = tail
    return message


class FrameTransport:
    """Framed, thread-safe messaging over one connected socket.

    ``send`` frames and ships each message under the send lock, so
    concurrent senders interleave whole frames, each thread's in its
    own send order.  ``recv`` returns one decoded message, ``None`` on
    a clean EOF, raises :class:`FrameError` on garbage, and lets
    ``socket.timeout`` propagate so pollers can check stop flags.  A timeout mid-frame keeps the partial parse state
    (pending length and buffered bytes) on the transport, so the next
    ``recv`` resumes the same frame instead of misreading payload bytes
    as a header.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_buffer = b""
        self._pending_length: Optional[int] = None

    def send(self, message: Dict[str, object]) -> None:
        """Frame and ship one message."""
        data = encode_frame(message)
        with self._send_lock:
            self._ship(data)

    def _ship(self, data: bytes) -> None:
        """Put one encoded frame on the wire (chaos overrides this)."""
        self._sock.sendall(data)

    def recv(
        self, timeout: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """One decoded message; ``None`` on clean EOF.

        The header is only consumed once its length is parsed into
        ``_pending_length``, and that survives a ``socket.timeout``:
        pollers that continue on timeout (the coordinator's 0.25s recv
        loop) resume a half-received frame instead of desyncing the
        stream when a frame's bytes arrive more than one poll apart.
        """
        self._sock.settimeout(timeout)
        while True:
            if self._pending_length is None \
                    and len(self._recv_buffer) >= _LENGTH.size:
                (length,) = _LENGTH.unpack(
                    self._recv_buffer[:_LENGTH.size]
                )
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"incoming frame claims {length} bytes "
                        f"(max {MAX_FRAME_BYTES}); stream corrupt"
                    )
                self._recv_buffer = self._recv_buffer[_LENGTH.size:]
                self._pending_length = length
            if self._pending_length is not None \
                    and len(self._recv_buffer) >= self._pending_length:
                length = self._pending_length
                payload, self._recv_buffer = (
                    self._recv_buffer[:length],
                    self._recv_buffer[length:],
                )
                self._pending_length = None
                return decode_payload(payload)
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._recv_buffer or self._pending_length is not None:
                    raise FrameError(
                        "connection closed mid-frame "
                        f"({len(self._recv_buffer)} bytes buffered, "
                        f"expecting {self._pending_length!r})"
                    )
                return None
            self._recv_buffer += chunk

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
