"""Frame-layer tests: canonical encoding, transport, tailed frames."""

import json
import socket
import struct
import threading

import pytest

from repro.dist.frames import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameTransport,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.store.codec import skeleton_ref
from repro.store.store import split_row


def transport_pair():
    a, b = socket.socketpair()
    return FrameTransport(a), FrameTransport(b)


class TestEncoding:
    def test_payload_roundtrip(self):
        message = {"type": "result", "doc": {"x": [1, 2.5, None]}, "n": 3}
        assert decode_payload(encode_payload(message)) == message

    def test_encoding_is_canonical(self):
        # Key insertion order must not change the bytes: digest-based
        # duplicate detection depends on it.
        a = encode_payload({"b": 1, "a": {"d": 2, "c": 3}})
        b = encode_payload({"a": {"c": 3, "d": 2}, "b": 1})
        assert a == b

    def test_frame_is_length_prefixed(self):
        frame = encode_frame({"type": "fetch"})
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == {"type": "fetch"}

    def test_oversized_payload_rejected(self):
        blob = "x" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError):
            encode_frame({"blob": blob})

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError):
            decode_payload(b"[1,2,3]")
        with pytest.raises(FrameError):
            decode_payload(b"not json at all")


class TestFrameTransport:
    def test_clean_eof_returns_none(self):
        sender, receiver = transport_pair()
        sender.close()
        try:
            assert receiver.recv(timeout=2.0) is None
        finally:
            receiver.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        receiver = FrameTransport(b)
        frame = encode_frame({"type": "fetch"})
        a.sendall(frame[: len(frame) - 2])
        a.close()
        try:
            with pytest.raises(FrameError):
                receiver.recv(timeout=2.0)
        finally:
            receiver.close()

    def test_timeout_mid_payload_resumes_same_frame(self):
        # The coordinator polls recv(timeout=0.25) and continues on
        # timeout: a frame whose bytes arrive across two polls must be
        # reassembled, not misparsed (payload bytes read as a header).
        a, b = socket.socketpair()
        receiver = FrameTransport(b)
        frame = encode_frame({"type": "result", "n": 42})
        try:
            a.sendall(frame[:6])  # whole header + 2 payload bytes
            with pytest.raises(socket.timeout):
                receiver.recv(timeout=0.05)
            with pytest.raises(socket.timeout):
                receiver.recv(timeout=0.05)  # still starved: state kept
            a.sendall(frame[6:])
            assert receiver.recv(timeout=2.0) == {"type": "result", "n": 42}
            # Framing is still aligned for the next frame.
            a.sendall(encode_frame({"type": "fetch"}))
            assert receiver.recv(timeout=2.0) == {"type": "fetch"}
        finally:
            a.close()
            receiver.close()

    def test_timeout_mid_header_resumes_same_frame(self):
        a, b = socket.socketpair()
        receiver = FrameTransport(b)
        frame = encode_frame({"type": "heartbeat"})
        try:
            a.sendall(frame[:2])  # half the length prefix
            with pytest.raises(socket.timeout):
                receiver.recv(timeout=0.05)
            a.sendall(frame[2:])
            assert receiver.recv(timeout=2.0) == {"type": "heartbeat"}
        finally:
            a.close()
            receiver.close()

    def test_eof_after_header_only_raises(self):
        # Header fully consumed into the pending length, zero payload
        # buffered: still a mid-frame EOF, never a clean None.
        a, b = socket.socketpair()
        receiver = FrameTransport(b)
        frame = encode_frame({"type": "fetch"})
        a.sendall(frame[:4])
        a.close()
        try:
            with pytest.raises(FrameError):
                receiver.recv(timeout=2.0)
        finally:
            receiver.close()

    def test_oversized_incoming_header_rejected(self):
        a, b = socket.socketpair()
        receiver = FrameTransport(b)
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        try:
            with pytest.raises(FrameError):
                receiver.recv(timeout=2.0)
        finally:
            a.close()
            receiver.close()

    def test_concurrent_senders_interleave_whole_frames(self):
        # A transport shared by several sending threads must never
        # interleave frames mid-wire, and each thread's frames keep that
        # thread's send order.
        sender, receiver = transport_pair()
        per_thread = 50

        def spam(tag):
            for i in range(per_thread):
                sender.send({"type": "spam", "tag": tag, "i": i})

        threads = [
            threading.Thread(target=spam, args=(t,)) for t in ("a", "b")
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            received = {"a": [], "b": []}
            for _ in range(2 * per_thread):
                frame = receiver.recv(timeout=5.0)
                assert frame["type"] == "spam"
                received[frame["tag"]].append(frame["i"])
            expected = list(range(per_thread))
            assert received == {"a": expected, "b": expected}
        finally:
            sender.close()
            receiver.close()


def _row(target, cycles):
    """One synthetic analytic row: (row with skeleton ref, skeleton,
    packed vector bytes)."""
    row, skeleton, vector = split_row({
        "version": 1,
        "target_name": target,
        "workload_ref": "a" * 32,
        "platform_ref": "b" * 32,
        "cycles": cycles,
        "instructions": 10 ** 9,
        "counters": {"l3_miss": cycles / 7.0, "stalls": 0.25},
        "phases": [{"label": "main", "weight": 1.0, "ok": True}],
    })
    row["skeleton"] = skeleton_ref(skeleton)
    return row, skeleton, vector.astype("<f8").tobytes()


def _corpus():
    """hello, grant, and a results frame carrying a skeleton, two rows
    and an error entry."""
    row_a, skeleton, vector_a = _row("CXL-A", 1.5e9)
    row_b, _, vector_b = _row("CXL-B", 2.25e9)
    results = {
        "type": "results",
        "skeletons": {row_a["skeleton"]: skeleton},
        "results": [
            {"unit_id": "u1", "lease_id": "L1", "status": "ok",
             "row": row_a, "vector": 0, "elapsed_s": 0.001},
            {"unit_id": "u2", "lease_id": "L2", "status": "error",
             "reason": "error", "message": "boom"},
            {"unit_id": "u3", "lease_id": "L3", "status": "ok",
             "row": row_b, "vector": 1, "elapsed_s": 0.002},
        ],
        "tail": [vector_a, vector_b],
    }
    return [
        {"type": "hello", "name": "w0", "proto": 4},
        {"type": "grant", "lease_s": 10.0,
         "leases": [{"lease_id": "L1", "attempt": 1,
                     "unit": {"unit_id": "u1", "kind": "grid",
                              "workload": "bfs", "target": "CXL-A"}}]},
        results,
    ]


def _tailed(header, tail):
    """A tailed payload with a hand-written header."""
    text = json.dumps(header).encode("utf-8")
    return struct.pack(">I", len(text)) + text + tail


class _ScriptedSocket:
    """A socket stand-in replaying a script of recv outcomes: a bytes
    chunk, ``TIMEOUT`` (raise ``socket.timeout``) or ``b""`` (EOF)."""

    TIMEOUT = object()

    def __init__(self, script):
        self._script = list(script)

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        if not self._script:
            return b""
        step = self._script.pop(0)
        if step is self.TIMEOUT:
            raise socket.timeout("scripted")
        return step

    def shutdown(self, how):
        pass

    def close(self):
        pass


class TestTailedFrames:
    """Since protocol 3, a ``results`` frame carries its vectors as a
    binary tail after the JSON header."""

    def test_roundtrip_keeps_tail_bytes(self):
        for message in _corpus():
            assert decode_payload(encode_payload(message)) == message

    def test_only_tailed_messages_leave_the_bare_form(self):
        hello, grant, results = _corpus()
        assert encode_payload(hello).startswith(b"{")
        assert encode_payload(grant).startswith(b"{")
        payload = encode_payload(results)
        assert payload[:1] == b"\x00"
        # The vectors ride raw at the end: no text round trip.
        assert payload.endswith(b"".join(results["tail"]))

    def test_split_delivery_with_timeout_resumes(self):
        for message in _corpus():
            frame = encode_frame(message)
            for cut in range(1, len(frame)):
                sock = _ScriptedSocket([
                    frame[:cut], _ScriptedSocket.TIMEOUT, frame[cut:],
                ])
                transport = FrameTransport(sock)
                with pytest.raises(socket.timeout):
                    transport.recv(timeout=0.01)
                assert transport.recv(timeout=0.01) == message

    def test_truncation_at_every_offset_is_a_frame_error(self):
        for message in _corpus():
            frame = encode_frame(message)
            for cut in range(1, len(frame)):
                transport = FrameTransport(_ScriptedSocket([frame[:cut]]))
                with pytest.raises(FrameError):
                    transport.recv(timeout=0.01)
            payload = frame[4:]
            for cut in range(len(payload)):
                with pytest.raises(FrameError):
                    decode_payload(payload[:cut])

    @pytest.mark.parametrize("lengths", [[3, 4], [2, 5], [3, 2], [7], []])
    def test_tail_lengths_must_match_the_frame(self, lengths):
        payload = _tailed({"type": "results", "tail": lengths}, b"x" * 6)
        with pytest.raises(FrameError):
            decode_payload(payload)
        frame = struct.pack(">I", len(payload)) + payload
        transport = FrameTransport(_ScriptedSocket([frame]))
        with pytest.raises(FrameError):
            transport.recv(timeout=0.01)

    @pytest.mark.parametrize("lengths", [[-1, 7], "6", [6.0], [True] * 6])
    def test_malformed_tail_lengths_rejected(self, lengths):
        payload = _tailed({"type": "results", "tail": lengths}, b"x" * 6)
        with pytest.raises(FrameError):
            decode_payload(payload)

    def test_header_length_past_the_frame_rejected(self):
        with pytest.raises(FrameError):
            decode_payload(struct.pack(">I", 99) + b"{}")
        with pytest.raises(FrameError):
            decode_payload(b"\x00\x00")
