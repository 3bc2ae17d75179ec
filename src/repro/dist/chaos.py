"""A fault-injecting transport: network chaos applied at the frame layer.

:class:`ChaosTransport` is a drop-in :class:`~repro.dist.frames
.FrameTransport` whose *outgoing* path consults a
:class:`~repro.faults.chaos.NetChaosPolicy` per frame:

* ``delay``   -- a latency spike before the send;
* ``partial`` -- half the frame ships, a beat passes, then either the
  rest follows (exercising TCP reassembly) or the connection dies with
  the frame truncated on the wire;
* ``drop``    -- the connection dies before the frame ships at all.

Both lethal outcomes surface as :class:`ConnectionError` to the sending
worker, whose reconnect loop treats them exactly like a real link flap.
Nothing here duplicates or reorders a frame: one connection is one TCP
stream, which never does either.

Chaos lives on the worker side only.  Coordinator replies travel clean,
which keeps the sabotage surface where the interesting recovery logic
is (lease release, reassignment, duplicate commits) without making the
request/reply matching itself probabilistic.
"""

from __future__ import annotations

import socket
import time

from repro.dist.frames import FrameTransport
from repro.faults.chaos import NET_ACTIONS, NetChaosPolicy

PARTIAL_STALL_S = 0.01
"""Pause between the two halves of a partial write."""


class ChaosTransport(FrameTransport):
    """A ``FrameTransport`` whose sends pass through a chaos policy."""

    def __init__(
        self,
        sock: socket.socket,
        policy: NetChaosPolicy,
        stream: str,
        sleep=time.sleep,
    ):
        super().__init__(sock)
        self._policy = policy
        self._stream = stream
        self._sleep = sleep
        self._frame_index = 0
        self.actions_taken = {name: 0 for name in NET_ACTIONS}

    def _sever(self, reason: str) -> None:
        """Kill the connection and surface it to the caller."""
        self.close()
        raise ConnectionResetError(f"net chaos: {reason}")

    def _ship(self, data: bytes) -> None:
        self._frame_index += 1
        index = self._frame_index
        action = self._policy.action(self._stream, index)
        self.actions_taken[action] += 1
        if action == "drop":
            self._sever(f"connection dropped before frame {index}")
        if action == "delay":
            self._sleep(self._policy.delay_s)
        if action == "partial":
            half = max(1, len(data) // 2)
            self._sock.sendall(data[:half])
            self._sleep(PARTIAL_STALL_S)
            if not self._policy.partial_completes(self._stream, index):
                self._sever(f"connection died mid-frame {index}")
            self._sock.sendall(data[half:])
        else:
            self._sock.sendall(data)
