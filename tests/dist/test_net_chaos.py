"""Network-chaos tests: every sabotage is survivable or loudly lethal.

The scripted-policy tests pin each action's exact wire behavior; the
seeded end-to-end test asserts the global invariant -- whatever a chaos
schedule does, the receiver sees a gapless in-order prefix of what was
sent, or the connection dies in a way the sender observes.
"""

import socket

import pytest

from repro.dist.chaos import ChaosTransport
from repro.dist.frames import FrameError, FrameTransport, InOrderChannel
from repro.faults.chaos import NET_ACTIONS, NetChaosPolicy


class ScriptedPolicy:
    """A stand-in policy whose per-frame actions are spelled out."""

    delay_s = 0.005

    def __init__(self, actions, completes=True):
        self.actions = actions
        self.completes = completes

    def action(self, stream, index):
        if index <= len(self.actions):
            return self.actions[index - 1]
        return "none"

    def partial_completes(self, stream, index):
        return self.completes


def chaos_pair(policy):
    a, b = socket.socketpair()
    sender = ChaosTransport(a, policy, stream="t", sleep=lambda s: None)
    return sender, FrameTransport(b)


def drain(receiver, count, timeout=2.0):
    frames = []
    for _ in range(count):
        frame = receiver.recv(timeout=timeout)
        if frame is None:
            break
        frames.append(frame)
    return frames


class TestScriptedActions:
    def test_dup_ships_twice_and_channel_drops_the_copy(self):
        sender, receiver = chaos_pair(ScriptedPolicy(["dup"]))
        try:
            sender.send({"type": "fetch"})
            raw = drain(receiver, 2)
            assert [f["seq"] for f in raw] == [1, 1]
            channel = InOrderChannel()
            delivered = [f for frame in raw for f in channel.feed(frame)]
            assert [f["seq"] for f in delivered] == [1]
            assert channel.duplicates == 1
        finally:
            sender.close()
            receiver.close()

    def test_reorder_swaps_with_the_next_frame(self):
        sender, receiver = chaos_pair(ScriptedPolicy(["reorder", "none"]))
        try:
            sender.send({"type": "fetch"})
            sender.send({"type": "heartbeat"})
            raw = drain(receiver, 2)
            assert [f["seq"] for f in raw] == [2, 1]
            channel = InOrderChannel()
            delivered = [f for frame in raw for f in channel.feed(frame)]
            assert [f["seq"] for f in delivered] == [1, 2]
            assert channel.reordered == 1
        finally:
            sender.close()
            receiver.close()

    def test_held_frame_flushes_on_close(self):
        # A clean shutdown must not silently lose the held frame.
        sender, receiver = chaos_pair(ScriptedPolicy(["reorder"]))
        sender.send({"type": "goodbye"})
        sender.close()
        try:
            frames = drain(receiver, 2)
            assert [f["seq"] for f in frames] == [1]
        finally:
            receiver.close()

    def test_partial_that_completes_reassembles(self):
        sender, receiver = chaos_pair(
            ScriptedPolicy(["partial"], completes=True)
        )
        try:
            sender.send({"type": "fetch", "pad": "x" * 100})
            frame = receiver.recv(timeout=2.0)
            assert frame["type"] == "fetch" and frame["seq"] == 1
        finally:
            sender.close()
            receiver.close()

    def test_partial_that_drops_kills_the_connection_loudly(self):
        sender, receiver = chaos_pair(
            ScriptedPolicy(["partial"], completes=False)
        )
        try:
            with pytest.raises(ConnectionError):
                sender.send({"type": "fetch", "pad": "x" * 100})
            # The peer sees a truncated frame, not a silent gap.
            with pytest.raises(FrameError):
                receiver.recv(timeout=2.0)
        finally:
            receiver.close()

    def test_drop_severs_before_the_frame_ships(self):
        sender, receiver = chaos_pair(ScriptedPolicy(["drop"]))
        try:
            with pytest.raises(ConnectionError):
                sender.send({"type": "fetch"})
            assert receiver.recv(timeout=2.0) is None  # clean EOF
        finally:
            receiver.close()

    def test_delay_invokes_sleep_then_ships(self):
        naps = []
        a, b = socket.socketpair()
        policy = ScriptedPolicy(["delay"])
        sender = ChaosTransport(a, policy, stream="t", sleep=naps.append)
        receiver = FrameTransport(b)
        try:
            sender.send({"type": "fetch"})
            assert receiver.recv(timeout=2.0)["seq"] == 1
            assert naps  # the latency spike actually happened
        finally:
            sender.close()
            receiver.close()


class TestSeededSchedule:
    def test_no_silent_loss_under_any_seed(self):
        # Whatever the schedule does, the in-order channel yields a
        # gapless prefix 1..m; m < sent only when the sender saw the
        # connection die.
        for seed in range(8):
            policy = NetChaosPolicy.from_seed(seed)
            a, b = socket.socketpair()
            sender = ChaosTransport(
                a, policy, stream="w/0", sleep=lambda s: None
            )
            receiver = FrameTransport(b)
            sent, severed = 0, False
            try:
                for i in range(40):
                    try:
                        sender.send({"type": "spam", "i": i})
                        sent += 1
                    except ConnectionError:
                        severed = True
                        break
                if not severed:
                    sender.close()  # flushes any held frame
                channel = InOrderChannel()
                delivered = []
                while True:
                    try:
                        frame = receiver.recv(timeout=2.0)
                    except FrameError:
                        break  # truncated tail of a severed connection
                    if frame is None:
                        break
                    delivered.extend(channel.feed(frame))
                seqs = [f["seq"] for f in delivered]
                assert seqs == list(range(1, len(seqs) + 1))
                if not severed:
                    assert len(seqs) == sent
                else:
                    assert len(seqs) <= sent
            finally:
                sender.close()
                receiver.close()

    def test_schedule_is_deterministic(self):
        policy = NetChaosPolicy.from_seed(11)
        first = [policy.action("w/0", i) for i in range(1, 200)]
        second = [policy.action("w/0", i) for i in range(1, 200)]
        assert first == second
        assert set(first) > {"none"}  # sabotage actually occurs
        other = [policy.action("w/1", i) for i in range(1, 200)]
        assert other != first  # streams draw independently


class TestPolicyValidation:
    def test_probabilities_must_partition(self):
        from repro.errors import MelodyError

        with pytest.raises(MelodyError):
            NetChaosPolicy(drop_prob=0.6, dup_prob=0.6)
        with pytest.raises(MelodyError):
            NetChaosPolicy(drop_prob=-0.1)

    def test_action_names_are_known(self):
        policy = NetChaosPolicy.from_seed(3)
        for i in range(1, 100):
            assert policy.action("s", i) in NET_ACTIONS
