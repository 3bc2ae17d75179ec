"""Network-chaos tests: every sabotage is survivable or loudly lethal.

The scripted-policy tests pin each action's exact wire behavior; the
seeded end-to-end test asserts the global invariant -- whatever a chaos
schedule does, the receiver sees a gapless in-order prefix of what was
sent, all of it unless the connection died in a way the sender
observed.
"""

import socket

import pytest

from repro.dist.chaos import ChaosTransport
from repro.dist.frames import FrameError, FrameTransport
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


class TestScriptedActions:
    def test_partial_that_completes_reassembles(self):
        sender, receiver = chaos_pair(
            ScriptedPolicy(["partial"], completes=True)
        )
        try:
            sender.send({"type": "fetch", "pad": "x" * 100})
            frame = receiver.recv(timeout=2.0)
            assert frame == {"type": "fetch", "pad": "x" * 100}
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
            assert receiver.recv(timeout=2.0) == {"type": "fetch"}
            assert naps  # the latency spike actually happened
        finally:
            sender.close()
            receiver.close()


class TestSeededSchedule:
    def test_no_silent_loss_under_any_seed(self):
        # Whatever the schedule does, the receiver reads a gapless
        # prefix 0..m-1 of what was sent, straight off the transport;
        # m < sent only when the sender saw the connection die.
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
                sender.close()
                delivered = []
                while True:
                    try:
                        frame = receiver.recv(timeout=2.0)
                    except FrameError:
                        break  # truncated tail of a severed connection
                    if frame is None:
                        break
                    delivered.append(frame["i"])
                assert delivered == list(range(len(delivered)))
                if not severed:
                    assert len(delivered) == sent
                else:
                    assert len(delivered) <= sent
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
            NetChaosPolicy(drop_prob=0.6, delay_prob=0.6)
        with pytest.raises(MelodyError):
            NetChaosPolicy(drop_prob=-0.1)

    def test_action_names_are_known(self):
        policy = NetChaosPolicy.from_seed(3)
        for i in range(1, 100):
            assert policy.action("s", i) in NET_ACTIONS
