"""What each :class:`FaultAction` does to a two-sided send.

The fabric lands every message through one delivery callback; these
tests drive it directly with a one-interceptor fabric, so each action's
effect on timing, delivery and counters is pinned below the store layer.
"""

import pytest

from repro.network.fabric import Fabric, FaultAction, NodeUnreachableError
from repro.network.profiles import RI_QDR
from repro.simulation import Simulator


class Fixed:
    """An interceptor returning one action for every transfer."""

    def __init__(self, action):
        self.action = action

    def on_message(self, src, dst, size, payload, tag, one_sided):
        return self.action


def make(action=None):
    sim = Simulator()
    fabric = Fabric(sim, RI_QDR)
    fabric.add_node("a")
    receiver = fabric.add_node("b")
    landed = []
    receiver.on_message = lambda message: landed.append(
        (sim.now, message.payload)
    )
    if action is not None:
        fabric.add_interceptor(Fixed(action))
    return sim, fabric, receiver, landed


def plain_delivery_time():
    sim, fabric, _receiver, landed = make()
    fabric.send("a", "b", size=4096, payload="x")
    sim.run()
    return landed[0][0]


class TestFaultActions:
    def test_no_action_delivers_once(self):
        sim, fabric, receiver, landed = make()
        done = fabric.send("a", "b", size=4096, payload="x")
        message = sim.run(done)
        assert landed == [(message.delivered_at, "x")]
        assert (receiver.messages_received, receiver.bytes_received) == (1, 4096)

    def test_drop(self):
        sim, fabric, receiver, landed = make(FaultAction(drop=True))
        done = fabric.send("a", "b", size=4096, payload="x")
        message = sim.run(done)  # the sender's completion still fires
        assert done.ok and message.payload == "x"
        assert sim.now == plain_delivery_time()
        assert landed == []
        assert (receiver.messages_received, receiver.bytes_received) == (0, 0)

    def test_drop_never_duplicates(self):
        sim, fabric, _receiver, landed = make(
            FaultAction(drop=True, duplicate=1e-6)
        )
        fabric.send("a", "b", size=4096, payload="x")
        sim.run()
        assert landed == []

    def test_mutate_applies_once_at_delivery(self):
        calls = []

        def flip(payload):
            calls.append(sim.now)
            return payload.upper()

        sim, fabric, receiver, landed = make(
            FaultAction(mutate=flip, duplicate=5e-6)
        )
        fabric.send("a", "b", size=4096, payload="x")
        assert calls == []  # nothing happens at send time
        sim.run()
        first = plain_delivery_time()
        assert calls == [first]
        assert landed == [(first, "X"), (first + 5e-6, "X")]
        assert receiver.messages_received == 2

    def test_duplicate_lands_again(self):
        sim, fabric, receiver, landed = make(FaultAction(duplicate=3e-6))
        fabric.send("a", "b", size=4096, payload="x")
        sim.run()
        first = plain_delivery_time()
        assert landed == [(first, "x"), (first + 3e-6, "x")]
        assert (receiver.messages_received, receiver.bytes_received) == (2, 8192)

    def test_duplicate_skips_a_dead_receiver(self):
        sim, fabric, receiver, landed = make(FaultAction(duplicate=3e-6))
        fabric.send("a", "b", size=4096, payload="x")
        first = plain_delivery_time()
        sim.run(until=first + 1e-6)
        receiver.fail()
        sim.run()
        assert landed == [(first, "x")]
        assert receiver.messages_received == 1

    def test_delay_adds_to_timing(self):
        sim, fabric, _receiver, landed = make(FaultAction(delay=7e-6))
        fabric.send("a", "b", size=4096, payload="x")
        sim.run()
        assert landed == [(plain_delivery_time() + 7e-6, "x")]


class TestDeathInFlight:
    def test_receiver_death_fails_the_send_defused(self):
        sim, fabric, receiver, landed = make()
        done = fabric.send("a", "b", size=4096, payload="x")
        sim.run(until=plain_delivery_time() / 2)
        receiver.fail()
        sim.run()  # defused: the failure does not escape run()
        assert landed == []
        assert not done.ok
        error = done.value
        assert isinstance(error, NodeUnreachableError)
        assert error.node == "b"
        assert error.message.payload == "x"  # which send failed
        assert receiver.messages_received == 0

    def test_waiter_sees_the_error(self):
        sim, fabric, receiver, _landed = make()
        done = fabric.send("a", "b", size=4096, payload="x")
        seen = []

        def waiter():
            try:
                yield done
            except NodeUnreachableError as exc:
                seen.append((sim.now, exc.node))

        sim.process(waiter())
        sim.run(until=plain_delivery_time() / 2)
        receiver.fail()
        sim.run()
        assert seen == [(plain_delivery_time(), "b")]

    @pytest.mark.parametrize("dead", ["a", "b"])
    def test_dead_at_send_names_the_message(self, dead):
        sim, fabric, _receiver, _landed = make()
        fabric.endpoint(dead).fail()
        done = fabric.send("a", "b", size=4096, payload="x")
        done.defuse()
        sim.run()
        assert done.value.node == dead
        assert done.value.message.payload == "x"
