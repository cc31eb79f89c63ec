"""Order specification for the event engine.

Events fire in ``(time, priority, schedule order)`` order: an interrupt
(priority 0) outranks every other event of its instant, and events of
one instant and priority fire in the order they were scheduled.  A
``run(until=event)`` may stop in the middle of an instant; the next
``run()`` must resume exactly where it stopped.

The test keeps its own record of every schedule it makes — the fire
time, the priority and a running count — and checks each run's firings
against that record sorted.  Timeouts and succeeds are also scheduled
from callbacks while the engine runs; interrupts are issued between
runs, at the instant the previous run stopped in.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Interrupt, Simulator

KINDS = st.sampled_from(["timeout", "succeed"])
#: whole-number delays, so that fire times collide exactly
DELAYS = st.sampled_from([0.0, 1.0, 2.0])
CHILD = st.tuples(KINDS, DELAYS)
OP = st.tuples(KINDS, DELAYS, st.lists(CHILD, max_size=2))
ROUND = st.tuples(
    st.lists(OP, max_size=6),  # scheduled between runs
    st.lists(st.integers(0, 2), max_size=3),  # victims interrupted
    st.integers(0, 50),  # which pending event the run stops at
)


class Recorder:
    """Schedules labelled events and logs every firing."""

    def __init__(self):
        self.sim = Simulator()
        self.count = 0
        self.keys = {}  # label -> (time, priority, label)
        self.events = {}  # label -> event, for run(until=...)
        self.fired = []  # (sim.now, label) per firing

    def _key(self, delay, priority):
        self.count += 1
        label = self.count
        self.keys[label] = (self.sim.now + delay, priority, label)
        return label

    def schedule(self, kind, delay, children=()):
        label = self._key(delay, 1)
        if kind == "timeout":
            event = self.sim.timeout(delay)
        else:
            event = self.sim.event().succeed(delay=delay)
        event.callbacks.append(partial(self._fire, label, children))
        self.events[label] = event

    def _fire(self, label, children, _event):
        self.fired.append((self.sim.now, label))
        for kind, delay in children:
            self.schedule(kind, delay)

    def victim(self):
        """A process that waits forever and logs each interrupt."""
        while True:
            try:
                yield self.sim.event()
            except Interrupt as interrupt:
                self.fired.append((self.sim.now, interrupt.cause))

    def interrupt(self, process):
        process.interrupt(self._key(0.0, 0))

    def pending(self):
        done = {label for _now, label in self.fired}
        return sorted(
            (key for label, key in self.keys.items() if label not in done)
        )


def check_run(rec, until=None):
    """Run once; the firings must be the pending schedules, including
    those made during the run, in key order (all of them, or up to the
    stop event)."""
    fired_before = {label for _now, label in rec.fired}
    rec.sim.run(until=until)
    fired = rec.fired[len(fired_before):]
    expected = sorted(
        key for label, key in rec.keys.items() if label not in fired_before
    )[: len(fired)]
    assert [label for _now, label in fired] == [key[2] for key in expected]
    assert [now for now, _label in fired] == [key[0] for key in expected]
    if until is not None:
        assert fired and fired[-1][1] == until_label(rec, until)
    else:
        assert rec.pending() == []


def until_label(rec, event):
    return next(label for label, e in rec.events.items() if e is event)


@settings(max_examples=150, deadline=None)
@given(st.lists(OP, min_size=1, max_size=8), st.lists(ROUND, max_size=3))
def test_fire_order_is_time_priority_schedule_order(first, rounds):
    rec = Recorder()
    victims = [rec.sim.start(rec.victim()) for _ in range(3)]
    for kind, delay, children in first:
        rec.schedule(kind, delay, children)
    for ops, interrupted, stop in rounds:
        for kind, delay, children in ops:
            rec.schedule(kind, delay, children)
        for index in interrupted:
            rec.interrupt(victims[index])
        # stop at a pending timeout/succeed (never at an interrupt)
        stoppable = [key[2] for key in rec.pending() if key[1] == 1]
        if not stoppable:
            continue
        check_run(rec, until=rec.events[stoppable[stop % len(stoppable)]])
    check_run(rec)


def test_mid_instant_stop_resumes_in_schedule_order():
    """A fixed case: three events at t=1, stop after the second, an
    interrupt issued between the runs fires before the third."""
    rec = Recorder()
    victim = rec.sim.start(rec.victim())
    for _ in range(3):
        rec.schedule("timeout", 1.0)
    rec.sim.run(until=rec.events[2])
    assert rec.fired == [(1.0, 1), (1.0, 2)]
    rec.interrupt(victim)  # label 4, priority 0 at t=1
    rec.schedule("succeed", 0.0)  # label 5, after label 3
    rec.sim.run()
    assert rec.fired == [(1.0, 1), (1.0, 2), (1.0, 4), (1.0, 3), (1.0, 5)]
