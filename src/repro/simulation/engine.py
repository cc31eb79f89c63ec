"""Core discrete-event simulation engine.

The engine executes *processes* (Python generators) against a virtual
clock.  A process advances by yielding :class:`Event` objects; the engine
resumes the process when the event fires, passing the event's value back
through ``yield``.  Events are ordered by ``(time, priority, sequence)`` so
that two events scheduled for the same instant always fire in the order
they were scheduled — this is what makes every simulation deterministic.

Typical usage::

    sim = Simulator()

    def worker(sim, store):
        while True:
            item = yield store.get()
            yield sim.timeout(1.5)
            process_item(item)

    sim.process(worker(sim, store))
    sim.run(until=100.0)
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Heap keys fold priority and sequence as ``(priority << 52) + seq``:
#: priority 0 (interrupts) sorts before priority 1 at one instant, and
#: the 2^52 sequence space keeps the order exact far beyond any run.
_PRIORITY1 = 1 << 52


class SimulationError(Exception):
    """Raised for misuse of the simulation engine itself."""


class StopProcess(Exception):
    """Internal control-flow exception used by :meth:`Process.exit`."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown inside a process when another process interrupts it.

    The interrupting party supplies ``cause`` which the interrupted
    process can inspect to decide how to react (e.g. a failure injector
    telling a server process that its node died).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
PENDING = "pending"  # created, not yet triggered
TRIGGERED = "triggered"  # scheduled to fire, sits in the event heap
PROCESSED = "processed"  # callbacks have run


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, is *triggered* by :meth:`succeed` /
    :meth:`fail` (which schedules it on the simulator's heap), and becomes
    *processed* once its callbacks have executed.  Processes wait on events
    by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = PENDING
        self._defused = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` (default: now)."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)" % delay)
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + delay, _PRIORITY1 + seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event will see the exception raised at its
        ``yield``.  If nobody ever waits, the exception surfaces from
        :meth:`Simulator.run` (unless :meth:`defuse` was called).
        """
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it never escapes ``run()``."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s state=%s>" % (type(self).__name__, self._state)


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Timeouts are the dominant event kind (every cpu/network charge
        # creates one), so initialization is inlined rather than chaining
        # through Event.__init__: born TRIGGERED, scheduled immediately.
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % (delay,))
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + delay, _PRIORITY1 + seq, self))


class Initialize(Event):
    """Internal event used to start a process at its creation instant."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._ok = True
        self._value = None
        self._state = TRIGGERED
        self.callbacks.append(process._resume)
        sim._schedule(self, 0.0)


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The event's value is the process's return value (``return x`` inside
    the generator).  Other processes can therefore wait for completion with
    ``result = yield proc``.  Create processes through
    :meth:`Simulator.process` (or :meth:`Simulator.start`), which decide
    when the generator first runs.
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError("process requires a generator, got %r" % (generator,))
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None

    @property
    def is_alive(self) -> bool:
        """True while the process has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the event
        may still fire later, but will no longer resume this process).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt dead process %s" % self.name)
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._state = TRIGGERED
        event.callbacks.append(self._resume)
        self.sim._schedule(event, 0.0, priority=0)
        if self._target is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None

    def exit(self, value: Any = None) -> None:
        """Terminate the process from inside (like ``return value``)."""
        raise StopProcess(value)

    def _complete(self, value: Any) -> None:
        # A finished process with no waiters completes without a heap
        # event; later yields/conditions handle the PROCESSED state.
        if self.callbacks:
            self.succeed(value)
        else:
            self._ok = True
            self._value = value
            self._state = PROCESSED

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                next_target = self.generator.send(event._value)
            else:
                event._defused = True
                exc = event._value
                next_target = self.generator.throw(exc)
        except StopIteration as stop:
            self._target = None
            self._complete(stop.value)
            return
        except StopProcess as stop:
            self._target = None
            self.generator.close()
            self._complete(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._target = None
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        if not isinstance(next_target, Event):
            self.generator.throw(
                SimulationError(
                    "process %s yielded non-event %r" % (self.name, next_target)
                )
            )
            return
        if next_target.sim is not sim:
            self.generator.throw(
                SimulationError("yielded event belongs to a different simulator")
            )
            return

        self._target = next_target
        if next_target._state == PROCESSED:
            # Already fired: resume at the current instant.
            immediate = Event(sim)
            immediate._ok = next_target._ok
            immediate._value = next_target._value
            immediate._defused = True
            immediate._state = TRIGGERED
            immediate.callbacks.append(self._resume)
            sim._schedule(immediate, 0.0)
        else:
            next_target.callbacks.append(self._resume)


class Condition(Event):
    """Base for composite events over a set of sub-events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        for event in self.events:
            if event._state == PROCESSED:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and self._state == PENDING:
            self.succeed([])

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every sub-event has fired; value is the list of values."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(Condition):
    """Fires when the first sub-event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed((event, event._value))


class Simulator:
    """The event loop: owns the clock, the heap, and process creation."""

    def __init__(self):
        #: Current virtual time in seconds.  Only the run loop writes it.
        self.now = 0.0
        #: ``(time, key, event)`` tuples; ``key`` folds priority and
        #: schedule order (see :data:`_PRIORITY1`) and is unique, so two
        #: entries never compare their events.
        self._heap: List = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._event_count = 0
        #: the already-fired event :meth:`start` resumes a new process with
        self._started = Event(self)
        self._started._state = PROCESSED

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics)."""
        return self._event_count

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a process from a generator; returns its completion event.

        The generator first runs at an :class:`Initialize` event, i.e.
        after every event already scheduled for the current instant.
        """
        proc = Process(self, generator, name=name)
        Initialize(self, proc)
        return proc

    def start(self, generator: Generator, name: str = "") -> Process:
        """Like :meth:`process`, but the generator runs up to its first
        ``yield`` inside this call, with no :class:`Initialize` event.

        Its first step then happens at the caller's place in the current
        instant instead of after every event already scheduled for it
        (the ARPE starts each op this way).
        """
        proc = Process(self, generator, name=name)
        caller = self._active_process
        proc._resume(self._started)
        self._active_process = caller
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every given event has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of the given events fires."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = 1) -> None:
        # Every schedule pushes its own entry: events fire in
        # ``(time, priority, schedule order)`` order.  Hot callers
        # (Timeout, Event.succeed, Fabric.send) inline this push.
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)" % delay)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, (priority << 52) + seq, event))

    # -- execution ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to heap exhaustion), a number (run
        until that virtual time), or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event._state == PROCESSED:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise SimulationError("run(until=%r) is in the past" % until)

        # The body of step() is inlined here: this loop runs once per
        # simulated event, and the call/peek overhead measurably bounds
        # whole-harness throughput.
        heap = self._heap
        while heap:
            if heap[0][0] > stop_time:
                self.now = stop_time
                return None
            self.now, _key, event = heappop(heap)
            event._state = PROCESSED
            self._event_count += 1
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value
            if stop_event is not None and stop_event._state == PROCESSED:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value

        if stop_event is not None and stop_event._state != PROCESSED:
            raise SimulationError(
                "simulation ran out of events before %r fired" % stop_event
            )
        if stop_time != float("inf"):
            self.now = stop_time
        return None
