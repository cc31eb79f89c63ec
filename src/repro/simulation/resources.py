"""Resource primitives built on the event engine.

Three primitives cover every contention point in the reproduction:

``Resource``
    A capacity-limited semaphore with a FIFO wait queue.  Used for server
    worker threads, NIC DMA engines, CPU cores, and Lustre OST service
    slots.

``Store``
    A FIFO queue of items with optional capacity.  Used for request
    queues, completion queues, and mailbox-style channels between
    processes.

``Gate``
    A broadcast flag: processes wait until the gate opens; opening wakes
    all waiters at once.  Used for barrier-style coordination (e.g. YCSB
    load phase finishing before the run phase starts).

:func:`run_window` bounds background work instead: a fixed pool of
workers drains a queue of items, at most ``window`` in flight (the
rebuild scheduler's key groups, crash repair's keys).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, Optional

from repro.simulation.engine import PROCESSED, Event, SimulationError, Simulator


class Request(Event):
    """Outstanding claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource"):
        Event.__init__(self, sim)  # not super(): one per worker claim
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """Capacity-limited resource with deterministic FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: int = 0
        self._queue: Deque[Request] = deque()
        #: the one pre-granted claim every uncontended request returns
        self._claim = Request(sim, self)
        self._claim._value = self._claim
        self._claim._state = PROCESSED

    @property
    def in_use(self) -> int:
        """Slots currently granted."""
        return self._users

    @property
    def queued(self) -> int:
        """Requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted.

        An uncontended claim is granted on the spot: the request comes
        back already *processed*, costing no heap event and no
        allocation (every such grant shares the resource's one
        pre-granted claim, so hold it only to :meth:`release` it).
        Yielding it still works (the engine resumes at the current
        instant), and hot paths can skip the yield entirely when
        ``req.processed``.
        """
        if self._users < self.capacity:
            self._users += 1
            return self._claim
        req = Request(self.sim, self)
        self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot.  Grants the oldest queued request, if any."""
        if request.resource is not self:
            raise SimulationError("request released on the wrong resource")
        if self._users <= 0:
            raise SimulationError("release() without matching request()")
        self._users -= 1
        if self._queue:
            self._grant_waiters()

    def resize(self, capacity: int) -> None:
        """Change capacity in place.

        Growing grants queued requests immediately; shrinking never revokes
        already-granted slots — the resource simply stops granting until
        enough holders release to drop under the new capacity.
        """
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.capacity = capacity
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._queue and self._users < self.capacity:
            nxt = self._queue.popleft()
            self._users += 1
            nxt.succeed(nxt)

    def cancel(self, request: Request) -> None:
        """Withdraw a queued request that has not been granted yet."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise SimulationError("request is not queued; cannot cancel")


class Store:
    """FIFO item queue with optional capacity.

    ``put`` blocks (the returned event stays pending) while the store is
    full; ``get`` blocks while it is empty.  Items are matched to getters
    in strict FIFO order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        self._putter_items: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (read-only view for tests/diagnostics)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        # Puts that complete immediately come back already processed:
        # no heap event for an outcome nobody needs to wait for.
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event._state = PROCESSED
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event._state = PROCESSED
        else:
            self._putters.append(event)
            self._putter_items.append(item)
        return event

    def get(self) -> Event:
        # Like put(): a get satisfied from queued items is returned
        # already processed, so non-yielding consumers cost nothing.
        event = Event(self.sim)
        if self._items:
            event._value = self._items.popleft()
            event._state = PROCESSED
            # Space freed: admit the oldest blocked putter.
            if self._putters:
                putter = self._putters.popleft()
                self._items.append(self._putter_items.popleft())
                putter.succeed(None)
        elif self._putters:
            # Zero-capacity style direct handoff.
            putter = self._putters.popleft()
            event._value = self._putter_items.popleft()
            event._state = PROCESSED
            putter.succeed(None)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking pop; returns the item or ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            putter = self._putters.popleft()
            self._items.append(self._putter_items.popleft())
            putter.succeed(None)
        return item


class Gate:
    """Broadcast open/closed flag.

    ``wait()`` returns an event that fires as soon as the gate is (or
    becomes) open.  ``open()`` wakes every waiter; ``reset()`` closes the
    gate again for future waiters.
    """

    def __init__(self, sim: Simulator, opened: bool = False):
        self.sim = sim
        self._opened = opened
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        """Whether waiters currently pass straight through."""
        return self._opened

    def wait(self) -> Event:
        event = Event(self.sim)
        if self._opened:
            event._state = PROCESSED  # pass straight through, no heap event
        else:
            self._waiters.append(event)
        return event

    def open(self) -> None:
        if self._opened:
            return
        self._opened = True
        while self._waiters:
            self._waiters.popleft().succeed(None)

    def reset(self) -> None:
        self._opened = False


#: concurrent per-key workers of migration rebuild and crash repair
REBUILD_WINDOW = 4


def run_window(
    sim: Simulator,
    items: Iterable[Any],
    work: Callable[[Any], Generator],
    window: int,
    name: str = "worker",
) -> Generator:
    """Process generator: run ``work(item)`` for every item, at most
    ``window`` at once.

    ``min(window, len(items))`` workers (at least one) each take the next
    item in order and run its work to the end before taking another, so
    items start in order.  Returns when every worker has finished; an
    exception in one worker fails the join and is raised here.
    """
    queue = deque(items)

    def worker() -> Generator:
        while queue:
            yield from work(queue.popleft())

    workers = [
        sim.process(worker(), name="%s-%d" % (name, i))
        for i in range(min(window, len(queue)) or 1)
    ]
    yield sim.all_of(workers)
