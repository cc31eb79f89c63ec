"""Server-side admission control: bounded queues, sojourn shedding, lanes.

An unbounded worker queue is how a latency spike becomes a metastable
collapse: the server keeps burning CPU on requests whose clients timed
out long ago, which keeps fresh requests slow, which produces more
timeouts and retries.  The :class:`AdmissionController` bounds the queue
at three points:

- **admission**: a request arriving to a full queue is rejected on the
  spot with a typed ``SERVER_BUSY`` (near-zero CPU — the whole point is
  that saying *no* is cheap);
- **grant** (CoDel-style shed-on-dequeue): a request whose queue sojourn
  already exceeds the deadline is shed instead of served — by the time a
  slot freed up, its client has given up, so serving it would be pure
  zombie work;
- **priority lanes**: foreground Get/Set traffic is always granted ahead
  of background rebuild/read-repair traffic (``meta["lane"] == "bg"``),
  so recovery work can never starve the serving path.

Every enqueue/dequeue transition is observed on the server's
``server.<name>.queue_depth`` histogram, which is what the brownout
controller and the overload soak read.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.simulation.engine import PROCESSED, Event, Simulator
from repro.store.plan import AdmissionConfig

#: Ticket outcomes: a granted ticket holds a service slot (the holder
#: must call :meth:`AdmissionController.release`); a shed ticket does not.
GRANTED = "granted"
SHED = "shed"

#: Priority lanes.  Foreground (client Get/Set) always wins over
#: background (rebuild, migration, read-repair) at grant time.
LANE_FG = "fg"
LANE_BG = "bg"

#: EMA weight for the rolling service-time estimate behind retry-after.
_SERVICE_EMA_ALPHA = 0.2


class AdmissionController:
    """Bounded two-lane admission queue in front of a server's workers."""

    def __init__(
        self,
        sim: Simulator,
        slots: int,
        config: AdmissionConfig,
        service_estimate: float = 0.5e-3,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "server",
        depth_histogram=None,
    ):
        """Bound the queue with ``config``'s knobs (the
        :class:`~repro.store.plan.AdmissionConfig` owns their defaults)."""
        if slots < 1:
            raise ValueError("admission slots must be >= 1")
        self.sim = sim
        self.slots = slots
        self.max_queue = config.max_queue
        self.bg_max_queue = config.bg_max_queue
        self.sojourn_deadline = config.sojourn_deadline
        self.metrics = metrics or MetricsRegistry()
        self._depth = depth_histogram
        self._fg: Deque[Tuple[Event, float]] = deque()
        self._bg: Deque[Tuple[Event, float]] = deque()
        self._in_service = 0
        #: rolling EMA of observed service times, seeding the retry-after
        #: hint before the first request completes
        self._ema_service = service_estimate
        self.admitted = self.metrics.counter("server.%s.admitted" % name)
        self.rejected = self.metrics.counter("server.%s.rejected" % name)
        self.shed = self.metrics.counter("server.%s.shed" % name)

    # -- introspection -----------------------------------------------------
    @property
    def queued(self) -> int:
        """Requests waiting in either lane."""
        return len(self._fg) + len(self._bg)

    @property
    def in_service(self) -> int:
        """Requests currently holding a service slot."""
        return self._in_service

    @property
    def backlog(self) -> int:
        """Queued plus in-service — the depth hint piggybacked to clients."""
        return self.queued + self._in_service

    def retry_after(self) -> float:
        """Deterministic hint: when retrying is likely to find capacity.

        Estimated drain time of everything ahead of a hypothetical new
        arrival, floored at the sojourn deadline (retrying sooner than
        the shedding horizon is never useful).
        """
        drain = self._ema_service * (self.backlog + 1) / self.slots
        return max(self.sojourn_deadline, drain)

    # -- admission ---------------------------------------------------------
    def offer(self, lane: str = LANE_FG) -> Optional[Event]:
        """Ask for a service slot.

        Returns ``None`` when the lane's queue is full (reject now, send
        ``SERVER_BUSY``).  Otherwise returns a ticket event that fires
        with :data:`GRANTED` (a slot is held; call :meth:`release` when
        done) or :data:`SHED` (the request went stale in the queue; send
        ``SERVER_BUSY``, no slot is held).  Uncontended offers come back
        already processed, costing no heap event.
        """
        ticket = Event(self.sim)
        if self._in_service < self.slots and not self._fg and not self._bg:
            self._in_service += 1
            self.admitted.inc()
            ticket._value = GRANTED
            ticket._state = PROCESSED
            return ticket
        queue = self._fg if lane != LANE_BG else self._bg
        cap = self.max_queue if lane != LANE_BG else self.bg_max_queue
        if len(queue) >= cap:
            self.rejected.inc()
            return None
        queue.append((ticket, self.sim.now))
        self._observe_depth()
        return ticket

    def release(self, service_time: float = 0.0) -> None:
        """Return a slot after serving a granted request."""
        if self._in_service <= 0:
            raise RuntimeError("admission release() without a granted slot")
        self._in_service -= 1
        if service_time > 0.0:
            self._ema_service += _SERVICE_EMA_ALPHA * (
                service_time - self._ema_service
            )
        self._drain()

    def _drain(self) -> None:
        now = self.sim.now
        while self._in_service < self.slots:
            if self._fg:
                ticket, enqueued_at = self._fg.popleft()
            elif self._bg:
                ticket, enqueued_at = self._bg.popleft()
            else:
                return
            self._observe_depth()
            if now - enqueued_at > self.sojourn_deadline:
                # CoDel-style shed-on-dequeue: the request aged out while
                # waiting; its client has (or is about to have) timed out.
                self.shed.inc()
                ticket.succeed(SHED)
                continue
            self._in_service += 1
            self.admitted.inc()
            ticket.succeed(GRANTED)

    def _observe_depth(self) -> None:
        if self._depth is not None:
            self._depth.observe(self.queued)
