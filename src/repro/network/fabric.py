"""The interconnect fabric: endpoints, links, and messaging protocols.

Timing model
------------

Every NIC has an egress and an ingress link with finite bandwidth.  A
transfer reserves both for ``size / bandwidth`` (reservations are made in
call order on a deterministic timeline, so concurrent transfers serialize
FIFO on whichever side is the bottleneck) and then takes one
``link_latency`` of propagation.  On top of the wire time, the messaging
protocol adds software costs:

- **eager** (size <= profile.eager_threshold): one software overhead, one
  wire transfer — small messages go out immediately with the data inline.
- **rendezvous** (larger): RTS and CTS control messages (a full round
  trip) before the payload moves via RDMA — matching the RDMA-Memcached
  behaviour the paper analyses (16 KB switchover, Section VI-C).
- **one-sided RDMA read/write**: posting overhead plus wire time; the
  remote CPU is never involved, which the server model exploits for
  RDMA-based Gets.

Functional model
----------------

Payloads are real Python objects (the KV layers ship actual bytes), so
data integrity is end-to-end testable.  Failed endpoints refuse traffic:
sends to a dead node fail after a detection delay, mirroring a reliable
connection (RC) queue pair transitioning to the error state.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Dict, Optional

from repro.network.profiles import ClusterProfile
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.simulation import Event, Simulator, Store
from repro.simulation.engine import _PRIORITY1, TRIGGERED

_new_event = object.__new__


class NetworkError(Exception):
    """Base class for fabric-level failures."""


class NodeUnreachableError(NetworkError):
    """The destination endpoint is marked failed (QP went to error state).

    ``message`` is the undelivered :class:`Message` of a two-sided send
    (``None`` for one-sided verbs), so a requester can tell which of its
    requests failed without a closure per send.
    """

    def __init__(self, node: str, message: Optional["Message"] = None):
        super().__init__("node %s is unreachable" % node)
        self.node = node
        self.message = message


#: Delay before a sender learns its peer is dead (RC transport error).
FAILURE_DETECT_DELAY = 20e-6


class FaultAction:
    """What a fault interceptor wants done to one transfer.

    Returned by an interceptor's ``on_message(...)``; ``None`` (the
    overwhelmingly common case) means "deliver normally".  The fabric
    applies the fields it understands for the path in question:

    - ``block``: the destination behaves partitioned — the operation
      fails with :class:`NodeUnreachableError` after the detection delay
      (all paths).
    - ``delay``: extra one-way latency (jitter/spike) added to the
      transfer time (all paths).
    - ``drop``: the message consumes wire time but never lands in the
      receiver's inbox/handler (two-sided sends only; one-sided verbs
      would hang their poster).
    - ``duplicate``: deliver the message a second time, ``duplicate``
      seconds after the first copy (two-sided sends only).
    - ``mutate``: callable applied to the payload at delivery time —
      bit-flip corruption injects here (two-sided sends only).
    """

    __slots__ = ("block", "drop", "delay", "duplicate", "mutate")

    def __init__(
        self,
        block: bool = False,
        drop: bool = False,
        delay: float = 0.0,
        duplicate: float = 0.0,
        mutate=None,
    ):
        self.block = block
        self.drop = drop
        self.delay = delay
        self.duplicate = duplicate
        self.mutate = mutate


class Message:
    """A delivered unit of communication (slotted: one per send).

    ``receiver`` (the destination :class:`Endpoint`) and ``action`` (the
    interceptor's :class:`FaultAction`, or ``None``) ride along so one
    fabric-wide callback can land any message: a send allocates no
    closure.
    """

    __slots__ = (
        "src",
        "dst",
        "size",
        "payload",
        "tag",
        "one_sided",
        "sent_at",
        "delivered_at",
        "receiver",
        "action",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        payload: Any = None,
        tag: str = "",
        one_sided: bool = False,
        sent_at: float = 0.0,
        receiver: Optional["Endpoint"] = None,
        action: Optional[FaultAction] = None,
    ):
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.tag = tag
        self.one_sided = one_sided
        self.sent_at = sent_at
        self.delivered_at = 0.0
        self.receiver = receiver
        self.action = action

    def __repr__(self) -> str:
        return "Message(src=%r, dst=%r, size=%r, tag=%r)" % (
            self.src,
            self.dst,
            self.size,
            self.tag,
        )


class Link:
    """A half-duplex bandwidth pipe with FIFO timeline reservation."""

    def __init__(self, sim: Simulator, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self.busy_until = 0.0

    def backlog(self) -> float:
        """Seconds of already-reserved transfer time ahead of a new send.

        The wire analogue of a queue depth: how far behind real time
        this link's FIFO timeline is running.  Overload telemetry reads
        it to tell wire congestion from server-CPU congestion.
        """
        return max(0.0, self.busy_until - self.sim.now)


def _reserve_pair(
    egress: Link, ingress: Link, nbytes: int, now: float
) -> float:
    """Reserve both sides of a transfer at ``now``; returns the completion
    *delay*.

    Each link serializes its own transfers independently (a NIC pipelines
    sends back-to-back; switch buffering decouples the two ends), and the
    transfer completes when the *later* side finishes its window.  This
    makes incast (many clients hitting one server) and fan-out (one client
    writing N chunks) contention emerge naturally without head-of-line
    coupling between unrelated flows.
    """
    # conditionals, not max(): this runs once per message
    e_start = egress.busy_until
    i_start = ingress.busy_until
    e_end = (e_start if e_start > now else now) + nbytes / egress.bandwidth
    i_end = (i_start if i_start > now else now) + nbytes / ingress.bandwidth
    egress.busy_until = e_end
    ingress.busy_until = i_end
    return (e_end if e_end > i_end else i_end) - now


class Endpoint:
    """One node's attachment to the fabric: links, inbox, liveness.

    Several endpoints may share one physical NIC (``shared_links``) — the
    paper deploys 15 YCSB clients per compute node, all contending for
    that node's HCA.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: ClusterProfile,
        shared_links: Optional[tuple] = None,
    ):
        self.sim = sim
        self.name = name
        self.profile = profile
        if shared_links is not None:
            self.egress, self.ingress = shared_links
        else:
            self.egress = Link(sim, profile.bandwidth)
            self.ingress = Link(sim, profile.bandwidth)
        self.inbox: Store = Store(sim)
        #: optional direct-dispatch hook: when set, delivered messages are
        #: handed to this callable at delivery time instead of queueing in
        #: the inbox — saving a heap event and a dispatcher wakeup per
        #: message on the KV request path.
        self.on_message = None
        self.alive = True
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def fail(self) -> None:
        """Mark the node dead: no traffic in or out from this instant."""
        self.alive = False

    def recover(self) -> None:
        """Bring the node back online."""
        self.alive = True


class Fabric:
    """A full-bisection fabric connecting all endpoints of a cluster."""

    def __init__(
        self,
        sim: Simulator,
        profile: ClusterProfile,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        self.events = events if events is not None else EventLog(sim)
        self._bytes_sent = self.metrics.counter("fabric.bytes_sent")
        self._messages = self.metrics.counter("fabric.messages")
        self._rdma_ops = self.metrics.counter("fabric.rdma_ops")
        self._unreachable = self.metrics.counter("fabric.unreachable")
        #: registered chaos hooks: objects with
        #: ``on_message(src, dst, size, payload, tag, one_sided)``
        #: returning a :class:`FaultAction` or ``None`` per transfer.
        self._interceptors: list = []
        #: compiled dispatch: ``None`` when no interceptor is registered
        #: (the hot path does one attribute test and nothing else), the
        #: single interceptor's bound ``on_message`` when there is exactly
        #: one, and a combining closure only when several are stacked.
        self._intercept = None
        self.endpoints: Dict[str, Endpoint] = {}
        self._hosts: Dict[str, tuple] = {}
        #: the delivery callback of every two-sided send, bound once
        self._deliver = self._land
        # Per-profile protocol constants, precomputed off the send path.
        p = profile
        # one control message (RTS/CTS): latency + negligible wire
        control_trip = p.link_latency + p.control_message_size / p.bandwidth
        self._eager_overhead = p.eager_overhead
        self._rendezvous_total = p.rendezvous_overhead + 2 * control_trip
        self._rendezvous_threshold = p.eager_threshold if p.is_rdma else None
        self._link_latency = p.link_latency

    # -- interceptor chain -------------------------------------------------
    def add_interceptor(self, interceptor) -> None:
        """Register a fault interceptor and recompile the dispatch.

        Interceptors are consulted in registration order; the first
        non-``None`` :class:`FaultAction` wins for a given transfer.
        """
        if interceptor in self._interceptors:
            return
        self._interceptors.append(interceptor)
        self._compile_intercept()

    def remove_interceptor(self, interceptor) -> None:
        """Unregister an interceptor (no-op when absent); recompiles."""
        try:
            self._interceptors.remove(interceptor)
        except ValueError:
            return
        self._compile_intercept()

    def _compile_intercept(self) -> None:
        interceptors = self._interceptors
        if not interceptors:
            self._intercept = None
        elif len(interceptors) == 1:
            self._intercept = interceptors[0].on_message
        else:
            hooks = [obj.on_message for obj in interceptors]

            def _chain(src, dst, size, payload, tag, one_sided):
                for hook in hooks:
                    action = hook(
                        src,
                        dst,
                        size=size,
                        payload=payload,
                        tag=tag,
                        one_sided=one_sided,
                    )
                    if action is not None:
                        return action
                return None

            self._intercept = _chain

    def add_node(self, name: str, host: Optional[str] = None) -> Endpoint:
        """Attach an endpoint.

        ``host`` names a physical machine: all endpoints with the same
        host share one NIC (egress/ingress link pair), modelling several
        client processes on one compute node.
        """
        if name in self.endpoints:
            raise ValueError("duplicate node name %r" % name)
        shared = None
        if host is not None:
            if host not in self._hosts:
                self._hosts[host] = (
                    Link(self.sim, self.profile.bandwidth),
                    Link(self.sim, self.profile.bandwidth),
                )
            shared = self._hosts[host]
        endpoint = Endpoint(self.sim, name, self.profile, shared_links=shared)
        self.endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        """Look up an endpoint by node name."""
        return self.endpoints[name]

    # -- protocol timing ---------------------------------------------------
    def _software_overhead(self, size: int) -> float:
        threshold = self._rendezvous_threshold
        if threshold is not None and size > threshold:
            # Rendezvous: RTS/CTS round trip before the payload moves.
            return self._rendezvous_total
        return self._eager_overhead

    def _refuse(
        self, src: str, dead: str, why: str, message: Optional[Message] = None
    ) -> Event:
        """A transfer the transport refuses: an event failing with
        :class:`NodeUnreachableError` after the detection delay."""
        self._unreachable.inc()
        self.events.emit("fabric.refusal", src=src, dst=dead, why=why)
        return Event(self.sim).fail(
            NodeUnreachableError(dead, message), delay=FAILURE_DETECT_DELAY
        )

    def _intercept_one_sided(self, src: str, dst: str, size: int, name: str):
        """Consult the chaos interceptor for a one-sided verb.

        One-sided verbs have no receive-side software, so only partition
        (``block``) and latency (``delay``) faults apply; drops would hang
        the poster forever.  Returns the extra delay to add, or ``None``
        when the verb is partitioned.
        """
        intercept = self._intercept
        if intercept is None:
            return 0.0
        action = intercept(
            src, dst, size=size, payload=None, tag=name, one_sided=True
        )
        if action is None:
            return 0.0
        return None if action.block else action.delay

    # -- operations ----------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        size: int,
        payload: Any = None,
        tag: str = "",
        one_sided: bool = False,
        parent=None,
    ) -> Event:
        """Two-sided message: delivered into ``dst``'s inbox.

        Returns an event that fires (with the :class:`Message`) at delivery
        time, or fails with :class:`NodeUnreachableError` after the
        detection delay when either end is dead.  ``parent`` (a span)
        links the transfer span under the caller's operation.
        """
        sender = self.endpoints[src]
        receiver = self.endpoints[dst]
        sim = self.sim

        if not sender.alive or not receiver.alive:
            return self._refuse(
                src,
                dst if not receiver.alive else src,
                "unreachable",
                Message(src, dst, size, payload, tag, one_sided, sim.now),
            )

        action = None
        intercept = self._intercept
        if intercept is not None:
            action = intercept(
                src, dst, size=size, payload=payload, tag=tag, one_sided=one_sided
            )
            if action is not None and action.block:
                return self._refuse(
                    src,
                    dst,
                    "partitioned",
                    Message(src, dst, size, payload, tag, one_sided, sim.now),
                )

        # This runs once per message: the protocol overhead and the link
        # reservation (see _software_overhead and _reserve_pair) are
        # inlined, with the same float operations in the same order.
        now = sim.now
        threshold = self._rendezvous_threshold
        if threshold is not None and size > threshold:
            overhead = self._rendezvous_total
        else:
            overhead = self._eager_overhead
        egress = sender.egress
        ingress = receiver.ingress
        e_start = egress.busy_until
        i_start = ingress.busy_until
        e_end = (e_start if e_start > now else now) + size / egress.bandwidth
        i_end = (i_start if i_start > now else now) + size / ingress.bandwidth
        egress.busy_until = e_end
        ingress.busy_until = i_end
        total = (
            overhead + ((e_end if e_end > i_end else i_end) - now)
        ) + self._link_latency
        if action is not None:
            total += action.delay
        sender.messages_sent += 1
        sender.bytes_sent += size
        self._messages.value += 1
        self._bytes_sent.value += size
        if self.tracer.enabled:
            self.tracer.record(
                "net:%s" % src,
                "%s %s->%s" % (tag or "send", src, dst),
                start=now,
                duration=total,
                category="transfer",
                parent=parent,
                size=size,
            )

        # The completion event is built in place and scheduled directly
        # at delivery time (not via a separate timeout that then triggers
        # it): one heap event per message, landed by _land.
        done = _new_event(Event)
        done.sim = sim
        done.callbacks = [self._deliver]
        done._value = Message(
            src, dst, size, payload, tag, one_sided, now, receiver, action
        )
        done._ok = True
        done._state = TRIGGERED
        done._defused = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (now + total, _PRIORITY1 + seq, done))

        if action is not None and action.duplicate > 0.0 and not action.drop:
            dup = Event(sim)
            dup._value = done._value
            dup._state = TRIGGERED
            dup.callbacks.append(self._land_again)
            sim._schedule(dup, total + action.duplicate)
        return done

    def _land(self, event: Event) -> None:
        """A send's completion event fired: deliver its message.

        The first callback on the event, run at delivery time and before
        any waiter.  A node that died in flight never sees the message
        land: the pre-scheduled success flips into a defused failure so
        waiters observe :class:`NodeUnreachableError`.
        """
        message = event._value
        receiver = message.receiver
        if not receiver.alive:
            event._ok = False
            event._value = NodeUnreachableError(message.dst, message)
            event._defused = True
            return
        action = message.action
        if action is not None:
            if action.drop:
                # The NIC sent it; the wire ate it.  The sender's local
                # completion still fires — reliable delivery is the upper
                # layers' (timeout/retry) problem.
                return
            if action.mutate is not None:
                message.payload = action.mutate(message.payload)
        message.delivered_at = self.sim.now
        receiver.messages_received += 1
        receiver.bytes_received += message.size
        handler = receiver.on_message
        if handler is None:
            receiver.inbox.put(message)
        else:
            handler(message)

    def _land_again(self, event: Event) -> None:
        """A ``duplicate`` fault's second copy (already mutated) lands."""
        message = event._value
        receiver = message.receiver
        if not receiver.alive:
            return
        receiver.messages_received += 1
        receiver.bytes_received += message.size
        handler = receiver.on_message
        if handler is None:
            receiver.inbox.put(message)
        else:
            handler(message)

    def rdma_write(self, src: str, dst: str, size: int, parent=None) -> Event:
        """One-sided RDMA write: remote CPU uninvolved; pure timing.

        Completes at the *sender* when the data is placed in remote
        memory: post overhead + wire + one latency.
        """
        return self._one_sided(
            src, dst, size, round_trips=0, name="rdma_write", parent=parent
        )

    def rdma_read(self, src: str, dst: str, size: int, parent=None) -> Event:
        """One-sided RDMA read: request goes out, data comes back.

        Completes after a request latency plus the data transfer on the
        *return* path (dst egress -> src ingress).
        """
        reader = self.endpoints[src]
        target = self.endpoints[dst]
        if not reader.alive or not target.alive:
            return self._refuse(
                src, dst if not target.alive else src, "unreachable"
            )
        extra = self._intercept_one_sided(src, dst, size, "rdma_read")
        if extra is None:
            return self._refuse(src, dst, "partitioned")
        p = self.profile
        wire_delay = _reserve_pair(
            target.egress, reader.ingress, size, self.sim.now
        )
        total = (
            p.rdma_post_overhead + p.link_latency + wire_delay + p.link_latency + extra
        )
        target.bytes_sent += size
        reader.bytes_received += size
        self._rdma_ops.inc()
        self._bytes_sent.inc(size)
        if self.tracer.enabled:
            self.tracer.record(
                "net:%s" % src,
                "rdma_read %s->%s" % (dst, src),
                start=self.sim.now,
                duration=total,
                category="transfer",
                parent=parent,
                size=size,
            )

        def _complete(event: Event) -> None:
            if not target.alive:  # target died mid-read
                event._ok = False
                event._value = NodeUnreachableError(dst)
                event._defused = True

        # Scheduled directly (see send()): one heap event, not two.
        done = Event(self.sim)
        done._ok = True
        done._value = size
        done._state = TRIGGERED
        done.callbacks.append(_complete)
        self.sim._schedule(done, total)
        return done

    def _one_sided(
        self,
        src: str,
        dst: str,
        size: int,
        round_trips: int,
        name: str = "rdma_write",
        parent=None,
    ) -> Event:
        sender = self.endpoints[src]
        receiver = self.endpoints[dst]
        if not sender.alive or not receiver.alive:
            return self._refuse(
                src, dst if not receiver.alive else src, "unreachable"
            )
        extra = self._intercept_one_sided(src, dst, size, name)
        if extra is None:
            return self._refuse(src, dst, "partitioned")
        p = self.profile
        wire_delay = _reserve_pair(
            sender.egress, receiver.ingress, size, self.sim.now
        )
        total = (
            p.rdma_post_overhead
            + wire_delay
            + p.link_latency
            + round_trips * 2 * p.link_latency
            + extra
        )
        sender.bytes_sent += size
        receiver.bytes_received += size
        self._rdma_ops.inc()
        self._bytes_sent.inc(size)
        if self.tracer.enabled:
            self.tracer.record(
                "net:%s" % src,
                "%s %s->%s" % (name, src, dst),
                start=self.sim.now,
                duration=total,
                category="transfer",
                parent=parent,
                size=size,
            )

        def _complete(event: Event) -> None:
            if not receiver.alive:  # receiver died mid-transfer
                event._ok = False
                event._value = NodeUnreachableError(dst)
                event._defused = True

        # Scheduled directly (see send()): one heap event, not two.
        done = Event(self.sim)
        done._ok = True
        done._value = size
        done._state = TRIGGERED
        done.callbacks.append(_complete)
        self.sim._schedule(done, total)
        return done
