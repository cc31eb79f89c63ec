"""SWIM-style gossip membership: decentralized failure detection.

A single privileged process that pings every member is fine at 5
servers and a fiction at 1,000.  This module implements the SWIM
protocol (Das et al., DSN 2002) as hardened by memberlist/Serf instead:
every server runs its *own* protocol period on the virtual clock, so
detection load is O(1) per node per period no matter how large the
cluster grows, and no single observer's network position can condemn a
healthy node.

Per protocol period each :class:`SwimNode`:

1. **directly probes** one peer from a shuffled round-robin order (every
   member is probed within one traversal — SWIM's time-bounded
   completeness property);
2. on a miss, asks ``indirect_probes`` random proxies to **probe the
   target on its behalf** (``swim_ping_req``) — a node the prober cannot
   reach through an asymmetric partition is vouched for by peers with a
   working path;
3. if direct and indirect probes all fail, marks the target **SUSPECT**
   and starts a suspicion timer.  A suspect that does not refute within
   ``suspicion_periods`` protocol periods is declared **DEAD**.

Suspicion is refutable: every rumor carries the subject's *incarnation
number*, and a node that hears itself suspected bumps its incarnation
and gossips an ALIVE update that overrides the suspicion everywhere
(``Alive{i} > Suspect{j} iff i > j``; ``Dead`` overrides all for the
same incarnation; a *newer* incarnation revives even DEAD, which is how
a restarted node re-enters the ring).  This is what keeps a flapping or
briefly-slow node from being condemned — the exact false-positive storm
the Facebook EC study (PAPERS.md) blames for repair-traffic avalanches.

Dissemination is infection-style: updates (joins, suspicions, deaths,
departures, epoch seals) ride in the ``gsp`` metadata of every probe,
ack, and sync — no dedicated broadcast — each retransmitted
O(log n) times.  A slower **anti-entropy** full-state exchange
(``swim_sync``, push-pull, every ``sync_every`` periods) bounds
worst-case convergence even if piggyback budgets run dry.

The shared :class:`~repro.membership.epoch.MembershipTable` stays the
cluster's convergence target: the :class:`SwimDetector` coordinator
write-through (first local DEAD declaration → ``table.mark_dead``,
gossip-confirmed liveness → ``table.mark_alive``), so the planner,
:class:`RebuildScheduler` and chaos :class:`FailureInjector` are
untouched.  Epoch transitions flow the other way — joins, leaves and
seals observed on the table are injected as rumors at the affected node
plus an anchor, then gossip carries them to every local view.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.common.payload import Payload
from repro.membership.epoch import ALIVE, DEAD, SUSPECT, MembershipTable
from repro.store.protocol import Request, Response

__all__ = ["SwimDetector", "SwimNode"]

#: wire ops registered on every member server
OP_PING = "swim_ping"
OP_PING_REQ = "swim_ping_req"
OP_SYNC = "swim_sync"

#: rumor kinds (precedence rules live in :meth:`SwimNode._apply`)
K_ALIVE = "alive"
K_SUSPECT = "suspect"
K_DEAD = "dead"
K_JOIN = "join"
K_LEFT = "left"
K_EPOCH = "epoch"

#: accounted wire bytes per (member, state, incarnation) sync entry
SYNC_ENTRY_BYTES = 24


class SwimNode:
    """One server's local SWIM state machine and protocol-period loop.

    Holds this node's *view* — per-member state and incarnation — plus
    the bounded rumor buffer piggybacked onto outgoing traffic.  All
    randomness (probe order, proxy choice, sync partner, start stagger)
    comes from a per-node ``random.Random`` derived from the detector
    seed and the node name, so runs replay exactly.
    """

    def __init__(self, detector: "SwimDetector", server, rng: random.Random):
        self.detector = detector
        self.server = server
        self.name = server.name
        self.sim = server.sim
        self.rng = rng
        #: this node's own incarnation number (bumped only by refutation)
        self.incarnation = 0
        #: newest membership epoch number this view has heard of
        self.epoch = detector.table.current.number
        #: peer -> ALIVE / SUSPECT / DEAD (this node's view, not the table)
        self.states: Dict[str, str] = {}
        #: peer -> highest incarnation heard
        self.incs: Dict[str, int] = {}
        #: peer -> virtual time its suspicion expires into DEAD
        self.suspect_deadline: Dict[str, float] = {}
        #: members known to have left, and at which epoch (tombstones)
        self.departed: Dict[str, int] = {}
        #: rumor buffer: key -> [kind, member, incarnation, epoch, sends]
        self.updates: Dict[str, List] = {}
        self.msgs_sent = 0
        self._order: List[str] = []
        self._cursor = 0
        self._periods = 0
        self._was_down = False
        self._pending_sync = False
        self._detached = False
        for member in detector.table.current.members:
            if member != self.name:
                self.states[member] = ALIVE
                self.incs[member] = 0
        server.register_handler(OP_PING, self._handle_ping)
        server.register_handler(OP_PING_REQ, self._handle_ping_req)
        server.register_handler(OP_SYNC, self._handle_sync)

    # -- protocol period ----------------------------------------------------
    def _loop(self, horizon: Optional[float]):
        period = self.detector.config.period
        # deterministic per-node stagger keeps 1,000 probes from landing
        # on the same instant of every period
        yield self.sim.timeout(self.rng.uniform(0.0, period))
        while not self._detached and not self.detector._stopped:
            if horizon is not None and self.sim.now >= horizon:
                return
            yield self.sim.timeout(period)
            if self._detached or self.detector._stopped:
                return
            if horizon is not None and self.sim.now >= horizon:
                return
            if not self.server.alive:
                self._was_down = True
                continue
            self._maybe_rejoin()
            self._expire_suspects()
            yield from self._protocol_period()
            self._periods += 1
            sync_every = self.detector.config.sync_every
            if self._pending_sync or (
                sync_every and self._periods % sync_every == 0
            ):
                self._pending_sync = False
                yield from self._sync()

    def _protocol_period(self):
        target = self._next_target()
        if target is None:
            return
        response = yield self._send(
            target, OP_PING, timeout=self.detector.probe_timeout
        )
        if response.ok:
            self._absorb_response(target, response)
            return
        if self.states.get(target) in (None, DEAD):
            return
        # miss: ask k proxies to probe the target on our behalf
        vouched = False
        proxies = self._pick_proxies(target)
        if proxies:
            self.detector._indirect.inc()
            events = [
                (
                    proxy,
                    self._send(
                        proxy,
                        OP_PING_REQ,
                        key=target,
                        timeout=2 * self.detector.probe_timeout,
                    ),
                )
                for proxy in proxies
            ]
            for proxy, event in events:
                reply = yield event
                if not reply.ok:
                    continue
                self._absorb_response(proxy, reply)
                if reply.meta.get("tgt_ok"):
                    if not vouched:
                        self.detector._rescues.inc()
                    vouched = True
                    self._direct_alive(target, reply.meta.get("tgt_inc", 0))
        if not vouched:
            self._suspect_locally(target)

    def _next_target(self) -> Optional[str]:
        """Round-robin over a shuffled member list (SWIM §4.3)."""
        for _ in range(len(self.states) + 2):
            if self._cursor >= len(self._order):
                candidates = sorted(
                    m for m, st in self.states.items() if st != DEAD
                )
                if not candidates:
                    return None
                self.rng.shuffle(candidates)
                self._order = candidates
                self._cursor = 0
            member = self._order[self._cursor]
            self._cursor += 1
            if self.states.get(member, DEAD) != DEAD:
                return member
        return None

    def _pick_proxies(self, target: str) -> List[str]:
        candidates = sorted(
            m
            for m, st in self.states.items()
            if st == ALIVE and m != target
        )
        k = min(self.detector.config.indirect_probes, len(candidates))
        return self.rng.sample(candidates, k) if k else []

    # -- suspicion ----------------------------------------------------------
    def _suspect_locally(self, member: str) -> None:
        if self.states.get(member) != ALIVE:
            return
        self.states[member] = SUSPECT
        self.suspect_deadline[member] = (
            self.sim.now + self.detector.suspicion_time
        )
        self._enqueue(K_SUSPECT, member, self.incs.get(member, 0))
        self.detector.report_suspect(member, self.name)

    def _expire_suspects(self) -> None:
        now = self.sim.now
        expired = [m for m, t in self.suspect_deadline.items() if t <= now]
        for member in expired:
            del self.suspect_deadline[member]
            if self.states.get(member) == SUSPECT:
                self.states[member] = DEAD
                self._enqueue(K_DEAD, member, self.incs.get(member, 0))
                self.detector.report_dead(member, self.name)

    def _refute(self, heard_incarnation: int) -> None:
        """Someone is spreading rumors of our demise: out-bid them."""
        self.incarnation = heard_incarnation + 1
        self._enqueue(K_ALIVE, self.name, self.incarnation)
        self.detector._refutes.inc()
        self.detector.report_alive(self.name, self.name)

    def _maybe_rejoin(self) -> None:
        """Back from a crash: restart at incarnation 0 and re-sync.

        The node's old incarnation died with its process.  Rumors of its
        death (stamped with the old incarnation) are still circulating;
        the rejoin sync makes it hear them, refute with a higher
        incarnation, and revive itself in every view.
        """
        if not self._was_down:
            return
        self._was_down = False
        self.incarnation = 0
        self.suspect_deadline.clear()
        self._enqueue(K_ALIVE, self.name, 0)
        self._pending_sync = True

    # -- rumor application --------------------------------------------------
    def _apply(self, kind: str, member: str, inc: int, epoch: int) -> None:
        """Merge one rumor into the view under SWIM precedence rules.

        A rumor that *changes* the view is re-enqueued with a fresh
        transmit budget (infection-style spread); one that does not is
        dropped, which is what stops stale rumors circulating forever.
        """
        if epoch > self.epoch:
            self.epoch = epoch
        if kind == K_EPOCH:
            return  # the epoch stamp above was the whole payload
        if member == self.name:
            if kind in (K_SUSPECT, K_DEAD) and inc >= self.incarnation:
                self._refute(inc)
            return
        current = self.states.get(member)
        current_inc = self.incs.get(member, -1)
        if kind == K_LEFT:
            if current is None:
                return
            self._forget(member, epoch)
            self._enqueue(K_LEFT, member, inc)
            return
        if kind in (K_ALIVE, K_JOIN):
            if current is None:
                departed_at = self.departed.get(member)
                if departed_at is not None and not (
                    kind == K_JOIN and epoch > departed_at
                ):
                    return  # stale rumor about a departed member
                self.departed.pop(member, None)
                self.states[member] = ALIVE
                self.incs[member] = max(inc, 0)
            elif inc > current_inc:
                # Alive{i} overrides Suspect{j}/Dead{j} iff i > j — a
                # newer incarnation is the subject's own refutation (or
                # its restart), so even DEAD is revived.
                self.states[member] = ALIVE
                self.incs[member] = inc
                self.suspect_deadline.pop(member, None)
                if current in (SUSPECT, DEAD):
                    self.detector.report_alive(member, self.name)
            else:
                return
            self._enqueue(kind, member, self.incs[member])
            return
        if kind == K_SUSPECT:
            if current is None or current == DEAD:
                return
            # Suspect{i} overrides Alive{j} iff i >= j, Suspect{j} iff i > j
            if inc > current_inc or (inc == current_inc and current == ALIVE):
                self.states[member] = SUSPECT
                self.incs[member] = max(current_inc, inc)
                # third parties run the suspicion timer too, so a death
                # is declared even if the original suspecter crashes
                self.suspect_deadline.setdefault(
                    member, self.sim.now + self.detector.suspicion_time
                )
                self._enqueue(K_SUSPECT, member, inc)
                self.detector.report_suspect(member, self.name)
            return
        if kind == K_DEAD:
            if current is None or current == DEAD:
                return
            if inc < current_inc:
                # Dead{i} overrides Alive{j}/Suspect{j} iff i >= j: a
                # stale death rumor must not re-condemn a node that has
                # since refuted (or restarted) with a newer incarnation.
                return
            self.states[member] = DEAD
            self.incs[member] = max(current_inc, inc)
            self.suspect_deadline.pop(member, None)
            self._enqueue(K_DEAD, member, inc)
            self.detector.report_dead(member, self.name)

    def _direct_alive(self, member: str, inc: int) -> None:
        """First-hand liveness evidence (a message from, or an ack by,
        ``member``) — clears local suspicion even at an equal
        incarnation, where a mere rumor could not."""
        if member == self.name:
            return
        current = self.states.get(member)
        if current is None:
            self._apply(K_ALIVE, member, inc, self.epoch)
            return
        known = self.incs.get(member, -1)
        if inc > known:
            self.incs[member] = inc
        if current != ALIVE and inc >= known:
            self.states[member] = ALIVE
            self.suspect_deadline.pop(member, None)
            self.detector.report_alive(member, self.name)

    def _forget(self, member: str, epoch: int) -> None:
        self.states.pop(member, None)
        self.incs.pop(member, None)
        self.suspect_deadline.pop(member, None)
        self.departed[member] = epoch

    # -- dissemination ------------------------------------------------------
    def _enqueue(self, kind: str, member: str, inc: int) -> None:
        key = "#epoch" if kind == K_EPOCH else member
        self.updates[key] = [kind, member, inc, self.epoch, 0]

    def _select_piggyback(self) -> Tuple:
        """Pick the least-transmitted rumors for one outgoing message."""
        if not self.updates:
            return ()
        limit = self.detector.retransmit_limit
        picked = sorted(
            self.updates.items(), key=lambda kv: (kv[1][4], kv[0])
        )[: self.detector.config.piggyback_limit]
        out = []
        for key, record in picked:
            out.append((record[0], record[1], record[2], record[3]))
            record[4] += 1
            if record[4] >= limit:
                del self.updates[key]
        return tuple(out)

    def _stamp(self, meta: dict) -> dict:
        meta["gsp"] = self._select_piggyback()
        meta["inc"] = self.incarnation
        meta["ep"] = self.epoch
        return meta

    def _send(self, dst, op, key="", timeout=None, value=None, extra=None):
        self.msgs_sent += 1
        meta = self._stamp({})
        if extra:
            meta.update(extra)
        return self.server.send_request(
            dst, op, key or dst, value=value, meta=meta, timeout=timeout
        )

    def _absorb_request(self, request: Request) -> None:
        meta = request.meta
        epoch = meta.get("ep")
        if epoch is not None and epoch > self.epoch:
            self.epoch = epoch
        inc = meta.get("inc")
        if inc is not None:
            self._direct_alive(request.reply_to, inc)
        for kind, member, rumor_inc, rumor_epoch in meta.get("gsp", ()):
            self._apply(kind, member, rumor_inc, rumor_epoch)

    def _absorb_response(self, sender: str, response: Response) -> None:
        meta = response.meta
        epoch = meta.get("ep")
        if epoch is not None and epoch > self.epoch:
            self.epoch = epoch
        inc = meta.get("inc")
        if inc is not None:
            self._direct_alive(sender, inc)
        for kind, member, rumor_inc, rumor_epoch in meta.get("gsp", ()):
            self._apply(kind, member, rumor_inc, rumor_epoch)

    # -- anti-entropy -------------------------------------------------------
    def _state_digest(self) -> Tuple:
        entries = [(self.name, ALIVE, self.incarnation)]
        for member in sorted(self.states):
            entries.append((member, self.states[member], self.incs[member]))
        return tuple(entries)

    def _merge_digest(self, entries) -> None:
        kind_of = {ALIVE: K_ALIVE, SUSPECT: K_SUSPECT, DEAD: K_DEAD}
        for member, state, inc in entries:
            kind = kind_of.get(state)
            if kind is not None:
                self._apply(kind, member, inc, self.epoch)

    def _sync(self):
        peers = sorted(m for m, st in self.states.items() if st != DEAD)
        if not peers:
            return
        peer = self.rng.choice(peers)
        digest = self._state_digest()
        self.detector._syncs.inc()
        response = yield self._send(
            peer,
            OP_SYNC,
            timeout=2 * self.detector.probe_timeout,
            value=Payload.sized(SYNC_ENTRY_BYTES * len(digest)),
            extra={"sync": digest},
        )
        if response.ok:
            self._absorb_response(peer, response)
            self._merge_digest(response.meta.get("sync", ()))

    # -- wire handlers (registered on the member server) --------------------
    def _handle_ping(self, server, request):
        yield from server.cpu(0.0)  # parse cost charged by the server loop
        self._maybe_rejoin()
        self._absorb_request(request)
        return Response(
            req_id=request.req_id,
            ok=True,
            server=self.name,
            meta=self._stamp({}),
        )

    def _handle_ping_req(self, server, request):
        self._maybe_rejoin()
        self._absorb_request(request)
        target = request.key
        reply = yield self._send(
            target, OP_PING, timeout=self.detector.probe_timeout
        )
        ok = bool(reply.ok)
        if ok:
            self._absorb_response(target, reply)
        return Response(
            req_id=request.req_id,
            ok=True,
            server=self.name,
            meta=self._stamp(
                {
                    "tgt_ok": ok,
                    "tgt_inc": reply.meta.get("inc", 0) if ok else 0,
                }
            ),
        )

    def _handle_sync(self, server, request):
        yield from server.cpu(0.0)
        self._maybe_rejoin()
        self._absorb_request(request)
        self._merge_digest(request.meta.get("sync", ()))
        digest = self._state_digest()
        return Response(
            req_id=request.req_id,
            ok=True,
            server=self.name,
            value=Payload.sized(SYNC_ENTRY_BYTES * len(digest)),
            meta=self._stamp({"sync": digest}),
        )

    def uninstall(self) -> None:
        self._detached = True
        unregister = getattr(self.server, "unregister_handler", None)
        if unregister is not None:
            for op in (OP_PING, OP_PING_REQ, OP_SYNC):
                unregister(op)


class SwimDetector:
    """Cluster-side coordinator: one :class:`SwimNode` per server.

    Reads the protocol parameters from its ``MembershipConfig``
    (:attr:`config`), attaches/detaches nodes as the
    membership table opens epochs, and write-throughs locally-declared
    transitions into the shared table (first declaration wins — the
    table's own guards keep chaos- and gossip-driven bookkeeping from
    double-counting).  Every table-level suspicion and death is a
    ``swim.suspect``/``swim.dead`` event (``member``, ``by``) in the
    cluster's event log: the suspicion is SWIM's own "time to detect"
    (expected e/(e-1) protocol periods after the failure), the death
    comes after the suspicion window.
    """

    def __init__(self, cluster, config):
        """Build from a :class:`~repro.core.features.MembershipConfig`,
        which owns every protocol knob's default and check."""
        self.cluster = cluster
        self.sim = cluster.sim
        self.table: MembershipTable = cluster.membership
        self.config = config
        self.probe_timeout = (
            config.timeout if config.timeout is not None else config.period / 4
        )
        self.suspicion_time = config.suspicion_periods * config.period
        self.nodes: Dict[str, SwimNode] = {}
        self._started = False
        self._stopped = False
        self._horizon: Optional[float] = None
        metrics = cluster.metrics
        self._suspects = metrics.counter("membership.detector_suspects")
        self._deaths = metrics.counter("membership.detector_deaths")
        self._heals = metrics.counter("membership.swim_heals")
        self._refutes = metrics.counter("membership.swim_refutes")
        self._indirect = metrics.counter("membership.swim_indirect")
        self._rescues = metrics.counter("membership.swim_rescues")
        self._syncs = metrics.counter("membership.swim_syncs")
        self.retransmit_limit = 4
        for name in sorted(cluster.servers):
            self.attach(cluster.servers[name])
        self.table.observers.append(self._on_epoch_change)
        self.table.seal_observers.append(self._on_epoch_seal)

    # -- node lifecycle -----------------------------------------------------
    def attach(self, server) -> SwimNode:
        """Create (idempotently) the SWIM state machine for one server."""
        node = self.nodes.get(server.name)
        if node is not None:
            return node
        # seeded by name, not attach order: joining the same server later
        # in a run draws the identical stream
        rng = random.Random("swim:%d:%s" % (self.config.seed, server.name))
        node = SwimNode(self, server, rng)
        self.nodes[server.name] = node
        self._recompute_retransmit_limit()
        if self._started:
            self.sim.process(
                node._loop(self._horizon), name="swim-%s" % server.name
            )
        return node

    def detach(self, name: str) -> None:
        node = self.nodes.pop(name, None)
        if node is not None:
            node.uninstall()
            self._recompute_retransmit_limit()

    def _recompute_retransmit_limit(self) -> None:
        n = max(len(self.nodes), 2)
        self.retransmit_limit = max(
            4, int(round(self.config.retransmit_factor * math.log2(n)))
        )

    def start(self, horizon: Optional[float] = None) -> None:
        """Launch every node's protocol-period loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self._horizon = horizon
        for name in sorted(self.nodes):
            self.sim.process(
                self.nodes[name]._loop(horizon), name="swim-%s" % name
            )

    def stop(self) -> None:
        """Stop all loops at their next wakeup."""
        self._stopped = True

    def uninstall(self) -> None:
        """Tear down: stop loops, unregister handlers, drop observers."""
        self.stop()
        for name in list(self.nodes):
            node = self.nodes.pop(name)
            node.uninstall()
        for observers, callback in (
            (self.table.observers, self._on_epoch_change),
            (self.table.seal_observers, self._on_epoch_seal),
        ):
            try:
                observers.remove(callback)
            except ValueError:
                pass

    # -- table write-through ------------------------------------------------
    def report_suspect(self, member: str, by: str) -> None:
        if member not in self.table.current.members:
            return
        if self.table.suspect(member):
            self._suspects.inc()
            self.cluster.events.emit("swim.suspect", member=member, by=by)

    def report_dead(self, member: str, by: str) -> None:
        if member not in self.table.current.members:
            return
        if self.table.mark_dead(member):
            self._deaths.inc()
            self.cluster.events.emit("swim.dead", member=member, by=by)

    def report_alive(self, member: str, by: str) -> None:
        if member not in self.table.current.members:
            return
        if self.table.mark_alive(member):
            self._heals.inc()

    # -- epoch propagation --------------------------------------------------
    def _anchor(self, exclude=()) -> Optional[SwimNode]:
        """The first alive node (by name) — where table-side events are
        injected as rumors so gossip can carry them everywhere."""
        for name in sorted(self.nodes):
            if name in exclude:
                continue
            node = self.nodes[name]
            if node.server.alive:
                return node
        return None

    def _on_epoch_change(self, old, new) -> None:
        added = [m for m in new.members if m not in old.members]
        removed = [m for m in old.members if m not in new.members]
        for name in added:
            server = self.cluster.servers.get(name)
            if server is not None:
                node = self.attach(server)
                node.epoch = new.number
                node.departed.pop(name, None)
                node._enqueue(K_JOIN, name, 0)
        anchor = self._anchor(exclude=set(added) | set(removed))
        if anchor is not None:
            if anchor.epoch < new.number:
                anchor.epoch = new.number
            for name in added:
                anchor._apply(K_JOIN, name, 0, new.number)
            for name in removed:
                anchor._apply(K_LEFT, name, 0, new.number)
        for name in removed:
            self.detach(name)

    def _on_epoch_seal(self, epoch) -> None:
        anchor = self._anchor()
        if anchor is not None:
            if anchor.epoch < epoch.number:
                anchor.epoch = epoch.number
            anchor._enqueue(K_EPOCH, "", 0)

    # -- telemetry ----------------------------------------------------------
    def messages_sent(self) -> int:
        """Total SWIM messages originated across all nodes."""
        return sum(node.msgs_sent for node in self.nodes.values())

    def view_epochs(self) -> Dict[str, int]:
        """Each alive node's current epoch number (convergence gate)."""
        return {
            name: node.epoch
            for name, node in sorted(self.nodes.items())
            if node.server.alive
        }

    def view_dead_sets(self) -> Dict[str, Tuple[str, ...]]:
        """Each alive node's DEAD set (view-agreement gate)."""
        return {
            name: tuple(
                sorted(m for m, st in node.states.items() if st == DEAD)
            )
            for name, node in sorted(self.nodes.items())
            if node.server.alive
        }
