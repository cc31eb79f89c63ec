"""The chaos engine: seeded, deterministic fault injection for a cluster.

:class:`ChaosEngine` plugs into two seams the rest of the stack already
exposes:

- it registers on the fabric's interceptor chain
  (``fabric.add_interceptor``), so every transfer asks it for a
  :class:`~repro.network.fabric.FaultAction` (drop, duplicate, corrupt,
  delay, partition-block);
- it runs scheduler processes on the virtual clock for node-level events:
  crash/restart schedules, partitions + heals, gray "slow node" CPU
  throttling, and bit rot in stored memory.

Determinism: all randomness comes from two ``random.Random`` streams
derived from one seed (one for per-message draws, one for the
schedulers), and every draw happens at a deterministic point of the
simulation — the same seed replays the identical events byte for byte.
Every injected fault is a ``chaos.fault`` event (``fault``, ``detail``)
in the cluster's event log; each rotted item is also a ``chaos.rot``
event (``server``, ``key``), the scrubber's ground truth.  Corrupted
payloads are *copies*: the victim bytes are flipped in a fresh
:class:`~repro.common.payload.Payload` inside a fresh wire record, never
in the sender's shared objects.

Safety budget: the engine never degrades more than ``max_degraded``
servers at once (default: the scheme's tolerated failures ``m``, one
fewer when the profile rots and ``m > 1``: bit rot erases chunks the
budget does not count, so one tolerated failure is kept as its slack).
"Degraded" counts partitioned servers plus crashed servers whose data
has not been re-materialized — a restarted-but-empty node still counts
against the budget until :meth:`mark_repaired` is called (e.g. by a
repair process hooked via :attr:`on_crash`).  This is what makes the
durability invariant *testable*: any loss under this budget is a bug,
not bad luck.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional, Set, Tuple, Union

from repro.common.payload import Payload
from repro.faults.profiles import FaultProfile, profile_by_name
from repro.membership.epoch import MembershipError
from repro.network.fabric import FaultAction
from repro.resilience.recovery import FailureInjector


class ChaosEngine:
    """Injects one :class:`FaultProfile` into a live cluster, seeded."""

    def __init__(
        self,
        cluster,
        profile: Union[FaultProfile, str],
        seed: int = 0,
        max_degraded: Optional[int] = None,
    ):
        if not isinstance(profile, FaultProfile):
            # an unknown name raises KeyError before anything attaches
            profile = profile_by_name(profile)
        self.cluster = cluster
        self.sim = cluster.sim
        self.profile = profile
        self.seed = seed
        base = random.Random(seed)
        #: per-message draws (interceptor) and scheduler draws come from
        #: separate streams so adding a message fault does not reshuffle
        #: the crash schedule of the same seed.
        self.msg_rng = random.Random(base.getrandbits(64))
        self.sched_rng = random.Random(base.getrandbits(64))
        self.injector = FailureInjector(cluster)
        self.events = cluster.events
        tolerated = cluster.scheme.tolerated_failures
        if max_degraded is None:  # rot's slack: see the module docstring
            rots = profile.bitrot_rate > 0 and tolerated > 1
            max_degraded = tolerated - 1 if rots else tolerated
        self.max_degraded = max_degraded
        #: servers currently isolated from all traffic
        self.partitioned: Set[str] = set()
        #: directed ``(src, dst)`` pairs whose messages are blocked —
        #: partial/asymmetric partitions (``src`` can't reach ``dst``;
        #: the reverse direction may still flow)
        self.partition_links: Set[Tuple[str, str]] = set()
        #: victims of scheduled partial-partition episodes (budgeted)
        self.partial_victims: Set[str] = set()
        #: servers that crashed and whose data was not rebuilt yet; they
        #: stay budget-degraded even after restarting with empty memory
        self.unrepaired: Set[str] = set()
        #: servers currently in a slow (CPU-throttled) episode
        self.slowed: Set[str] = set()
        #: optional callback(server_name) fired on each crash, the hook
        #: a repair manager uses to rebuild and then mark_repaired()
        self.on_crash: Optional[Callable[[str], None]] = None

        metrics = cluster.metrics
        self._dropped = metrics.counter("faults.dropped")
        self._duplicated = metrics.counter("faults.duplicated")
        self._corrupted = metrics.counter("faults.corrupted")
        self._delayed = metrics.counter("faults.delayed")
        self._blocked = metrics.counter("faults.partition_blocks")
        self._crashes = metrics.counter("faults.crashes")
        self._restarts = metrics.counter("faults.restarts")
        self._repairs = metrics.counter("faults.repairs")
        self._partitions = metrics.counter("faults.partitions")
        self._partial_partitions = metrics.counter("faults.partial_partitions")
        self._heals = metrics.counter("faults.heals")
        self._slow_episodes = metrics.counter("faults.slow_episodes")
        self._bitrot = metrics.counter("faults.bitrot")
        self._joins = metrics.counter("faults.joins")
        self._leaves = metrics.counter("faults.leaves")
        self._churn_joins = 0

        cluster.fabric.add_interceptor(self)

    # -- bookkeeping ---------------------------------------------------------
    @property
    def degraded(self) -> Set[str]:
        """Servers currently counting against the fault budget.

        Intersected with the live server map: a server that has since
        been retired (scaled in) no longer holds data, so it stops
        consuming budget the moment it leaves the cluster.
        """
        return (
            self.partitioned | self.partial_victims | self.unrepaired
        ) & set(self.cluster.servers)

    def _note(self, kind: str, detail: str) -> None:
        self.events.emit("chaos.fault", fault=kind, detail=detail)

    def mark_repaired(self, name: str) -> None:
        """Declare a crashed server's data rebuilt: frees budget."""
        if name in self.unrepaired:
            self.unrepaired.discard(name)
            self._repairs.inc()
            self._note("repaired", name)

    def uninstall(self) -> None:
        """Detach from the fabric (scheduler loops stop at their
        horizon)."""
        self.cluster.fabric.remove_interceptor(self)

    # -- per-message interceptor ---------------------------------------------
    def on_message(
        self,
        src: str,
        dst: str,
        size: int = 0,
        payload=None,
        tag: str = "",
        one_sided: bool = False,
    ) -> Optional[FaultAction]:
        """Fabric hook: decide this transfer's fate.  All draws happen
        here, at send time, so replay order is the simulator's event
        order — deterministic for a given seed."""
        if (
            src in self.partitioned
            or dst in self.partitioned
            or (src, dst) in self.partition_links
        ):
            self._blocked.inc()
            return FaultAction(block=True)

        profile = self.profile
        if not profile.has_message_faults:
            return None
        rng = self.msg_rng
        action = None

        if not one_sided:
            if profile.drop_rate and rng.random() < profile.drop_rate:
                self._dropped.inc()
                self._note("drop", "%s->%s %s" % (src, dst, tag))
                return FaultAction(drop=True)
            if profile.duplicate_rate and rng.random() < profile.duplicate_rate:
                action = action or FaultAction()
                action.duplicate = profile.duplicate_lag
                self._duplicated.inc()
                self._note("duplicate", "%s->%s %s" % (src, dst, tag))
            if profile.corrupt_rate:
                value = getattr(payload, "value", None)
                if value is not None and value.has_data and value.size > 0:
                    if rng.random() < profile.corrupt_rate:
                        action = action or FaultAction()
                        action.mutate = self._corrupter(
                            rng.randrange(len(value.data)), rng.randrange(8)
                        )
                        self._corrupted.inc()
                        self._note("corrupt", "%s->%s %s" % (src, dst, tag))

        delay = 0.0
        if profile.jitter_rate and rng.random() < profile.jitter_rate:
            delay += rng.expovariate(1.0 / profile.jitter)
        if profile.spike_rate and rng.random() < profile.spike_rate:
            spike = rng.expovariate(1.0 / profile.spike)
            delay += spike
            self._note("spike", "%s->%s +%.0fus" % (src, dst, spike * 1e6))
        if delay > 0.0:
            action = action or FaultAction()
            action.delay = delay
            self._delayed.inc()
        return action

    @staticmethod
    def _corrupter(pos: int, bit: int):
        """Build a mutate hook flipping one pre-drawn bit of the payload.

        The hook runs at delivery time and must not touch shared state:
        it returns a *new* wire record wrapping a *new* Payload, leaving
        the sender's copy (kept for retries) pristine.
        """

        def mutate(wire):
            value = getattr(wire, "value", None)
            if value is None or not value.has_data or not value.data:
                return wire
            data = bytearray(value.data)
            data[pos % len(data)] ^= 1 << bit
            fresh = Payload.from_bytes(bytes(data))
            replace = getattr(wire, "replace", None)
            if replace is not None:  # slotted wire records (Request/Response)
                return replace(value=fresh)
            return dataclasses.replace(wire, value=fresh)

        return mutate

    # -- scheduled node-level faults -------------------------------------------
    def start(self, horizon: float) -> None:
        """Launch the scheduler loops; they stop injecting at ``horizon``."""
        profile = self.profile
        if profile.crash_rate > 0:
            self.sim.process(self._crash_loop(horizon), name="chaos-crash")
        if profile.partition_rate > 0:
            self.sim.process(
                self._partition_loop(horizon), name="chaos-partition"
            )
        if profile.partial_partition_rate > 0:
            self.sim.process(
                self._partial_partition_loop(horizon),
                name="chaos-partial-partition",
            )
        if profile.slow_rate > 0:
            self.sim.process(self._slow_loop(horizon), name="chaos-slow")
        if profile.bitrot_rate > 0:
            self.sim.process(self._bitrot_loop(horizon), name="chaos-bitrot")
        if profile.join_rate > 0 or profile.leave_rate > 0:
            self.sim.process(self._churn_loop(horizon), name="chaos-churn")

    def _pick_degradable(self) -> Optional[str]:
        """A server the budget allows taking down, or ``None``."""
        if len(self.degraded) >= self.max_degraded:
            return None
        degraded = self.degraded
        candidates = sorted(
            name
            for name, server in self.cluster.servers.items()
            if name not in degraded and server.alive
        )
        if not candidates:
            return None
        return self.sched_rng.choice(candidates)

    def _crash_loop(self, horizon: float):
        profile = self.profile
        rng = self.sched_rng
        while True:
            yield self.sim.timeout(rng.expovariate(profile.crash_rate))
            if self.sim.now >= horizon:
                return
            target = self._pick_degradable()
            downtime = rng.expovariate(1.0 / profile.crash_downtime)
            if target is None:
                continue  # budget exhausted; draw stays (determinism)
            self.unrepaired.add(target)
            self.injector.fail_now([target])  # emits the "fail" fault
            self._crashes.inc()
            if self.on_crash is not None:
                self.on_crash(target)
            self.sim.process(
                self._restart_later(target, downtime),
                name="chaos-restart-%s" % target,
            )

    def _restart_later(self, name: str, downtime: float):
        yield self.sim.timeout(downtime)
        server = self.cluster.servers.get(name)
        if server is None or server.alive:
            return  # decommissioned meanwhile, or already healed (heal_all)
        self.injector.recover_now([name])  # emits the "recover" fault
        self._restarts.inc()
        # stays in self.unrepaired until mark_repaired(): the node is up
        # but empty, so its chunks are still lost.

    def _partition_loop(self, horizon: float):
        profile = self.profile
        rng = self.sched_rng
        while True:
            yield self.sim.timeout(rng.expovariate(profile.partition_rate))
            if self.sim.now >= horizon:
                return
            target = self._pick_degradable()
            duration = rng.expovariate(1.0 / profile.partition_duration)
            if target is None:
                continue
            self.partitioned.add(target)
            self._partitions.inc()
            self._note("partition", target)
            self.sim.process(
                self._heal_later(target, duration),
                name="chaos-heal-%s" % target,
            )

    def _heal_later(self, name: str, duration: float):
        yield self.sim.timeout(duration)
        if name in self.partitioned:
            self.partitioned.discard(name)
            self._heals.inc()
            self._note("heal", name)

    # -- partial (asymmetric) partitions -------------------------------------
    def partition_link(self, src: str, dst: str) -> None:
        """Block the directed link ``src -> dst`` (the reverse still flows).

        Manual hook for tests and harnesses; scheduled episodes come from
        the profile's ``partial_partition_rate``.  Manual links do not
        count against the degradation budget — the caller owns the blast
        radius.
        """
        self.partition_links.add((src, dst))
        self._note("partition_link", "%s->%s" % (src, dst))

    def heal_link(self, src: str, dst: str) -> None:
        """Unblock a directed link previously cut by :meth:`partition_link`."""
        if (src, dst) in self.partition_links:
            self.partition_links.discard((src, dst))
            self._note("heal_link", "%s->%s" % (src, dst))

    def _partial_partition_loop(self, horizon: float):
        """One victim loses a random subset of its links, one-way.

        Direction is drawn per episode: *inbound* (peers can't reach the
        victim — its own probes still leave) or *outbound* (the victim
        can't reach those peers — it looks deaf to its own probes while
        everyone else sees it fine).  Both are rescueable by indirect
        probing; neither is modelable with the node-level set.
        """
        profile = self.profile
        rng = self.sched_rng
        while True:
            yield self.sim.timeout(
                rng.expovariate(profile.partial_partition_rate)
            )
            if self.sim.now >= horizon:
                return
            target = self._pick_degradable()
            duration = rng.expovariate(
                1.0 / profile.partial_partition_duration
            )
            inbound = rng.random() < 0.5
            if target is None:
                continue  # budget exhausted; draws stay (determinism)
            peers = sorted(
                name
                for name, server in self.cluster.servers.items()
                if name != target and server.alive
            )
            if not peers:
                continue
            count = max(1, int(len(peers) * profile.partial_fanout))
            cut = rng.sample(peers, min(count, len(peers)))
            links = {
                (peer, target) if inbound else (target, peer)
                for peer in cut
            }
            self.partial_victims.add(target)
            self.partition_links |= links
            self._partial_partitions.inc()
            self._note(
                "partial_partition",
                "%s %s x%d" % (
                    target, "inbound" if inbound else "outbound", len(links)
                ),
            )
            self.sim.process(
                self._heal_links_later(target, links, duration),
                name="chaos-heal-links-%s" % target,
            )

    def _heal_links_later(self, name: str, links, duration: float):
        yield self.sim.timeout(duration)
        if name in self.partial_victims:
            self.partial_victims.discard(name)
            self.partition_links -= links
            self._heals.inc()
            self._note("partial_heal", name)

    def _slow_loop(self, horizon: float):
        profile = self.profile
        rng = self.sched_rng
        while True:
            yield self.sim.timeout(rng.expovariate(profile.slow_rate))
            if self.sim.now >= horizon:
                return
            duration = rng.expovariate(1.0 / profile.slow_duration)
            candidates = sorted(
                name
                for name, server in self.cluster.servers.items()
                if server.alive and name not in self.slowed
            )
            if not candidates:
                continue
            target = rng.choice(candidates)
            self.slowed.add(target)
            self.cluster.servers[target].cpu_throttle = profile.slow_factor
            self._slow_episodes.inc()
            self._note("slow", "%s x%g" % (target, profile.slow_factor))
            self.sim.process(
                self._unslow_later(target, duration),
                name="chaos-unslow-%s" % target,
            )

    def _unslow_later(self, name: str, duration: float):
        yield self.sim.timeout(duration)
        if name in self.slowed:
            self.slowed.discard(name)
            self.cluster.servers[name].cpu_throttle = 1.0
            self._note("slow_end", name)

    def _churn_loop(self, horizon: float):
        """Membership churn: joins and graceful leaves, serialized.

        The loop drives each migration to completion with ``yield from``
        before drawing the next event, so there is never more than one
        open epoch — matching the membership table's invariant — and the
        churn schedule stays deterministic in virtual time.
        """
        profile = self.profile
        rng = self.sched_rng
        rate = profile.join_rate + profile.leave_rate
        while True:
            yield self.sim.timeout(rng.expovariate(rate))
            if self.sim.now >= horizon:
                return
            join = rng.random() < profile.join_rate / rate
            try:
                if join:
                    self._churn_joins += 1
                    name = "churn-%d" % self._churn_joins
                    self._joins.inc()
                    self._note("join", name)
                    yield from self.cluster.scale_out([name])
                else:
                    target = self._pick_leaver()
                    if target is None:
                        continue  # too few members; draw stays (determinism)
                    self._leaves.inc()
                    self._note("leave", target)
                    yield from self.cluster.scale_in(target, graceful=True)
            except MembershipError as exc:
                self._note("churn_skipped", str(exc))

    def _pick_leaver(self) -> Optional[str]:
        """An alive, non-degraded member the cluster can afford to lose."""
        scheme = self.cluster.scheme
        floor = getattr(scheme, "n", None)
        if floor is None:
            floor = scheme.tolerated_failures + 1
        members = self.cluster.membership.current.members
        if len(members) <= floor + 1:
            return None
        degraded = self.degraded
        candidates = sorted(
            name
            for name in members
            if name not in degraded
            and name in self.cluster.servers
            and self.cluster.servers[name].alive
        )
        if not candidates:
            return None
        return self.sched_rng.choice(candidates)

    def _bitrot_loop(self, horizon: float):
        profile = self.profile
        rng = self.sched_rng
        while True:
            yield self.sim.timeout(rng.expovariate(profile.bitrot_rate))
            if self.sim.now >= horizon:
                return
            victims = sorted(
                name
                for name, server in self.cluster.servers.items()
                if server.alive
            )
            if not victims:
                continue
            name = rng.choice(victims)
            server = self.cluster.servers[name]
            keys = sorted(server.cache.keys())
            if not keys:
                continue
            key = rng.choice(keys)
            if server.corrupt_item(key, byte_offset=rng.randrange(1 << 16)):
                self.events.emit("chaos.rot", server=name, key=key)
                self._bitrot.inc()
                self._note("bitrot", "%s %s" % (name, key))

    # -- teardown --------------------------------------------------------------
    def heal_all(self) -> None:
        """Stop hurting: recover crashed nodes, drop partitions, unthrottle.

        Crashed-and-unrepaired servers stay in :attr:`unrepaired` (their
        data is still gone until something rebuilds it); they are merely
        reachable and empty again.
        """
        dead = sorted(
            name
            for name, server in self.cluster.servers.items()
            if not server.alive
        )
        if dead:
            self.injector.recover_now(dead)
            self._restarts.inc(len(dead))
        for name in sorted(self.partitioned):
            self._heals.inc()
            self._note("heal", name)
        self.partitioned.clear()
        for name in sorted(self.partial_victims):
            self._heals.inc()
            self._note("partial_heal", name)
        self.partial_victims.clear()
        if self.partition_links:
            self._note("heal_links", "%d" % len(self.partition_links))
            self.partition_links.clear()
        for name in sorted(self.slowed):
            self.cluster.servers[name].cpu_throttle = 1.0
            self._note("slow_end", name)
        self.slowed.clear()
        self._note("heal_all", "")
