"""Orchestration of membership transitions end to end.

The :class:`MembershipManager` ties the subsystem's pieces together: it
owns the migration planner, the throttled rebuild scheduler and a
dedicated "rebuilder" client the transfer traffic flows through.  One
public flow per transition::

    manager = cluster.manager            # or MembershipManager(cluster, ...)
    yield from manager.scale_out(["server-5", "server-6"])
    yield from manager.scale_in("server-2")           # graceful copy-off
    yield from manager.scale_in("server-2", graceful=False)  # re-encode
    yield from manager.replace_node("server-1", "server-7")

Each flow is a simulated generator process:

1. stand up any joining servers (scheme handlers installed via
   ``prepare_server``) and open the new epoch in the membership table;
2. plan the minimal move set by diffing the two epochs over the keys the
   scheme has written;
3. publish every moving chunk's *old* location in the relocation map so
   mid-migration reads resolve truthfully, then execute the plan under
   the bandwidth cap and concurrency window;
4. seal the epoch (records convergence time), retire departed servers.

Every executed plan's epoch, digest and stats are a ``membership.epoch``
event in the cluster's event log, which is what makes a seeded scale
experiment's report reproducible — identical seeds walk identical keys
over identical rings and therefore produce identical plan digests.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from repro.membership.epoch import MembershipError, RingEpoch
from repro.membership.planner import (
    ErasurePlacementAdapter,
    MigrationPlanner,
    ReplicationPlacementAdapter,
)
from repro.membership.rebuild import RebuildScheduler
from repro.simulation import REBUILD_WINDOW


def adapter_for_scheme(scheme):
    """Pick the placement adapter matching a resilience scheme."""
    # late import keeps repro.membership importable without the full
    # resilience package loaded
    from repro.resilience.erasure import ErasureScheme

    if isinstance(scheme, ErasureScheme):
        return ErasurePlacementAdapter(scheme)
    factor = getattr(scheme, "factor", None)
    if factor is not None:
        return ReplicationPlacementAdapter(factor)
    if scheme.__class__.__name__ == "NoReplication":
        return ReplicationPlacementAdapter(1)
    raise MembershipError(
        "no migration adapter for scheme %r" % getattr(scheme, "name", scheme)
    )


class MembershipManager:
    """Drives join/leave/decommission/replace flows for one cluster."""

    def __init__(
        self,
        cluster,
        bandwidth: Optional[float] = None,
        window: int = REBUILD_WINDOW,
    ):
        self.cluster = cluster
        self.table = cluster.membership
        self.adapter = adapter_for_scheme(cluster.scheme)
        self.planner = MigrationPlanner(self.adapter)
        self.rebuilder = cluster.add_client("rebuilder")
        # rebuild/migration traffic is background-lane: foreground ops
        # preempt it at admission-controlled servers
        self.rebuilder.default_lane = "bg"
        self.scheduler = RebuildScheduler(
            cluster,
            self.adapter,
            self.rebuilder,
            bandwidth=bandwidth,
            window=window,
        )
        self._convergence = cluster.metrics.histogram(
            "membership.epoch_convergence_time"
        )

    # -- keys --------------------------------------------------------------
    def known_keys(self) -> List[str]:
        """Every key the migration must consider."""
        scheme_keys = getattr(self.cluster.scheme, "known_keys", None)
        if scheme_keys is not None:
            return scheme_keys()
        # replication schemes keep no client-side key registry: scan the
        # server caches (whole-object replicas store under the bare key)
        seen = set()
        for server in self.cluster.servers.values():
            seen.update(server.cache.keys())
        return sorted(seen)

    # -- transition flows --------------------------------------------------
    def scale_out(self, names: Iterable[str]) -> Generator:
        """Join ``names`` (started fresh) and rebalance onto them."""
        names = list(names)
        for name in names:
            self.cluster.add_server(name)
        epoch = self.table.apply(
            add=names, origin="scale_out:%s" % ",".join(names)
        )
        return (yield from self._migrate(epoch))

    def scale_in(self, name: str, graceful: bool = True) -> Generator:
        """Remove ``name`` — copy its data off first when graceful."""
        if graceful:
            epoch = self.table.graceful_leave(name)
        else:
            epoch = self.table.decommission(name)
            if name in self.cluster.servers:
                self.cluster.servers[name].fail()
        report = yield from self._migrate(epoch)
        self.cluster.retire_server(name)
        return report

    def replace_node(self, old: str, new: str) -> Generator:
        """Swap failed ``old`` for fresh ``new`` in a single epoch."""
        self.cluster.add_server(new)
        epoch = self.table.replace(old, new)
        if old in self.cluster.servers:
            self.cluster.servers[old].fail()
        report = yield from self._migrate(epoch)
        self.cluster.retire_server(old)
        return report

    def _migrate(self, epoch: RingEpoch) -> Generator:
        previous = self.table.epoch_by_number(epoch.number - 1)
        plan = self.planner.plan(
            previous,
            epoch,
            self.known_keys(),
            is_alive=self.table.is_alive,
        )
        self.scheduler.publish_locations(plan)
        stats = yield from self.scheduler.execute(plan, epoch)
        self.table.seal()
        self._convergence.observe(epoch.convergence_time)
        record = {
            "epoch": epoch.describe(),
            "plan": plan.describe(),
            "stats": stats,
        }
        self.cluster.events.emit("membership.epoch", **record)
        return record
