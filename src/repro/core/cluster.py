"""Cluster assembly: simulator + fabric + servers + scheme + clients.

This is the top of the public API.  A typical session::

    from repro.core import build_cluster
    from repro.common import Payload

    cluster = build_cluster(profile="ri-qdr", scheme="era-ce-cd",
                            servers=5, k=3, m=2)
    client = cluster.add_client()

    def workload():
        ok = yield from client.set("user:42", Payload.from_bytes(b"hello"))
        value = yield from client.get("user:42")

    cluster.sim.process(workload())
    cluster.run()
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from repro.core.features import Features
from repro.ec.cost_model import CodingCostModel
from repro.membership.epoch import MembershipTable, RingView
from repro.network.fabric import Fabric
from repro.network.profiles import ClusterProfile, profile_by_name
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.base import ResilienceScheme
from repro.resilience.registry import make_scheme
from repro.simulation import Simulator
from repro.store.client import KVClient
from repro.store.policy import RetryPolicy
from repro.store.server import MemcachedServer

GIB = 1024 ** 3


class KVCluster:
    """A resilient key-value store deployment on one simulated cluster."""

    def __init__(
        self,
        profile: ClusterProfile,
        scheme: ResilienceScheme,
        num_servers: int = 5,
        memory_per_server: int = 20 * GIB,
        worker_threads: int = 8,
        sim: Optional[Simulator] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: bool = False,
        config: Optional[Features] = None,
    ):
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.sim = sim or Simulator()
        self.profile = profile
        #: the one timeline of faults, verdicts and transitions
        self.events = EventLog(self.sim)
        self.tracer = Tracer(self.sim, self.events) if trace else NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        self.fabric = Fabric(
            self.sim, profile, self.tracer, self.metrics, self.events
        )
        self.cost_model = CodingCostModel(
            cpu_speed_factor=profile.cpu_speed_factor
        )
        self.memory_per_server = memory_per_server
        self.worker_threads = worker_threads
        self.servers: Dict[str, MemcachedServer] = {}
        for index in range(num_servers):
            name = "server-%d" % index
            self.servers[name] = self._make_server(name)
        #: versioned topology: every ring lookup resolves the current
        #: epoch, so membership transitions are visible cluster-wide the
        #: moment they open
        self.membership = MembershipTable(
            list(self.servers), clock=lambda: self.sim.now
        )
        self.ring = RingView(self.membership)
        self.scheme = scheme
        scheme.install(self)
        self.clients: List[KVClient] = []
        self._client_seq = itertools.count()
        self._manager = None
        #: the one place feature flags live; mutating it recompiles every
        #: component's request plan immediately (see repro.core.features)
        self.config: Features = config if config is not None else Features()
        self.config._observers.append(self._apply_config)
        self._detector = None
        self._membership_config = None
        #: the scheme underneath the stripe-packing wrapper (None when
        #: the stripes feature is off)
        self._base_scheme: Optional[ResilienceScheme] = None
        self._stripes_config = None
        self._scrubber = None
        self._scrub_config = None
        self._apply_config()

    # -- plan compilation ----------------------------------------------------
    def _apply_config(self, _config: Optional[Features] = None) -> None:
        """Recompile every component's plan from :attr:`config`.

        Called once at construction and again on every ``Features``
        mutation: servers adopt a fresh :class:`ServerPlan`, clients a
        fresh :class:`ClientPlan` (per-client explicit policies are
        preserved), and the detector, stripe-packing wrapper and
        scrubber are built from their configs or torn down.
        """
        config = self.config
        server_plan = config.compile_server_plan()
        for server in self.servers.values():
            server.apply_plan(server_plan)
        for client in self.clients:
            client.apply_plan(
                config.compile_client_plan(
                    client.policy if client.explicit_policy else None
                )
            )
        membership_cfg = config.membership
        if membership_cfg is not self._membership_config:
            if self._detector is not None:
                self._detector.uninstall()
                self._detector = None
            if membership_cfg is not None:
                from repro.membership.gossip import SwimDetector

                self._detector = SwimDetector(self, membership_cfg)
            self._membership_config = membership_cfg
        stripes_cfg = config.stripes
        if stripes_cfg is not self._stripes_config:
            if self._base_scheme is not None:
                # unwrap: the striped scheme detaches its server ops
                self.scheme.uninstall()
                self.scheme = self._base_scheme
                self._base_scheme = None
                for client in self.clients:
                    client.scheme = self.scheme
            if stripes_cfg is not None:
                from repro.stripes.scheme import StripedScheme

                striped = StripedScheme(stripes_cfg)
                self._base_scheme = self.scheme
                striped.install(self)
                self.scheme = striped
                for client in self.clients:
                    client.scheme = striped
            self._stripes_config = stripes_cfg
        scrub_cfg = config.scrubbing
        if scrub_cfg is not self._scrub_config:
            if self._scrubber is not None:
                self._scrubber.uninstall()
                self._scrubber = None
            if scrub_cfg is not None:
                from repro.scrub import Scrubber

                self._scrubber = Scrubber(self, scrub_cfg)
            self._scrub_config = scrub_cfg

    @property
    def detector(self):
        """The configured failure detector (``None`` without one).

        Declared via ``cluster.config.with_membership(...)``; start its
        probe loops with ``cluster.detector.start(horizon)``.
        """
        return self._detector

    @property
    def scrubber(self):
        """The configured integrity scrubber (``None`` without one).

        Declared via ``cluster.config.with_scrubbing(...)``; launch its
        scan/audit loops with ``cluster.scrubber.start(horizon)``.
        """
        return self._scrubber

    def _make_server(self, name: str) -> MemcachedServer:
        return MemcachedServer(
            self.sim,
            self.fabric,
            name,
            memory_limit=self.memory_per_server,
            worker_threads=self.worker_threads,
            cost_model=self.cost_model,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    # -- membership ---------------------------------------------------------
    def add_server(self, name: str) -> MemcachedServer:
        """Stand up a fresh server (not yet on the ring).

        The scheme installs its handlers via ``prepare_server``; call
        :meth:`scale_out` (or ``membership.join``) to actually place it.
        """
        if name in self.servers:
            raise ValueError("server %r already exists" % name)
        server = self._make_server(name)
        self.servers[name] = server
        self.scheme.prepare_server(server)
        server.apply_plan(self.config.compile_server_plan())
        attach = getattr(self._detector, "attach", None)
        if attach is not None:
            # SWIM: the joiner runs its own protocol loop from birth
            attach(server)
        return server

    def retire_server(self, name: str) -> None:
        """Tear down a server that has left the ring (data migrated off)."""
        server = self.servers.pop(name, None)
        if server is not None and server.alive:
            server.fail()

    @property
    def manager(self):
        """The default membership manager (unthrottled; lazily built)."""
        if self._manager is None:
            from repro.membership.manager import MembershipManager

            self._manager = MembershipManager(self)
        return self._manager

    def scale_out(self, names):
        """Join new servers and rebalance; drive as a sim process:
        ``report = yield from cluster.scale_out(["server-5"])``."""
        return (yield from self.manager.scale_out(names))

    def scale_in(self, name: str, graceful: bool = True):
        """Remove a server, migrating its data off first."""
        return (yield from self.manager.scale_in(name, graceful=graceful))

    def replace_node(self, old: str, new: str):
        """Swap a (typically failed) server for a fresh one."""
        return (yield from self.manager.replace_node(old, new))

    # -- clients ------------------------------------------------------------
    def add_client(
        self,
        name_hint: str = "client",
        window: int = 32,
        buffer_pool: int = 64,
        host: Optional[str] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> KVClient:
        """Attach a client; ``host`` makes several clients share one NIC.

        ``policy`` hardens this one client's request path explicitly;
        without it the client compiles its plan from the cluster's
        :attr:`config`.
        """
        name = "%s-%d" % (name_hint, next(self._client_seq))
        client = KVClient(
            self.sim,
            self.fabric,
            name,
            ring=self.ring,
            scheme=self.scheme,
            cost_model=self.cost_model,
            window=window,
            buffer_pool=buffer_pool,
            host=host,
            tracer=self.tracer,
            metrics=self.metrics,
            policy=policy,
        )
        self.clients.append(client)
        client.apply_plan(self.config.compile_client_plan(policy))
        return client

    # -- failures ------------------------------------------------------------
    def fail_servers(self, names) -> None:
        """Crash the named servers (endpoints down, memory wiped)."""
        for name in names:
            self.servers[name].fail()

    def recover_servers(self, names) -> None:
        """Restart the named servers with empty memory."""
        for name in names:
            self.servers[name].recover()

    def alive_servers(self) -> List[str]:
        """Names of servers currently up."""
        return [name for name, server in self.servers.items() if server.alive]

    # -- accounting ------------------------------------------------------------
    @property
    def total_memory_limit(self) -> int:
        """Aggregate memory capacity across all servers."""
        return sum(s.cache.memory_limit for s in self.servers.values())

    @property
    def total_memory_used(self) -> int:
        """Aggregate slab pages committed across all servers."""
        return sum(s.cache.used_memory for s in self.servers.values())

    @property
    def total_stored_bytes(self) -> int:
        """Aggregate live item footprints across all servers."""
        return sum(s.cache.stored_bytes for s in self.servers.values())

    @property
    def total_evictions(self) -> int:
        """Items LRU-evicted cluster-wide."""
        return sum(s.cache.evictions for s in self.servers.values())

    @property
    def total_failed_stores(self) -> int:
        """Writes dropped cluster-wide (out of memory)."""
        return sum(s.cache.failed_stores for s in self.servers.values())

    @property
    def total_lost_bytes(self) -> int:
        """Bytes of stored payload lost to eviction or dropped writes."""
        return sum(
            s.cache.evicted_bytes + s.cache.failed_bytes
            for s in self.servers.values()
        )

    def memory_utilization(self) -> float:
        """Fraction of aggregated cluster memory committed (Figure 10)."""
        return self.total_memory_used / self.total_memory_limit

    def memory_overhead_ratio(self) -> float:
        """Storage amplification: bytes stored per logical byte acked.

        Replication sits near its factor, per-object RS near (K+M)/K plus
        per-chunk headers (ruinous for tiny values), stripe packing near
        (K+M)/K plus journal residue.  0.0 until a client acks a Set.
        """
        acked = self.metrics.counter("client.acked_bytes").value
        ratio = self.total_stored_bytes / acked if acked else 0.0
        self.metrics.gauge("cluster.memory_overhead_ratio").set(ratio)
        return ratio

    # -- telemetry ------------------------------------------------------------
    def server_stats(self) -> List[dict]:
        """Per-server operational counters (one dict per server)."""
        rows = []
        for name, server in sorted(self.servers.items()):
            cache = server.cache
            rows.append(
                {
                    "server": name,
                    "alive": server.alive,
                    "requests": server.requests_handled,
                    "items": cache.item_count,
                    "stored_bytes": cache.stored_bytes,
                    "memory_used": cache.used_memory,
                    "hit_rate": (
                        cache.hits / cache.total_gets
                        if cache.total_gets
                        else 0.0
                    ),
                    "evictions": cache.evictions,
                    "failed_stores": cache.failed_stores,
                    "corruption_detected": server.corruption_detected,
                    "bytes_in": server.endpoint.bytes_received,
                    "bytes_out": server.endpoint.bytes_sent,
                }
            )
        return rows

    def stats(self) -> dict:
        """Cluster-wide summary: scheme, capacity, load, and health."""
        per_server = self.server_stats()
        return {
            "scheme": self.scheme.name,
            "profile": self.profile.name,
            "servers": len(self.servers),
            "alive": len(self.alive_servers()),
            "tolerates": self.scheme.tolerated_failures,
            "storage_overhead": self.scheme.storage_overhead,
            "virtual_time": self.sim.now,
            "total_requests": sum(r["requests"] for r in per_server),
            "total_items": sum(r["items"] for r in per_server),
            "stored_bytes": self.total_stored_bytes,
            "memory_limit": self.total_memory_limit,
            "memory_used": self.total_memory_used,
            "evictions": self.total_evictions,
            "failed_stores": self.total_failed_stores,
            "lost_bytes": self.total_lost_bytes,
            "memory_overhead_ratio": self.memory_overhead_ratio(),
            "load_imbalance": self._load_imbalance(per_server),
        }

    def _load_imbalance(self, per_server) -> float:
        """max/mean request ratio — 1.0 is perfectly balanced.

        Erasure chunking spreads skewed (Zipfian) load evenly, which is
        one of the paper's explanations for its YCSB throughput win.
        """
        counts = [r["requests"] for r in per_server]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    # -- execution ------------------------------------------------------------
    def run(self, until=None):
        """Advance the simulation (to quiescence, a time, or an event)."""
        return self.sim.run(until)


def build_cluster(
    profile: Union[str, ClusterProfile] = "ri-qdr",
    scheme: Union[str, ResilienceScheme] = "era-ce-cd",
    servers: int = 5,
    memory_per_server: int = 20 * GIB,
    worker_threads: int = 8,
    replication_factor: int = 3,
    codec: str = "rs_van",
    k: int = 3,
    m: int = 2,
    sim: Optional[Simulator] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: bool = False,
    config: Optional[Features] = None,
) -> KVCluster:
    """One-call constructor matching the paper's experiment setups.

    ``profile`` is a cluster name (``ri-qdr``, ``sdsc-comet``, ``ri2-edr``,
    or any of those with ``-ipoib`` appended) or a
    :class:`ClusterProfile`.  ``scheme`` is a scheme name (see
    :func:`repro.resilience.available_schemes`) or a prebuilt scheme.
    ``trace=True`` attaches a real :class:`~repro.obs.trace.Tracer`
    (exposed as ``cluster.tracer``) so the run, its spans and its event
    log (``cluster.events``), can be exported with
    :func:`repro.obs.write_chrome_trace`.  ``config`` is a
    :class:`~repro.core.features.Features` (alias ``ClusterConfig``)
    declaring the enabled resilience features; all request plans are
    compiled from it.
    """
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    if isinstance(scheme, str):
        scheme = make_scheme(
            scheme,
            replication_factor=replication_factor,
            codec_name=codec,
            k=k,
            m=m,
        )
    return KVCluster(
        profile=profile,
        scheme=scheme,
        num_servers=servers,
        memory_per_server=memory_per_server,
        worker_threads=worker_threads,
        sim=sim,
        metrics=metrics,
        trace=trace,
        config=config,
    )
