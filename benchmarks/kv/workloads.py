"""The four named workloads.  Later issues refer to them by name.

Each stresses a different set of layers (see ``README.md`` for the full
rationale and the layer -> end-to-end interaction table).  Op counts are
sized so that one workload's warm-up and seven timed trials fit the
benchmark's time cap on a two-core box; ``scale`` shrinks them further
for the self-tests.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from repro import Payload
from repro.core.features import Features

import loadgen
from loadgen import SET
from trial import State, TrialResult, Workload

KIB = 1024


def _scaled(count: int, scale: float, multiple: int = 1) -> int:
    """``count * scale`` rounded to a positive multiple of ``multiple``."""
    return max(1, round(count * scale / multiple)) * multiple


class _BytesWorkload(Workload):
    """Real bytes cut from a seeded pool; Gets are compared byte for byte."""

    pool: loadgen.ValuePool

    def payload(self, offset: int, size: int) -> Payload:
        return Payload.from_bytes(self.pool.cut(offset, size))

    def matches(self, value: Payload, offset: int, size: int) -> bool:
        return value.data is not None and self.pool.matches(
            value.data, offset, size
        )


class YcsbA4k(Workload):
    name = "ycsb_a_4k"
    why = (
        "control-plane bound: 50:50 Zipfian 4 KiB size-only ops make the "
        "engine, fabric, client/server and scheme do all the host work and "
        "the codec kernels none"
    )
    servers = 5
    clients = 16
    client_hosts = 4
    shared_keys = True
    real_bytes = False
    value_size = 4 * KIB
    degraded_gets = 64

    def __init__(self, seed: int, scale: float = 1.0):
        keys = _scaled(1600, scale, self.clients)
        ops = _scaled(320, scale)
        self.keys = loadgen.key_names(loadgen.stream(seed, 1, 0), "y", keys)
        sizes = loadgen.sizes_near(
            loadgen.stream(seed, 1, 1), self.value_size, keys
        )
        self.initial = [(0, size) for size in sizes.tolist()]
        self.streams = []
        for client in range(self.clients):
            rng = loadgen.stream(seed, 1, 2 + client)
            index = loadgen.zipfian(rng, keys, 0.99, ops)
            kinds = loadgen.mix(rng, ops, 0.5, 0.5)
            # Every client reads the whole (shared, hot) key space but
            # writes only keys it owns -- the nearest one in the same
            # popularity block.  Two unversioned Sets racing on one key
            # can leave no k chunks of either value (the default path has
            # no stale-write guard), and the benchmark's workloads must be
            # ones on which no operation fails.
            owned = index - index % self.clients + client
            self.streams.append(
                loadgen.op_stream(
                    kinds,
                    np.where(kinds == SET, owned, index),
                    np.zeros(ops, dtype=np.int64),
                    loadgen.sizes_near(rng, self.value_size, ops),
                )
            )

    def payload(self, offset: int, size: int) -> Payload:
        return Payload.sized(size)

    def matches(self, value: Payload, offset: int, size: int) -> bool:
        return value.size == size and value.data is None


class Bulk256kBytes(_BytesWorkload):
    name = "bulk_256k_bytes"
    why = (
        "codec bound: 256 KiB real-byte values written, read back and read "
        "degraded in windowed bursts, so the GF kernel, chunk copies and "
        "CRCs are most of the host time and the engine sees few events"
    )
    profile = "ri2-edr"
    servers = 6
    clients = 2
    window = 4
    #: both hold data chunks of most keys, so Gets need a real matrix decode
    victims = ("server-1", "server-2")
    value_size = 256 * KIB
    #: Sets/Gets posted per wait; wider than the window, so the surplus
    #: queues in the ARPE as a burst-buffer flush does
    batch = 16
    rounds = 4

    def __init__(self, seed: int, scale: float = 1.0):
        keys = _scaled(192, scale, self.clients)
        self.keys = loadgen.key_names(loadgen.stream(seed, 2, 0), "b", keys)
        rng = loadgen.stream(seed, 2, 1)
        self.pool = loadgen.ValuePool(rng, 8 * KIB * KIB)
        #: versions[v][client] = batches of (key index, offset, size);
        #: version 0 is the load, 1..rounds the overwrites
        self.versions = []
        for _ in range(self.rounds + 1):
            sizes = loadgen.sizes_near(rng, self.value_size, keys)
            offsets = self.pool.offsets(rng, sizes).tolist()
            sizes = sizes.tolist()
            per_client = []
            for client in range(self.clients):
                mine = [
                    (i, offsets[i], sizes[i]) for i in self.partition(client)
                ]
                per_client.append(
                    [
                        mine[at : at + self.batch]
                        for at in range(0, len(mine), self.batch)
                    ]
                )
            self.versions.append(per_client)

    def _round(self, st: State, version: int, write: bool, degraded=False) -> float:
        return st.drive(
            st.batched_round(client, batches, write, degraded)
            for client, batches in zip(st.clients, self.versions[version])
        )

    def load(self, st: State) -> None:
        self._round(st, 0, write=True)

    def run_phase(self, st: State, result: TrialResult) -> None:
        segments = result.segments
        for kind in ("write", "read", "degraded"):
            segments[kind] = []
        for version in range(1, self.rounds + 1):
            segments["write"].append(self._round(st, version, write=True))
            segments["read"].append(self._round(st, version, write=False))
        st.crash(self.victims)
        for _ in range(self.rounds):
            segments["degraded"].append(
                self._round(st, self.rounds, write=False, degraded=True)
            )

    def recover_phase(self, st: State) -> None:
        st.restart_and_repair(self.victims)


class EtcSmallStripes(_BytesWorkload):
    name = "etc_small_stripes"
    why = (
        "stripe-packing bound: ETC-sized real values, 80/17/3 get/set/delete "
        "over small-object stripes, so buffer, journal, seal, slice read, "
        "tombstone and compaction dominate; space is the headline"
    )
    servers = 5
    clients = 8
    degraded_gets = 160

    def __init__(self, seed: int, scale: float = 1.0):
        keys = _scaled(4000, scale, self.clients)
        ops = _scaled(1500, scale)
        self.keys = loadgen.key_names(loadgen.stream(seed, 3, 0), "e", keys)
        rng = loadgen.stream(seed, 3, 1)
        self.pool = loadgen.ValuePool(rng, KIB * KIB)
        sizes = loadgen.etc_sizes(rng, keys)
        self.initial = list(
            zip(self.pool.offsets(rng, sizes).tolist(), sizes.tolist())
        )
        # One stratified draw for all clients, dealt round-robin: strata
        # per client would be 8x coarser, and the 1% tail (the few values
        # too large to pack) would differ by a fifth from seed to seed.
        total = ops * self.clients
        kinds = loadgen.mix(rng, total, 0.80, 0.17)
        sizes = np.zeros(total, dtype=np.int64)
        sizes[kinds == SET] = loadgen.etc_sizes(rng, int((kinds == SET).sum()))
        offsets = self.pool.offsets(rng, sizes)
        slots = loadgen.uniforms(rng, total)
        self.streams = []
        for client in range(self.clients):
            mine = np.asarray(self.partition(client))
            dealt = slice(client, total, self.clients)
            self.streams.append(
                loadgen.op_stream(
                    kinds[dealt],
                    mine[(slots[dealt] * len(mine)).astype(np.int64)],
                    offsets[dealt],
                    sizes[dealt],
                )
            )

    def features(self):
        return Features().with_small_object_stripes()


class ChurnRepair16k(_BytesWorkload):
    name = "churn_repair_16k"
    why = (
        "membership and recovery under load: a server crashes mid-run, is "
        "repaired, two nodes join and the dead one leaves while 8 clients "
        "keep a 90:10 mix going; carries durability and repair cost"
    )
    servers = 10
    clients = 8
    value_size = 16 * KIB
    #: mean virtual seconds a client thinks between ops (exponential), so
    #: the foreground load outlasts crash -> repair -> scale-out -> scale-in
    think = 40e-6
    crash_at = 2e-3
    #: failure-detection time before the repair starts
    detect_delay = 2e-3

    def __init__(self, seed: int, scale: float = 1.0):
        keys = _scaled(800, scale, self.clients)
        ops = _scaled(500, scale)
        self.keys = loadgen.key_names(loadgen.stream(seed, 4, 0), "c", keys)
        rng = loadgen.stream(seed, 4, 1)
        self.pool = loadgen.ValuePool(rng, KIB * KIB)
        sizes = loadgen.sizes_near(rng, self.value_size, keys)
        self.initial = list(
            zip(self.pool.offsets(rng, sizes).tolist(), sizes.tolist())
        )
        self.streams = []
        for client in range(self.clients):
            rng = loadgen.stream(seed, 4, 2 + client)
            mine = np.asarray(self.partition(client))
            sizes = loadgen.sizes_near(rng, self.value_size, ops)
            self.streams.append(
                loadgen.op_stream(
                    loadgen.mix(rng, ops, 0.90, 0.10),
                    mine[rng.integers(0, len(mine), ops)],
                    self.pool.offsets(rng, sizes),
                    sizes,
                    rng.exponential(self.think, ops),
                )
            )

    def _control(self, st: State):
        cluster = st.cluster
        sim = cluster.sim
        yield sim.timeout(self.crash_at)
        crashed = sim.now
        st.crash(self.victims)
        for victim in self.victims:
            cluster.membership.mark_dead(victim)
        yield sim.timeout(self.detect_delay)
        yield from st.repair(self.victims, since=crashed)
        joiners = ["server-%d" % (self.servers + i) for i in range(2)]
        yield from cluster.scale_out(joiners)
        for victim in self.victims:
            yield from cluster.scale_in(victim, graceful=False)
        st.control_done = sim.now

    def run_phase(self, st: State, result: TrialResult) -> None:
        loops = [
            st.closed_loop(client, ops)
            for client, ops in zip(st.clients, self.streams)
        ]
        st.drive(loops + [self._control(st)])

    def recover_phase(self, st: State) -> None:
        """The crash and its repair are part of the run phase."""


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (YcsbA4k, Bulk256kBytes, EtcSmallStripes, ChurnRepair16k)
}
