"""Write-path degradation: durable relocation, versioning, ingest CRCs."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.resilience.erasure import chunk_key
from repro.store import protocol
from repro.store.arpe import OpMetrics
from repro.store.client import KVStoreError
from repro.store.policy import HARDENED_POLICY
from repro.store.protocol import Response

MIB = 1024 * 1024


def fresh(scheme="era-ce-cd", servers=6):
    return build_cluster(
        scheme=scheme, servers=servers, k=3, m=2,
        memory_per_server=64 * MIB,
    )


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def _set(cluster, client, key, data):
    def op():
        return (yield from client.set(key, Payload.from_bytes(data)))

    return drive(cluster, op())


def _get(cluster, client, key):
    def op():
        return (yield from client.get(key))

    return drive(cluster, op())


class TestDurableWrites:
    def test_set_relocates_chunks_off_dead_node(self):
        cluster = fresh()
        client = cluster.add_client(policy=HARDENED_POLICY)
        data = bytes(range(256)) * 192
        placed = cluster.scheme.placement(cluster.ring, "k")
        cluster.servers[placed[1]].fail()
        assert _set(cluster, client, "k", data)
        assert cluster.metrics.counter("writes.relocated").value >= 1
        # every one of the n chunks is stored somewhere reachable, so a
        # second failure within tolerance still leaves the value readable
        cluster.servers[placed[2]].fail()
        value = _get(cluster, client, "k")
        assert value.data == data

    def test_relocated_chunk_lands_outside_placement(self):
        cluster = fresh()
        client = cluster.add_client(policy=HARDENED_POLICY)
        scheme = cluster.scheme
        placed = scheme.placement(cluster.ring, "k")
        cluster.servers[placed[0]].fail()
        assert _set(cluster, client, "k", b"z" * 6144)
        now_placed = scheme.chunk_servers(cluster.ring, "k")
        assert now_placed[0] != placed[0]
        substitute = cluster.servers[now_placed[0]]
        assert substitute.cache.peek(chunk_key("k", 0)) is not None

    def test_ack_at_k_without_durable_writes(self):
        # legacy fast path: a dead node is tolerated silently, nothing
        # is relocated, and the write still acks at k live chunks
        cluster = fresh()
        client = cluster.add_client()
        placed = cluster.scheme.placement(cluster.ring, "k")
        cluster.servers[placed[1]].fail()
        assert _set(cluster, client, "k", b"q" * 6144)
        assert cluster.metrics.counter("writes.relocated").value == 0


class TestRelocationOfSupersededWrites:
    """A durable write relocates a chunk whose holder is dead.  The
    substitute holds no copy of the key, so it never answers ``stale``:
    only the write's version can tell that a newer overwrite began
    meanwhile (a durable retry backing off, an async-ack tail)."""

    @staticmethod
    def relocate_chunk_zero(newer_write_began):
        cluster = fresh()
        client = cluster.add_client(policy=HARDENED_POLICY)
        scheme = cluster.scheme
        servers = scheme.placement(cluster.ring, "k")
        cluster.servers[servers[0]].fail()
        value = Payload.from_bytes(b"o" * 6144)
        chunks = scheme.materialize_chunks(value)
        scheme._begin_write("k", 1)
        if newer_write_began:
            scheme._begin_write("k", 2)
        responses = [
            Response(0, False, servers[0], error=protocol.ERR_UNREACHABLE)
        ] + [Response(0, True, name) for name in servers[1:]]

        def op():
            return (
                yield from scheme._repair_failed_chunks(
                    client,
                    "k",
                    chunks,
                    servers,
                    responses,
                    {"data_len": value.size, "ver": 1},
                    OpMetrics(cluster.sim.now),
                )
            )

        all_stored, _errors = drive(cluster, op())
        assert all_stored
        return cluster, scheme, servers

    def test_current_write_records_its_relocation(self):
        cluster, scheme, servers = self.relocate_chunk_zero(False)
        assert scheme.chunk_servers(cluster.ring, "k")[0] != servers[0]
        assert cluster.metrics.counter("writes.relocated").value == 1

    def test_superseded_write_records_no_relocation(self):
        cluster, scheme, servers = self.relocate_chunk_zero(True)
        # Gets keep reading the newer write's placement, not the older
        # version's chunk on the substitute
        assert scheme.relocations == {}
        assert scheme.chunk_servers(cluster.ring, "k") == servers
        assert cluster.metrics.counter("writes.relocated").value == 0


class TestVersionFiltering:
    def test_get_decodes_newest_version_past_stale_chunk(self):
        cluster = fresh()
        client = cluster.add_client(policy=HARDENED_POLICY)
        old = b"a" * 6144
        new = b"b" * 6144
        assert _set(cluster, client, "k", old)
        holder = cluster.servers[
            cluster.scheme.chunk_servers(cluster.ring, "k")[0]
        ]
        stale = holder.cache.peek(chunk_key("k", 0))
        stale_data, stale_meta = stale.data, dict(stale.meta)
        assert _set(cluster, client, "k", new)
        # put the old chunk back in place of the new one, as a ghost
        # delivery that got past the stale-write guard would (the guard
        # refuses it through store_item, so edit the item as rot does)
        item = holder.cache.peek(chunk_key("k", 0))
        item.data, item.meta = stale_data, stale_meta
        value = _get(cluster, client, "k")
        assert value.data == new


class TestServerSideIngest:
    def test_se_set_rejects_corrupted_value(self):
        cluster = fresh(scheme="era-se-cd")
        client = cluster.add_client()
        payload = Payload.from_bytes(b"x" * 4096)
        target = cluster.scheme.placement(cluster.ring, "k")[0]

        def op():
            response = yield client.request(
                target,
                "se_set",
                "k",
                value=payload,
                meta={"crc": payload.checksum() ^ 0xFF, "ver": 1},
            )
            return response

        response = drive(cluster, op())
        assert not response.ok
        assert response.error == protocol.ERR_CORRUPT
        assert cluster.servers[target].corruption_detected == 1

    def test_sd_get_survives_local_bit_rot(self):
        cluster = fresh(scheme="era-se-sd")
        client = cluster.add_client(policy=HARDENED_POLICY)
        data = bytes(range(256)) * 24
        assert _set(cluster, client, "k", data)
        # rot the sd coordinator's *own* chunk: the local-read path must
        # detect it against the stored CRC and decode from parity
        coordinator = cluster.scheme.placement(cluster.ring, "k")[0]
        assert cluster.servers[coordinator].corrupt_item(
            chunk_key("k", 0), byte_offset=7
        )
        value = _get(cluster, client, "k")
        assert value.data == data
        assert cluster.metrics.counter("reads.local_corrupt").value >= 1
