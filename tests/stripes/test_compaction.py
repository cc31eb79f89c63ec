"""StripeCompactor: GC of low-utilization sealed stripes."""

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.resilience.erasure import chunk_key

MIB = 1024 * 1024


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def fresh(**kwargs):
    kwargs.setdefault("servers", 6)
    kwargs.setdefault("memory_per_server", 64 * MIB)
    kwargs.setdefault("scheme", "stripes")
    return build_cluster(**kwargs)


def patterned(size, salt=0):
    return bytes((i * 31 + 7 + salt) % 256 for i in range(size))


def load_and_seal(cluster, client, count=8, size=600):
    data = {"k%02d" % i: patterned(size, salt=i) for i in range(count)}

    def load():
        for key, payload in sorted(data.items()):
            yield from client.set(key, Payload.from_bytes(payload))

    drive(cluster, load())
    cluster.run()  # timer seals the stripe
    return data


class TestCompaction:
    def test_deletes_trigger_compaction_and_drop_stripe(self):
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme
        data = load_and_seal(cluster, client)
        victim = scheme.stripe_records()[0]
        assert victim.sealed

        def delete_most():
            # kill 6 of 8 objects: utilization falls to 0.25 < 0.5
            for key in sorted(data)[:6]:
                yield from client.delete(key)

        drive(cluster, delete_most())
        cluster.run()  # opportunistic GC runs to completion
        # the victim stripe is gone...
        assert victim.stripe_id not in [
            r.stripe_id for r in scheme.stripe_records()
        ]
        for index in range(scheme.n):
            for server in cluster.servers.values():
                assert (
                    server.cache.peek(chunk_key(victim.name, index)) is None
                )
        # ...its carrier key left the planner registry...
        assert victim.name not in scheme.known_keys()
        assert cluster.metrics.counter("stripes.compactions").value >= 1

        # ...and the survivors still read back correctly
        def read():
            out = {}
            for key in sorted(data)[6:]:
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for key in sorted(data)[6:]:
            assert values[key].data == data[key]

    def test_fully_dead_stripe_reclaimed_without_moves(self):
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme
        data = load_and_seal(cluster, client)
        moved_before = scheme.compactor.objects_moved

        def delete_all():
            for key in sorted(data):
                yield from client.delete(key)

        drive(cluster, delete_all())
        cluster.run()
        assert scheme.compactor.stripes_reclaimed >= 1
        assert scheme.compactor.objects_moved == moved_before

    def test_overwrites_alone_can_trigger_gc(self):
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme
        data = load_and_seal(cluster, client)

        def overwrite_most():
            for i, key in enumerate(sorted(data)[:6]):
                yield from client.set(
                    key, Payload.from_bytes(patterned(600, salt=100 + i))
                )

        drive(cluster, overwrite_most())
        cluster.run()
        assert scheme.compactor.stripes_reclaimed >= 1

        def read():
            out = {}
            for key in sorted(data):
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for i, key in enumerate(sorted(data)[:6]):
            assert values[key].data == patterned(600, salt=100 + i)
        for key in sorted(data)[6:]:
            assert values[key].data == data[key]

    def test_compaction_survives_chunk_holder_crash(self):
        """Durability invariant under the chaos soak's crash profile:
        a compaction forced onto the degraded path still re-homes every
        live object (or leaves the stripe intact for a later pass)."""
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme
        data = load_and_seal(cluster, client)
        victim = scheme.stripe_records()[0]
        servers = scheme.chunk_servers(cluster.ring, victim.name)
        cluster.fail_servers([servers[0]])  # within tolerance (m=2)

        def delete_most():
            for key in sorted(data)[:6]:
                yield from client.delete(key)

        drive(cluster, delete_most())
        cluster.run()

        def read():
            out = {}
            for key in sorted(data)[6:]:
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for key in sorted(data)[6:]:
            assert values[key].data == data[key]

    def test_dead_holder_rehomes_by_column_reads(self):
        """Live objects on a dead data-chunk holder move by reading only
        their own byte ranges from the survivors, never the stripe."""
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme
        data = load_and_seal(cluster, client)
        victim = scheme.stripe_records()[0]
        # k00 lies in chunk 0; k02 straddles chunks 0 and 1
        live = ["k00", "k02"]
        spans = {
            key: scheme._chunk_spans(victim, scheme.locate(key))
            for key in live
        }
        assert [s[0] for s in spans["k00"]] == [0]
        assert [s[0] for s in spans["k02"]] == [0, 1]
        servers = scheme.chunk_servers(cluster.ring, victim.name)
        cluster.fail_servers([servers[0]])

        def delete_rest():
            for key in sorted(data):
                if key not in live:
                    yield from client.delete(key)

        drive(cluster, delete_rest())
        cluster.run()
        assert victim.stripe_id not in [
            r.stripe_id for r in scheme.stripe_records()
        ]
        metric = cluster.metrics.counter
        assert metric("stripes.objects_rehomed").value == len(live)
        degraded = metric("stripes.degraded_reads").value
        assert degraded == len(live)
        # zero whole-stripe decodes: every degraded read was by columns
        assert metric("stripes.column_reads").value == degraded

        def read():
            out = {}
            for key in live:
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for key in live:
            assert values[key].data == data[key]
