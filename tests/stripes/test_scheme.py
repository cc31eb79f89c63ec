"""StripedScheme request paths: packing, sealing, reads, faults."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.core.features import ClusterConfig
from repro.network.fabric import FaultAction
from repro.resilience.erasure import chunk_key
from repro.store.policy import HARDENED_POLICY
from repro.stripes.buffer import journal_key

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


class TestConfigWiring:
    def test_feature_wraps_and_unwraps_scheme(self):
        config = ClusterConfig().with_small_object_stripes()
        cluster = build_cluster(
            scheme="era-ce-cd", servers=6, memory_per_server=64 * MIB,
            config=config,
        )
        assert cluster.scheme.name == "stripes"
        assert cluster.scheme.inner.name == "era-ce-cd"
        assert "st_get" in cluster.servers["server-0"].handlers
        config.disable("stripes")
        assert cluster.scheme.name == "era-ce-cd"
        assert "st_get" not in cluster.servers["server-0"].handlers

    def test_clients_follow_the_wrap(self):
        cluster = build_cluster(
            scheme="era-ce-cd", servers=6, memory_per_server=64 * MIB
        )
        client = cluster.add_client()
        cluster.config.with_small_object_stripes()
        assert client.scheme is cluster.scheme
        assert client.scheme.name == "stripes"

    def test_registry_name(self):
        from repro.resilience.registry import available_schemes

        assert "stripes" in available_schemes()

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig().with_small_object_stripes(threshold=0)
        with pytest.raises(ValueError):
            ClusterConfig().with_small_object_stripes(
                threshold=1024, stripe_capacity=512
            )


class TestSmallObjectPath:
    def test_small_set_packs_not_chunks(self):
        cluster = fresh()
        client = cluster.add_client()

        def body():
            yield from client.set("tiny", Payload.from_bytes(b"x" * 50))

        drive(cluster, body())
        scheme = cluster.scheme
        loc = scheme.locate("tiny")
        assert loc is not None and loc.length == 50
        # no per-object chunks exist for the user key
        for server in cluster.servers.values():
            assert server.cache.peek(chunk_key("tiny", 0)) is None
        # but tolerated+1 journal copies do
        record = scheme.open_stripe
        jkey = journal_key(loc.stripe_id, "tiny")
        copies = sum(
            1
            for server in cluster.servers.values()
            if server.cache.peek(jkey) is not None
        )
        assert copies == scheme.tolerated_failures + 1
        assert record.journal_holders

    def test_unsealed_read_roundtrip(self):
        cluster = fresh()
        client = cluster.add_client()
        data = patterned(80)

        def body():
            yield from client.set("k", Payload.from_bytes(data))
            return (yield from client.get("k"))

        value = drive(cluster, body())
        assert value.data == data
        assert cluster.metrics.counter("stripes.journal_reads").value >= 1

    def test_large_set_takes_inner_path(self):
        cluster = fresh()
        client = cluster.add_client()
        data = patterned(20_000)

        def body():
            yield from client.set("big", Payload.from_bytes(data))
            return (yield from client.get("big"))

        value = drive(cluster, body())
        assert value.data == data
        assert cluster.scheme.locate("big") is None
        placement = cluster.ring.placement("big", 5)
        item = cluster.servers[placement[0]].cache.peek(chunk_key("big", 0))
        assert item is not None


class TestSealing:
    def test_seal_on_full_codes_the_stripe(self):
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme

        def body():
            # ~4 KiB each: 17 of them overflow the 64 KiB stripe
            for i in range(17):
                yield from client.set(
                    "k%02d" % i, Payload.from_bytes(patterned(4000, salt=i))
                )

        drive(cluster, body())
        cluster.run()  # let background seals and timers quiesce
        sealed = [r for r in scheme.stripe_records() if r.sealed]
        assert sealed, "a full stripe must seal"
        record = sealed[0]
        # the stripe carrier is chunked like any erasure object
        servers = scheme.chunk_servers(cluster.ring, record.name)
        for index in range(scheme.k):
            item = cluster.servers[servers[index]].cache.peek(
                chunk_key(record.name, index)
            )
            assert item is not None
        # journal copies of sealed objects were retired
        for key in record.objects:
            jkey = journal_key(record.stripe_id, key)
            for server in cluster.servers.values():
                assert server.cache.peek(jkey) is None

    def test_seal_on_timeout(self):
        cluster = fresh()
        client = cluster.add_client()
        scheme = cluster.scheme

        def body():
            yield from client.set("only", Payload.from_bytes(b"y" * 100))

        drive(cluster, body())
        assert not scheme.stripe_records()[0].sealed
        cluster.run()  # the virtual-clock timer fires and seals
        assert scheme.stripe_records()[0].sealed
        assert cluster.metrics.counter("stripes.seal_timeouts").value == 1

    def test_sealed_read_is_slice_fast_path(self):
        cluster = fresh()
        client = cluster.add_client()
        data = {
            "k%02d" % i: patterned(500, salt=i) for i in range(8)
        }

        def load():
            for key, payload in sorted(data.items()):
                yield from client.set(key, Payload.from_bytes(payload))

        drive(cluster, load())
        cluster.run()

        def read():
            out = {}
            for key in sorted(data):
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for key, payload in data.items():
            assert values[key].data == payload
        assert cluster.metrics.counter("stripes.slice_reads").value == 8
        assert cluster.metrics.counter("stripes.degraded_reads").value == 0


class TestOverwriteAndDelete:
    def test_overwrite_before_seal_returns_latest(self):
        cluster = fresh()
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.from_bytes(b"old-value"))
            yield from client.set("k", Payload.from_bytes(b"new!"))
            return (yield from client.get("k"))

        assert drive(cluster, body()).data == b"new!"
        cluster.run()

        def read():
            return (yield from client.get("k"))

        assert drive(cluster, read()).data == b"new!"

    def test_tombstone_visible_before_and_after_seal(self):
        cluster = fresh()
        client = cluster.add_client()

        def body():
            yield from client.set("dead", Payload.from_bytes(b"soon gone"))
            yield from client.set("kept", Payload.from_bytes(b"stays"))
            existed = yield from client.delete("dead")
            pre_seal = yield from client.get("dead")
            return existed, pre_seal

        existed, pre_seal = drive(cluster, body())
        assert existed is True
        assert pre_seal is None
        cluster.run()  # seal happens with the tombstone in place

        def after():
            gone = yield from client.get("dead")
            kept = yield from client.get("kept")
            return gone, kept

        gone, kept = drive(cluster, after())
        assert gone is None
        assert kept.data == b"stays"

    def test_delete_miss_returns_false(self):
        cluster = fresh()
        client = cluster.add_client()

        def body():
            return (yield from client.delete("ghost"))

        assert drive(cluster, body()) is False

    def test_small_to_large_overwrite(self):
        cluster = fresh()
        client = cluster.add_client()
        big = patterned(30_000)

        def body():
            yield from client.set("k", Payload.from_bytes(b"small"))
            yield from client.set("k", Payload.from_bytes(big))
            return (yield from client.get("k"))

        assert drive(cluster, body()).data == big
        assert cluster.scheme.locate("k") is None

    def test_large_to_small_overwrite(self):
        cluster = fresh()
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.from_bytes(patterned(30_000)))
            yield from client.set("k", Payload.from_bytes(b"shrunk"))
            return (yield from client.get("k"))

        assert drive(cluster, body()).data == b"shrunk"
        # the stale per-object chunks were dropped
        for index in range(cluster.scheme.n):
            for server in cluster.servers.values():
                assert server.cache.peek(chunk_key("k", index)) is None


class TestFaults:
    def test_degraded_read_decodes_sealed_stripe(self):
        cluster = fresh()
        client = cluster.add_client()
        data = {"k%d" % i: patterned(700, salt=i) for i in range(6)}

        def load():
            for key, payload in sorted(data.items()):
                yield from client.set(key, Payload.from_bytes(payload))

        drive(cluster, load())
        cluster.run()
        scheme = cluster.scheme
        record = scheme.stripe_records()[0]
        assert record.sealed
        # kill the server holding the first systematic chunk
        servers = scheme.chunk_servers(cluster.ring, record.name)
        cluster.fail_servers([servers[0]])

        def read():
            out = {}
            for key in sorted(data):
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for key, payload in data.items():
            assert values[key].data == payload
        assert cluster.metrics.counter("stripes.degraded_reads").value >= 1

    def test_rot_in_packed_stripe_detected_and_degraded(self):
        cluster = fresh()
        client = cluster.add_client()
        data = {"k%d" % i: patterned(700, salt=i) for i in range(6)}

        def load():
            for key, payload in sorted(data.items()):
                yield from client.set(key, Payload.from_bytes(payload))

        drive(cluster, load())
        cluster.run()
        scheme = cluster.scheme
        record = scheme.stripe_records()[0]
        servers = scheme.chunk_servers(cluster.ring, record.name)
        holder = cluster.servers[servers[0]]
        assert holder.corrupt_item(chunk_key(record.name, 0))

        def read():
            out = {}
            for key in sorted(data):
                out[key] = (yield from client.get(key))
            return out

        values = drive(cluster, read())
        for key, payload in data.items():
            assert values[key].data == payload, key
        assert holder.corruption_detected >= 1
        assert cluster.metrics.counter("stripes.degraded_reads").value >= 1

    def test_crash_mid_seal_journals_keep_serving(self):
        cluster = fresh()
        client = cluster.add_client()
        data = patterned(90)

        def body():
            yield from client.set("k", Payload.from_bytes(data))

        drive(cluster, body())
        scheme = cluster.scheme
        record = scheme.open_stripe
        assert record is not None and not record.sealed
        # crash one journal holder while the stripe is still open
        cluster.fail_servers([record.journal_holders[0]])

        def read():
            return (yield from client.get("k"))

        assert drive(cluster, read()).data == data

    def test_journal_holder_crash_repair(self):
        cluster = fresh()
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.from_bytes(b"precious!"))

        drive(cluster, body())
        scheme = cluster.scheme
        record = scheme.open_stripe
        failed = record.journal_holders[0]
        cluster.fail_servers([failed])

        def repair():
            return (yield from scheme.repair_server(client, failed))

        assert drive(cluster, repair()) == 1
        assert failed not in record.journal_holders
        substitute = record.journal_holders[
            -1
        ]  # replacement keeps list length
        jkey = journal_key(record.stripe_id, "k")
        copies = sum(
            1
            for server in cluster.servers.values()
            if server.alive and server.cache.peek(jkey) is not None
        )
        assert copies == scheme.tolerated_failures + 1
        assert substitute in record.journal_holders


class TestMemoryOverhead:
    def test_stripes_beat_per_object_coding_on_small_values(self):
        ratios = {}
        for scheme in ("era-ce-cd", "stripes"):
            cluster = fresh(scheme=scheme)
            client = cluster.add_client()

            def load(client=client):
                for i in range(64):
                    yield from client.set(
                        "k%03d" % i, Payload.sized(100)
                    )

            drive(cluster, load())
            cluster.run()
            ratios[scheme] = cluster.memory_overhead_ratio()
        assert ratios["stripes"] < ratios["era-ce-cd"] / 2


def sealed_stripe(count, size=700, **kwargs):
    """A cluster holding ``count`` ``size``-byte objects in one sealed
    stripe: ``(cluster, client, data, record, chunk holders)``."""
    cluster = fresh(**kwargs)
    client = cluster.add_client()
    data = {"k%02d" % i: patterned(size, salt=i) for i in range(count)}

    def load():
        for key, payload in sorted(data.items()):
            yield from client.set(key, Payload.from_bytes(payload))

    drive(cluster, load())
    cluster.run()
    scheme = cluster.scheme
    (record,) = scheme.stripe_records()
    assert record.sealed
    return cluster, client, data, record, scheme.chunk_servers(
        cluster.ring, record.name
    )


def read_all(cluster, client, keys):
    def read():
        out = {}
        for key in keys:
            out[key] = yield from client.get(key)
        return out

    return drive(cluster, read())


def spans_of(cluster, record, key):
    scheme = cluster.scheme
    return scheme._chunk_spans(record, scheme.locate(key))


def counter(cluster, name):
    return cluster.metrics.counter(name).value


def fabric_bytes(cluster):
    return cluster.metrics.snapshot("fabric.")["fabric.bytes_sent"]


class TestColumnReads:
    """Degraded packed Gets rebuild only the object's byte range."""

    def test_degraded_get_moves_kilobytes_not_the_stripe(self):
        # 93 x 700 B fill the 64 KiB stripe: three ~21.7 KB chunks
        cluster, client, data, record, servers = sealed_stripe(93)
        assert record.data_len > 64_000
        (span,) = spans_of(cluster, record, "k05")
        cluster.fail_servers([servers[span[0]]])
        before = fabric_bytes(cluster)
        values = read_all(cluster, client, ["k05"])
        assert values["k05"].data == data["k05"]
        # three 700-byte slices plus headers; a stripe decode moves 65 KB
        assert fabric_bytes(cluster) - before < 4096
        assert counter(cluster, "stripes.degraded_reads") == 1
        assert counter(cluster, "stripes.column_reads") == 1

    @pytest.mark.parametrize("dead_span", [0, 1])
    def test_object_straddling_two_chunks(self, dead_span):
        # 7 x 700 B: chunks of 1,634 B, so k02 crosses chunks 0 and 1
        cluster, client, data, record, servers = sealed_stripe(7)
        straddler = next(
            key for key in sorted(data)
            if len(spans_of(cluster, record, key)) == 2
        )
        spans = spans_of(cluster, record, straddler)
        cluster.fail_servers([servers[spans[dead_span][0]]])
        values = read_all(cluster, client, [straddler])
        assert values[straddler].data == data[straddler]
        assert counter(cluster, "stripes.degraded_reads") == 1
        assert counter(cluster, "stripes.column_reads") == 1

    def test_two_dead_holders(self):
        cluster, client, data, record, servers = sealed_stripe(6)
        cluster.fail_servers(servers[:2])  # m = 2: both gone at once
        values = read_all(cluster, client, sorted(data))
        for key, payload in data.items():
            assert values[key].data == payload, key
        degraded = counter(cluster, "stripes.degraded_reads")
        assert degraded >= 2
        assert counter(cluster, "stripes.column_reads") == degraded

    def test_slices_of_two_carrier_versions_never_decode_together(self):
        cluster, client, data, record, servers = sealed_stripe(6)
        cluster.fail_servers([servers[0]])
        # a newer-version chunk 1 with other bytes, valid CRC and all:
        # mixing its slice with the others' would decode garbage
        holder = cluster.servers[servers[1]]
        ckey = chunk_key(record.name, 1)
        item = holder.cache.peek(ckey)
        stale = Payload.from_bytes(bytes(b ^ 0x5A for b in item.data))
        meta = dict(item.meta, ver=item.meta["ver"] + 1, crc=stale.checksum())
        assert holder.store_item(ckey, stale, meta)
        values = read_all(cluster, client, ["k00"])
        assert values["k00"].data == data["k00"]
        assert counter(cluster, "stripes.column_reads") == 1

    @pytest.mark.parametrize("rotted_chunk", [0, 1])
    def test_corrupt_answer_falls_back_to_stripe_decode(self, rotted_chunk):
        """Rot in the object's own chunk (its slice read answers
        CORRUPT) or in a survivor (the column gather meets it): only
        the stripe decode drops and read-repairs the rotted chunk."""
        cluster, client, data, record, servers = sealed_stripe(6)
        (span,) = spans_of(cluster, record, "k00")
        assert span[0] == 0
        if rotted_chunk:
            cluster.fail_servers([servers[0]])
        rotted = cluster.servers[servers[rotted_chunk]]
        ckey = chunk_key(record.name, rotted_chunk)
        assert rotted.corrupt_item(ckey)
        values = read_all(cluster, client, ["k00"])
        assert values["k00"].data == data["k00"]
        assert counter(cluster, "stripes.degraded_reads") == 1
        assert counter(cluster, "stripes.column_reads") == 0
        cluster.run()  # let the queued read-repair land
        assert counter(cluster, "reads.read_repair") >= 1
        item = rotted.cache.peek(ckey)
        assert item is not None
        assert item.payload().checksum() == item.meta["crc"]

    def test_bit_matrix_codec_decodes_the_stripe(self):
        cluster, client, data, record, servers = sealed_stripe(
            6, codec="crs"
        )
        assert not cluster.scheme.codec.columnar
        cluster.fail_servers([servers[0]])
        values = read_all(cluster, client, sorted(data))
        for key, payload in data.items():
            assert values[key].data == payload, key
        assert counter(cluster, "stripes.degraded_reads") >= 1
        assert counter(cluster, "stripes.column_reads") == 0


class HeldReply:
    """Fabric interceptor: drop the next reply ``holder`` sends
    ``client``, so that read waits out its request timeout."""

    def __init__(self, holder, client):
        self.route = (holder, client)

    def on_message(self, src, dst, **kwargs):
        if (src, dst) != self.route:
            return None
        self.route = None
        return FaultAction(drop=True)


class TestReadRaces:
    """A Get whose read fails because the key moved under it (its
    stripe sealed, or compaction re-homed it) reads the key again."""

    def test_journal_read_outlives_the_seal(self):
        cluster = fresh()
        cluster.config.harden(HARDENED_POLICY)
        client = cluster.add_client()
        data = patterned(300)
        drive(cluster, client.set("k", Payload.from_bytes(data)))
        scheme = cluster.scheme
        record = scheme.open_stripe
        hold = HeldReply(record.journal_holders[0], client.name)
        cluster.fabric.add_interceptor(hold)
        get = cluster.sim.process(client.get("k"))
        # while the first holder's answer is held, the seal finishes and
        # st_jclear retires every journal copy
        scheme._start_seal(scheme._gc_client(), record)
        value = cluster.sim.run(get)
        assert record.sealed
        assert value is not None and value.data == data

    def test_slice_read_outlives_a_compaction_rehome(self):
        cluster, client, data, record, servers = sealed_stripe(8, size=500)
        cluster.config.harden(HARDENED_POLICY)
        scheme = cluster.scheme
        (span,) = spans_of(cluster, record, "k07")
        cluster.fabric.add_interceptor(
            HeldReply(servers[span[0]], client.name)
        )
        get = cluster.sim.process(client.get("k07"))

        def deletes():
            # 2 of 8 objects stay live: the stripe becomes a GC victim
            for key in sorted(data)[:6]:
                yield from client.delete(key)

        cluster.sim.process(deletes())
        value = cluster.sim.run(get)
        assert scheme.locate("k07").stripe_id != record.stripe_id
        assert record.stripe_id not in {
            r.stripe_id for r in scheme.stripe_records()
        }
        assert value is not None and value.data == data["k07"]
