"""Scrubber behavior: config wiring, detect/heal, stripes, determinism."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.core.features import ClusterConfig
from repro.faults import ChaosEngine
from repro.resilience.erasure import chunk_key
from repro.stripes.buffer import journal_key

MIB = 1024 * 1024


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def fresh(config=None, **kwargs):
    kwargs.setdefault("servers", 6)
    kwargs.setdefault("memory_per_server", 64 * MIB)
    kwargs.setdefault("scheme", "era-ce-cd")
    return build_cluster(config=config, **kwargs)


def patterned(size, salt=0):
    return bytes((i * 31 + 7 + salt) % 256 for i in range(size))


def store(cluster, client, count=6, size=6000):
    data = {}

    def body():
        for i in range(count):
            key = "key-%d" % i
            data[key] = patterned(size, salt=i)
            yield from client.set(key, Payload.from_bytes(data[key]))

    drive(cluster, body())
    return data


class TestConfigWiring:
    def test_default_config_builds_no_scrubber(self):
        cluster = fresh()
        assert cluster.scrubber is None
        assert cluster.config.scrubbing is None

    def test_with_scrubbing_attaches_and_disable_detaches(self):
        cluster = fresh()
        cluster.config.with_scrubbing(scan_period=0.5)
        scrubber = cluster.scrubber
        assert scrubber is not None
        assert scrubber.config.scan_period == 0.5
        assert scrubber.config.audit_period == 0.0
        cluster.config.disable("scrubbing")
        assert cluster.scrubber is None
        assert scrubber._stopped

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig().with_scrubbing(scan_period=0.0)
        with pytest.raises(ValueError):
            ClusterConfig().with_scrubbing(audit_period=-1.0)
        with pytest.raises(ValueError):
            ClusterConfig().with_scrubbing(epsilon=1.5)
        with pytest.raises(ValueError):
            ClusterConfig().with_scrubbing(p_bound=0.0)

    def test_plan_resolves_sample_count(self):
        config = ClusterConfig().with_scrubbing(
            audit_period=0.5, epsilon=1e-2, p_bound=0.1
        )
        cluster = fresh(config=config)
        assert cluster.scrubber.samples_required == 44
        assert cluster.scrubber.config.audit_period == 0.5


class TestScanLoop:
    def test_targets_cover_every_chunk_location(self):
        config = ClusterConfig().with_scrubbing()
        cluster = fresh(config=config)
        client = cluster.add_client()
        store(cluster, client, count=4)
        targets = cluster.scrubber.targets()
        n = cluster.scheme.k + cluster.scheme.m
        assert len(targets) == 4 * n
        assert {t[0] for t in targets} == {"chunk"}

    def test_detects_and_heals_corrupt_chunk(self):
        config = ClusterConfig().with_scrubbing(scan_period=0.2, seed=3)
        cluster = fresh(config=config)
        client = cluster.add_client()
        data = store(cluster, client)
        scrubber = cluster.scrubber

        key = "key-2"
        holders = cluster.scheme.chunk_servers(cluster.ring, key)
        victim, skey = holders[1], chunk_key(key, 1)
        assert cluster.servers[victim].corrupt_item(skey, byte_offset=5)

        scrubber.start(horizon=cluster.sim.now + 1.0)
        cluster.run()

        metrics = cluster.metrics
        assert metrics.counter("scrub.corrupt_found").value == 1
        assert metrics.counter("scrub.repairs_triggered").value == 1
        assert metrics.counter("scrub.chunks_verified").value > 0
        assert metrics.counter("scrub.bytes_read").value > 0
        detections = cluster.events.query("scrub.detect")
        assert detections and cluster.events.query("scrub.heal")
        assert detections[0].fields == {"holder": victim, "key": skey}
        # the rotten chunk was rebuilt in place, on its current holder
        item = cluster.servers[victim].cache.peek(skey)
        assert item is not None
        assert item.meta.get("crc") is not None

        def read():
            return (yield from client.get(key))

        assert drive(cluster, read()).data == data[key]

    def test_reconstructs_missing_chunk(self):
        config = ClusterConfig().with_scrubbing(scan_period=0.2)
        cluster = fresh(config=config)
        client = cluster.add_client()
        store(cluster, client)
        scrubber = cluster.scrubber

        key = "key-0"
        holders = cluster.scheme.chunk_servers(cluster.ring, key)
        victim, skey = holders[3], chunk_key(key, 3)
        assert cluster.servers[victim].cache.delete(skey)

        scrubber.start(horizon=cluster.sim.now + 1.0)
        cluster.run()
        assert cluster.metrics.counter("scrub.repairs_triggered").value == 1
        assert cluster.servers[victim].cache.peek(skey) is not None

    def test_lrc_heal_reads_the_local_group_not_the_value(self):
        """The scrubber heals through ``rebuild_chunks``, so under LRC a
        rotted chunk costs its repair group, like any other single loss."""
        config = ClusterConfig().with_scrubbing()
        cluster = fresh(config=config, servers=10, codec="lrc", k=6, m=4)
        client = cluster.add_client()
        data = store(cluster, client, count=1)
        key, index = "key-0", 1
        holder = cluster.scheme.chunk_servers(cluster.ring, key)[index]
        skey = chunk_key(key, index)
        assert cluster.servers[holder].corrupt_item(skey, byte_offset=5)

        read = cluster.metrics.counter("scrub.bytes_read")
        status = drive(
            cluster, cluster.scrubber.verify(("chunk", holder, skey, key, index))
        )
        assert status == "corrupt"
        # chunks 0, 2 and the group's local parity, 1,000 B each — a full
        # decode would have read the 6,000 B value
        assert read.value == 3000
        healed = cluster.servers[holder].cache.peek(skey)
        assert bytes(healed.data) == data[key][1000:2000]

        def get():
            return (yield from client.get(key))

        assert drive(cluster, get()).data == data[key]

    def test_ttd_tth_matched_against_chaos_rot_log(self):
        config = ClusterConfig().with_scrubbing(scan_period=0.2, seed=1)
        cluster = fresh(config=config)
        client = cluster.add_client()
        store(cluster, client)
        scrubber = cluster.scrubber

        key = "key-4"
        holders = cluster.scheme.chunk_servers(cluster.ring, key)
        victim, index = holders[0], 0
        assert cluster.servers[victim].corrupt_item(
            chunk_key(key, index), byte_offset=9
        )
        # ground truth, exactly as ChaosEngine._bitrot_loop emits it
        cluster.events.emit(
            "chaos.rot", server=victim, key=chunk_key(key, index)
        )

        scrubber.start(horizon=cluster.sim.now + 1.0)
        cluster.run()
        snapshot = cluster.metrics.snapshot("scrub.")
        assert snapshot["scrub.time_to_detect"]["count"] == 1
        assert snapshot["scrub.time_to_heal"]["count"] == 1
        assert 0.0 < snapshot["scrub.time_to_detect"]["max"] <= 0.4
        assert (
            snapshot["scrub.time_to_heal"]["max"]
            >= snapshot["scrub.time_to_detect"]["max"]
        )


    def test_ttd_samples_are_detections_of_injected_rot(self):
        """Under a rotting chaos profile, each ``scrub.time_to_detect``
        sample is one detection of a chunk a ``chaos.rot`` event hit."""
        config = ClusterConfig().with_scrubbing(scan_period=0.1, seed=5)
        cluster = fresh(config=config)
        store(cluster, cluster.add_client(), count=12)
        ChaosEngine(cluster, "rot", seed=3).start(cluster.sim.now + 1.0)
        cluster.scrubber.start(horizon=cluster.sim.now + 1.5)
        cluster.run()
        rotted = {
            (e.fields["server"], e.fields["key"])
            for e in cluster.events.query("chaos.rot")
        }
        matched = [
            e for e in cluster.events.query("scrub.detect")
            if (e.fields["holder"], e.fields["key"]) in rotted
        ]
        ttd = cluster.metrics.snapshot("scrub.")["scrub.time_to_detect"]
        assert matched
        assert ttd["count"] == len(matched)


class TestStripeAwareness:
    def _striped(self):
        config = ClusterConfig().with_small_object_stripes(
            seal_timeout=10.0
        ).with_scrubbing(scan_period=0.2, seed=2)
        cluster = fresh(config=config)
        return cluster, cluster.add_client()

    def test_targets_include_open_stripe_journal_copies(self):
        cluster, client = self._striped()

        def body():
            yield from client.set("tiny", Payload.from_bytes(b"y" * 60))

        drive(cluster, body())
        targets = cluster.scrubber.targets()
        journal = [t for t in targets if t[0] == "journal"]
        assert len(journal) == cluster.scheme.tolerated_failures + 1
        record = cluster.scheme.open_stripe
        assert journal[0][2] == journal_key(record.stripe_id, "tiny")

    def test_heals_corrupt_journal_copy(self):
        cluster, client = self._striped()
        data = patterned(80)

        def body():
            yield from client.set("tiny", Payload.from_bytes(data))

        drive(cluster, body())
        record = cluster.scheme.open_stripe
        victim = record.journal_holders[0]
        jkey = journal_key(record.stripe_id, "tiny")
        assert cluster.servers[victim].corrupt_item(jkey, byte_offset=3)

        cluster.scrubber.start(horizon=cluster.sim.now + 1.0)

        def wait():
            # advance past the scan but stop short of the seal timer:
            # sealing legitimately garbage-collects every journal copy
            yield cluster.sim.timeout(1.0)

        drive(cluster, wait())
        assert cluster.metrics.counter("scrub.corrupt_found").value == 1
        healed = cluster.servers[victim].cache.peek(jkey)
        assert healed is not None and healed.data == data

    def test_heals_corrupt_sealed_carrier_chunk(self):
        config = ClusterConfig().with_small_object_stripes(
            seal_timeout=0.005
        ).with_scrubbing(scan_period=0.2, seed=2)
        cluster = fresh(config=config)
        client = cluster.add_client()
        data = patterned(700)

        def body():
            yield from client.set("small", Payload.from_bytes(data))

        drive(cluster, body())
        cluster.run()  # the seal timer fires and the stripe codes
        sealed = [r for r in cluster.scheme.stripe_records() if r.sealed]
        assert sealed
        carrier = sealed[0].name
        holders = cluster.scheme.chunk_servers(cluster.ring, carrier)
        victim, skey = holders[0], chunk_key(carrier, 0)
        assert cluster.servers[victim].corrupt_item(skey, byte_offset=2)

        cluster.scrubber.start(horizon=cluster.sim.now + 1.0)
        cluster.run()
        assert cluster.metrics.counter("scrub.corrupt_found").value == 1
        assert cluster.servers[victim].cache.peek(skey) is not None

        def read():
            return (yield from client.get("small"))

        assert drive(cluster, read()).data == data


class TestAuditing:
    def test_clean_cluster_certifies(self):
        config = ClusterConfig().with_scrubbing(
            audit_period=0.5, epsilon=1e-2, p_bound=0.1, seed=4
        )
        cluster = fresh(config=config)
        client = cluster.add_client()
        store(cluster, client)
        scrubber = cluster.scrubber

        report = drive(cluster, scrubber.audit_once())
        assert report.certified
        assert report.samples == 44
        assert report.verified == 44
        assert report.corrupt == 0
        assert report.epsilon_achieved <= report.epsilon_target
        audits = cluster.events.query("scrub.audit")
        assert [e.fields for e in audits] == [report.to_dict()]

    def test_empty_population_certifies_vacuously(self):
        config = ClusterConfig().with_scrubbing(audit_period=0.5)
        cluster = fresh(config=config)
        report = drive(cluster, cluster.scrubber.audit_once())
        assert report.certified
        assert report.samples == 0
        assert report.population == 0

    def test_on_audit_callback_fires(self):
        config = ClusterConfig().with_scrubbing(audit_period=0.5)
        cluster = fresh(config=config)
        client = cluster.add_client()
        store(cluster, client, count=2)
        seen = []
        cluster.scrubber.on_audit = seen.append
        drive(cluster, cluster.scrubber.audit_once())
        assert len(seen) == 1 and seen[0].certified


class TestDeterminism:
    def _run(self):
        config = ClusterConfig().with_scrubbing(
            scan_period=0.2, audit_period=0.4, seed=11
        )
        cluster = fresh(config=config)
        client = cluster.add_client()
        store(cluster, client)
        key = "key-1"
        holders = cluster.scheme.chunk_servers(cluster.ring, key)
        cluster.servers[holders[2]].corrupt_item(
            chunk_key(key, 2), byte_offset=7
        )
        cluster.scrubber.start(horizon=cluster.sim.now + 1.0)
        cluster.run()
        return (
            cluster.scrubber.seed,
            cluster.events.query("scrub.detect"),
            cluster.events.query("scrub.heal"),
            cluster.events.query("scrub.audit"),
        )

    def test_same_seed_same_schedule(self):
        assert self._run() == self._run()
