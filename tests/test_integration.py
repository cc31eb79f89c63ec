"""Cross-module integration scenarios exercising the full stack."""

import pytest

from repro import Payload, build_cluster
from repro.resilience import FailureInjector, RepairManager
from repro.workloads.keys import KeyValueSource

MIB = 1024 * 1024
GIB = 1024 ** 3


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


class TestMixedWorkloadLifecycle:
    def test_write_fail_read_recover_cycle(self):
        """Full lifecycle: load data, lose two nodes mid-workload, keep
        serving, repair, then survive two *more* failures."""
        cluster = build_cluster(
            scheme="era-ce-cd", servers=7, memory_per_server=GIB
        )
        client = cluster.add_client()
        source = KeyValueSource(seed=13)
        values = {
            source.key(i): source.value(8192, with_data=True)
            for i in range(40)
        }

        def load():
            handles = [client.iset(k, v) for k, v in values.items()]
            yield client.wait(handles)

        drive(cluster, load())

        victim = cluster.ring.primary(source.key(0))
        cluster.servers[victim].fail()

        def verify_all():
            for key, value in values.items():
                got = yield from client.get(key)
                assert got is not None, key
                assert got.data == value.data, key

        drive(cluster, verify_all())

        # repair the failed server's chunks, then kill two others
        repair = RepairManager(cluster, cluster.scheme)

        def do_repair():
            yield from repair.repair_server(victim, list(values))

        drive(cluster, do_repair())
        others = [n for n in cluster.servers if n != victim][:2]
        cluster.fail_servers(others)
        drive(cluster, verify_all())

    def test_concurrent_clients_consistent_data(self):
        """Many clients writing disjoint key ranges; all reads verify."""
        cluster = build_cluster(
            scheme="era-se-cd", servers=5, memory_per_server=GIB
        )
        clients = [cluster.add_client(host="h%d" % (i % 3)) for i in range(6)]

        def writer(index, client):
            source = KeyValueSource(seed=index, prefix="w%d_" % index)
            for i in range(15):
                yield from client.set(
                    source.key(i), source.value(4096, with_data=True)
                )

        procs = [
            cluster.sim.process(writer(i, c)) for i, c in enumerate(clients)
        ]
        cluster.sim.run(cluster.sim.all_of(procs))

        def reader(index, client):
            source = KeyValueSource(seed=index, prefix="w%d_" % index)
            expected = KeyValueSource(seed=index, prefix="w%d_" % index)
            for i in range(15):
                got = yield from client.get(source.key(i))
                assert got.data == expected.value(4096, with_data=True).data

        procs = [
            cluster.sim.process(reader(i, c)) for i, c in enumerate(clients)
        ]
        cluster.sim.run(cluster.sim.all_of(procs))

    def test_timed_failure_injection_mid_stream(self):
        """A failure scheduled during a non-blocking burst: operations
        complete, later reads still verify."""
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=GIB
        )
        client = cluster.add_client()
        injector = FailureInjector(cluster)
        injector.fail_at("server-4", when=0.0005)

        def body():
            handles = [
                client.iset("key%03d" % i, Payload.sized(64 * 1024))
                for i in range(50)
            ]
            yield client.wait(handles)
            stored = sum(1 for h in handles if h.result.ok)
            # with one dead server all writes still reach >= k chunks
            assert stored == 50
            misses = 0
            for i in range(50):
                value = yield from client.get("key%03d" % i)
                if value is None:
                    misses += 1
            assert misses == 0

        drive(cluster, body())
        assert injector.log and injector.log[0][1] == "fail"


class TestSchemeEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        ["sync-rep", "async-rep", "era-ce-cd", "era-se-sd", "era-se-cd",
         "era-ce-sd", "hybrid"],
    )
    def test_every_scheme_round_trips_identically(self, scheme):
        cluster = build_cluster(
            scheme=scheme, servers=5, memory_per_server=GIB
        )
        client = cluster.add_client()
        data = bytes((i * 17 + 3) % 256 for i in range(50_000))

        def body():
            yield from client.set("payload", Payload.from_bytes(data))
            value = yield from client.get("payload")
            assert value.data == data

        drive(cluster, body())

    def test_schemes_report_distinct_memory_footprints(self):
        footprints = {}
        for scheme in ("no-rep", "async-rep", "era-ce-cd"):
            cluster = build_cluster(
                scheme=scheme, servers=5, memory_per_server=GIB
            )
            client = cluster.add_client()

            def body():
                for i in range(5):
                    yield from client.set("k%d" % i, Payload.sized(MIB))

            drive(cluster, body())
            footprints[scheme] = cluster.total_stored_bytes
        assert footprints["no-rep"] < footprints["era-ce-cd"]
        assert footprints["era-ce-cd"] < footprints["async-rep"]
        # ratios: ~1 : 5/3 : 3
        assert footprints["async-rep"] / footprints["no-rep"] == pytest.approx(
            3.0, rel=0.05
        )
        assert footprints["era-ce-cd"] / footprints["no-rep"] == pytest.approx(
            5 / 3, rel=0.08
        )


class TestDeterminism:
    def test_full_experiment_bitwise_reproducible(self):
        from repro.harness.figures import ohb

        def once():
            return [
                (scheme, op, ohb("fig8", scheme, op, 16 * 1024, 50).avg_latency)
                for scheme in ("async-rep", "era-ce-cd")
                for op in ("set", "get")
            ]

        assert once() == once()
