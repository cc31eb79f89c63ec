"""Failure injection scheduling and the background repair extension."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.membership.rebuild import BandwidthThrottle
from repro.resilience import recovery
from repro.resilience.recovery import FailureInjector, RepairManager
from repro.resilience.erasure import chunk_key
from repro.simulation import REBUILD_WINDOW

MIB = 1024 * 1024


def fresh(scheme="era-ce-cd", servers=5):
    return build_cluster(
        scheme=scheme, servers=servers, memory_per_server=64 * MIB
    )


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


class TestFailureInjector:
    def test_fail_at_scheduled_time(self):
        cluster = fresh()
        injector = FailureInjector(cluster)
        injector.fail_at("server-0", when=5.0)

        def probe():
            yield cluster.sim.timeout(4.0)
            before = cluster.servers["server-0"].alive
            yield cluster.sim.timeout(2.0)
            after = cluster.servers["server-0"].alive
            return before, after

        assert drive(cluster, probe()) == (True, False)

    def test_recover_at(self):
        cluster = fresh()
        injector = FailureInjector(cluster)
        injector.fail_at("server-1", when=1.0)
        injector.recover_at("server-1", when=3.0)

        def probe():
            yield cluster.sim.timeout(10.0)
            return cluster.servers["server-1"].alive

        assert drive(cluster, probe()) is True
        faults = cluster.events.query("chaos.fault")
        assert [e.fields["fault"] for e in faults] == ["fail", "recover"]

    def test_fail_now(self):
        cluster = fresh()
        injector = FailureInjector(cluster)
        injector.fail_now(["server-2", "server-3"])
        assert not cluster.servers["server-2"].alive
        assert not cluster.servers["server-3"].alive

    def test_unknown_server_rejected(self):
        cluster = fresh()
        injector = FailureInjector(cluster)
        with pytest.raises(KeyError):
            injector.fail_at("server-99", when=1.0)

    def test_recover_now_mirrors_fail_now(self):
        cluster = fresh()
        injector = FailureInjector(cluster)
        injector.fail_now(["server-2", "server-3"])
        injector.recover_now(["server-2", "server-3"])
        assert cluster.servers["server-2"].alive
        assert cluster.servers["server-3"].alive
        # same (time, kind, name) shape as the scheduled variants
        assert [
            (e.time, e.fields["fault"], e.fields["detail"])
            for e in cluster.events.query("chaos.fault")
        ] == [
            (0.0, "fail", "server-2"),
            (0.0, "fail", "server-3"),
            (0.0, "recover", "server-2"),
            (0.0, "recover", "server-3"),
        ]

    def test_recover_now_restarts_with_empty_memory(self):
        cluster = fresh()
        server = cluster.servers["server-1"]
        value = Payload.from_bytes(b"x" * 64)
        assert server.store_item("k", value, meta={})
        injector = FailureInjector(cluster)
        injector.fail_now(["server-1"])
        injector.recover_now(["server-1"])
        assert server.alive
        assert server.cache.peek("k") is None


class TestRepairManager:
    def test_repair_restores_fault_tolerance(self):
        """After repair, the value must survive the *next* two failures."""
        cluster = fresh(servers=6)  # one node outside the placement
        scheme = cluster.scheme
        client = cluster.add_client()
        data = bytes((i * 3) % 256 for i in range(6000))

        def store():
            yield from client.set("key", Payload.from_bytes(data))

        drive(cluster, store())
        placement = scheme.placement(cluster.ring, "key")
        victim = placement[1]
        cluster.fail_servers([victim])

        repair = RepairManager(cluster, scheme)

        def run_repair():
            count = yield from repair.repair_server(victim, ["key"])
            return count

        assert drive(cluster, run_repair()) == 1
        assert repair.repaired_bytes > 0

        # the rebuilt chunk lives on a substitute node outside the placement
        substitutes = [
            name
            for name, server in cluster.servers.items()
            if name not in placement
            and server.cache.peek(chunk_key("key", 1)) is not None
        ]
        assert substitutes

    def test_repair_targets_moved_chunk_and_excludes_corrupt_holder(self):
        """Holder list moved since write + rot on a survivor.

        After the write, chunk 1 is relocated to a node outside the
        original placement (what a membership-epoch move does), and a
        surviving chunk rots on its holder.  When the relocated node
        then dies, repair must (a) find chunk 1 at its *current*
        location — the original placement no longer holds it — and
        (b) place the rebuilt chunk on a substitute that is not the
        corrupt survivor's holder: two chunks of one stripe on a node
        that is already feeding the decode bad bytes would fail
        together later.
        """
        cluster = fresh(servers=8)
        scheme = cluster.scheme
        client = cluster.add_client()
        data = bytes((i * 7) % 256 for i in range(6000))

        def store():
            yield from client.set("key", Payload.from_bytes(data))

        drive(cluster, store())
        placement = scheme.placement(cluster.ring, "key")
        outside = [
            name for name in sorted(cluster.servers) if name not in placement
        ]
        moved_to = outside[0]

        # epoch moved: chunk 1 now lives outside the write-time placement
        old_holder = cluster.servers[placement[1]]
        skey = chunk_key("key", 1)
        item = old_holder.cache.peek(skey)
        assert item is not None
        cluster.servers[moved_to].store_item(
            skey, item.payload(), meta=dict(item.meta)
        )
        old_holder.cache.delete(skey)
        scheme.record_relocation("key", 1, moved_to)

        # a surviving chunk rots in place on its holder
        corrupt_holder = placement[3]
        assert cluster.servers[corrupt_holder].corrupt_item(
            chunk_key("key", 3), byte_offset=11
        )

        cluster.fail_servers([moved_to])
        repair = RepairManager(cluster, scheme)

        def run_repair():
            return (yield from repair.repair_server(moved_to, ["key"]))

        # repair found the chunk at its current (moved) location ...
        assert drive(cluster, run_repair()) == 1
        current = scheme.chunk_servers(cluster.ring, "key")
        new_holder = current[1]
        # ... rebuilt it onto a live substitute, not back on the dead
        # node and not onto any node already holding a chunk (the
        # corrupt holder included)
        assert new_holder != moved_to
        assert new_holder != corrupt_holder
        assert new_holder not in placement
        assert cluster.servers[new_holder].cache.peek(skey) is not None

        # the value decodes with full fault tolerance restored: the
        # rotten chunk plus any one more failure stay within m=2
        cluster.fail_servers([current[0]])

        def read():
            return (yield from client.get("key"))

        value = drive(cluster, read())
        assert value.data == data

    def test_repair_skips_unaffected_keys(self):
        cluster = fresh(servers=6)
        client = cluster.add_client()

        def store():
            yield from client.set("key", Payload.sized(1000))

        drive(cluster, store())
        placement = cluster.scheme.placement(cluster.ring, "key")
        outside = next(
            name for name in cluster.servers if name not in placement
        )
        repair = RepairManager(cluster, cluster.scheme)

        def run_repair():
            return (yield from repair.repair_server(outside, ["key"]))

        assert drive(cluster, run_repair()) == 0


LRC = dict(codec="lrc", k=6, m=4)  # LRC(6,2,2): groups {0,1,2} and {3,4,5}


def patterned(size, salt=0):
    return bytes((i * 31 + 7 + salt) % 256 for i in range(size))


def loaded(servers, count, size=60_000, **codec):
    """A cluster holding ``count`` real-byte values; returns the bytes too."""
    cluster = build_cluster(
        scheme="era-ce-cd", servers=servers, memory_per_server=64 * MIB,
        **codec,
    )
    client = cluster.add_client()
    data = {"key-%02d" % i: patterned(size, salt=i) for i in range(count)}

    def store():
        for key, value in data.items():
            yield from client.set(key, Payload.from_bytes(value))

    drive(cluster, store())
    return cluster, client, data


def assert_byte_exact(cluster, client, data):
    def read():
        values = {}
        for key in data:
            values[key] = yield from client.get(key)
        return values

    values = drive(cluster, read())
    assert {key: value.data for key, value in values.items()} == data


class TestLrcRepair:
    def test_restarted_victim_on_exactly_n_servers_strands_no_key(self):
        """Local repair used to exclude *every* location — the failed
        node included — when picking where the rebuilt chunk goes.  On a
        cluster of exactly n servers the restarted victim is the only
        candidate, so every locally repairable key stayed unrepaired
        (only the global-parity losses, which never took that path,
        came back)."""
        cluster, client, data = loaded(10, 20, **LRC)
        scheme = cluster.scheme
        lost = {
            key: scheme.placement(cluster.ring, key).index("server-1")
            for key in data
        }
        cluster.fail_servers(["server-1"])
        cluster.recover_servers(["server-1"])
        repair = RepairManager(cluster, scheme)
        drive(cluster, repair.repair_server("server-1", list(data)))
        assert repair.repaired_keys == 20
        # data chunks and local parities (indices below 8) have a group
        assert repair.local_repairs == sum(i < 8 for i in lost.values()) > 0
        assert scheme.relocations == {
            (key, index): "server-1" for key, index in lost.items()
        }
        assert_byte_exact(cluster, client, data)

    def test_single_losses_rebuild_from_the_local_group(self):
        reads = {}
        for name, codec in (("lrc", LRC), ("rs", dict(k=6, m=4))):
            cluster, client, data = loaded(12, 12, **codec)
            victim = "server-3"
            cluster.fail_servers([victim])
            repair = RepairManager(cluster, cluster.scheme)
            drive(cluster, repair.repair_server(victim, list(data)))
            assert repair.repaired_keys > 0
            reads[name] = (repair.repaired_keys, repair.bytes_read_for_repair)
            if name == "lrc":
                assert 0 < repair.local_repairs <= repair.repaired_keys
            else:
                assert repair.local_repairs == 0
            # the victim stays dead: reads go through the rebuilt chunks
            assert_byte_exact(cluster, client, data)
        # same keys, same ring, same losses: the group read is cheaper
        assert reads["lrc"][0] == reads["rs"][0]
        assert reads["lrc"][1] < reads["rs"][1]

    def _lose_chunk_zero(self):
        cluster, client, data = loaded(12, 1, **LRC)
        (key,) = data
        holders = cluster.scheme.placement(cluster.ring, key)
        cluster.fail_servers([holders[0]])
        return cluster, client, data, key, holders

    def _repair(self, cluster, victim, key):
        repair = RepairManager(cluster, cluster.scheme)
        assert drive(cluster, repair.repair_server(victim, [key])) == 1
        return repair

    def test_intact_group_repairs_locally(self):
        cluster, client, data, key, holders = self._lose_chunk_zero()
        repair = self._repair(cluster, holders[0], key)
        assert repair.local_repairs == 1
        # chunks 1, 2 and the group's parity: half a value, not a whole one
        assert repair.bytes_read_for_repair == 3 * 10_000
        assert_byte_exact(cluster, client, data)

    def test_missing_group_member_falls_back_to_global_decode(self):
        cluster, client, data, key, holders = self._lose_chunk_zero()
        # a hole on a live holder: the group fetch finds NOT_FOUND
        assert cluster.servers[holders[1]].cache.delete(chunk_key(key, 1))
        repair = self._repair(cluster, holders[0], key)
        assert repair.local_repairs == 0
        assert repair.bytes_read_for_repair == 60_000
        assert_byte_exact(cluster, client, data)

    def test_group_spanning_two_versions_falls_back_to_global_decode(self):
        cluster, client, data, key, holders = self._lose_chunk_zero()
        # a partial overwrite left one newer chunk inside the group
        server = cluster.servers[holders[2]]
        old = server.cache.peek(chunk_key(key, 2))
        newer = Payload.from_bytes(patterned(old.value_len, salt=200))
        assert server.store_item(
            chunk_key(key, 2),
            newer,
            meta=dict(old.meta, ver=old.meta["ver"] + 1, crc=newer.checksum()),
        )
        repair = self._repair(cluster, holders[0], key)
        assert repair.local_repairs == 0
        # XORing the mixed group would have fabricated a chunk; the global
        # decode rebuilt the acknowledged version instead
        current = cluster.scheme.chunk_servers(cluster.ring, key)[0]
        rebuilt = cluster.servers[current].cache.peek(chunk_key(key, 0))
        assert rebuilt.meta["ver"] == old.meta["ver"]
        assert bytes(rebuilt.data) == data[key][:10_000]
        assert_byte_exact(cluster, client, data)


def spy_repair_requests(cluster, monkeypatch):
    """Log ``(server, op, storage_key)`` of every repair-client request."""
    log = []
    add_client = cluster.add_client

    def add_spied_client(*args, **kwargs):
        client = add_client(*args, **kwargs)
        if kwargs.get("name_hint") == "repair":
            request = client.request

            def logged(dst, op, key, *rest, **options):
                log.append((dst, op, key))
                return request(dst, op, key, *rest, **options)

            client.request = logged
        return client

    monkeypatch.setattr(cluster, "add_client", add_spied_client)
    return log


def restart_empty(cluster, names):
    cluster.fail_servers(names)
    cluster.recover_servers(names)


class TestOneGatherPerKey:
    """A repair gather never fetches what it rebuilds, and restores every
    chunk it proved lost from the same decode."""

    VICTIMS = ["server-1", "server-2"]

    def _double_failure(self, monkeypatch, count=30):
        cluster, client, data = loaded(6, count, size=6_000)
        scheme = cluster.scheme
        lost = {
            (key, index)
            for key in data
            for index, name in enumerate(
                scheme.chunk_servers(cluster.ring, key)
            )
            if name in self.VICTIMS
        }
        restart_empty(cluster, self.VICTIMS)
        log = spy_repair_requests(cluster, monkeypatch)
        repair = RepairManager(cluster, scheme)
        return cluster, client, data, lost, log, repair

    def _assert_whole(self, cluster, data):
        scheme = cluster.scheme
        for key in data:
            holders = scheme.chunk_servers(cluster.ring, key)
            assert len(set(holders)) == scheme.n, key
            for index, name in enumerate(holders):
                stored = cluster.servers[name].cache.peek(chunk_key(key, index))
                assert stored is not None, (key, index, name)

    def test_double_failure_reads_under_k_and_writes_each_loss_once(
        self, monkeypatch
    ):
        cluster, client, data, lost, log, repair = self._double_failure(
            monkeypatch
        )
        for victim in self.VICTIMS:
            drive(cluster, repair.repair_server(victim, list(data)))
        # each key's victims' chunks come back, from one decode where the
        # first gather saw the second victim miss
        writes = [key for _dst, op, key in log if op == "set"]
        assert sorted(writes) == sorted(chunk_key(k, i) for k, i in lost)
        assert repair.repaired_bytes == 2_000 * len(lost)
        assert repair.bytes_read_for_repair < 3 * repair.repaired_bytes
        # a key counts once per pass that found it affected, whether that
        # pass rebuilt it or the first one already had
        assert repair.repaired_keys == sum(
            victim in cluster.scheme.placement(cluster.ring, key)
            for victim in self.VICTIMS
            for key in data
        )
        self._assert_whole(cluster, data)
        assert_byte_exact(cluster, client, data)

    def test_restarted_victim_is_never_asked_for_the_chunk_being_rebuilt(
        self, monkeypatch
    ):
        cluster, client, data = loaded(6, 30, size=6_000)
        restart_empty(cluster, ["server-1"])
        log = spy_repair_requests(cluster, monkeypatch)
        repair = RepairManager(cluster, cluster.scheme)
        drive(cluster, repair.repair_server("server-1", list(data)))
        assert repair.repaired_keys > 0
        assert [r for r in log if r[:2] == ("server-1", "get")] == []
        # nothing else was missing: one chunk written per repaired key
        assert sum(op == "set" for _dst, op, _key in log) == (
            repair.repaired_keys
        )
        assert repair.bytes_read_for_repair == 3 * repair.repaired_bytes
        self._assert_whole(cluster, data)
        assert_byte_exact(cluster, client, data)

    def test_restored_chunk_lost_again_is_repaired_again(self, monkeypatch):
        cluster, client, data, lost, log, repair = self._double_failure(
            monkeypatch
        )
        first, second = self.VICTIMS
        drive(cluster, repair.repair_server(first, list(data)))
        # pass 1 restored some of the second victim's chunks in place
        early = {
            key
            for dst, op, key in log
            if op == "set" and dst == second
        }
        assert early
        # ... and then the second victim crashes and restarts empty again
        restart_empty(cluster, [second])
        del log[:]
        drive(cluster, repair.repair_server(second, list(data)))
        rewritten = {key for dst, op, key in log if op == "set"}
        assert early <= rewritten
        self._assert_whole(cluster, data)
        assert_byte_exact(cluster, client, data)

    def test_each_pass_returns_its_own_count(self, monkeypatch):
        cluster, client, data, lost, log, repair = self._double_failure(
            monkeypatch
        )
        first, second = self.VICTIMS
        placements = {
            key: cluster.scheme.placement(cluster.ring, key) for key in data
        }
        counts = [
            drive(cluster, repair.repair_server(victim, list(data)))
            for victim in (first, second)
        ]
        assert counts == [
            sum(victim in placement for placement in placements.values())
            for victim in (first, second)
        ]
        assert repair.repaired_keys == sum(counts)

    def test_write_back_of_a_proven_loss_loses_to_a_newer_set(
        self, monkeypatch
    ):
        # the stale-write guard, on in a default cluster, is what keeps
        # the old version out; on exactly n servers the victim takes its
        # own chunk back
        cluster, client, data = loaded(5, 1, size=6_000)
        (key,) = data
        scheme = cluster.scheme
        holders = scheme.chunk_servers(cluster.ring, key)
        victim, hole = holders[0], holders[1]
        restart_empty(cluster, [victim])
        # a live holder lost chunk 1 too: the gather's fetch misses
        assert cluster.servers[hole].cache.delete(chunk_key(key, 1))
        newer = patterned(6_000, salt=99)
        rebuild = scheme.rebuild_chunks

        def rebuild_then_overwrite(rclient, rkey, indices):
            rebuilt = yield from rebuild(rclient, rkey, indices)
            # a newer Set lands between the gather and the write-backs
            assert (yield from client.set(rkey, Payload.from_bytes(newer)))
            return rebuilt

        monkeypatch.setattr(scheme, "rebuild_chunks", rebuild_then_overwrite)
        log = spy_repair_requests(cluster, monkeypatch)
        repair = RepairManager(cluster, scheme)
        stale = cluster.metrics.counter("writes.stale_dropped")
        before = stale.value
        drive(cluster, repair.repair_server(victim, [key]))
        # both rebuilt chunks were written back — the proven loss to the
        # holder that lost it — and both were dropped as stale
        assert sorted(k for _d, op, k in log if op == "set") == [
            chunk_key(key, 0), chunk_key(key, 1)
        ]
        assert stale.value - before == 2
        assert scheme.relocations == {}
        assert repair._restored == {}
        current = cluster.servers[hole].cache.peek(chunk_key(key, 1))
        assert bytes(current.data) == newer[2_000:4_000]
        assert_byte_exact(cluster, client, {key: newer})


def spy_rebuilds(scheme, monkeypatch):
    """Track how many ``rebuild_chunks`` gathers are in flight at once;
    returns ``[now, peak]``."""
    in_flight = [0, 0]
    rebuild = scheme.rebuild_chunks

    def tracked(client, key, indices):
        in_flight[0] += 1
        in_flight[1] = max(in_flight[1], in_flight[0])
        try:
            return (yield from rebuild(client, key, indices))
        finally:
            in_flight[0] -= 1

    monkeypatch.setattr(scheme, "rebuild_chunks", tracked)
    return in_flight


class TestWindowedRepair:
    """Repair runs REBUILD_WINDOW keys at once through ``run_window``."""

    VICTIMS = ["server-1", "server-2"]

    def _repair_double_failure(self, count=30):
        cluster, client, data = loaded(6, count, size=6_000)
        restart_empty(cluster, self.VICTIMS)
        repair = RepairManager(cluster, cluster.scheme)
        passes = [
            drive(cluster, repair.repair_server(victim, list(data)))
            for victim in self.VICTIMS
        ]
        holders = {
            (key, index): name
            for key in data
            for index, name in enumerate(
                cluster.scheme.chunk_servers(cluster.ring, key)
            )
        }
        assert_byte_exact(cluster, client, data)
        return (
            passes, repair.repaired_keys, repair.repaired_bytes,
            repair.bytes_read_for_repair, holders,
        )

    def test_windowed_repair_ends_where_serial_repair_does(self, monkeypatch):
        windowed = self._repair_double_failure()
        monkeypatch.setattr(recovery, "REBUILD_WINDOW", 1)
        serial = self._repair_double_failure()
        assert windowed == serial
        assert windowed[1] > 0

    def test_gathers_in_flight_fill_the_window_and_never_exceed_it(
        self, monkeypatch
    ):
        cluster, client, data = loaded(6, 3 * REBUILD_WINDOW, size=6_000)
        victim = "server-1"
        cluster.fail_servers([victim])
        in_flight = spy_rebuilds(cluster.scheme, monkeypatch)
        repair = RepairManager(cluster, cluster.scheme)
        affected = drive(cluster, repair.repair_server(victim, list(data)))
        assert affected > REBUILD_WINDOW
        assert in_flight == [0, REBUILD_WINDOW]
        assert_byte_exact(cluster, client, data)

    def test_throttle_caps_all_workers_together(self, monkeypatch):
        cluster, client, data = loaded(6, 3 * REBUILD_WINDOW, size=6_000)
        victim = "server-1"
        cluster.fail_servers([victim])
        in_flight = spy_rebuilds(cluster.scheme, monkeypatch)
        cap = 20 * MIB
        throttle = BandwidthThrottle(cluster.sim, cap)
        repair = RepairManager(cluster, cluster.scheme, throttle=throttle)
        start = cluster.sim.now
        drive(cluster, repair.repair_server(victim, list(data)))
        assert in_flight[1] == REBUILD_WINDOW
        # the cap binds: the pass lasts at least as long as its bytes
        # take at the capped rate, and no window carries more than that
        assert cluster.sim.now - start >= throttle.total_bytes / cap
        window = (cluster.sim.now - start) / 10
        assert 0 < throttle.peak_rate(window) <= cap * (1 + 1e-9)
        assert_byte_exact(cluster, client, data)
