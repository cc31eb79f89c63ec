"""Consistent hashing and placement rules."""

from collections import Counter

import pytest

from repro.store.hashring import HashRing, stable_hash

SERVERS = ["server-%d" % i for i in range(5)]


@pytest.fixture
def ring():
    return HashRing(SERVERS)


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_spreads_keys(self):
        values = {stable_hash("key%d" % i) for i in range(100)}
        assert len(values) == 100


class TestPrimary:
    def test_primary_is_a_known_server(self, ring):
        for i in range(50):
            assert ring.primary("key%d" % i) in SERVERS

    def test_primary_deterministic(self, ring):
        other = HashRing(SERVERS)
        for i in range(50):
            key = "key%d" % i
            assert ring.primary(key) == other.primary(key)

    def test_distribution_reasonably_uniform(self, ring):
        counts = Counter(ring.primary("key%d" % i) for i in range(5000))
        assert len(counts) == 5
        for server, count in counts.items():
            assert 400 < count < 1800, (server, count)

    def test_ring_stability_under_growth(self):
        """Consistent hashing: adding a server moves only some keys."""
        small = HashRing(SERVERS)
        large = HashRing(SERVERS + ["server-5"])
        moved = sum(
            1
            for i in range(2000)
            if small.primary("key%d" % i) != large.primary("key%d" % i)
        )
        # naive mod-hashing would move ~83%; consistent hashing ~1/6
        assert moved < 800


class TestPlacement:
    def test_placement_starts_at_primary(self, ring):
        key = "object-1"
        placement = ring.placement(key, 5)
        assert placement[0] == ring.primary(key)

    def test_placement_follows_list_order(self, ring):
        """The paper's rule: primary + N-1 *following* servers in the
        cluster list (Section IV-A)."""
        key = "object-2"
        placement = ring.placement(key, 3)
        start = SERVERS.index(placement[0])
        expected = [SERVERS[(start + i) % 5] for i in range(3)]
        assert placement == expected

    def test_placement_distinct_servers(self, ring):
        placement = ring.placement("k", 5)
        assert len(set(placement)) == 5

    def test_placement_count_validation(self, ring):
        with pytest.raises(ValueError):
            ring.placement("k", 0)
        with pytest.raises(ValueError):
            ring.placement("k", 6)


class TestValidation:
    def test_empty_server_list(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_duplicate_servers(self):
        with pytest.raises(ValueError):
            HashRing(["a", "a"])


class TestIncrementalConstructors:
    def test_with_server_equals_full_rebuild(self, ring):
        grown = ring.with_server("server-5")
        rebuilt = HashRing(SERVERS + ["server-5"])
        for i in range(500):
            key = "key%d" % i
            assert grown.primary(key) == rebuilt.primary(key)
            assert grown.placement(key, 3) == rebuilt.placement(key, 3)

    def test_without_server_equals_full_rebuild(self, ring):
        shrunk = ring.without_server("server-2")
        rebuilt = HashRing([s for s in SERVERS if s != "server-2"])
        for i in range(500):
            key = "key%d" % i
            assert shrunk.primary(key) == rebuilt.primary(key)
            assert shrunk.placement(key, 3) == rebuilt.placement(key, 3)

    def test_original_ring_unchanged(self, ring):
        before = [ring.primary("key%d" % i) for i in range(100)]
        ring.with_server("server-5")
        ring.without_server("server-0")
        after = [ring.primary("key%d" % i) for i in range(100)]
        assert before == after

    def test_with_server_rejects_duplicate(self, ring):
        with pytest.raises(ValueError):
            ring.with_server("server-0")

    def test_without_server_rejects_absent(self, ring):
        with pytest.raises(ValueError):
            ring.without_server("nope")

    def test_without_server_rejects_last(self):
        lone = HashRing(["only"])
        with pytest.raises(ValueError):
            lone.without_server("only")

    def test_join_disruption_is_about_one_over_n(self):
        """Consistent-hashing property: joining the N+1th server remaps
        roughly 1/(N+1) of keys — nowhere near a full reshuffle."""
        num_keys = 4000
        for n in (5, 8):
            ring = HashRing(["node-%d" % i for i in range(n)])
            grown = ring.with_server("node-%d" % n)
            moved = sum(
                1
                for i in range(num_keys)
                if ring.primary("key%d" % i) != grown.primary("key%d" % i)
            )
            expected = num_keys / (n + 1)
            # generous band: within 3x either side of the ideal fraction
            assert expected / 3 < moved < expected * 3, (n, moved)

    def test_leave_disruption_only_touches_departed_keys(self):
        """Removing a server must remap exactly the keys it owned."""
        ring = HashRing(["node-%d" % i for i in range(6)])
        shrunk = ring.without_server("node-3")
        for i in range(2000):
            key = "key%d" % i
            if ring.primary(key) != "node-3":
                assert shrunk.primary(key) == ring.primary(key)
            else:
                assert shrunk.primary(key) != "node-3"
