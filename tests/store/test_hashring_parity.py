"""Parity properties for the array-backed ring.

Incremental membership changes and batched lookups are optimizations,
never semantic changes: for any membership history (joins, leaves,
replacements, in any order) a derived ring must equal a ring built from
scratch over the same server list, and a batch-warmed cache must agree
with per-key lookups.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.store.hashring import HashRing


def _sample_keys(rng: random.Random, count: int):
    return ["key:%d:%d" % (rng.randrange(1_000_000), i) for i in range(count)]


def _random_walk(rng: random.Random, steps: int):
    """A randomized join/leave/replace history of derived rings."""
    ring = HashRing(["server-%d" % i for i in range(8)])
    fresh_name = 100
    for _ in range(steps):
        op = rng.choice(("join", "leave", "replace"))
        if op == "join" or (op == "replace" and len(ring.servers) < 2):
            ring = ring.with_server("server-%d" % fresh_name)
            fresh_name += 1
        elif op == "leave" and len(ring.servers) > 2:
            ring = ring.without_server(rng.choice(ring.servers))
        elif op == "replace":
            victim = rng.choice(ring.servers)
            name = "server-%d" % fresh_name
            fresh_name += 1
            ring = ring.without_server(victim).with_server(name)
        yield ring


class TestVectorizedParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_membership_walk_preserves_placement(self, seed):
        rng = random.Random(seed)
        keys = _sample_keys(rng, 200)
        for ring in _random_walk(rng, steps=10):
            fresh = HashRing(list(ring.servers))
            count = min(5, len(ring.servers))
            for key in keys:
                assert ring.primary(key) == fresh.primary(key)
                assert ring.placement(key, count) == fresh.placement(key, count)

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_rebuild_matches_fresh_ring(self, seed):
        # with_server/without_server splice the point arrays in place;
        # the result must be indistinguishable from building from
        # scratch (same membership, same points, same owners).
        rng = random.Random(1000 + seed)
        for ring in _random_walk(rng, steps=6):
            fresh = HashRing(list(ring.servers))
            assert np.array_equal(ring._points, fresh._points)
            assert np.array_equal(ring._owner_idx, fresh._owner_idx)

    def test_chunk_servers_parity(self):
        from repro.resilience.registry import make_scheme

        scheme = make_scheme("era-ce-cd", k=3, m=2)
        rng = random.Random(7)
        servers = ["server-%d" % i for i in range(12)]
        derived = (
            HashRing(servers + ["server-x"])
            .without_server("server-3")
            .with_server("server-y")
        )
        fresh = HashRing(
            [s for s in servers if s != "server-3"] + ["server-x", "server-y"]
        )
        for key in _sample_keys(rng, 300):
            assert scheme.chunk_servers(derived, key) == scheme.chunk_servers(
                fresh, key
            )

    def test_warm_matches_per_key_lookup(self):
        rng = random.Random(11)
        servers = ["server-%d" % i for i in range(20)]
        keys = _sample_keys(rng, 500)
        warmed = HashRing(servers)
        warmed.warm(keys)
        cold = HashRing(servers)
        for key in keys:
            assert warmed.primary(key) == cold.primary(key)


class TestConsistentHashingDisruption:
    """Placement stability under churn."""

    def test_removal_only_remaps_the_victims_keys(self):
        rng = random.Random(3)
        servers = ["server-%d" % i for i in range(10)]
        ring = HashRing(servers)
        keys = _sample_keys(rng, 2000)
        before = {key: ring.primary(key) for key in keys}
        victim = "server-4"
        shrunk = ring.without_server(victim)
        moved = 0
        for key in keys:
            if before[key] == victim:
                moved += 1
            else:
                assert shrunk.primary(key) == before[key]
        # ~1/N of the keys lived on the victim; allow generous slack.
        assert 0 < moved < len(keys) * 4 / len(servers)

    def test_join_steals_about_one_share(self):
        rng = random.Random(4)
        servers = ["server-%d" % i for i in range(10)]
        ring = HashRing(servers)
        keys = _sample_keys(rng, 2000)
        before = {key: ring.primary(key) for key in keys}
        grown = ring.with_server("server-new")
        stolen = 0
        for key in keys:
            after = grown.primary(key)
            if after != before[key]:
                # a key only ever moves TO the joiner, never sideways
                assert after == "server-new"
                stolen += 1
        assert 0 < stolen < len(keys) * 4 / (len(servers) + 1)


class TestLocationTableInvalidation:
    """The per-ring placement cache dies with its epoch."""

    def test_epoch_change_yields_fresh_placement(self):
        from repro.membership.epoch import MembershipTable, RingView

        rng = random.Random(5)
        servers = ["server-%d" % i for i in range(6)]
        keys = _sample_keys(rng, 300)
        table = MembershipTable(servers)
        view = RingView(table)
        view.warm(keys)
        old = {key: view.primary(key) for key in keys}

        table.join("server-new")
        table.seal()
        view.warm(keys)
        expected = HashRing(servers + ["server-new"])
        for key in keys:
            assert view.primary(key) == expected.primary(key)

        # the old epoch's ring object (and its cache) answers unchanged
        old_ring = table.epochs[0].ring
        for key in keys:
            assert old_ring.primary(key) == old[key]

    def test_cache_does_not_leak_across_derived_rings(self):
        rng = random.Random(6)
        servers = ["server-%d" % i for i in range(6)]
        keys = _sample_keys(rng, 300)
        ring = HashRing(servers)
        ring.warm(keys)
        derived = ring.without_server("server-0").with_server("server-9")
        fresh = HashRing(
            [s for s in servers if s != "server-0"] + ["server-9"]
        )
        for key in keys:
            assert derived.primary(key) == fresh.primary(key)
