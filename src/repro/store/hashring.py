"""Consistent hashing and the paper's chunk-placement rule.

Memcached clients use consistent hashing (libmemcached's ketama) to pick
the server owning a key.  The paper's erasure designs then place the
``N = K + M`` chunks on "the originally designated server and the N-1
following servers in the Memcached server cluster list" (Section IV-A) —
list order, not ring order — which this module implements as
:meth:`HashRing.placement`.

The sorted virtual points live in one contiguous ``uint64`` array with a
parallel ``int32`` owner-index array: lookups are ``searchsorted``,
membership changes are array concatenation/boolean masking plus one
``lexsort``, and :meth:`HashRing.warm` resolves whole key batches in a
single ``searchsorted`` call (the migration planner's path).

Rings are immutable, so each instance carries its own **placement
cache** (key → primary server index).  Because a membership change
always produces a *new* ring object, the cache is epoch-keyed for free:
an epoch transition swaps in a fresh ring whose cache starts cold, and
stale entries die with the old ring.  The request path, migration
planner, and repair manager therefore resolve each (ring, key) pair's
md5 + ring search exactly once.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence

import numpy as _np

#: Keys memoized per ring before the placement cache resets.  Bounds the
#: memory of very long runs; a reset only costs re-resolving hot keys.
PLACEMENT_CACHE_LIMIT = 1 << 20

#: Per-(server, points) virtual-point memo shared by every ring.  Server
#: names recur across epochs and rebuilds, so the md5 work per server is
#: paid once per process, not once per ring construction.
_POINT_MEMO: Dict[tuple, _np.ndarray] = {}
_POINT_MEMO_LIMIT = 4096


def stable_hash(data: str) -> int:
    """Deterministic 64-bit hash (md5-based, like ketama) — never Python's
    seeded ``hash()``."""
    digest = hashlib.md5(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _server_point_array(name: str, points_per_server: int):
    """One server's virtual points as a sorted ``uint64`` array."""
    memo_key = (name, points_per_server)
    cached = _POINT_MEMO.get(memo_key)
    if cached is None:
        cached = _np.fromiter(
            (
                stable_hash("%s#%d" % (name, replica))
                for replica in range(points_per_server)
            ),
            dtype=_np.uint64,
            count=points_per_server,
        )
        cached.sort()
        if len(_POINT_MEMO) >= _POINT_MEMO_LIMIT:
            _POINT_MEMO.clear()
        _POINT_MEMO[memo_key] = cached
    return cached


class HashRing:
    """Ketama-style consistent hash ring over a fixed server list."""

    def __init__(self, servers: Sequence[str], points_per_server: int = 100):
        if not servers:
            raise ValueError("hash ring needs at least one server")
        if len(set(servers)) != len(servers):
            raise ValueError("duplicate server names")
        self.servers: List[str] = list(servers)
        self.points_per_server = points_per_server
        self._index = {name: i for i, name in enumerate(self.servers)}
        #: key -> primary *server index*; epoch-keyed by construction
        #: (each membership change builds a new ring with a cold cache).
        self._placement_cache: Dict[str, int] = {}
        pps = points_per_server
        count = len(self.servers) * pps
        points = _np.empty(count, dtype=_np.uint64)
        owners = _np.empty(count, dtype=_np.int32)
        for idx, name in enumerate(self.servers):
            start = idx * pps
            points[start : start + pps] = _server_point_array(name, pps)
            owners[start : start + pps] = idx
        self._sort_arrays(points, owners)

    # -- point arrays --------------------------------------------------------
    def _sort_arrays(self, points, owners) -> None:
        # Sort by (hash, owner name): a tie-break independent of list
        # order, so an incrementally derived ring equals a fresh one even
        # in the astronomically unlikely event of a point collision.
        ranks = self._name_ranks()
        order = _np.lexsort((ranks[owners], points))
        self._points = points[order]
        self._owner_idx = owners[order]

    def _name_ranks(self):
        ranks = _np.empty(len(self.servers), dtype=_np.int32)
        for rank, idx in enumerate(
            sorted(range(len(self.servers)), key=self.servers.__getitem__)
        ):
            ranks[idx] = rank
        return ranks

    # -- incremental membership -------------------------------------------
    def with_server(self, name: str) -> "HashRing":
        """A new ring with ``name`` appended to the server list.

        Reuses this ring's sorted point arrays — only the joining
        server's ``points_per_server`` points are hashed and merged, so a
        membership change costs O(P) instead of O(N * P) rehashing.
        Consistent hashing guarantees only ~1/(N+1) of keys change owner.
        """
        if name in self._index:
            raise ValueError("server %r already on the ring" % name)
        new = object.__new__(HashRing)
        new.servers = self.servers + [name]
        new.points_per_server = self.points_per_server
        new._index = dict(self._index)
        new._index[name] = len(self.servers)
        new._placement_cache = {}
        fresh = _server_point_array(name, self.points_per_server)
        points = _np.concatenate([self._points, fresh])
        owners = _np.concatenate(
            [
                self._owner_idx,
                _np.full(len(fresh), len(self.servers), dtype=_np.int32),
            ]
        )
        new._sort_arrays(points, owners)
        return new

    def without_server(self, name: str) -> "HashRing":
        """A new ring with ``name`` removed from the server list.

        Filters the departing server's points out of the shared sorted
        arrays; no hashing at all.  Keys it owned redistribute across the
        survivors (~1/N of the key space moves).
        """
        if name not in self._index:
            raise ValueError("server %r not on the ring" % name)
        if len(self.servers) == 1:
            raise ValueError("cannot remove the last server")
        new = object.__new__(HashRing)
        new.servers = [s for s in self.servers if s != name]
        new.points_per_server = self.points_per_server
        new._index = {s: i for i, s in enumerate(new.servers)}
        new._placement_cache = {}
        removed = self._index[name]
        keep = self._owner_idx != removed
        owners = self._owner_idx[keep]
        # owner indices above the removed slot shift down by one
        new._points = self._points[keep]
        new._owner_idx = owners - (owners > removed)
        return new

    # -- lookups -----------------------------------------------------------
    def _locate(self, key: str) -> int:
        """Primary *server index* for ``key`` (uncached)."""
        points = self._points
        # wrap in a numpy scalar: searchsorted against a raw Python int
        # pays a ~60us uint64-conversion penalty per call
        h = _np.uint64(stable_hash(key))
        idx = int(points.searchsorted(h, side="right"))
        if idx == len(points):
            idx = 0
        return int(self._owner_idx[idx])

    def primary_index(self, key: str) -> int:
        """Index (into :attr:`servers`) of the server owning ``key``."""
        cache = self._placement_cache
        start = cache.get(key)
        if start is None:
            if len(cache) >= PLACEMENT_CACHE_LIMIT:
                cache.clear()
            start = self._locate(key)
            cache[key] = start
        return start

    def primary(self, key: str) -> str:
        """The server that owns ``key`` under consistent hashing."""
        return self.servers[self.primary_index(key)]

    def warm(self, keys: Iterable[str]) -> None:
        """Batch-resolve ``keys`` into the placement cache.

        One ``searchsorted`` over all missing keys — the planner and
        repair manager call it before their per-key walks so the walk
        itself is pure dict hits.
        """
        cache = self._placement_cache
        missing = [key for key in keys if key not in cache]
        if not missing:
            return
        if len(cache) + len(missing) > PLACEMENT_CACHE_LIMIT:
            cache.clear()
        hashes = _np.fromiter(
            (stable_hash(key) for key in missing),
            dtype=_np.uint64,
            count=len(missing),
        )
        idx = self._points.searchsorted(hashes, side="right")
        idx[idx == len(self._points)] = 0
        owners = self._owner_idx[idx]
        for key, owner in zip(missing, owners.tolist()):
            cache[key] = owner

    def placement(self, key: str, count: int) -> List[str]:
        """The primary plus the next ``count - 1`` servers in list order.

        This is the paper's placement for both replicas and erasure-coded
        chunks; it requires ``count <= len(servers)`` distinct nodes.
        """
        if count < 1:
            raise ValueError("placement count must be >= 1")
        servers = self.servers
        num = len(servers)
        if count > num:
            raise ValueError(
                "placement of %d needs at least that many servers (have %d)"
                % (count, num)
            )
        start = self.primary_index(key)
        if start + count <= num:
            return servers[start : start + count]
        return [servers[(start + offset) % num] for offset in range(count)]
