"""Online erasure-coding resilience: the four placements of Section IV-B.

All four schemes store a value as ``N = K + M`` chunks — chunk ``i`` on
the ``i``-th server of the placement (primary plus N-1 followers).  They
differ in *where* the Reed-Solomon compute happens:

============  =================  =================
scheme        encode (Set)       decode (Get)
============  =================  =================
Era-CE-CD     client             client
Era-SE-SD     server             server
Era-SE-CD     server             client
Era-CE-SD     client             server
============  =================  =================

Client-side coding overlaps with communication through the ARPE (the next
operation encodes while this one is on the wire); server-side coding rides
the server's worker-thread parallelism but adds server-to-server hops.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, Generator, Iterator, List, Optional, Tuple

from repro.common.payload import Payload
from repro.ec.base import ErasureCodec
from repro.ec.registry import make_codec
from repro.resilience.base import T_CHECK, ErrorCode, OpResult, ResilienceScheme
from repro.resilience import coordinator
from repro.store import protocol
from repro.store.arpe import OpMetrics
from repro.store.protocol import Response

#: separator for per-chunk keys — NUL cannot appear in user keys.
_CHUNK_SEP = "\x00c"

#: how often one chunk index is re-fetched (timeouts, in-flight
#: corruption) before the gather moves on to other candidates.
MAX_CHUNK_ATTEMPTS = 3

#: how often a Get gathers again when every fetch answered but the
#: chunks fell under several write versions and none reached decode: an
#: overwrite was landing on the holders, and a fresh gather finds it
#: complete.  A gather that met an error answer does not re-gather: under
#: overload that is a busy-rejected write, and re-gathering only adds load.
MAX_MIXED_REGATHERS = 3


def chunk_key(key: str, index: int) -> str:
    """The storage key under which chunk ``index`` of ``key`` lives."""
    return "%s%s%d" % (key, _CHUNK_SEP, index)


class VersionBuckets:
    """The version rule: which fetched chunks may decode together.

    Chunks are filed by the write version in their meta.  The newest
    version seen is the target a gather keeps fetching for; when it
    cannot decode, the newest version that *can* is chosen instead (a
    failed overwrite must not hide the previous value).  ``data_len``
    is kept per version, never mixed across them.
    """

    __slots__ = ("_can_decode", "_chunks", "_data_len", "newest", "target")

    def __init__(self, can_decode):
        self._can_decode = can_decode
        self._chunks: Dict[int, Dict[int, Payload]] = {}
        self._data_len: Dict[int, int] = {}
        #: newest write version seen so far (None before the first chunk)
        self.newest: Optional[int] = None
        #: the newest version's chunks, ``{index: payload}``
        self.target: Dict[int, Payload] = {}

    def add(self, index: int, payload: Payload, meta: dict) -> bool:
        """File one fetched chunk; True when it is older than the target."""
        ver = meta.get("ver", 0)
        bucket = self._chunks.get(ver)
        if bucket is None:
            bucket = self._chunks[ver] = {}
        bucket[index] = payload
        data_len = meta.get("data_len")
        if data_len is not None:
            self._data_len[ver] = data_len
        newest = self.newest
        if newest is None or ver > newest:
            self.newest = ver
            self.target = bucket
            return False
        return ver < newest

    def ready(self) -> bool:
        """Can the newest version seen decode yet?"""
        return self._can_decode(self.target)

    @property
    def mixed(self) -> bool:
        """Were chunks of more than one write version filed?"""
        return len(self._chunks) > 1

    def choose(self) -> Optional[Tuple[int, Dict[int, Payload], Optional[int]]]:
        """``(ver, chunks, data_len)`` of the newest decodable version."""
        for ver in sorted(self._chunks, reverse=True):
            chunks = self._chunks[ver]
            if self._can_decode(chunks):
                return ver, chunks, self._data_len.get(ver)
        return None


class ErasureScheme(ResilienceScheme):
    """Shared chunk placement, materialization, and gather logic.

    The set fan-out and the chunk gather run on a *coordinator*: the
    client, or a :class:`~repro.resilience.coordinator.ServerCoordinator`
    (``local`` set) when this placement codes on a server.
    """

    #: server-side ops this placement registers on every server,
    #: ``{op: handler}``
    server_ops: Dict[str, Callable] = {}

    def __init__(
        self,
        codec: Optional[ErasureCodec] = None,
        codec_name: str = "rs_van",
        k: int = 3,
        m: int = 2,
    ):
        if codec is None:
            codec = make_codec(codec_name, k, m)
        self.codec = codec
        self.k = self.codec.k
        self.m = self.codec.m
        self.n = self.codec.n
        # non-MDS codecs (LRC, LT) guarantee fewer than M failures
        self.tolerated_failures = self.codec.tolerated_failures
        self.storage_overhead = self.codec.storage_overhead
        #: chunk relocation metadata: (key, chunk_index) -> server name.
        #: Populated by background repair when a chunk is rebuilt onto a
        #: substitute node (a real deployment keeps this in the cluster
        #: metadata the clients already consult for placement).
        self.relocations = {}
        #: monotonically increasing write version, stamped into every
        #: chunk's meta.  A Get only decodes chunks that agree on the
        #: version, so a partially applied overwrite can never be mixed
        #: with the previous value into plausible-looking garbage.
        self._ver_seq = itertools.count(1)
        #: newest write version seen per key — the ghost guard: only a
        #: write at least this new may clear relocation state, and only
        #: one still this new may record a relocation.
        self._latest_ver: Dict[str, int] = {}

    def _begin_write(self, key: str, ver: int) -> bool:
        """Start a versioned overwrite; returns False for a ghost.

        A ghost is a delayed replay of an *older* write (its version is
        below the newest this key has seen).  Ghosts may still store
        their chunks — the servers' stale-write guard no-ops them — but
        they must not reset the relocation map a newer write populated.
        """
        if ver < self._latest_ver.get(key, 0):
            return False
        self._latest_ver[key] = ver
        self.clear_relocations(key)
        return True

    def _chunk_meta(self, base_meta: dict, index: int, chunk: Payload) -> dict:
        """Per-chunk set meta: placement index plus an integrity CRC.

        The CRC lets the receiving server reject a chunk that was mangled
        in flight *before* acknowledging it (see ``_op_set``).
        """
        meta = dict(base_meta, chunk=index)
        if chunk.has_data:
            meta["crc"] = chunk.checksum()
        return meta

    # -- chunk materialization ------------------------------------------------
    def materialize_chunks(self, value: Payload) -> List[Payload]:
        """Real encode when bytes are present; size-only chunks otherwise."""
        if value.has_data:
            chunk_set = self.codec.encode(value.data)
            return [Payload.from_bytes(c) for c in chunk_set.chunks]
        length = self.codec.chunk_length(value.size)
        return [Payload.sized(length) for _ in range(self.n)]

    def stamped_chunks(
        self, value: Payload, ver: int, indices
    ) -> Dict[int, Tuple[Payload, dict]]:
        """Re-derive chunks of a decoded value: ``{index: (chunk, meta)}``.

        The set meta carries the *survivors'* write version, so a rebuilt
        chunk decodes with them and a concurrent overwrite still wins
        through the servers' stale-write guard.

        Each returned chunk owns exactly its bytes.  An encode's chunks
        view the whole value and the whole parity block; a rebuilt chunk
        that kept such a view would pin every sibling chunk's bytes for
        as long as it is stored, to keep one or two of them.
        """
        chunks = self.materialize_chunks(value)
        meta = {"data_len": value.size, "ver": ver}
        stamped = {}
        for index in indices:
            chunk = chunks[index]
            if chunk.has_data:
                chunk = Payload.from_bytes(bytes(chunk.data))
            stamped[index] = (chunk, self._chunk_meta(meta, index, chunk))
        return stamped

    def reconstruct(
        self, retrieved: Dict[int, Payload], data_len: int
    ) -> Payload:
        """Decode real bytes when every chunk has them; else sized result."""
        if all(p.has_data for p in retrieved.values()):
            data = self.codec.decode(
                {i: p.data for i, p in retrieved.items()}, data_len
            )
            return Payload.from_bytes(data)
        return Payload.sized(data_len)

    def erased_data_count(self, retrieved_indices) -> int:
        """How many *data* chunks are absent (drives decode cost)."""
        return sum(1 for i in range(self.k) if i not in retrieved_indices)

    # -- placement ---------------------------------------------------------
    def placement(self, ring, key: str) -> List[str]:
        """Default chunk placement: primary + N-1 following servers."""
        return ring.placement(key, self.n)

    def chunk_servers(self, ring, key: str) -> List[str]:
        """Where each chunk lives now: default placement + relocations."""
        servers = self.placement(ring, key)
        if self.relocations:
            relocations = self.relocations
            for index in range(self.n):
                moved = relocations.get((key, index))
                if moved is not None:
                    servers[index] = moved
        return servers

    def record_relocation(self, key: str, index: int, server: str) -> None:
        """Note that a repaired chunk now lives on ``server``."""
        self.relocations[(key, index)] = server

    def known_keys(self) -> List[str]:
        """Every key ever written (the migration planner's key registry).

        The version map already tracks exactly this set — a key enters it
        on its first Set and never leaves (Memcached has no authoritative
        delete in the paper's workloads).
        """
        return sorted(self._latest_ver)

    def clear_relocations(self, key: str) -> None:
        """A fresh Set re-encodes onto the default placement."""
        for index in range(self.n):
            self.relocations.pop((key, index), None)

    def forget_key(self, key: str) -> None:
        """Drop all bookkeeping for a deleted logical key.

        The stripe GC is the one caller with an authoritative delete: a
        compacted-away stripe must leave the planner's key registry, or
        every future migration would try to move its ghost.
        """
        self._latest_ver.pop(key, None)
        self.clear_relocations(key)

    def _alive(self, fabric, server: str) -> bool:
        return fabric.endpoints[server].alive

    def substitutes(self, fabric, used: set) -> Iterator[str]:
        """Live servers in name order that are not in ``used``.

        Each name handed out joins ``used``: a node takes at most one
        chunk of a key (two on one substitute would fail together later).
        Liveness is read when a name is asked for, not up front.
        """
        for name in sorted(self.cluster.servers):
            if name not in used and self._alive(fabric, name):
                used.add(name)
                yield name

    # -- set path ------------------------------------------------------------
    def _post_set(
        self, client, key: str, value: Payload, metrics: OpMetrics, ver=None
    ) -> Generator:
        """Encode one value and put its chunk fan-out on the wire.

        ``ver`` is the write version the requester stamped (see
        :func:`~repro.resilience.coordinator.offload`); without one a
        fresh version is drawn.
        Returns ``(chunks, servers, events, meta)`` — what
        :meth:`_finish_set` needs once the events were waited on.  A
        server coordinator's own chunk is stored before the next chunk
        goes out, and its entry in ``events`` is already the response.
        """
        local = client.local
        encode_time = client.cost_model.encode_time(
            self.codec.name, value.size, self.k, self.m
        )
        if local is None:
            yield self.charge_encode(client, metrics, encode_time)
        else:
            yield from client.charge("encode", key, encode_time)

        chunks = self.materialize_chunks(value)
        servers = self.placement(client.ring, key)
        if ver is None:
            ver = next(self._ver_seq)
        meta = {"data_len": value.size, "ver": ver}
        self._begin_write(key, ver)
        events = []
        for index, chunk in enumerate(chunks):
            cmeta = self._chunk_meta(meta, index, chunk)
            if servers[index] == local:
                response = yield from client.store_local(
                    chunk_key(key, index), chunk, cmeta
                )
                events.append(response)
                continue
            if local is None:
                yield self.charge_post(client, metrics, chunk.size)
            events.append(
                client.request(
                    servers[index],
                    "set",
                    chunk_key(key, index),
                    value=chunk,
                    meta=cmeta,
                    span=metrics.span,
                )
            )
        return chunks, servers, events, meta

    def _client_encode_set(
        self, client, key: str, value: Payload, metrics: OpMetrics
    ) -> Generator:
        chunks, servers, events, meta = yield from self._post_set(
            client, key, value, metrics
        )
        metrics.info["ver"] = meta["ver"]
        responses = yield from self.wait_each(client, metrics, events)
        return (
            yield from self._finish_set(
                client, key, chunks, servers, list(responses), meta, metrics
            )
        )

    def _finish_set(
        self,
        client,
        key: str,
        chunks: List[Payload],
        servers: List[str],
        responses: List[Response],
        meta: dict,
        metrics: OpMetrics,
    ) -> Generator:
        """Turn the chunk fan-out's responses into the Set's result.

        Default mode acknowledges once K of N chunks stored (the paper's
        fast path).  ``durable_writes`` acknowledges only when *all* N
        chunks landed, retrying transient failures in place and
        relocating chunks off dead or full nodes — the strict mode the
        chaos soak's durability invariant needs (an ack-at-K write can be
        killed by M *later* failures if the M unstored chunks overlapped
        the survivors).
        """
        if client.policy.durable_writes:
            stored = sum(1 for r in responses if r.ok)
            if (
                client.guard is not None
                and client.guard.brownout.async_ack_writes
                and stored >= self.k
            ):
                # Brownout OVERLOAD: the value is already recoverable
                # (k of n landed), so acknowledge now and finish the
                # strict all-n durability in the background — typed as
                # degraded so callers know the durability downgrade.
                client.metrics.counter("writes.async_acks").inc()
                client.sim.process(
                    self._async_finish_set(
                        client, key, chunks, servers, responses, meta
                    ),
                    name="%s.async_ack" % client.name,
                )
                return OpResult.success().with_degraded("async-ack")
            all_ok, errors = yield from self._repair_failed_chunks(
                client, key, chunks, servers, responses, meta, metrics
            )
            if all_ok:
                return OpResult.success()
            return OpResult.failure(
                ", ".join(sorted(errors)) or protocol.ERR_SERVER
            )
        stored = sum(1 for r in responses if r.ok)
        if stored < self.k:
            errors = {r.error for r in responses if not r.ok}
            return OpResult.failure(
                ", ".join(sorted(errors)) or protocol.ERR_SERVER
            )
        return OpResult.success()

    def _async_finish_set(
        self, client, key, chunks, servers, responses, meta
    ) -> Generator:
        """Background tail of an async-acked durable Set.

        Runs the same retry/relocate cleanup the synchronous durable path
        would, but off the caller's critical path and on the background
        lane, so admission control serves it behind foreground traffic.
        """
        bg_meta = dict(meta, lane="bg")
        bg_metrics = OpMetrics(client.sim.now)
        all_ok, _errors = yield from self._repair_failed_chunks(
            client, key, chunks, servers, responses, bg_meta, bg_metrics
        )
        if not all_ok:
            # The ack already went out; record the durability shortfall
            # (the next overwrite or the rebuild scanner restores it).
            client.metrics.counter("writes.async_ack_incomplete").inc()

    def _repair_failed_chunks(
        self,
        client,
        key: str,
        chunks: List[Payload],
        servers: List[str],
        responses: List[Response],
        meta: dict,
        metrics: OpMetrics,
    ) -> Generator:
        """Durable-write cleanup: land every failed chunk somewhere.

        Transient failures (timeout, corruption-in-flight) are retried
        against the original holder with the policy's backoff; chunks
        whose holder stays unusable are relocated to substitute nodes
        outside the placement, recorded in :attr:`relocations` so Gets
        and repair find them — unless a newer write of the key began
        meanwhile: a substitute holds no older copy to answer ``stale``
        with, so the check is the write's version, at record time.
        Returns ``(all_stored, error_set)``.
        """
        policy = client.policy
        errors = set()
        used = set(servers)
        all_ok = True
        for index, response in enumerate(responses):
            if response.ok:
                continue
            chunk = chunks[index]
            cmeta = self._chunk_meta(meta, index, chunk)
            code = ErrorCode.from_wire(response.error)
            errors.add(response.error)
            stored = False
            attempts = 0
            while (
                not stored
                and code.retryable
                and attempts < policy.max_retries
                and self._alive(client.fabric, servers[index])
            ):
                attempts += 1
                client.metrics.counter("writes.chunk_retries").inc()
                delay = policy.backoff(attempts)
                if delay > 0:
                    yield client.sim.timeout(delay)
                retry = yield from self._store_chunk(
                    client, servers[index], key, index, chunk, cmeta, metrics
                )
                if retry.ok:
                    stored = True
                else:
                    code = ErrorCode.from_wire(retry.error)
                    errors.add(retry.error)
            if not stored:
                for substitute in self.substitutes(client.fabric, used):
                    sub = yield from self._store_chunk(
                        client, substitute, key, index, chunk, cmeta, metrics
                    )
                    if sub.ok:
                        current = meta["ver"] == self._latest_ver.get(key)
                        if current and not sub.meta.get("stale"):
                            self.record_relocation(key, index, substitute)
                            client.metrics.counter("writes.relocated").inc()
                        stored = True
                        break
                    errors.add(sub.error)
            if not stored:
                all_ok = False
        return all_ok, errors

    def _store_chunk(
        self, client, server, key, index, chunk, cmeta, metrics
    ) -> Generator:
        """One chunk ``set`` to ``server``, waited on: its response."""
        if client.local is None:
            yield self.charge_post(client, metrics, chunk.size)
        event = client.request(
            server,
            "set",
            chunk_key(key, index),
            value=chunk,
            meta=cmeta,
            span=metrics.span,
        )
        (response,) = yield from self.wait_each(client, metrics, [event])
        return response

    # -- get path ------------------------------------------------------------
    def _decode_get(
        self, client, key: str, metrics: OpMetrics, skip=()
    ) -> Generator:
        result = yield from self._decode_get_on(
            client, key, client.ring, metrics, skip
        )
        if result.ok:
            return result
        # Dual-epoch read protocol: while a migration is in flight, a
        # miss on the current epoch's placement retries against the
        # previous epoch's ring — the chunks may simply not have been
        # moved (or forwarded) yet.  The window closes at seal time.
        old_ring = self._fallback_ring(client.ring, key)
        if old_ring is None:
            return result
        client.metrics.counter("reads.epoch_fallback").inc()
        fallback = yield from self._decode_get_on(
            client, key, old_ring, metrics
        )
        # what the old epoch's holders lack proves nothing about the
        # current ones
        metrics.info.pop("lost", None)
        return fallback if fallback.ok else result

    def _fallback_ring(self, ring, key: str):
        """The previous epoch's ring, iff it places this key differently."""
        previous = getattr(ring, "previous_ring", None)
        if previous is None:
            return None
        old_ring = previous()
        if old_ring is None:
            return None
        if self.chunk_servers(old_ring, key) == self.chunk_servers(ring, key):
            return None
        return old_ring

    def _read_plan(
        self, client, key: str, ring, metrics: OpMetrics
    ) -> Generator:
        """Where ``key``'s chunks live on ``ring`` and the order to fetch
        them in: ``(servers, candidates)``, or None when too few holders
        are alive to decode."""
        servers = self.chunk_servers(ring, key)
        plan = self._gather_plan(client.fabric, servers)
        if plan is None:
            return None
        candidates, dead_data = plan
        if dead_data and client.local is None:
            # Re-routing reads around dead chunk holders costs a server
            # selection check, like replication failover (T_check).  An
            # SD coordinator's client paid it when choosing that server.
            client.metrics.counter("reads.degraded").inc()
            cost = T_CHECK * dead_data
            metrics.wait_time += cost
            yield client.compute(cost)
        return servers, candidates

    def _decode_get_on(
        self, client, key: str, ring, metrics: OpMetrics, skip=()
    ) -> Generator:
        """Gather and decode ``key`` on ``ring``, never fetching the
        chunk indices in ``skip`` (known lost: a rebuild's own targets)."""
        plan = yield from self._read_plan(client, key, ring, metrics)
        if plan is None:
            return OpResult.failure(protocol.ERR_UNREACHABLE)
        servers, candidates = plan
        if skip:
            candidates = [i for i in candidates if i not in skip]

        # Brownout OVERLOAD: flood every candidate chunk fetch at once
        # and decode from whichever k arrive first — extra bandwidth
        # bought back as tail latency when servers are the bottleneck.
        flood = (
            client.guard is not None
            and client.guard.brownout.first_k_reads
        )
        gathered = yield from self._gather_chunks(
            client, key, servers, candidates, metrics, flood=flood
        )
        regathers = 0
        while "mixed" in metrics.info:
            # a miss here would deny an acked key whose overwrite is
            # still landing on its holders
            del metrics.info["mixed"]
            if regathers == MAX_MIXED_REGATHERS:
                break
            regathers += 1
            client.metrics.counter("reads.mixed_regathers").inc()
            gathered = yield from self._gather_chunks(
                client, key, servers, candidates, metrics, flood=flood
            )
        result = yield from self._decode_gathered(
            client, key, servers, gathered, metrics
        )
        if flood and result.ok:
            client.metrics.counter("reads.first_k").inc()
            result = result.with_degraded("first-k")
        return result

    def _decode_gathered(
        self, client, key, servers, gathered, metrics
    ) -> Generator:
        """Charge the decode and reconstruct from a gather's outcome."""
        retrieved, data_len, ver, error, corrupt = gathered
        if error is not None:
            return OpResult.failure(error)
        if data_len is None:
            return OpResult.failure(protocol.ERR_NOT_FOUND)
        erased = self.erased_data_count(retrieved)
        decode_time = client.cost_model.decode_time(
            self.codec.name, data_len, self.k, self.m, erased
        )
        if client.local is None:
            yield self.charge_decode(client, metrics, decode_time)
        else:
            yield from client.charge("decode", key, decode_time)
        value = self.reconstruct(dict(retrieved), data_len)
        if corrupt and value.has_data and client.read_repair is not None:
            self._read_repair(
                client, key, servers, value, ver or 0, corrupt, metrics
            )
        return OpResult.success(value)

    def _read_repair(
        self, client, key, servers, value, ver, corrupt, metrics
    ) -> None:
        """Restore chunks lost to detected corruption (bit rot).

        A ``CORRUPT`` chunk response means the holder's copy is mangled
        (and was dropped on read).  The decode just succeeded from the
        surviving chunks, so re-derive the damaged ones and hand the
        write-backs to the client's bounded read-repair queue — the Get
        being served does not wait on (or get charged for) them, the
        queue meters and bounds them, and brownout can defer or shed
        them when the cluster needs its capacity for foreground work.
        A dropped repair is safe: the rot is re-detected on next read.
        """
        rebuilt = self.stamped_chunks(value, ver, sorted(corrupt))
        for index, (chunk, meta) in rebuilt.items():
            client.metrics.counter("reads.read_repair").inc()
            client.read_repair.submit(
                servers[index], chunk_key(key, index), chunk, meta
            )

    # -- reconstruction ---------------------------------------------------------
    def rebuild_chunks(self, client, key: str, indices: List[int]) -> Generator:
        """Re-derive the chunks of ``key`` at ``indices`` from its survivors.

        The one way a lost or rotted chunk comes back, whoever asks
        (crash repair, the scrubber, a stripe carrier).  Returns
        ``(bytes_read, {index: (chunk, set_meta)}, local)`` — the
        survivor bytes consumed, the rebuilt chunks with the set meta
        that stamps them with the survivors' version, and whether a
        local repair group sufficed — or None when the key cannot be
        decoded.  The chunks are every index in ``indices`` plus any
        other index the gather proved lost: its live current holder
        answered ``NOT_FOUND``.  Those extras come from the same decode
        and version, so a caller that restores them too never reads the
        survivors twice; one that wants only ``indices`` ignores them.
        The caller decides where each chunk goes.

        The gather never fetches ``indices`` themselves: they are the
        chunks being rebuilt, lost or rotted on their holders.

        A single loss under a locally repairable codec is rebuilt from
        its group — a fraction of the bytes a full decode moves (the
        paper's stated motivation for incorporating LRC).  Everything
        else is a degraded read (dual-epoch fallback, corrupt-chunk
        exclusion and relocations included) plus one re-encode: repair
        is the expensive part of erasure coding.
        """
        if len(indices) == 1:
            rebuilt = yield from self._local_rebuild(client, key, indices[0])
            if rebuilt is not None:
                return rebuilt
        metrics = OpMetrics(client.sim.now)
        result = yield from self._decode_get(
            client, key, metrics, skip=indices
        )
        if not result.ok:
            return None
        value = result.value
        encode_time = client.cost_model.encode_time(
            self.codec.name, value.size, self.k, self.m
        )
        yield client.compute(encode_time)
        # the gather stamped the version it decoded, and the indices it
        # found missing on the current holders, into metrics.info
        lost = sorted(metrics.info.get("lost", ()))
        chunks = self.stamped_chunks(
            value, metrics.info["ver"], [*indices, *lost]
        )
        return value.size, chunks, False

    def _local_rebuild(self, client, key: str, index: int) -> Generator:
        """LRC fast path: fetch the local group, XOR.  None means the
        global decode must serve (no locality, a group member missing,
        or the group spans two write versions)."""
        servers = self.chunk_servers(client.ring, key)
        fabric = client.fabric
        alive = [i for i in range(self.n) if self._alive(fabric, servers[i])]
        sources = self.codec.local_repair_sources(index, alive)
        if sources is None:
            return None
        events = [
            (i, client.request(servers[i], "get", chunk_key(key, i)))
            for i in sources
        ]
        fetched = {}
        data_len = 0
        vers = set()
        for i, event in events:
            response = yield event
            if not response.ok:
                return None
            fetched[i] = response.value
            data_len = response.meta.get("data_len", data_len)
            vers.add(response.meta.get("ver", 0))
        if len(vers) > 1:
            # a partially applied overwrite: XORing mixed versions would
            # fabricate garbage
            return None
        chunk_size = fetched[sources[0]].size
        read = chunk_size * len(sources)
        # XOR of the group: charge it as coding work over the bytes read.
        xor_time = client.cost_model.decode_time(
            self.codec.name, read, self.k, self.m, 1
        )
        yield client.compute(xor_time)
        if all(p.has_data for p in fetched.values()):
            chunk = Payload.from_bytes(
                self.codec.repair_chunk(
                    index, {i: p.data for i, p in fetched.items()}
                )
            )
        else:
            chunk = Payload.sized(chunk_size)
        meta = {"data_len": data_len, "ver": vers.pop()}
        return read, {index: (chunk, self._chunk_meta(meta, index, chunk))}, True

    def _gather_chunks(
        self,
        client,
        key: str,
        servers: List[str],
        queue: List[int],
        metrics: OpMetrics,
        arrivals: Optional[protocol.Arrivals] = None,
        outstanding: Optional[Dict[int, Tuple[int, float]]] = None,
        flood: bool = False,
        op: str = "get",
        meta: Optional[dict] = None,
    ) -> Generator:
        """Event-driven chunk gather; the heart of the degraded read path.

        Keeps up to ``K - collected`` fetches in flight and reacts to
        whichever completes first.  Each fetch is one ``op`` request
        carrying ``meta`` (a whole chunk by default; stripe packing asks
        for one byte range of every chunk with ``"st_get"``).  Every
        fetch completes into one
        :class:`~repro.store.protocol.Arrivals` queue per gather, which
        wakes the gatherer once per wait:

        - Responses are filed by write version (:class:`VersionBuckets`);
          the gather finishes as soon as the *newest* version seen can
          decode, and falls back to the newest decodable older one.
        - ``CORRUPT`` / ``TIMEOUT`` responses re-queue the chunk for
          another attempt (bounded by :data:`MAX_CHUNK_ATTEMPTS`).
        - With hedging enabled, a fetch that outlives the client's
          adaptive latency cutoff triggers one redundant fetch of a
          *different* chunk (chunks live on distinct servers, so this
          routes around a slow node).
        - A server coordinator reads its own chunk in place: it arrives
          at once and counts as in flight until taken.

        The arrival that woke the gatherer is taken first (the cutoff's
        expiry, if that came first); answers already waiting are taken in
        the order their fetches were posted.  ``arrivals`` and
        ``outstanding`` let the batched Get path prime the gather with
        its optimistic fan-out: fetches already posted into that queue,
        by request id -> ``(index, sent_at)``.  Returns
        ``(chunks, data_len, ver, error, corrupt_indices)`` with
        ``error=None`` on success; ``corrupt_indices`` are chunks whose
        holder served a mangled copy (read-repair candidates).  A
        successful gather also stamps the decoded ``ver`` into
        ``metrics.info`` and, when a live holder answered ``NOT_FOUND``,
        the set of those chunk indices as ``"lost"``; a gather that fails
        although every fetch answered with a chunk, filed under several
        versions, sets ``"mixed"``.
        """
        policy = client.policy
        sim = client.sim
        local = client.local
        if arrivals is None:
            arrivals = protocol.Arrivals(sim)
        outstanding = dict(outstanding or {})
        posted = {idx for idx, _ in outstanding.values()}
        queue = [i for i in queue if i not in posted]
        attempts: Dict[int, int] = {}
        buckets = VersionBuckets(self.codec.can_decode)
        corrupt: set = set()
        missed: set = set()
        # None while every fetch has answered with a chunk
        last_error = None

        while not buckets.ready():
            # ``flood`` (brownout first-k mode) keeps every candidate in
            # flight; normal mode asks only for what decode still needs.
            want = self.n if flood else max(1, self.k - len(buckets.target))
            while queue and len(outstanding) < want:
                index = queue.pop(0)
                attempts[index] = attempts.get(index, 0) + 1
                if servers[index] == local:
                    req_id = client.read_local(chunk_key(key, index), arrivals)
                else:
                    if local is None:
                        yield self.charge_post(client, metrics, 0)
                    req_id = client.request(
                        servers[index],
                        op,
                        chunk_key(key, index),
                        meta=meta,
                        span=metrics.span,
                        arrivals=arrivals,
                    )
                outstanding[req_id] = (index, sim.now)
            if not outstanding:
                break
            if arrivals:
                response = arrivals.take(outstanding)
            else:
                cutoff = None
                if (
                    policy.hedge
                    and queue
                    and (
                        client.guard is None
                        or client.guard.brownout.hedge_allowed
                    )
                ):
                    cutoff = client.hedge_cutoff.cutoff()
                wait_start = sim.now
                yield arrivals.wait(cutoff)
                metrics.wait_time += sim.now - wait_start
                response = arrivals.pop()
            if response is None:
                # The hedge cutoff expired first: fire one redundant fetch
                # against a chunk we have not asked for yet.
                client.metrics.counter("reads.hedged").inc()
                metrics.info["hedged"] = metrics.info.get("hedged", 0) + 1
                index = queue.pop(0)
                attempts[index] = attempts.get(index, 0) + 1
                yield self.charge_post(client, metrics, 0)
                req_id = client.request(
                    servers[index],
                    op,
                    chunk_key(key, index),
                    meta=meta,
                    span=metrics.span,
                    arrivals=arrivals,
                )
                outstanding[req_id] = (index, sim.now)
                continue
            index, sent_at = outstanding.pop(response.req_id)
            if response.ok:
                if policy.hedge:
                    client.hedge_cutoff.observe(sim.now - sent_at)
                if buckets.add(index, response.value, response.meta):
                    client.metrics.counter("reads.stale_chunks").inc()
            else:
                last_error = response.error
                code = ErrorCode.from_wire(response.error)
                if code is ErrorCode.NOT_FOUND:
                    missed.add(index)
                elif code is ErrorCode.CORRUPT:
                    client.metrics.counter("reads.corrupt_refetch").inc()
                    corrupt.add(index)
                if (
                    code.retryable
                    and code is not ErrorCode.UNREACHABLE
                    and attempts.get(index, 0) < MAX_CHUNK_ATTEMPTS
                ):
                    queue.append(index)

        # Abandoned fetches (hedge losers, flood leftovers): forget them
        # and tell the holders to stop burning CPU on them.  Only when
        # per-request timeouts are armed (a hardened policy).  Without
        # one, as on the default path, a leftover's answer, when it
        # comes, lands on this dead queue and clears its pending entry;
        # a cancel would add a message on the client's link for work the
        # holder has mostly done already.  So the default path sends no
        # cancel, every server's cancel table stays empty, and the
        # bookkeeping that consults it costs nothing.
        if outstanding and policy.request_timeout is not None:
            for req_id, (index, _sent_at) in outstanding.items():
                client.pending.forget(req_id)
                client.cancel_request(
                    servers[index], chunk_key(key, index), req_id
                )
            client.metrics.counter("reads.abandoned_fetches").inc(
                len(outstanding)
            )

        chosen = buckets.choose()
        if chosen is None:
            if last_error is None:
                if buckets.mixed:
                    metrics.info["mixed"] = True
                last_error = protocol.ERR_NOT_FOUND
            return {}, None, None, last_error, set()
        ver, chunks, data_len = chosen
        metrics.info["ver"] = ver
        # A miss is final (never re-fetched).  A rotted chunk misses on
        # its re-fetch too (the holder dropped it), but read-repair owns
        # that one.
        missed -= corrupt
        if missed:
            metrics.info["lost"] = missed
        # chunks that eventually came back clean need no repair
        return chunks, data_len, ver, None, corrupt - set(chunks)

    # -- pipelined batch paths (client-side coding) ---------------------------
    def _pipelined_multi_set(
        self, client, items, metrics: OpMetrics
    ) -> Generator:
        """Batched client-encode Set: post every key's chunks, then wait.

        All encode charges and chunk posts for the whole batch go out
        before the first wait, so every key's fan-out is on the wire
        simultaneously — the batch pays one round-trip, not one per key.
        """
        staged: List[Tuple[str, tuple]] = []
        for key, value in items:
            posted = yield from self._post_set(client, key, value, metrics)
            staged.append((key, posted))

        results: Dict[str, OpResult] = {}
        for key, (chunks, servers, events, meta) in staged:
            responses = yield from self.wait_each(client, metrics, events)
            results[key] = yield from self._finish_set(
                client, key, chunks, servers, list(responses), meta, metrics
            )
        return results

    def _pipelined_multi_get(
        self, client, keys, metrics: OpMetrics
    ) -> Generator:
        """Batched client-decode Get: primary fetches for every key first.

        The optimistic K-chunk fetch for each key is posted before any
        wait, into that key's arrival queue; degraded keys then fall back
        to the per-key retry loop.
        """
        results: Dict[str, OpResult] = {}
        staged = []
        for key in keys:
            plan = yield from self._read_plan(
                client, key, client.ring, metrics
            )
            if plan is None:
                results[key] = OpResult.failure(protocol.ERR_UNREACHABLE)
                continue
            servers, candidates = plan
            arrivals = protocol.Arrivals(client.sim)
            posted = {}
            for index in candidates[: self.k]:
                yield self.charge_post(client, metrics, 0)
                req_id = client.request(
                    servers[index],
                    "get",
                    chunk_key(key, index),
                    span=metrics.span,
                    arrivals=arrivals,
                )
                posted[req_id] = (index, client.sim.now)
            staged.append(
                (key, servers, candidates[self.k :], arrivals, posted)
            )

        for key, servers, backups, arrivals, posted in staged:
            gathered = yield from self._gather_chunks(
                client,
                key,
                servers,
                backups,
                metrics,
                arrivals=arrivals,
                outstanding=posted,
            )
            results[key] = yield from self._decode_gathered(
                client, key, servers, gathered, metrics
            )
        return results

    def _gather_plan(
        self, fabric, servers: List[str]
    ) -> Optional[Tuple[List[int], int]]:
        """Chunk indices to try, in fetch order; None if undecodable.

        The codec picks the primary fetch set (MDS codes: the K lowest
        survivor indices; LRC: a linearly independent set); remaining
        survivors follow as retry backups for cache misses.
        """
        alive = [i for i in range(self.n) if self._alive(fabric, servers[i])]
        plan = self.codec.decode_indices(alive)
        if plan is None:
            return None
        # data-first within the plan keeps the systematic fast path hot
        ordered = sorted(plan, key=lambda i: (i >= self.k, i))
        planned = set(plan)
        backups = [i for i in alive if i not in planned]
        dead_data = self.k - sum(1 for i in alive if i < self.k)
        return ordered + backups, dead_data

    # -- server-side ops (SE / SD) -------------------------------------------
    def install(self, cluster) -> None:
        super().install(cluster)
        for server in cluster.servers.values():
            self.prepare_server(server)

    def prepare_server(self, server) -> None:
        """Register :attr:`server_ops` on one server — the founding
        members at install, a joiner mid-life."""
        for op, handler in self.server_ops.items():
            server.register_handler(op, functools.partial(handler, self))


class EraCECD(ErasureScheme):
    """Client-side encode, client-side decode (share-nothing servers)."""

    name = "era-ce-cd"
    set = ErasureScheme._client_encode_set
    get = ErasureScheme._decode_get
    multi_set = ErasureScheme._pipelined_multi_set
    multi_get = ErasureScheme._pipelined_multi_get


class EraSESD(ErasureScheme):
    """Server-side encode and decode: all coding burden on the servers."""

    name = "era-se-sd"
    server_ops = {
        "se_set": coordinator.handle_se_set,
        "sd_get": coordinator.handle_sd_get,
    }
    set = coordinator.encode_on_server
    get = coordinator.decode_on_server


class EraSECD(ErasureScheme):
    """Server-side encode, client-side decode — the paper's hybrid pick."""

    name = "era-se-cd"
    server_ops = {"se_set": coordinator.handle_se_set}
    set = coordinator.encode_on_server
    get = ErasureScheme._decode_get
    # decode is client-side: Gets batch-pipeline even though Sets are
    # offloaded one at a time to the coordinating server
    multi_get = ErasureScheme._pipelined_multi_get


class EraCESD(ErasureScheme):
    """Client-side encode, server-side decode (evaluated as inferior in
    Section IV-B; implemented for completeness and the ablation bench)."""

    name = "era-ce-sd"
    server_ops = {"sd_get": coordinator.handle_sd_get}
    set = ErasureScheme._client_encode_set
    # encode is client-side: Sets batch-pipeline; Gets stay offloaded
    multi_set = ErasureScheme._pipelined_multi_set
    get = coordinator.decode_on_server
