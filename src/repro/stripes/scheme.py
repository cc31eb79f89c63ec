"""All-encoding small-object resilience via stripe packing (MemEC-style).

``StripedScheme`` routes every Set by size.  Values above ``threshold``
take the inner per-object erasure path unchanged.  Small values — the
tens-to-hundreds-of-bytes majority of ETC traffic, where per-object
coding is all overhead — are *packed*: appended into the open
:class:`~repro.stripes.buffer.StripeRecord`, made durable immediately
by journaling ``tolerated+1`` full copies onto the stripe's journal
holders, and coded only when the stripe seals (on-full, or on-timeout
through the virtual clock).  The sealed stripe is one carrier object of
the inner erasure scheme, so chunk placement, versioning, relocation,
repair, and migration all treat the *stripe* as their unit.

Reads consult the compact object index:

- **open stripe** — one round-trip to a journal holder (replication-like
  latency), failing over across holders, with the coordinator's staging
  buffer as the beyond-tolerance last resort;
- **sealed stripe, fast path** — ``st_get`` slice reads against only the
  systematic chunk(s) covering ``(offset, length)``: no decode, no full
  chunk transfer;
- **sealed stripe, degraded** — a slice whose holder is dead or whose
  read fails is rebuilt from the *same byte range* of K surviving
  chunks (Reed-Solomon codes every byte column independently), moving
  and decoding K x length bytes instead of the stripe.  A ``CORRUPT``
  answer, a range gather that cannot decode, or a codec whose chunks
  are not byte columns falls back to a full stripe decode through the
  inner scheme (the only path that drops and read-repairs a rotted
  chunk).

Deletes and overwrites tombstone the index entry and account dead bytes
per stripe; the log-structured GC in :mod:`repro.stripes.compact`
rewrites live objects out of low-utilization stripes on the background
admission lane.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.common.payload import Payload
from repro.resilience.base import (
    T_CHECK,
    ErrorCode,
    OpResult,
    ResilienceScheme,
)
from repro.resilience.erasure import EraCECD, chunk_key
from repro.store import protocol
from repro.store.arpe import OpMetrics
from repro.store.protocol import Response
from repro.store.server import CHECKSUM_CPU_PER_BYTE, COPY_CPU_PER_BYTE
from repro.stripes.buffer import (
    ObjectLocation,
    StripeRecord,
    journal_key,
    stripe_name,
)
from repro.stripes.compact import StripeCompactor

#: how often a failed seal is retried before journals stay authoritative
_MAX_SEAL_ATTEMPTS = 3


def _joined(parts: List[Optional[Payload]], length: int) -> Payload:
    """An object from its per-chunk slices (size-only if any lacks bytes)."""
    if all(p is not None and p.has_data for p in parts):
        return Payload.from_bytes(b"".join(p.data for p in parts))
    return Payload.sized(length)


class StripedScheme(ResilienceScheme):
    """Pack small Sets into erasure-coded stripes; delegate large ones."""

    name = "stripes"

    def __init__(self, config):
        """Build from a :class:`~repro.core.features.StripesConfig`, which
        owns every knob's default and check."""
        self.inner = inner = EraCECD(
            codec_name=config.codec, k=config.k, m=config.m
        )
        self.threshold = config.threshold
        self.stripe_capacity = config.stripe_capacity
        self.seal_timeout = config.seal_timeout
        self.codec = inner.codec
        self.k = inner.k
        self.m = inner.m
        self.n = inner.n
        self.tolerated_failures = inner.tolerated_failures
        self.storage_overhead = inner.storage_overhead
        self.compactor = StripeCompactor(
            self, min_utilization=config.compact_utilization
        )
        #: object index: user key -> (stripe_id, offset, length)
        self._index: Dict[str, ObjectLocation] = {}
        #: every live stripe by id (open, sealing, and sealed)
        self._stripes: Dict[int, StripeRecord] = {}
        self._open: Optional[StripeRecord] = None
        self._sid_seq = itertools.count(1)
        #: keys whose current value took the per-object (large) path
        self._large_keys: Set[str] = set()
        self._gc = None
        self._compacting = False

    # -- introspection -------------------------------------------------------
    @property
    def open_stripe(self) -> Optional[StripeRecord]:
        return self._open

    def stripe_records(self) -> List[StripeRecord]:
        return [self._stripes[sid] for sid in sorted(self._stripes)]

    def locate(self, key: str) -> Optional[ObjectLocation]:
        """The index entry for ``key`` (``None`` if absent/tombstoned)."""
        return self._index.get(key)

    # -- migration-planner surface (stripes are the unit) --------------------
    def known_keys(self) -> List[str]:
        """Carrier keys (stripes + large objects) the planner migrates."""
        return self.inner.known_keys()

    def chunk_servers(self, ring, key: str) -> List[str]:
        return self.inner.chunk_servers(ring, key)

    def rebuild_chunks(self, client, key: str, indices) -> Generator:
        # carriers are plain per-object erasure values: the inner
        # scheme's reconstruction serves them
        return self.inner.rebuild_chunks(client, key, indices)

    # -- lifecycle -----------------------------------------------------------
    def install(self, cluster) -> None:
        super().install(cluster)
        self.inner.install(cluster)
        for server in cluster.servers.values():
            self._register_handlers(server)
        metrics = cluster.metrics
        self._c_sealed = metrics.counter("stripes.sealed")
        self._c_seal_timeouts = metrics.counter("stripes.seal_timeouts")
        self._c_seal_failures = metrics.counter("stripes.seal_failures")
        self._c_journal_writes = metrics.counter("stripes.journal_writes")
        self._c_journal_reads = metrics.counter("stripes.journal_reads")
        self._c_journal_substitutes = metrics.counter(
            "stripes.journal_substitutes"
        )
        self._c_buffer_serves = metrics.counter("stripes.buffer_serves")
        self._c_slice_reads = metrics.counter("stripes.slice_reads")
        self._c_degraded = metrics.counter("stripes.degraded_reads")
        self._c_column_reads = metrics.counter("stripes.column_reads")
        self._c_tombstones = metrics.counter("stripes.tombstones")
        self._c_overwrites = metrics.counter("stripes.overwrites")
        self._c_rehomed = metrics.counter("stripes.objects_rehomed")
        self._c_reclaimed = metrics.counter("stripes.bytes_reclaimed")
        self._c_compactions = metrics.counter("stripes.compactions")

    def prepare_server(self, server) -> None:
        self.inner.prepare_server(server)
        self._register_handlers(server)

    def uninstall(self) -> None:
        """Detach the scheme's server ops (stripes feature turned off)."""
        for server in self.cluster.servers.values():
            server.unregister_handler("st_get")
            server.unregister_handler("st_jclear")

    def _register_handlers(self, server) -> None:
        # overwrite any registration a previously installed StripedScheme
        # left behind (features can be flipped off and on mid-run)
        server.unregister_handler("st_get")
        server.unregister_handler("st_jclear")
        server.register_handler("st_get", self._handle_st_get)
        server.register_handler("st_jclear", self._handle_st_jclear)

    def _alive(self, fabric, server: str) -> bool:
        endpoint = fabric.endpoints.get(server)
        return endpoint is not None and endpoint.alive

    # -- Set path ------------------------------------------------------------
    def set(self, client, key: str, value: Payload, metrics: OpMetrics) -> Generator:
        if value.size > self.threshold:
            result = yield from self.inner.set(client, key, value, metrics)
            if result.ok:
                if key in self._index:
                    # small -> large overwrite: tombstone the packed slot
                    # *before* acking, or Gets would keep serving it
                    self._tombstone_small(client, key)
                self._large_keys.add(key)
            return result
        result = yield from self._append_small(client, key, value, metrics)
        if result.ok and key in self._large_keys:
            # large -> small overwrite: the old chunks are garbage now
            self._large_keys.discard(key)
            yield from self._drop_carrier(client, key, metrics)
        return result

    def _append_small(
        self,
        client,
        key: str,
        value: Payload,
        metrics: OpMetrics,
        rehome: bool = False,
    ) -> Generator:
        record = self._open
        if record is None or not record.fits(value.size):
            if record is not None:
                self._start_seal(client, record)
            record = self._open_stripe(client)
            if record is None:
                return self.error_result(
                    protocol.ERR_UNREACHABLE, "no live journal holders"
                )
        # Reservation is synchronous (no yields): concurrent appends
        # interleaving at await points each get a consistent slot.
        old = self._index.get(key)
        location = record.append(key, value)
        self._index[key] = location
        if old is not None:
            if old.stripe_id != record.stripe_id:
                self._kill_slot(client, key, old)
            if rehome:
                self._c_rehomed.inc()
            else:
                self._c_overwrites.inc()
        if not record.fits(1):
            # full to the byte: seal now instead of waiting for the next
            # append (or the timer) to notice
            self._start_seal(client, record)
        ok = yield from self._journal_write(client, record, key, value, metrics)
        if not ok:
            return self.error_result(
                protocol.ERR_SERVER, "journal fan-out incomplete"
            )
        return self.ok_result()

    def _open_stripe(self, client) -> Optional[StripeRecord]:
        sid = next(self._sid_seq)
        record = StripeRecord(sid, self.stripe_capacity)
        holders = self._pick_journal_holders(client, record.name)
        if not holders:
            return None
        record.journal_holders = holders
        self._stripes[sid] = record
        self._open = record
        client.sim.process(
            self._seal_timer(client, record),
            name="stripe-%d.timer" % sid,
        )
        return record

    def _pick_journal_holders(self, client, name: str) -> List[str]:
        copies = self.tolerated_failures + 1
        holders = [
            server
            for server in self.inner.placement(client.ring, name)[:copies]
            if self._alive(client.fabric, server)
        ]
        spares = self.inner.substitutes(client.fabric, set(holders))
        holders.extend(itertools.islice(spares, copies - len(holders)))
        return holders

    def _journal_write(
        self, client, record: StripeRecord, key: str, value: Payload,
        metrics: OpMetrics,
    ) -> Generator:
        """Fan the object out to every journal holder; all must land.

        Pre-seal durability: ``tolerated+1`` full copies survive the same
        number of concurrent failures the sealed stripe will.  Transient
        failures retry against the holder; a holder that stays unusable
        is swapped for a substitute that receives the *whole* open
        stripe's journal (see :meth:`_replace_journal_holder`).
        """
        jkey = journal_key(record.stripe_id, key)
        meta = {"jnl": True}
        if value.has_data:
            meta["crc"] = value.checksum()
        record.pending_journal += 1
        try:
            # A replaced holder changes the set mid-flight, so success is
            # only claimed after one full pass lands on a *then-current*
            # holder list; after a replacement the pass repeats against
            # the refreshed list (re-sends are idempotent: same jkey).
            for _round in range(4):
                holders = list(record.journal_holders)
                events = []
                for holder in holders:
                    yield self.charge_post(client, metrics, value.size)
                    events.append(
                        client.request(
                            holder,
                            "set",
                            jkey,
                            value=value,
                            meta=dict(meta),
                            span=metrics.span,
                        )
                    )
                responses = yield from self.wait_each(client, metrics, events)
                self._c_journal_writes.inc(len(events))
                failed = []
                for index, response in enumerate(responses):
                    if response.ok:
                        continue
                    holder = holders[index]
                    stored = False
                    code = ErrorCode.from_wire(response.error)
                    if code.retryable and self._alive(client.fabric, holder):
                        yield self.charge_post(client, metrics, value.size)
                        event = client.request(
                            holder,
                            "set",
                            jkey,
                            value=value,
                            meta=dict(meta),
                            span=metrics.span,
                        )
                        (retry,) = yield from self.wait_each(
                            client, metrics, [event]
                        )
                        stored = retry.ok
                    if not stored:
                        failed.append(holder)
                if not failed:
                    if holders == list(record.journal_holders):
                        return True
                    continue  # set changed under us: one more full pass
                replaced_any = False
                for holder in failed:
                    replaced = yield from self._replace_journal_holder(
                        client, record, holder, metrics
                    )
                    replaced_any = replaced_any or replaced
                if not replaced_any:
                    return False
            return False
        finally:
            record.pending_journal -= 1

    def _replace_journal_holder(
        self, client, record: StripeRecord, holder: str, metrics: OpMetrics
    ) -> Generator:
        """Swap a failed journal holder for a substitute, re-journaling
        the whole open stripe onto it (also the crash-repair routine)."""
        if record.sealed or record.values is None:
            return True
        if holder not in record.journal_holders:
            return True
        substitute = next(
            self.inner.substitutes(
                client.fabric, set(record.journal_holders)
            ),
            None,
        )
        if substitute is None:
            return False
        events = []
        for obj_key in sorted(record.values):
            value = record.values[obj_key]
            meta = {"jnl": True}
            if value.has_data:
                meta["crc"] = value.checksum()
            yield self.charge_post(client, metrics, value.size)
            events.append(
                client.request(
                    substitute,
                    "set",
                    journal_key(record.stripe_id, obj_key),
                    value=value,
                    meta=meta,
                    span=metrics.span,
                )
            )
        responses = yield from self.wait_each(client, metrics, events)
        if not all(r.ok for r in responses):
            return False
        # Concurrent repairs race on the same dead holder: re-check after
        # the fan-out and only swap when this call still owns the slot.
        if record.sealed or record.values is None:
            return True
        if holder not in record.journal_holders:
            return True
        if substitute in record.journal_holders:
            return True
        record.journal_holders[record.journal_holders.index(holder)] = (
            substitute
        )
        self._c_journal_substitutes.inc()
        return True

    # -- sealing -------------------------------------------------------------
    def _start_seal(self, client, record: StripeRecord) -> None:
        if record.sealing or record.sealed or record.cursor == 0:
            if self._open is record and record.cursor == 0:
                self._open = None
            return
        if self._open is record:
            self._open = None
        payload = record.begin_seal()  # synchronous freeze: no double seal
        # Sealing is asynchronous online EC: it rides the background lane
        # so encode+store never sits in a foreground Set's latency.
        client.sim.process(
            self._seal_process(self._gc_client(), record, payload),
            name="stripe-%d.seal" % record.stripe_id,
        )

    def _seal_timer(self, client, record: StripeRecord) -> Generator:
        yield client.sim.timeout(self.seal_timeout)
        if not record.sealing and not record.sealed and record.cursor > 0:
            self._c_seal_timeouts.inc()
            self._start_seal(client, record)

    def _seal_process(
        self, client, record: StripeRecord, payload: Payload
    ) -> Generator:
        """Encode the frozen stripe once and store it as a carrier object
        of the inner scheme; on success, retire the journal copies."""
        metrics = OpMetrics(client.sim.now)
        for attempt in range(1, _MAX_SEAL_ATTEMPTS + 1):
            result = yield from self.inner.set(
                client, record.name, payload, metrics
            )
            if result.ok:
                break
            if attempt == _MAX_SEAL_ATTEMPTS:
                # the journals stay authoritative: the stripe keeps
                # serving (and surviving failures) through them
                self._c_seal_failures.inc()
                return
            yield client.sim.timeout(0.002 * attempt)
        # let straggling journal writes land before retiring their keys
        waited = 0
        while record.pending_journal > 0 and waited < 64:
            waited += 1
            yield client.sim.timeout(0.0005)
        jkeys = record.journal_keys()
        holders = list(record.journal_holders)
        record.finish_seal(self.codec.chunk_length(record.data_len))
        self._c_sealed.inc()
        events = []
        for holder in holders:
            if not self._alive(client.fabric, holder):
                # a dead holder's journal copies died with its DRAM
                continue
            events.append(
                client.request(
                    holder,
                    "st_jclear",
                    record.name,
                    meta={"keys": jkeys, "lane": "bg"},
                    span=metrics.span,
                )
            )
        for event in events:
            yield event
        # mass deletes while sealing may have left it GC-worthy already
        self._maybe_compact(client)

    # -- Get path ------------------------------------------------------------
    def get(self, client, key: str, metrics: OpMetrics) -> Generator:
        location = self._index.get(key)
        if location is None:
            if key in self._large_keys:
                return (yield from self.inner.get(client, key, metrics))
            return self.error_result(protocol.ERR_NOT_FOUND)
        record = self._stripes[location.stripe_id]
        if not record.sealed:
            return (
                yield from self._journal_get(
                    client, record, key, location, metrics
                )
            )
        return (
            yield from self._slice_get(
                client, record, key, location, metrics
            )
        )

    def _journal_get(
        self,
        client,
        record: StripeRecord,
        key: str,
        location: ObjectLocation,
        metrics: OpMetrics,
    ) -> Generator:
        """Unsealed object: one RTT to a journal holder, with failover."""
        jkey = journal_key(record.stripe_id, key)
        last_error = protocol.ERR_UNREACHABLE
        for attempt, holder in enumerate(record.journal_holders):
            if attempt:
                metrics.wait_time += T_CHECK
                yield client.compute(T_CHECK)
            if not self._alive(client.fabric, holder):
                continue
            yield self.charge_post(client, metrics, 0)
            event = client.request(holder, "get", jkey, span=metrics.span)
            (response,) = yield from self.wait_each(client, metrics, [event])
            if response.ok:
                self._c_journal_reads.inc()
                return self.ok_result(response.value)
            last_error = response.error
        if record.values is not None and key in record.values:
            # every holder is gone (beyond-tolerance), but the
            # coordinator still stages the bytes: serve them
            self._c_buffer_serves.inc()
            return self.ok_result(record.values[key])
        return self.error_result(last_error)

    def _chunk_spans(
        self, record: StripeRecord, location: ObjectLocation
    ) -> List[Tuple[int, int, int]]:
        """The (chunk_index, offset_in_chunk, length) slices covering an
        object — 1 or 2 entries (objects are far smaller than a chunk)."""
        chunk_len = record.chunk_len
        start, length = location.offset, location.length
        end = start + length
        spans = []
        for index in range(start // chunk_len, (end - 1) // chunk_len + 1):
            lo = max(start, index * chunk_len)
            hi = min(end, (index + 1) * chunk_len)
            spans.append((index, lo - index * chunk_len, hi - lo))
        return spans

    def _slice_get(
        self,
        client,
        record: StripeRecord,
        key: str,
        location: ObjectLocation,
        metrics: OpMetrics,
    ) -> Generator:
        """Sealed object: slice reads against the systematic chunk(s).

        A span the plain slice read cannot serve (holder dead, or the
        read failed without ``CORRUPT``) is a *column read*: the same
        ``(offset, length)`` range of K surviving chunks, fetched through
        the inner scheme's chunk gather and decoded as K x length bytes.
        The whole stripe is decoded only after a ``CORRUPT`` answer
        (that path drops and read-repairs the rotted chunk), when a
        column gather cannot decode, or for codecs that are not
        :attr:`~repro.ec.base.ErasureCodec.columnar`.
        """
        if location.length == 0:
            return self.ok_result(Payload.from_bytes(b""))
        spans = self._chunk_spans(record, location)
        servers = self.inner.chunk_servers(client.ring, record.name)
        parts: List[Optional[Payload]] = [None] * len(spans)
        failed: Set[int] = set()
        corrupt = False
        if all(
            self._alive(client.fabric, servers[index])
            for index, _off, _len in spans
        ):
            events = []
            for index, chunk_off, slice_len in spans:
                yield self.charge_post(client, metrics, 0)
                events.append(
                    client.request(
                        servers[index],
                        "st_get",
                        chunk_key(record.name, index),
                        meta={"off": chunk_off, "len": slice_len},
                        span=metrics.span,
                    )
                )
            responses = yield from self.wait_each(client, metrics, events)
            for pos, response in enumerate(responses):
                if response.ok:
                    parts[pos] = response.value
                else:
                    failed.add(spans[pos][0])
                    corrupt = corrupt or response.error == protocol.ERR_CORRUPT
            if not failed:
                self._c_slice_reads.inc()
                return self.ok_result(_joined(parts, location.length))
        else:
            metrics.wait_time += T_CHECK
            yield client.compute(T_CHECK)
        self._c_degraded.inc()
        if self.codec.columnar and not corrupt:
            for pos, span in enumerate(spans):
                if parts[pos] is None:
                    parts[pos] = yield from self._column_read(
                        client, record, span, failed, metrics
                    )
                    if parts[pos] is None:
                        break
            else:
                self._c_column_reads.inc()
                return self.ok_result(_joined(parts, location.length))
        # Decode the whole stripe (the inner path re-queues corrupt
        # chunks, read-repairs rot, and handles relocations).
        result = yield from self.inner.get(client, record.name, metrics)
        if not result.ok:
            return result
        stripe_value = result.value
        start, length = location.offset, location.length
        if stripe_value is not None and stripe_value.has_data:
            return self.ok_result(
                Payload.from_bytes(
                    stripe_value.data[start : start + length]
                )
            )
        return self.ok_result(Payload.sized(length))

    def _column_read(
        self,
        client,
        record: StripeRecord,
        span: Tuple[int, int, int],
        skip: Set[int],
        metrics: OpMetrics,
    ) -> Generator:
        """Rebuild one span from the same byte range of K survivors.

        The gather files the slices by the chunks' write version, so
        slices of two carrier versions never decode together.  Chunks in
        ``skip`` already failed a slice read for this Get.  Returns the
        span's bytes, or None when the survivors cannot decode them or
        one answered ``CORRUPT`` (the caller then decodes the stripe).
        """
        index, chunk_off, slice_len = span
        inner = self.inner
        servers = inner.chunk_servers(client.ring, record.name)
        plan = inner._gather_plan(client.fabric, servers)
        if plan is None:
            return None
        candidates, _dead_data = plan
        slices, _len, _ver, error, corrupt = yield from inner._gather_chunks(
            client,
            record.name,
            servers,
            [i for i in candidates if i not in skip],
            metrics,
            op="st_get",
            meta={"off": chunk_off, "len": slice_len},
        )
        if error is not None or corrupt:
            return None
        width = self.k * slice_len
        decode_time = client.cost_model.decode_time(
            self.codec.name,
            width,
            self.k,
            self.m,
            inner.erased_data_count(slices),
        )
        yield self.charge_decode(client, metrics, decode_time)
        if not all(p.has_data for p in slices.values()):
            return Payload.sized(slice_len)
        rows = self.codec.decode(
            {i: p.data for i, p in slices.items()}, width
        )
        return Payload.from_bytes(
            rows[index * slice_len : (index + 1) * slice_len]
        )

    # -- Delete path ----------------------------------------------------------
    def delete(self, client, key: str, metrics: OpMetrics) -> Generator:
        """Tombstone ``key``: index entry removed, dead bytes accounted,
        GC triggered when a sealed stripe's utilization drops below the
        threshold.  Large objects drop their chunks immediately."""
        location = self._index.get(key)
        if location is not None:
            yield client.compute(T_CHECK)
            metrics.request_time += T_CHECK
            self._tombstone_small(client, key)
            return self.ok_result()
        if key in self._large_keys:
            self._large_keys.discard(key)
            yield from self._drop_carrier(client, key, metrics)
            return self.ok_result()
        yield client.compute(T_CHECK)
        return self.error_result(protocol.ERR_NOT_FOUND)

    def _tombstone_small(self, client, key: str) -> None:
        location = self._index.pop(key, None)
        if location is None:
            return
        self._c_tombstones.inc()
        self._kill_slot(client, key, location)

    def _kill_slot(self, client, key: str, location: ObjectLocation) -> None:
        record = self._stripes.get(location.stripe_id)
        if record is None:
            return
        record.kill(key)
        if record.sealed:
            self._maybe_compact(client)

    def _drop_carrier(
        self, client, carrier_key: str, metrics: OpMetrics
    ) -> Generator:
        """Delete every chunk of an inner-scheme carrier object."""
        servers = self.inner.chunk_servers(client.ring, carrier_key)
        events = []
        for index, server in enumerate(servers):
            if not self._alive(client.fabric, server):
                continue  # a dead holder's chunk died with it
            yield self.charge_post(client, metrics, 0)
            events.append(
                client.request(
                    server,
                    "delete",
                    chunk_key(carrier_key, index),
                    span=metrics.span,
                )
            )
        yield from self.wait_each(client, metrics, events)
        self.inner.forget_key(carrier_key)

    # -- GC ------------------------------------------------------------------
    def _gc_client(self):
        if self._gc is None:
            self._gc = self.cluster.add_client(name_hint="stripegc")
            self._gc.default_lane = "bg"
        return self._gc

    def _maybe_compact(self, client) -> None:
        if self._compacting or not self.compactor.victims():
            return
        self._compacting = True
        client.sim.process(self._compact_process(), name="stripe-gc")

    def _compact_process(self) -> Generator:
        try:
            yield from self.compactor.run(self._gc_client())
        finally:
            self._compacting = False

    # -- crash repair ---------------------------------------------------------
    def repair_server(self, client, failed_name: str) -> Generator:
        """Restore journal redundancy lost with a crashed holder.

        Sealed carriers (stripes and large objects) are repaired by the
        generic :class:`~repro.resilience.recovery.RepairManager` against
        :attr:`inner`; this covers what that cannot see — the pre-seal
        journal copies, re-replicated from the coordinator's staging.
        """
        repaired = 0
        metrics = OpMetrics(client.sim.now)
        for sid in sorted(self._stripes):
            record = self._stripes[sid]
            if record.sealed or failed_name not in record.journal_holders:
                continue
            ok = yield from self._replace_journal_holder(
                client, record, failed_name, metrics
            )
            if ok:
                repaired += 1
        return repaired

    # -- server-side handlers --------------------------------------------------
    def _handle_st_get(self, server, request) -> Generator:
        """Slice read: return ``meta.len`` bytes at ``meta.off`` of the
        stored chunk — the no-decode fast path for packed objects."""
        item = server.cache.get(request.key)
        if item is None:
            yield from server.cpu(0.0)
            return Response(
                req_id=request.req_id,
                ok=False,
                server=server.name,
                error=protocol.ERR_NOT_FOUND,
            )
        offset = request.meta.get("off", 0)
        length = request.meta.get("len", max(item.value_len - offset, 0))
        if item.data is not None and server.verify_on_read:
            expected = item.meta.get("crc")
            if expected is not None:
                # integrity: the whole chunk is verified before slicing,
                # so DRAM rot anywhere in the stripe is caught here (the
                # item is left in place — the plain "get" path owns the
                # drop-and-read-repair lifecycle)
                yield from server.cpu(
                    item.value_len * CHECKSUM_CPU_PER_BYTE / server.cpu_speed,
                    request,
                )
                if item.payload().checksum() != expected:
                    server.corruption_detected += 1
                    return Response(
                        req_id=request.req_id,
                        ok=False,
                        server=server.name,
                        error=protocol.ERR_CORRUPT,
                    )
        yield from server.cpu(
            length * COPY_CPU_PER_BYTE / server.cpu_speed, request
        )
        if item.data is not None:
            value = Payload.from_bytes(bytes(item.data[offset : offset + length]))
        else:
            value = Payload.sized(length)
        # the chunk's write version lets a range gather keep slices of
        # two carrier versions apart
        meta = {"data_len": length, "ver": item.meta.get("ver", 0)}
        if value.has_data:
            meta["crc"] = value.checksum()
        return Response(
            req_id=request.req_id,
            ok=True,
            server=server.name,
            value=value,
            meta=meta,
        )

    def _handle_st_jclear(self, server, request) -> Generator:
        """Retire a sealed stripe's journal copies in one request."""
        keys = request.meta.get("keys") or ()
        yield from server.cpu(len(keys) * 1.0e-7 / server.cpu_speed, request)
        removed = 0
        for jkey in keys:
            if server.cache.delete(jkey):
                removed += 1
        return Response(
            req_id=request.req_id,
            ok=True,
            server=server.name,
            meta={"removed": removed},
        )


__all__ = ["StripedScheme"]
