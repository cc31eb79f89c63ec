"""Continuous integrity scrubbing and sampling audits.

:class:`Scrubber` is a virtual-clock background process per cluster:

- **Scan loop** — walks every chunk location (and, stripe-aware, every
  open-stripe journal copy) in seeded random order, paced so one full
  pass takes roughly ``scan_period`` virtual seconds.  Each visit issues
  a CRC-verified read through the background admission lane (the
  two-lane queues keep foreground p99 protected), so a rotten chunk is
  detected by the server's verify-on-read path exactly as a client read
  would detect it — but *proactively*, bounded by the scan period
  instead of by read luck.  Detected rot triggers reconstruction: a
  degraded decode of the object, re-encode, and a write-back of the
  damaged chunk to its current holder (journal copies are re-replicated
  from a surviving holder instead).

- **Audit loop** — every ``audit_period``, draws ``s`` uniform random
  ``(key, chunk)`` samples and issues the same verifies; if all pass it
  certifies "all acked data recoverable with probability >= 1 - eps"
  via the DAS bound (see :mod:`repro.scrub.audit`).

Determinism: the walk order and the audit draws come from one
``random.Random`` seeded through :func:`repro.workloads.seeding.
derive_seed`, and all I/O runs on the simulator's virtual clock — the
same seed replays the identical scrub schedule.

Events: every detection, heal and audit certificate is a
``scrub.detect``/``scrub.heal``/``scrub.audit`` event in the cluster's
event log.  Ground truth: a detection is matched against the log's
``chaos.rot`` events (what a chaos engine injected) to observe
``scrub.time_to_detect``; the matching repair observes
``scrub.time_to_heal``.  Without injected rot only the truth-relative
histograms stay empty.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.resilience.erasure import chunk_key
from repro.scrub.audit import AuditReport, achieved_epsilon, required_samples
from repro.store import protocol
from repro.workloads.seeding import derive_seed

#: one scrub target: (kind, holder, storage_key, logical_key, index) —
#: ``kind`` is "chunk" (erasure chunk, incl. sealed-stripe carriers) or
#: "journal" (open-stripe full copy; ``index`` is the stripe id there).
Target = Tuple[str, str, str, str, int]


class Scrubber:
    """One cluster's integrity scrubber (built by ``with_scrubbing``)."""

    def __init__(self, cluster, config, rng=None):
        """Build from a :class:`~repro.core.features.ScrubConfig`, which
        owns every knob's default and check."""
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config
        #: samples per audit for the configured ``epsilon``/``p_bound``,
        #: fixed here rather than re-derived per audit
        self.samples_required = required_samples(
            config.epsilon, config.p_bound
        )
        #: resolved sub-stream seed (derive_seed: explicit config seed, or
        #: drawn from a caller-supplied master RNG)
        self.seed = derive_seed(config.seed, rng)
        self._rng = random.Random(self.seed)
        self._client = None
        self._started = False
        self._stopped = False
        self.events = cluster.events
        #: full scan passes completed
        self.passes = 0
        #: optional callback(AuditReport) fired after each audit — soak
        #: harnesses use it to cross-check the certificate against the
        #: chaos engine's ground truth at certificate time
        self.on_audit: Optional[Callable[[AuditReport], None]] = None
        #: positions among the ``chaos.rot`` events already matched to
        #: a detection
        self._matched_rot = set()
        #: (holder, storage_key) -> ground-truth rot time, set at
        #: detection, consumed at heal for the time_to_heal sample
        self._open_rot = {}

        metrics = cluster.metrics
        self._verified = metrics.counter("scrub.chunks_verified")
        self._corrupt = metrics.counter("scrub.corrupt_found")
        self._repairs = metrics.counter("scrub.repairs_triggered")
        self._bytes = metrics.counter("scrub.bytes_read")
        self._skipped = metrics.counter("scrub.targets_skipped")
        self._ttd = metrics.histogram("scrub.time_to_detect")
        self._tth = metrics.histogram("scrub.time_to_heal")

    # -- lifecycle -----------------------------------------------------------
    @property
    def client(self):
        """The scrubber's background-lane client (created on first use)."""
        if self._client is None:
            self._client = self.cluster.add_client(name_hint="scrub")
            # every scrub read and repair write-back rides the bg lane:
            # admission-controlled servers never let scrubbing starve
            # foreground Gets/Sets
            self._client.default_lane = "bg"
        return self._client

    def start(self, horizon: float) -> None:
        """Launch the scan (and audit) loops; they stop at ``horizon``."""
        if self._started:
            raise RuntimeError("scrubber already started")
        self._started = True
        self.sim.process(self._scan_loop(horizon), name="scrub-scan")
        if self.config.audit_period > 0:
            self.sim.process(self._audit_loop(horizon), name="scrub-audit")

    def uninstall(self) -> None:
        """Detach: running loops exit at their next wakeup."""
        self._stopped = True

    # -- target enumeration --------------------------------------------------
    def targets(self) -> List[Target]:
        """Every chunk location to verify, in deterministic order.

        Chunk targets come from the scheme's known keys (sealed-stripe
        carriers appear here under their ``\\x00s:`` names, so stripe
        slice CRCs are covered by the same walk); journal targets cover
        every live object copy of every still-open stripe.
        """
        scheme = self.cluster.scheme
        out: List[Target] = []
        known = getattr(scheme, "known_keys", None)
        placements = getattr(scheme, "chunk_servers", None)
        if known is not None and placements is not None:
            ring = self.cluster.ring
            for key in known():
                for index, holder in enumerate(placements(ring, key)):
                    out.append(
                        ("chunk", holder, chunk_key(key, index), key, index)
                    )
        records = getattr(scheme, "stripe_records", None)
        if records is not None:
            from repro.stripes.buffer import journal_key

            for record in records():
                if record.sealed or record.sealing or not record.values:
                    continue
                for obj_key in sorted(record.values):
                    skey = journal_key(record.stripe_id, obj_key)
                    for holder in record.journal_holders:
                        out.append(
                            ("journal", holder, skey, obj_key,
                             record.stripe_id)
                        )
        return out

    # -- scan loop -----------------------------------------------------------
    def _scan_loop(self, horizon: float):
        while self.sim.now < horizon and not self._stopped:
            yield from self.scan_once(horizon)
            self.passes += 1

    def scan_once(self, deadline: float):
        """One full pass in seeded random order, paced over scan_period."""
        order = self.targets()
        if not order:
            yield self.sim.timeout(
                min(self.config.scan_period, max(deadline - self.sim.now, 0.0))
            )
            return
        self._rng.shuffle(order)
        gap = self.config.scan_period / len(order)
        for target in order:
            yield self.sim.timeout(gap)
            if self.sim.now >= deadline or self._stopped:
                return
            yield from self.verify(target)

    # -- verification --------------------------------------------------------
    def verify(self, target: Target):
        """Visit one target; returns its status string.

        ``"ok"`` (CRC verified), ``"corrupt"`` (rot found — repair was
        triggered), ``"missing"`` (hole — reconstruction attempted),
        ``"skipped"`` (holder dead or retired), or ``"error"`` (busy /
        unreachable / timed out; the next pass retries).
        """
        kind, holder, skey, lkey, index = target
        server = self.cluster.servers.get(holder)
        if server is None or not server.alive:
            self._skipped.inc()
            return "skipped"
        response = yield self.client.request(holder, "get", skey)
        self._verified.inc()
        if response.ok:
            if response.value is not None:
                self._bytes.inc(response.value.size)
            return "ok"
        if response.error == protocol.ERR_CORRUPT:
            # the holder's verify-on-read found rot and dropped the item
            self._corrupt.inc()
            self._record_detection(holder, skey)
            yield from self._repair(target)
            return "corrupt"
        if response.error == protocol.ERR_NOT_FOUND:
            # a hole: rot already evicted by an earlier read, or a lost
            # write-back — reconstruct it the same way
            yield from self._repair(target)
            return "missing"
        return "error"

    def _record_detection(self, holder: str, skey: str) -> None:
        self.events.emit("scrub.detect", holder=holder, key=skey)
        for i, rot in enumerate(self.events.query("chaos.rot")):
            if i not in self._matched_rot and rot.fields == {
                "server": holder, "key": skey
            }:
                self._matched_rot.add(i)
                self._ttd.observe(self.sim.now - rot.time)
                self._open_rot[(holder, skey)] = rot.time
                return

    def _record_heal(self, holder: str, skey: str) -> None:
        self.events.emit("scrub.heal", holder=holder, key=skey)
        rotted_at = self._open_rot.pop((holder, skey), None)
        if rotted_at is not None:
            self._tth.observe(self.sim.now - rotted_at)

    # -- repair --------------------------------------------------------------
    def _repair(self, target: Target):
        kind = target[0]
        self._repairs.inc()
        if kind == "journal":
            return (yield from self._repair_journal(target))
        return (yield from self._repair_chunk(target))

    def _repair_chunk(self, target: Target):
        """Reconstruct one damaged chunk onto its *current* holder.

        ``rebuild_chunks`` re-derives it (stamped with the survivors'
        write version, so a concurrent overwrite wins via the stale-write
        guard); the scrubber's part is one bg-lane write-back in place.
        """
        _kind, holder, skey, lkey, index = target
        client = self.client
        rebuilt = yield from self.cluster.scheme.rebuild_chunks(
            client, lkey, [index]
        )
        if rebuilt is None:
            return False
        read, chunks, _local = rebuilt
        self._bytes.inc(read)
        chunk, meta = chunks[index]
        response = yield client.request(
            holder, "set", skey, value=chunk, meta=meta
        )
        if response.ok:
            self._record_heal(holder, skey)
        return response.ok

    def _repair_journal(self, target: Target):
        """Re-replicate a damaged journal copy from a surviving holder."""
        _kind, holder, skey, _lkey, stripe_id = target
        client = self.client
        scheme = self.cluster.scheme
        record = None
        for candidate in scheme.stripe_records():
            if candidate.stripe_id == stripe_id:
                record = candidate
                break
        if record is None or record.sealed:
            return False  # sealed since the walk: the journal is garbage
        for other in record.journal_holders:
            if other == holder:
                continue
            server = self.cluster.servers.get(other)
            if server is None or not server.alive:
                continue
            response = yield client.request(other, "get", skey)
            if not response.ok or response.value is None:
                continue
            value = response.value
            self._bytes.inc(value.size)
            meta = {"jnl": True}
            if value.has_data:
                meta["crc"] = value.checksum()
            back = yield client.request(
                holder, "set", skey, value=value, meta=meta
            )
            if back.ok:
                self._record_heal(holder, skey)
                return True
        return False

    # -- sampling audit ------------------------------------------------------
    def _audit_loop(self, horizon: float):
        period = self.config.audit_period
        while not self._stopped:
            remaining = horizon - self.sim.now
            if remaining <= 0:
                return
            yield self.sim.timeout(min(period, remaining))
            if self.sim.now >= horizon or self._stopped:
                return
            yield from self.audit_once()

    def audit_once(self):
        """Draw ``s`` random samples, verify each, issue the certificate."""
        config = self.config
        population = self.targets()
        counts = {"ok": 0, "corrupt": 0, "missing": 0,
                  "skipped": 0, "error": 0}
        samples = 0
        if population:
            samples = self.samples_required
            # spread the draws so an audit never bursts the bg queue
            gap = (
                config.audit_period / (2.0 * samples)
                if config.audit_period > 0
                else 0.0
            )
            for _ in range(samples):
                target = population[self._rng.randrange(len(population))]
                if gap:
                    yield self.sim.timeout(gap)
                status = yield from self.verify(target)
                counts[status] += 1
        unreachable = counts["skipped"] + counts["error"]
        # an empty population certifies vacuously: with no acked data
        # there is nothing to be unrecoverable
        certified = not population or (
            samples >= self.samples_required
            and counts["corrupt"] == 0
            and counts["missing"] == 0
            and unreachable == 0
        )
        report = AuditReport(
            time=self.sim.now,
            population=len(population),
            samples=samples,
            verified=counts["ok"],
            corrupt=counts["corrupt"],
            missing=counts["missing"],
            unreachable=unreachable,
            p_bound=config.p_bound,
            epsilon_target=config.epsilon,
            epsilon_achieved=achieved_epsilon(samples, config.p_bound),
            certified=certified,
        )
        self.events.emit("scrub.audit", **report.to_dict())
        if self.on_audit is not None:
            self.on_audit(report)
        return report
