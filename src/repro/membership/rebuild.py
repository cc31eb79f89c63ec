"""Throttled background rebuild: executing a migration plan online.

The scheduler this module provides is the answer to the Facebook
warehouse-cluster finding (Rashmi et al.): recovery traffic left
unthrottled starves foreground I/O.  Two knobs bound its footprint:

``bandwidth``
    A hard cap, in bytes per virtual second, on rebuild traffic.  The
    :class:`BandwidthThrottle` enforces it with a *slot clock*: each
    transfer of ``S`` bytes reserves the next free interval of length
    ``S / bandwidth`` on a private timeline and sleeps to that slot's
    end before the bytes go out.  Slots never overlap, and a slot's
    bytes spread over exactly its interval at rate ``bandwidth`` — so
    the traffic attributed to *any* time window is ``<= bandwidth *
    window`` **by construction**, which is what the scale report's
    windowed-rate series verifies.

``window``
    The number of concurrent per-key workers.  Moves are grouped by key
    and each group executes sequentially (a key's chunk-location vector
    stays coherent); distinct keys overlap up to the window.

Foreground safety during a move:

- Before execution starts, every move's chunk is published in the
  erasure scheme's relocation map pointing at its *old* holder, so Gets
  through the new epoch's ring resolve to wherever the chunk actually
  is; each completed move retires its entry.
- A foreground overwrite concurrent with a move simply wins: its fresh
  chunks carry a newer write version, the servers' stale-write guard
  drops the scheduler's late copy, and the move is recorded as
  superseded rather than retried.
- A copy whose source dies mid-plan degrades to a re-encode through the
  scheme's one reconstruction path (``rebuild_chunks``), not an error.
- A move whose destination is dead fails before reading anything; the
  chunk stays at its forwarding entry until that node's own scale-in.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.membership.epoch import MembershipError, RingEpoch
from repro.membership.planner import COPY, REENCODE, ChunkMove, MigrationPlan
from repro.simulation import REBUILD_WINDOW, run_window
from repro.store import protocol
from repro.store.result import ErrorCode


class BandwidthThrottle:
    """Slot-clock pacing of rebuild traffic to ``rate`` bytes/second."""

    def __init__(self, sim, rate: Optional[float]):
        if rate is not None and rate <= 0:
            raise ValueError("bandwidth cap must be positive (or None)")
        self.sim = sim
        self.rate = rate
        self.total_bytes = 0
        #: (start, end, bytes) reservation log — the report's proof that
        #: no window ever carried more than ``rate * window`` bytes
        self.slots: List[Tuple[float, float, int]] = []
        self._clock = 0.0

    def acquire(self, nbytes: int) -> Generator:
        """Reserve the next slot for ``nbytes`` and sleep to its end."""
        self.total_bytes += nbytes
        if self.rate is None or nbytes <= 0:
            return
        start = max(self._clock, self.sim.now)
        end = start + nbytes / self.rate
        self._clock = end
        self.slots.append((start, end, nbytes))
        delay = end - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)

    def bytes_per_window(self, window: float = 1.0) -> List[float]:
        """Rebuild bytes attributed to each consecutive ``window``-second
        bucket (slot bytes spread uniformly over the slot interval)."""
        if not self.slots or window <= 0:
            return []
        horizon = max(end for _, end, _ in self.slots)
        buckets = [0.0] * (int(horizon / window) + 1)
        for start, end, nbytes in self.slots:
            density = nbytes / (end - start) if end > start else 0.0
            i = int(start / window)
            while i * window < end:
                lo = max(start, i * window)
                hi = min(end, (i + 1) * window)
                if hi > lo:
                    buckets[i] += density * (hi - lo)
                i += 1
        return buckets

    def peak_rate(self, window: float = 1.0) -> float:
        """Highest observed bytes/second over any aligned window."""
        buckets = self.bytes_per_window(window)
        return max(buckets) / window if buckets else 0.0

    def describe(self) -> dict:
        return {
            "bandwidth_cap": self.rate,
            "total_bytes": self.total_bytes,
            "slots": len(self.slots),
            "peak_rate": self.peak_rate(),
        }


class RebuildScheduler:
    """Executes migration plans in the background, under the throttle."""

    def __init__(
        self,
        cluster,
        adapter,
        client,
        bandwidth: Optional[float] = None,
        window: int = REBUILD_WINDOW,
    ):
        if window < 1:
            raise ValueError("concurrency window must be >= 1")
        self.cluster = cluster
        self.adapter = adapter
        self.client = client
        self.window = window
        self.sim = cluster.sim
        self.metrics = cluster.metrics
        self.throttle = BandwidthThrottle(self.sim, bandwidth)
        self._bytes = self.metrics.counter("rebuild.bytes")
        self._moves = self.metrics.counter("rebuild.moves")
        self._copies = self.metrics.counter("rebuild.copy_moves")
        self._reencodes = self.metrics.counter("rebuild.reencode_moves")
        self._superseded = self.metrics.counter("rebuild.superseded_moves")
        self._failed = self.metrics.counter("rebuild.failed_moves")
        self._pending = self.metrics.gauge("rebuild.pending_moves")
        self._lag = self.metrics.histogram("membership.migration_lag")

    # -- scheme plumbing ---------------------------------------------------
    @property
    def _scheme(self):
        return getattr(self.adapter, "scheme", None)

    def publish_locations(self, plan: MigrationPlan) -> None:
        """Point the relocation map at every moving chunk's old holder.

        Once the new epoch is current, ``chunk_servers(new_ring, key)``
        would claim chunks already live at their new homes; publishing
        the old locations first keeps every read truthful while the
        migration drains.  No-op for replication (no relocation map).
        """
        scheme = self._scheme
        if scheme is None:
            return
        for move in plan.moves:
            scheme.record_relocation(move.key, move.index, move.src)

    def _retire_location(self, move: ChunkMove) -> None:
        scheme = self._scheme
        if scheme is None:
            return
        # conditional: a fresh overwrite or a concurrent repair may have
        # re-pointed this chunk; only our own forwarding entry retires
        if scheme.relocations.get((move.key, move.index)) == move.src:
            scheme.relocations.pop((move.key, move.index), None)

    def _location_cleared(self, move: ChunkMove) -> bool:
        scheme = self._scheme
        if scheme is None:
            return False
        return scheme.relocations.get((move.key, move.index)) != move.src

    # -- execution ---------------------------------------------------------
    def execute(self, plan: MigrationPlan, epoch: RingEpoch) -> Generator:
        """Drive every move of ``plan``; returns the execution report.

        Run as a simulated process (``sim.process(scheduler.execute(...))``)
        so it overlaps foreground traffic.  Raises :class:`MembershipError`
        if the target epoch is already sealed — a sealed epoch accepts no
        further moves.
        """
        if epoch.sealed:
            raise MembershipError(
                "epoch %d is sealed; it accepts no further moves"
                % epoch.number
            )
        stats = {
            "moves": len(plan.moves),
            "copied": 0,
            "reencoded": 0,
            "superseded": 0,
            "failed": 0,
            "bytes": 0,
            "failures": [],
        }
        groups: Dict[str, List[ChunkMove]] = {}
        order: List[str] = []
        for move in plan.moves:
            if move.key not in groups:
                order.append(move.key)
            groups.setdefault(move.key, []).append(move)
        self._pending.set(len(plan.moves))

        def run_group(group: List[ChunkMove]) -> Generator:
            for move in group:
                if epoch.sealed:
                    raise MembershipError(
                        "epoch %d sealed mid-migration with moves "
                        "outstanding" % epoch.number
                    )
                yield from self._execute_move(move, epoch, stats)
                self._pending.dec()

        before = self.throttle.total_bytes
        yield from run_window(
            self.sim, [groups[key] for key in order], run_group, self.window,
            name="rebuild-worker",
        )
        stats["bytes"] = self.throttle.total_bytes - before
        self._pending.set(0)
        return stats

    def _execute_move(
        self, move: ChunkMove, epoch: RingEpoch, stats: dict
    ) -> Generator:
        ok = False
        # A dead new owner can store nothing: fail the move before any
        # read.  Its forwarding entry stays, so reads remain truthful,
        # and that node's own scale-in moves the chunk later.
        if self._is_alive(move.dst):
            mode = move.mode
            if mode == COPY and not self._is_alive(move.src):
                # the plan said copy, but the source died since planning
                mode = REENCODE if self.adapter.can_reencode else COPY
            if mode == COPY:
                ok = yield from self._copy_move(move, stats)
                if not ok and self.adapter.can_reencode:
                    mode = REENCODE
            if not ok and mode == REENCODE:
                ok = yield from self._reencode_move(move, stats)
        self._moves.inc()
        if ok:
            self._retire_location(move)
            self._lag.observe(self.sim.now - epoch.opened_at)
        else:
            self._failed.inc()
            stats["failed"] += 1
            stats["failures"].append(move.describe())

    def _is_alive(self, server: str) -> bool:
        table = getattr(self.cluster, "membership", None)
        if table is not None and server in table.states:
            return table.is_alive(server)
        endpoint = self.client.fabric.endpoints.get(server)
        return endpoint is not None and endpoint.alive

    def _request(
        self, dst: str, op: str, key: str, value=None, meta=None
    ) -> Generator:
        """One raw request with the client's retry budget applied."""
        policy = self.client.policy
        attempts = 0
        while True:
            event = self.client.request(dst, op, key, value=value, meta=meta)
            response = yield event
            if response.ok:
                return response
            code = ErrorCode.from_wire(response.error)
            if not code.retryable or attempts >= policy.max_retries:
                return response
            attempts += 1
            delay = policy.backoff(attempts)
            if delay > 0:
                yield self.sim.timeout(delay)

    def _copy_move(self, move: ChunkMove, stats: dict) -> Generator:
        read = yield from self._request(move.src, "get", move.storage_key)
        if not read.ok:
            if read.error == protocol.ERR_NOT_FOUND and self._location_cleared(
                move
            ):
                # a foreground overwrite re-placed this key already; its
                # chunks are at the new placement and ours is garbage
                self._superseded.inc()
                stats["superseded"] += 1
                return True
            return False
        size = read.value.size if read.value is not None else 0
        # read + write both traverse the rebuilder: charge both legs
        yield from self.throttle.acquire(2 * size)
        self._bytes.inc(2 * size)
        write = yield from self._request(
            move.dst, "set", move.storage_key, value=read.value,
            meta=dict(read.meta),
        )
        if not write.ok:
            return False
        self._copies.inc()
        stats["copied"] += 1
        if write.meta.get("stale"):
            # a newer foreground write landed first; ours was dropped
            self._superseded.inc()
            stats["superseded"] += 1
        # free the old copy (the source may be leaving, or just no
        # longer in this chunk's placement)
        if self._is_alive(move.src):
            delete = self.client.request(move.src, "delete", move.storage_key)
            delete.defuse()
            yield delete
        return True

    def _reencode_move(self, move: ChunkMove, stats: dict) -> Generator:
        """Rebuild a chunk whose holder is gone onto its new owner.

        The scheme's ``rebuild_chunks`` does the work (the local group
        under LRC, else ``k`` survivors plus one re-encode) on the
        rebuilder's ring, which is already the epoch being executed.
        Only ``move.index`` is written; any other lost index the gather
        reports is left to repair.  The survivor bytes read plus the
        chunk written are the EC repair penalty the throttle charges.
        """
        scheme = self._scheme
        if scheme is None:
            return False
        rebuilt = yield from scheme.rebuild_chunks(
            self.client, move.key, [move.index]
        )
        if rebuilt is None:
            if self._location_cleared(move):
                self._superseded.inc()
                stats["superseded"] += 1
                return True
            return False
        read, chunks, _local = rebuilt
        chunk, meta = chunks[move.index]
        yield from self.throttle.acquire(read + chunk.size)
        self._bytes.inc(read + chunk.size)
        write = yield from self._request(
            move.dst, "set", move.storage_key, value=chunk, meta=meta
        )
        if not write.ok:
            return False
        self._reencodes.inc()
        stats["reencoded"] += 1
        if write.meta.get("stale"):
            self._superseded.inc()
            stats["superseded"] += 1
        return True
