"""Migration planning: diff two epochs into a minimal chunk-move plan.

Given the ring before and after a membership transition, the planner
walks every known key and emits a :class:`ChunkMove` for exactly the
chunk slots whose owner changed — unchanged placements never move, so a
single join or leave migrates only the ~1/N of the key space consistent
hashing disturbs.

Each move is classified at planning time (Rashmi et al.'s distinction
between *copy* recovery and *reconstruction* traffic):

``copy``
    The chunk's current holder is alive; the scheduler streams the chunk
    to its new owner (cost: one chunk of bandwidth).
``reencode``
    The holder is dead (decommission/replace of a failed node).  The
    scheduler rebuilds the missing chunk through the scheme's
    ``rebuild_chunks`` onto its new owner (cost: ``k`` chunk reads, or
    the local group under LRC, plus one write — the EC repair penalty
    the bandwidth cap must absorb).

Placement adapters bridge the two resilience families: the erasure
adapter asks the scheme for per-chunk locations (including repair
relocations) and may re-encode; the replication adapter treats each
replica slot as a full copy of the object, redirecting a dead source to
any live replica instead of re-encoding.

Plans are deterministic — keys are walked in sorted order and digests
are SHA-256 over the canonical JSON — so identical seeds yield
byte-identical plans (the acceptance bar for reproducible elasticity).
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, List, Optional, Sequence

from repro.membership.epoch import MembershipError, RingEpoch
from repro.resilience.erasure import chunk_key

COPY = "copy"
REENCODE = "reencode"


class ChunkMove:
    """One chunk (or replica) relocation: ``storage_key`` from src to dst."""

    __slots__ = ("key", "index", "storage_key", "src", "dst", "mode")

    def __init__(
        self, key: str, index: int, storage_key: str, src: str, dst: str,
        mode: str,
    ):
        self.key = key
        self.index = index
        self.storage_key = storage_key
        self.src = src
        self.dst = dst
        self.mode = mode

    def describe(self) -> dict:
        return {
            "key": self.key,
            "index": self.index,
            "storage_key": self.storage_key,
            "src": self.src,
            "dst": self.dst,
            "mode": self.mode,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ChunkMove %s[%d] %s %s->%s>" % (
            self.key, self.index, self.mode, self.src, self.dst
        )


class MigrationPlan:
    """The ordered move list taking the cluster from one epoch to the next."""

    def __init__(
        self,
        epoch_from: int,
        epoch_to: int,
        moves: Sequence[ChunkMove],
        keys_scanned: int = 0,
    ):
        self.epoch_from = epoch_from
        self.epoch_to = epoch_to
        self.moves: List[ChunkMove] = list(moves)
        self.keys_scanned = keys_scanned

    @property
    def empty(self) -> bool:
        return not self.moves

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — the determinism fingerprint."""
        canonical = json.dumps(
            {
                "epoch_from": self.epoch_from,
                "epoch_to": self.epoch_to,
                "moves": [move.describe() for move in self.moves],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> dict:
        modes = {COPY: 0, REENCODE: 0}
        for move in self.moves:
            modes[move.mode] = modes.get(move.mode, 0) + 1
        return {
            "epoch_from": self.epoch_from,
            "epoch_to": self.epoch_to,
            "keys_scanned": self.keys_scanned,
            "moves": len(self.moves),
            "copy_moves": modes.get(COPY, 0),
            "reencode_moves": modes.get(REENCODE, 0),
            "digest": self.digest(),
        }


class ErasurePlacementAdapter:
    """Plans over an :class:`~repro.resilience.erasure.ErasureScheme`.

    Current locations include repair relocations (a chunk the
    RepairManager already moved is diffed from where it actually lives);
    targets are the scheme's default placement on the new ring, so a
    completed migration leaves no relocation debt behind.
    """

    can_reencode = True

    def __init__(self, scheme):
        self.scheme = scheme

    @property
    def width(self) -> int:
        return self.scheme.n

    def locations(self, ring, key: str) -> List[str]:
        return self.scheme.chunk_servers(ring, key)

    def targets(self, ring, key: str) -> List[str]:
        return self.scheme.placement(ring, key)

    def storage_key(self, key: str, index: int) -> str:
        return chunk_key(key, index)


class ReplicationPlacementAdapter:
    """Plans over whole-object replicas (``factor`` copies, copy-only)."""

    can_reencode = False

    def __init__(self, factor: int):
        self.factor = factor

    @property
    def width(self) -> int:
        return self.factor

    def locations(self, ring, key: str) -> List[str]:
        return ring.placement(key, self.factor)

    def targets(self, ring, key: str) -> List[str]:
        return ring.placement(key, self.factor)

    def storage_key(self, key: str, index: int) -> str:
        return key


class MigrationPlanner:
    """Diffs two epochs into the minimal move list."""

    def __init__(self, adapter):
        self.adapter = adapter

    def plan(
        self,
        old_epoch: RingEpoch,
        new_epoch: RingEpoch,
        keys: Iterable[str],
        is_alive: Optional[Callable[[str], bool]] = None,
    ) -> MigrationPlan:
        """Emit moves for every chunk slot whose owner changed.

        ``is_alive`` decides copy vs re-encode for each source; default
        assumes every old holder is reachable (pure scale-out).
        """
        if new_epoch.sealed:
            raise MembershipError(
                "epoch %d is sealed; it accepts no further moves"
                % new_epoch.number
            )
        alive = is_alive or (lambda server: True)
        adapter = self.adapter
        moves: List[ChunkMove] = []
        ordered = sorted(set(keys))
        # batch-resolve every key on both rings up front (one vectorized
        # searchsorted per ring when numpy is present) so the per-key
        # diff below runs against warm placement caches
        for ring in (old_epoch.ring, new_epoch.ring):
            warm = getattr(ring, "warm", None)
            if warm is not None:
                warm(ordered)
        for key in ordered:
            current = adapter.locations(old_epoch.ring, key)
            target = adapter.targets(new_epoch.ring, key)
            for index in range(adapter.width):
                src, dst = current[index], target[index]
                if src == dst:
                    continue
                mode = COPY
                if not alive(src):
                    if adapter.can_reencode:
                        mode = REENCODE
                    else:
                        # replication: any live replica is a full copy
                        for alt in current:
                            if alt != src and alive(alt):
                                src = alt
                                break
                moves.append(
                    ChunkMove(
                        key,
                        index,
                        adapter.storage_key(key, index),
                        src,
                        dst,
                        mode,
                    )
                )
        return MigrationPlan(
            old_epoch.number, new_epoch.number, moves, keys_scanned=len(ordered)
        )
