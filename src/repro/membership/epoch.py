"""Epoched cluster topology: versioned rings and liveness states.

The membership layer makes topology a first-class, versioned object.  A
:class:`RingEpoch` is one immutable snapshot — an epoch number, an
ordered member list, and the :class:`~repro.store.hashring.HashRing`
built over it.  The :class:`MembershipTable` is the sequence of epochs a
cluster has lived through, plus per-node liveness state shared by the
failure injector (chaos) and the SWIM detector, so planned changes
and detected failures can never disagree about who is alive.

Transition protocol (MemEC-style coordinated state changes):

1. A transition (``join`` / ``graceful_leave`` / ``decommission`` /
   ``replace``, all thin wrappers over :meth:`MembershipTable.apply`)
   opens a new epoch.  Only one epoch may be open at a time — a second
   transition before :meth:`MembershipTable.seal` raises
   :class:`MembershipError`.
2. While the newest epoch is *open*, the cluster is migrating: writers
   place by the new ring, readers try the new placement and fall back to
   the previous epoch's ring (the **dual-epoch read protocol** — see
   :class:`RingView.previous_ring`).
3. ``seal()`` ends the migration: the epoch becomes authoritative, the
   fallback window closes, and the next transition may begin.

:class:`RingView` is the indirection handed to clients and servers in
place of a bare ``HashRing``: it duck-types the ring API but always
resolves against the *current* epoch, so every component observes a
membership change at the instant it is proposed, with zero re-plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.store.hashring import HashRing

#: liveness states tracked per member
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


class MembershipError(Exception):
    """An illegal membership transition (or a move against a sealed epoch)."""


class RingEpoch:
    """One immutable topology version: epoch number, members, ring."""

    __slots__ = ("number", "members", "ring", "origin", "opened_at",
                 "sealed", "sealed_at")

    def __init__(
        self,
        number: int,
        ring: HashRing,
        origin: str = "",
        opened_at: float = 0.0,
        sealed: bool = False,
    ):
        self.number = number
        self.members = tuple(ring.servers)
        self.ring = ring
        self.origin = origin
        self.opened_at = opened_at
        self.sealed = sealed
        self.sealed_at: Optional[float] = opened_at if sealed else None

    def seal(self, now: float) -> None:
        if self.sealed:
            raise MembershipError("epoch %d already sealed" % self.number)
        self.sealed = True
        self.sealed_at = now

    @property
    def convergence_time(self) -> Optional[float]:
        """Seconds from open to seal, or ``None`` while migrating."""
        if self.sealed_at is None:
            return None
        return self.sealed_at - self.opened_at

    def describe(self) -> dict:
        """JSON-able summary (used by the scale report)."""
        return {
            "epoch": self.number,
            "origin": self.origin,
            "members": list(self.members),
            "opened_at": self.opened_at,
            "sealed_at": self.sealed_at,
            "convergence_time": self.convergence_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<RingEpoch %d %s members=%d>" % (
            self.number, "sealed" if self.sealed else "open", len(self.members)
        )


class MembershipTable:
    """The versioned membership of one cluster: epochs + liveness."""

    def __init__(
        self,
        members: Sequence[str],
        points_per_server: int = 100,
        clock: Optional[Callable[[], float]] = None,
    ):
        self._clock = clock or (lambda: 0.0)
        genesis = RingEpoch(
            0,
            HashRing(list(members), points_per_server=points_per_server),
            origin="genesis",
            opened_at=self._clock(),
            sealed=True,
        )
        self.epochs: List[RingEpoch] = [genesis]
        self.states: Dict[str, str] = {name: ALIVE for name in members}
        #: callbacks(old_epoch, new_epoch) fired on every transition
        self.observers: List[Callable[[RingEpoch, RingEpoch], None]] = []
        #: callbacks(epoch) fired when an epoch seals
        self.seal_observers: List[Callable[[RingEpoch], None]] = []

    # -- epochs ------------------------------------------------------------
    @property
    def current(self) -> RingEpoch:
        """The newest epoch (authoritative placement for writes)."""
        return self.epochs[-1]

    @property
    def previous(self) -> Optional[RingEpoch]:
        """The epoch before the current one, if any."""
        return self.epochs[-2] if len(self.epochs) > 1 else None

    @property
    def migrating(self) -> bool:
        """True while the current epoch has not been sealed."""
        return not self.current.sealed

    def epoch_by_number(self, number: int) -> RingEpoch:
        for epoch in self.epochs:
            if epoch.number == number:
                return epoch
        raise KeyError("no epoch %d" % number)

    # -- liveness ----------------------------------------------------------
    def state_of(self, name: str) -> str:
        return self.states.get(name, DEAD)

    def is_alive(self, name: str) -> bool:
        """Alive or merely suspected — only DEAD counts as down."""
        return self.states.get(name) in (ALIVE, SUSPECT)

    def alive_members(self) -> List[str]:
        return [m for m in self.current.members if self.is_alive(m)]

    def suspect(self, name: str) -> bool:
        """Move an ALIVE member to SUSPECT; no-op on DEAD/unknown nodes.

        Returns whether the state changed — a node the failure injector
        already crashed stays DEAD, so chaos- and detector-driven
        bookkeeping can never disagree.
        """
        if self.states.get(name) == ALIVE:
            self.states[name] = SUSPECT
            return True
        return False

    def mark_dead(self, name: str) -> bool:
        """Promote a node to DEAD (from any prior state)."""
        if name in self.states and self.states[name] != DEAD:
            self.states[name] = DEAD
            return True
        return False

    def mark_alive(self, name: str) -> bool:
        """Declare a node reachable again (clears SUSPECT and DEAD)."""
        if self.states.get(name) != ALIVE:
            self.states[name] = ALIVE
            return True
        return False

    # -- transitions -------------------------------------------------------
    def apply(
        self,
        add: Iterable[str] = (),
        remove: Iterable[str] = (),
        origin: str = "apply",
    ) -> RingEpoch:
        """Open a new epoch with ``add`` joined and ``remove`` departed.

        The current epoch must be sealed (one migration at a time).  The
        new epoch starts *open*; run the migration plan, then ``seal()``.
        """
        if self.migrating:
            raise MembershipError(
                "epoch %d is still migrating; seal it before the next "
                "transition" % self.current.number
            )
        add = list(add)
        remove = list(remove)
        if not add and not remove:
            raise MembershipError("transition changes no members")
        ring = self.current.ring
        for name in remove:
            if name not in self.current.members:
                raise MembershipError("%r is not a member" % name)
            ring = ring.without_server(name)
        for name in add:
            if name in self.current.members:
                raise MembershipError("%r is already a member" % name)
            ring = ring.with_server(name)
        epoch = RingEpoch(
            self.current.number + 1,
            ring,
            origin=origin,
            opened_at=self._clock(),
        )
        old = self.current
        self.epochs.append(epoch)
        for name in add:
            self.states.setdefault(name, ALIVE)
        for callback in list(self.observers):
            callback(old, epoch)
        return epoch

    def join(self, name: str) -> RingEpoch:
        """A new node joins the ring (must be up before joining)."""
        return self.apply(add=[name], origin="join:%s" % name)

    def graceful_leave(self, name: str) -> RingEpoch:
        """A live node leaves: its chunks can be *copied* off it."""
        if not self.is_alive(name):
            raise MembershipError(
                "%r is dead; use decommission() for dead nodes" % name
            )
        return self.apply(remove=[name], origin="leave:%s" % name)

    def decommission(self, name: str) -> RingEpoch:
        """Remove a (possibly dead) node; lost chunks are re-encoded."""
        self.states[name] = DEAD
        return self.apply(remove=[name], origin="decommission:%s" % name)

    def replace(self, old: str, new: str) -> RingEpoch:
        """Swap a failed node for a fresh one in a single epoch."""
        self.states[old] = DEAD
        return self.apply(
            add=[new], remove=[old], origin="replace:%s->%s" % (old, new)
        )

    def seal(self) -> RingEpoch:
        """Declare the current epoch's migration complete."""
        epoch = self.current
        epoch.seal(self._clock())
        for callback in list(self.seal_observers):
            callback(epoch)
        return epoch

    def describe(self) -> List[dict]:
        """JSON-able epoch timeline."""
        return [epoch.describe() for epoch in self.epochs]


class RingView:
    """A ``HashRing`` facade that always resolves the current epoch.

    Handed to clients/servers wherever a bare ring used to go; the dual-
    epoch read protocol reaches the old placement through
    :meth:`previous_ring` while a migration is in flight.
    """

    __slots__ = ("table",)

    def __init__(self, table: MembershipTable):
        self.table = table

    # -- HashRing API (delegating to the current epoch) --------------------
    @property
    def servers(self) -> List[str]:
        return self.table.current.ring.servers

    @property
    def points_per_server(self) -> int:
        return self.table.current.ring.points_per_server

    def primary(self, key: str) -> str:
        return self.table.current.ring.primary(key)

    def placement(self, key: str, count: int) -> List[str]:
        return self.table.current.ring.placement(key, count)

    def warm(self, keys) -> None:
        """Batch-prime the current ring's placement cache."""
        self.table.current.ring.warm(keys)

    # -- epoch-awareness ---------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current epoch number (stamped into request metadata)."""
        return self.table.current.number

    def previous_ring(self) -> Optional[HashRing]:
        """The prior epoch's ring while migrating, else ``None``.

        This is the read-side fallback window: a Get that misses on the
        current placement retries against this ring until the epoch
        seals, at which point the window closes and the new placement is
        authoritative.
        """
        if self.table.migrating and self.table.previous is not None:
            return self.table.previous.ring
        return None
