"""Log-structured GC for sealed stripes.

Deletes and overwrites never touch a sealed stripe's chunks — they only
tombstone index entries, leaving dead bytes coded inside the stripe.
The :class:`StripeCompactor` reclaims them: any sealed stripe whose live
fraction falls below ``min_utilization`` is a victim; its live objects
are read back (slice reads; column reads from k survivors under a dead
holder) and re-appended through the normal packed-Set path — journals
first, then a fresh seal — so the durability invariant holds at every
instant of the move.  Once every
live object is re-homed the old stripe's chunks are deleted and its
carrier key forgotten.

Compaction is *opportunistic*: the scheme triggers :meth:`run` as a
one-shot background process after deletes, overwrites, and seals (never
a standing loop — the simulator must quiesce), and the work rides the
background admission lane so foreground traffic keeps priority.
"""

from __future__ import annotations

from typing import Generator, List

from repro.store.arpe import OpMetrics


class StripeCompactor:
    """Rewrites live objects out of low-utilization sealed stripes."""

    def __init__(self, scheme, min_utilization: float = 0.5):
        self.scheme = scheme
        self.min_utilization = min_utilization
        self.stripes_reclaimed = 0
        self.objects_moved = 0
        self.bytes_reclaimed = 0

    def victims(self) -> List:
        """Sealed stripes whose live fraction is below the threshold."""
        return [
            record
            for record in self.scheme.stripe_records()
            if record.sealed and record.utilization < self.min_utilization
        ]

    def run(self, client) -> Generator:
        """Compact victims until none remain (or one fails to move)."""
        moved = 0
        while True:
            victims = sorted(
                self.victims(),
                key=lambda r: (r.utilization, r.stripe_id),
            )
            if not victims:
                return moved
            ok = yield from self._compact_stripe(client, victims[0])
            if not ok:
                # leave the stripe for a later trigger rather than
                # hot-looping against a partially dead cluster
                return moved
            moved += 1

    def _compact_stripe(self, client, record) -> Generator:
        scheme = self.scheme
        metrics = OpMetrics(client.sim.now)
        stripe_id = record.stripe_id
        for key in sorted(record.objects):
            location = scheme.locate(key)
            if location is None or location.stripe_id != stripe_id:
                continue  # tombstoned or already re-homed
            result = yield from scheme._slice_get(
                client, record, key, location, metrics
            )
            if not result.ok:
                return False
            # an overwrite may have raced the read; only move the value
            # we actually read
            if scheme.locate(key) != location:
                continue
            moved = yield from scheme._append_small(
                client, key, result.value, metrics, rehome=True
            )
            if not moved.ok:
                return False
            self.objects_moved += 1
        # every live object re-homed: reclaim the stripe's chunks
        yield from scheme._drop_carrier(client, record.name, metrics)
        del scheme._stripes[stripe_id]
        self.stripes_reclaimed += 1
        self.bytes_reclaimed += record.data_len
        scheme._c_compactions.inc()
        scheme._c_reclaimed.inc(record.data_len)
        return True


__all__ = ["StripeCompactor"]
