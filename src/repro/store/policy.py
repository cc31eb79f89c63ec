"""Request-hardening policy: deadlines, backoff retries, hedged reads.

A :class:`RetryPolicy` travels with a :class:`~repro.store.client.KVClient`
and tells the request path how aggressive to be when the cluster
misbehaves.  The default policy disables everything — timeouts, retries
and hedging are strictly opt-in, so a fault-free run is bit-identical to
one without a policy attached.

:class:`AdaptiveCutoff` is the hedged-read trigger: it keeps a rolling
window of observed chunk-fetch latencies and exposes a percentile-based
cutoff.  A read that has waited past the cutoff launches one redundant
fetch against a different chunk (the classic "tied requests" tail-latency
defense), which is what lets Gets ride out a gray, slow node without
waiting for a full timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


#: Retry backoff: attempt *i* sleeps ``min(BACKOFF_MAX, BACKOFF_BASE *
#: 2 ** (i - 1))`` seconds.
BACKOFF_BASE = 0.0005
BACKOFF_MAX = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for per-operation deadlines, retries and hedging.

    ``request_timeout``
        Deadline for one request/response round-trip; expiry completes
        the waiter with ``ERR_TIMEOUT``.  ``None`` waits forever (the
        historical behavior).
    ``op_deadline``
        Overall budget for one logical operation including retries; once
        exceeded the operation fails with ``ErrorCode.TIMEOUT`` instead
        of backing off again.
    ``max_retries``
        How many times a failed operation is re-attempted (0 = never).
        Only :attr:`ErrorCode.retryable` failures are retried.
    ``hedge``
        Enable hedged chunk reads in the erasure schemes; the client's
        :class:`AdaptiveCutoff` decides when a fetch has waited too long.
    ``durable_writes``
        Strict-ack Sets: acknowledge only when *all* n chunks are stored,
        retrying and relocating chunks off dead nodes.  The default
        (False) keeps the paper's ack-at-k fast path.

    Overload protection is not a policy field: a client gets its guard
    from the cluster's ``with_overload()`` switch.
    """

    request_timeout: Optional[float] = None
    op_deadline: Optional[float] = None
    max_retries: int = 0
    hedge: bool = False
    durable_writes: bool = False

    def backoff(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        delay = BACKOFF_BASE * (2.0 ** (attempt - 1))
        return min(BACKOFF_MAX, delay)


#: Everything off: no timeouts, no retries, no hedging (legacy behavior).
DEFAULT_POLICY = RetryPolicy()

#: A sensible hardened profile for chaos runs: tight per-request
#: deadlines, a handful of backoff retries, hedging, strict-ack writes.
HARDENED_POLICY = RetryPolicy(
    request_timeout=0.25,
    op_deadline=5.0,
    max_retries=4,
    hedge=True,
    durable_writes=True,
)


class AdaptiveCutoff:
    """Rolling-percentile latency cutoff for hedged reads.

    Bounded memory: keeps the most recent ``window`` samples in a ring
    buffer.  ``cutoff()`` is ``None`` until ``min_samples`` observations
    have arrived — hedging stays off while the estimate would be noise.
    """

    def __init__(
        self,
        percentile: float = 0.95,
        min_samples: int = 20,
        multiplier: float = 1.5,
        window: int = 512,
    ):
        if not 0.0 < percentile <= 1.0:
            raise ValueError("percentile must be in (0, 1]")
        self.percentile = percentile
        self.min_samples = min_samples
        self.multiplier = multiplier
        self.window = window
        self._samples = []
        self._next = 0
        self.observed = 0

    def observe(self, latency: float) -> None:
        """Record one completed fetch latency."""
        self.observed += 1
        if len(self._samples) < self.window:
            self._samples.append(latency)
        else:
            self._samples[self._next] = latency
            self._next = (self._next + 1) % self.window

    def cutoff(self) -> Optional[float]:
        """Current hedge trigger in seconds, or ``None`` if not warmed up."""
        if self.observed < self.min_samples or not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(
            len(ordered) - 1, int(self.percentile * (len(ordered) - 1) + 0.5)
        )
        return ordered[index] * self.multiplier
