"""The per-client overload guard: where backpressure meets the send path.

One :class:`OverloadGuard` hangs off each :class:`~repro.store.client.
KVClient` whose :class:`~repro.store.policy.RetryPolicy` carries an
:class:`~repro.store.policy.OverloadPolicy`.  It owns:

- a :class:`~repro.overload.backpressure.TokenBucket` per destination
  (when ``rate_limit`` is set) for deterministic pacing,
- a :class:`~repro.overload.backpressure.CircuitBreaker` per destination
  fed by SERVER_BUSY/TIMEOUT outcomes,
- one :class:`~repro.overload.backpressure.AimdWindow` wrapped around the
  ARPE send window (in-flight cap),
- one :class:`~repro.overload.brownout.BrownoutController` deciding which
  optional work to shed,
- a per-destination suspend-until map honoring servers' explicit
  ``retry_after`` hints (cheaper than tripping the breaker for a single
  polite rejection).

Breaker and brownout transitions are ``overload.*`` events.

The client consults :meth:`before_send` just before a request goes on the
wire and routes every terminal outcome through :meth:`record`.  Only
*remote* outcomes feed the breaker and brownout — a guard-local fast-fail
must not count as evidence of server distress, or the breaker would hold
itself open forever on its own rejections.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from repro.overload.backpressure import (
    AimdWindow,
    CircuitBreaker,
    TokenBucket,
)
from repro.overload.brownout import BrownoutController
from repro.store.policy import OverloadPolicy
from repro.store.result import ErrorCode

#: ``before_send`` verdicts.
SEND = "send"
DELAY = "delay"
REJECT = "reject"

#: Outcomes the breaker/brownout treat as overload evidence.
_BUSY_CODES = (ErrorCode.SERVER_BUSY, ErrorCode.TIMEOUT)


class OverloadGuard:
    """Client-side overload protection wired into one client's send path."""

    def __init__(self, client, policy: OverloadPolicy):
        self.client = client
        self.policy = policy
        self.sim = client.sim
        self.metrics = client.metrics
        self.events = client.fabric.events
        self._buckets: Dict[str, TokenBucket] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._suspend_until: Dict[str, float] = {}
        self.aimd: Optional[AimdWindow] = None
        if policy.aimd:
            self.aimd = AimdWindow(
                client.sim,
                client.engine.window,
                decrease=policy.aimd_decrease,
                recovery=policy.aimd_recovery,
                interval=policy.aimd_interval,
            )
        self.brownout = BrownoutController(
            client.sim, policy, metrics=client.metrics, name=client.name
        )
        self.brownout.on_transition.append(self._on_brownout_transition)
        self.fast_fails = self.metrics.counter("client.breaker.fast_fails")
        self.trips = self.metrics.counter("client.breaker.trips")
        self.paced = self.metrics.counter("client.throttle.delays")

    # -- per-destination state ---------------------------------------------
    def breaker(self, dst: str) -> CircuitBreaker:
        breaker = self._breakers.get(dst)
        if breaker is None:
            policy = self.policy
            breaker = CircuitBreaker(
                self.sim,
                window=policy.breaker_window,
                threshold=policy.breaker_threshold,
                ratio=policy.breaker_ratio,
                cooldown=policy.breaker_cooldown,
                probes=policy.breaker_probes,
                on_transition=functools.partial(
                    self._on_breaker_transition, dst
                ),
            )
            self._breakers[dst] = breaker
        return breaker

    def _bucket(self, dst: str) -> Optional[TokenBucket]:
        if self.policy.rate_limit is None:
            return None
        bucket = self._buckets.get(dst)
        if bucket is None:
            bucket = TokenBucket(
                self.sim, self.policy.rate_limit, self.policy.bucket_burst
            )
            self._buckets[dst] = bucket
        return bucket

    def _on_breaker_transition(self, dst: str, old: str, new: str) -> None:
        if new == "open":
            self.trips.inc()
        self.events.emit("overload.breaker", client=self.client.name,
                         dst=dst, old=old, new=new)

    def _on_brownout_transition(self, old, new) -> None:
        self.events.emit("overload.brownout", client=self.client.name,
                         old=int(old), new=int(new))

    # -- the send-path hooks -------------------------------------------------
    def before_send(self, dst: str) -> Tuple[str, float]:
        """Gate one outgoing request to ``dst``.

        Returns ``(SEND, 0.0)``, ``(DELAY, seconds)`` for token pacing,
        or ``(REJECT, retry_after)`` for a local breaker/suspend
        fast-fail that never touches the wire.
        """
        suspended = self._suspend_until.get(dst, 0.0)
        if suspended > self.sim.now:
            self.fast_fails.inc()
            return REJECT, suspended - self.sim.now
        breaker = self.breaker(dst)
        if not breaker.allow():
            self.fast_fails.inc()
            return REJECT, max(breaker.retry_after(), 1e-6)
        bucket = self._bucket(dst)
        if bucket is not None:
            delay = bucket.reserve()
            if delay > 0.0:
                self.paced.inc()
                return DELAY, delay
        return SEND, 0.0

    def record(
        self,
        dst: str,
        code: Optional[ErrorCode],
        retry_after: Optional[float] = None,
    ) -> None:
        """Feed one *remote* outcome (``code=None`` means success).

        Guard-local rejections must NOT be routed here — they are not
        evidence about the server, only about the guard itself.
        """
        busy = code in _BUSY_CODES
        self.breaker(dst).record(busy)
        self.brownout.note_signal(busy)
        if self.aimd is not None:
            if busy:
                self.aimd.on_failure()
            else:
                self.aimd.on_success()
        if busy and retry_after:
            until = self.sim.now + retry_after
            if until > self._suspend_until.get(dst, 0.0):
                self._suspend_until[dst] = until

    def observe_response(self, src: str, response) -> None:
        """Harvest piggybacked hints from a server response's meta."""
        meta = response.meta or {}
        if meta.get("breaker"):
            # Locally synthesized fast-fail: nothing remote to learn.
            return
        depth = meta.get("qd")
        if depth is not None:
            self.brownout.note_queue_depth(float(depth))
        if response.error == "SERVER_BUSY":
            self.record(
                src, ErrorCode.SERVER_BUSY, retry_after=meta.get("retry_after")
            )
        else:
            self.record(src, None)

    def note_latency(self, latency: float) -> None:
        """One completed logical op's latency, for the brownout p99."""
        self.brownout.note_latency(latency)
