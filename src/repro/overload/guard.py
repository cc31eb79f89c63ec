"""The per-client overload guard: where backpressure meets the send path.

One :class:`OverloadGuard` hangs off each :class:`~repro.store.client.
KVClient` of a cluster that declares ``with_overload()``, whatever
per-client :class:`~repro.store.policy.RetryPolicy` the client carries.
It builds every mechanism with that mechanism's own defaults and owns:

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

The client consults :meth:`refusal` just before a request goes on the
wire and routes every terminal outcome through :meth:`record`.  Only
*remote* outcomes feed the breaker and brownout — a guard-local fast-fail
must not count as evidence of server distress, or the breaker would hold
itself open forever on its own rejections.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

from repro.overload.backpressure import AimdWindow, CircuitBreaker
from repro.overload.brownout import BrownoutController
from repro.store.result import ErrorCode

#: Outcomes the breaker/brownout treat as overload evidence.
_BUSY_CODES = (ErrorCode.SERVER_BUSY, ErrorCode.TIMEOUT)


class OverloadGuard:
    """Client-side overload protection wired into one client's send path."""

    def __init__(self, client):
        self.client = client
        self.sim = client.sim
        self.metrics = client.metrics
        self.events = client.fabric.events
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._suspend_until: Dict[str, float] = {}
        self.aimd = AimdWindow(client.sim, client.engine.window)
        self.brownout = BrownoutController(
            client.sim, metrics=client.metrics, name=client.name
        )
        self.brownout.on_transition.append(self._on_brownout_transition)
        self.fast_fails = self.metrics.counter("client.breaker.fast_fails")
        self.trips = self.metrics.counter("client.breaker.trips")

    # -- per-destination state ---------------------------------------------
    def breaker(self, dst: str) -> CircuitBreaker:
        breaker = self._breakers.get(dst)
        if breaker is None:
            breaker = CircuitBreaker(
                self.sim,
                on_transition=functools.partial(
                    self._on_breaker_transition, dst
                ),
            )
            self._breakers[dst] = breaker
        return breaker

    def _on_breaker_transition(self, dst: str, old: str, new: str) -> None:
        if new == "open":
            self.trips.inc()
        self.events.emit("overload.breaker", client=self.client.name,
                         dst=dst, old=old, new=new)

    def _on_brownout_transition(self, old, new) -> None:
        self.events.emit("overload.brownout", client=self.client.name,
                         old=int(old), new=int(new))

    # -- the send-path hooks -------------------------------------------------
    def refusal(self, dst: str) -> Optional[float]:
        """Gate one outgoing request to ``dst``.

        Returns ``None`` to send it, or the positive ``retry_after`` hint
        of a local breaker/suspend fast-fail that never touches the wire.
        """
        suspended = self._suspend_until.get(dst, 0.0)
        if suspended > self.sim.now:
            self.fast_fails.inc()
            return suspended - self.sim.now
        breaker = self.breaker(dst)
        if not breaker.allow():
            self.fast_fails.inc()
            return max(breaker.retry_after(), 1e-6)
        return None

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
