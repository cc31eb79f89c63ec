"""Client-side backpressure primitives: circuit breaker and AIMD window.

Both are deterministic functions of the virtual clock — no
wall-clock, no randomness — so overload runs digest identically across
repeats of a seed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.simulation.engine import Simulator
from repro.simulation.resources import Resource


class BreakerState:
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN breaker over a rolling outcome window.

    Outcomes are recorded as failure booleans (``SERVER_BUSY`` or
    ``TIMEOUT`` at the call site).  The breaker trips OPEN when, with at
    least ``threshold`` outcomes in the window, the failure fraction
    reaches ``ratio``.  OPEN fast-fails everything until ``cooldown``
    elapses, then HALF_OPEN admits ``probes`` trial requests: all
    successes close the breaker, any failure re-opens it.
    """

    def __init__(
        self,
        sim: Simulator,
        window: int = 32,
        threshold: int = 10,
        ratio: float = 0.5,
        cooldown: float = 0.05,
        probes: int = 3,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        self.sim = sim
        self.window = window
        self.threshold = threshold
        self.ratio = ratio
        self.cooldown = cooldown
        self.probes = probes
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._failures = 0
        self._opened_at = 0.0
        self._half_open_at = 0.0
        self._probes_left = 0
        self._probe_successes = 0

    def _transition(self, state: str) -> None:
        old, self.state = self.state, state
        if self.on_transition is not None:
            self.on_transition(old, state)

    def _trip(self) -> None:
        self._opened_at = self.sim.now
        self._outcomes.clear()
        self._failures = 0
        self._transition(BreakerState.OPEN)

    # -- the two call-site hooks -------------------------------------------
    def allow(self) -> bool:
        """Whether a request may go out right now.

        An OPEN breaker whose cooldown has elapsed flips to HALF_OPEN as
        a side effect and starts admitting its probe quota.
        """
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if self.sim.now - self._opened_at < self.cooldown:
                return False
            self._probes_left = self.probes
            self._probe_successes = 0
            self._half_open_at = self.sim.now
            self._transition(BreakerState.HALF_OPEN)
        # HALF_OPEN: admit only the probe quota.  A probe whose outcome
        # never comes back (reply lost, gather abandoned before the
        # timeout) would wedge the breaker here forever — after another
        # cooldown with no verdict, re-arm the quota and try again.
        if (
            self._probes_left == 0
            and self.sim.now - self._half_open_at >= self.cooldown
        ):
            self._probes_left = self.probes
            self._probe_successes = 0
            self._half_open_at = self.sim.now
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def retry_after(self) -> float:
        """Remaining cooldown (0 when not OPEN) — the fast-fail hint."""
        if self.state != BreakerState.OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.cooldown - self.sim.now)

    def record(self, failure: bool) -> None:
        """Feed one request outcome back into the breaker."""
        if self.state == BreakerState.HALF_OPEN:
            if failure:
                self._trip()
                return
            self._probe_successes += 1
            if self._probe_successes >= self.probes:
                self._outcomes.clear()
                self._failures = 0
                self._transition(BreakerState.CLOSED)
            return
        if self.state == BreakerState.OPEN:
            # Straggler response from before the trip; the window was
            # reset, nothing to learn.
            return
        if len(self._outcomes) == self._outcomes.maxlen and self._outcomes[0]:
            self._failures -= 1
        self._outcomes.append(failure)
        if failure:
            self._failures += 1
        if (
            len(self._outcomes) >= self.threshold
            and self._failures / len(self._outcomes) >= self.ratio
        ):
            self._trip()


class AimdWindow:
    """AIMD control of a :class:`Resource`'s capacity (the ARPE window).

    Multiplicative decrease on a busy/timeout signal — at most once per
    ``interval``, so one burst of rejections from a single RTT does not
    collapse the window to the floor — and additive increase of one slot
    per ``recovery`` consecutive successes, back up to the configured
    ceiling.  Shrinking never revokes granted slots; the resource simply
    stops granting until holders drain below the new capacity.
    """

    def __init__(
        self,
        sim: Simulator,
        resource: Resource,
        floor: int = 1,
        decrease: float = 0.5,
        recovery: int = 8,
        interval: float = 0.005,
    ):
        self.sim = sim
        self.resource = resource
        self.floor = floor
        self.ceiling = resource.capacity
        self.decrease = decrease
        self.recovery = recovery
        self.interval = interval
        self._successes = 0
        self._shrunk_at = -float("inf")
        self.shrinks = 0
        self.grows = 0

    @property
    def window(self) -> int:
        """Current window size."""
        return self.resource.capacity

    def on_failure(self) -> None:
        """Busy/timeout signal: shrink multiplicatively (rate-limited)."""
        self._successes = 0
        now = self.sim.now
        if now - self._shrunk_at < self.interval:
            return
        self._shrunk_at = now
        new = max(self.floor, int(self.resource.capacity * self.decrease))
        if new < self.resource.capacity:
            self.shrinks += 1
            self.resource.resize(new)

    def on_success(self) -> None:
        """Healthy completion: recover additively after a quiet streak."""
        self._successes += 1
        if self._successes < self.recovery:
            return
        self._successes = 0
        if self.resource.capacity < self.ceiling:
            self.grows += 1
            self.resource.resize(self.resource.capacity + 1)
