"""Brownout: the NORMAL → ELEVATED → OVERLOAD load-level state machine.

Hydra's lesson for resilient remote memory — degrade gracefully, never
queue unboundedly — applied to the EC read/write path.  The controller
is fed three signals as they arrive (event-driven, never polled):

- per-op latencies (p99 against a frozen warmup baseline),
- busy/timeout outcomes (the fraction of recent requests shed),
- queue-depth hints piggybacked in server response meta (``qd``).

Stepping *up* is immediate — by the time overload is measurable it is
already late — while stepping *down* is hysteretic: one level at a time,
only after :data:`DWELL` seconds at the current level, so the controller
cannot flap across a threshold.

What each level sheds (enforced by the scheme/guard call sites):

=========  ==========================================================
NORMAL     full fidelity
ELEVATED   hedged reads off; read-repair deferred (queued, not sent)
OVERLOAD   Gets decode from the first k of n chunk arrivals
           (``degraded=("first-k",)``); durable Sets acknowledge at k
           with background completion (``degraded=("async-ack",)``);
           queued read-repair is dropped
=========  ==========================================================
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Callable, Deque, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.simulation.engine import Simulator

#: busy-fraction step-up thresholds (of the rolling outcome window)
ELEVATED_BUSY_RATIO = 0.10
OVERLOAD_BUSY_RATIO = 0.30
#: step-up thresholds on the smoothed piggybacked server queue depth
ELEVATED_QUEUE = 4.0
OVERLOAD_QUEUE = 16.0
#: step-up thresholds as multiples of the warmed-up baseline p99
ELEVATED_P99 = 3.0
OVERLOAD_P99 = 8.0
#: seconds a level is held before stepping back down (anti-flapping)
DWELL = 0.05
#: signals required before the busy ratio is trusted
_MIN_SIGNALS = 16
#: latency samples frozen into the warmup baseline
_BASELINE_SAMPLES = 50
#: rolling windows
_LATENCY_WINDOW = 64
_SIGNAL_WINDOW = 64
#: EMA weight for the queue-depth hint
_QD_ALPHA = 0.2


class LoadLevel(IntEnum):
    """Cluster load as seen from one client."""

    NORMAL = 0
    ELEVATED = 1
    OVERLOAD = 2


class BrownoutController:
    """One client's view of cluster load, and what to shed because of it."""

    def __init__(
        self,
        sim: Simulator,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "client",
    ):
        self.sim = sim
        self.metrics = metrics or MetricsRegistry()
        self.level = LoadLevel.NORMAL
        self._level_gauge = self.metrics.gauge("client.%s.load_level" % name)
        self._elevations = self.metrics.counter("client.brownout.elevated")
        self._overloads = self.metrics.counter("client.brownout.overloaded")
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._signals: Deque[bool] = deque(maxlen=_SIGNAL_WINDOW)
        self._busy = 0
        self._baseline: List[float] = []
        self._baseline_p99: Optional[float] = None
        self._qd_ema = 0.0
        self._changed_at = sim.now
        #: callbacks ``(old_level, new_level)`` fired on every transition
        self.on_transition: List[Callable[[LoadLevel, LoadLevel], None]] = []

    # -- what the current level permits ------------------------------------
    @property
    def hedge_allowed(self) -> bool:
        """Hedged reads double load exactly when load is the problem."""
        return self.level == LoadLevel.NORMAL

    @property
    def defer_repair(self) -> bool:
        """ELEVATED+: read-repair writes stay queued instead of sending."""
        return self.level >= LoadLevel.ELEVATED

    @property
    def shed_repair(self) -> bool:
        """OVERLOAD: queued read-repair is dropped outright."""
        return self.level >= LoadLevel.OVERLOAD

    @property
    def shed_retries(self) -> bool:
        """OVERLOAD: busy/timeout failures return without backoff retries.

        Retrying against a saturated cluster is the amplification loop
        that makes overload metastable — the retry budget is the first
        optional work to go.
        """
        return self.level >= LoadLevel.OVERLOAD

    @property
    def first_k_reads(self) -> bool:
        """OVERLOAD: fan out all n chunk fetches, decode from first k."""
        return self.level >= LoadLevel.OVERLOAD

    @property
    def async_ack_writes(self) -> bool:
        """OVERLOAD: durable Sets ack at k, finish durability in background."""
        return self.level >= LoadLevel.OVERLOAD

    # -- signal feeds ------------------------------------------------------
    def note_latency(self, latency: float) -> None:
        """One completed op's latency.  Warmup samples build the baseline."""
        if self._baseline_p99 is None:
            self._baseline.append(latency)
            if len(self._baseline) >= _BASELINE_SAMPLES:
                ordered = sorted(self._baseline)
                index = min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))
                self._baseline_p99 = max(ordered[index], 1e-9)
                self._baseline = []
            return
        self._latencies.append(latency)
        self._evaluate()

    def note_signal(self, busy: bool) -> None:
        """One request outcome: was it shed (SERVER_BUSY/TIMEOUT)?"""
        if (
            len(self._signals) == self._signals.maxlen
            and self._signals[0]
        ):
            self._busy -= 1
        self._signals.append(busy)
        if busy:
            self._busy += 1
        self._evaluate()

    def note_queue_depth(self, depth: float) -> None:
        """A server's piggybacked backlog hint (response meta ``qd``)."""
        self._qd_ema += _QD_ALPHA * (depth - self._qd_ema)
        self._evaluate()

    # -- the state machine -------------------------------------------------
    def _target_level(self) -> LoadLevel:
        busy_ratio = (
            self._busy / len(self._signals)
            if len(self._signals) >= _MIN_SIGNALS
            else 0.0
        )
        p99_ratio = 0.0
        if self._baseline_p99 is not None and len(self._latencies) >= 8:
            ordered = sorted(self._latencies)
            index = min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))
            p99_ratio = ordered[index] / self._baseline_p99
        if (
            busy_ratio >= OVERLOAD_BUSY_RATIO
            or self._qd_ema >= OVERLOAD_QUEUE
            or p99_ratio >= OVERLOAD_P99
        ):
            return LoadLevel.OVERLOAD
        if (
            busy_ratio >= ELEVATED_BUSY_RATIO
            or self._qd_ema >= ELEVATED_QUEUE
            or p99_ratio >= ELEVATED_P99
        ):
            return LoadLevel.ELEVATED
        return LoadLevel.NORMAL

    def _evaluate(self) -> None:
        target = self._target_level()
        if target > self.level:
            self._set_level(target)
        elif (
            target < self.level
            and self.sim.now - self._changed_at >= DWELL
        ):
            # Hysteresis: recover one level at a time, after a full dwell.
            self._set_level(LoadLevel(self.level - 1))

    def _set_level(self, level: LoadLevel) -> None:
        old, self.level = self.level, level
        self._changed_at = self.sim.now
        self._level_gauge.set(int(level))
        if level == LoadLevel.ELEVATED and old < level:
            self._elevations.inc()
        elif level == LoadLevel.OVERLOAD:
            self._overloads.inc()
        for callback in self.on_transition:
            callback(old, level)
