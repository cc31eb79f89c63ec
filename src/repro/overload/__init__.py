"""Overload protection: admission control, backpressure, brownout.

The subsystem PR 3 (chaos) and PR 4 (elasticity) left missing: hardening
against *load itself*.  Four cooperating mechanisms:

- :mod:`repro.overload.admission` — server-side bounded worker queues
  with CoDel-style sojourn shedding and foreground/background priority
  lanes.  Overloaded servers answer with a typed ``SERVER_BUSY``
  rejection (plus a retry-after hint) instead of queueing forever.
- :mod:`repro.overload.backpressure` — client-side primitives: a
  three-state circuit breaker driven by ``SERVER_BUSY``/``TIMEOUT``
  rates, and AIMD control of the ARPE send window.
- :mod:`repro.overload.brownout` — the NORMAL → ELEVATED → OVERLOAD load
  level state machine that progressively sheds optional work (hedges,
  read-repair) and degrades fidelity (first-k reads, async-acked Sets),
  surfacing every degradation as a typed annotation on ``OpResult``.
- :mod:`repro.overload.repair` — the bounded, metered read-repair queue
  that replaces fire-and-forget repair writes.
- :mod:`repro.overload.guard` — the per-client umbrella wiring the
  client-side pieces into the request path.

Everything is opt-in, one cluster switch each: a client's guard exists
only while its cluster declares ``with_overload()``, and a server's
:class:`~repro.overload.admission.AdmissionController` only while it
declares ``with_admission_control()``.  Each mechanism's settings are
its own constructor defaults or module constants.
"""

from repro.overload.admission import (
    GRANTED,
    LANE_BG,
    LANE_FG,
    SHED,
    AdmissionController,
)
from repro.overload.backpressure import (
    AimdWindow,
    BreakerState,
    CircuitBreaker,
)
from repro.overload.brownout import BrownoutController, LoadLevel
from repro.overload.guard import OverloadGuard
from repro.overload.repair import ReadRepairQueue

__all__ = [
    "AdmissionController",
    "AimdWindow",
    "BreakerState",
    "BrownoutController",
    "CircuitBreaker",
    "GRANTED",
    "LANE_BG",
    "LANE_FG",
    "LoadLevel",
    "OverloadGuard",
    "ReadRepairQueue",
    "SHED",
]
