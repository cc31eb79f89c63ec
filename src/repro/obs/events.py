"""The per-cluster event log: one timeline of what happened, and when.

Subsystems emit what changes off the request path: faults and bit rot
(``chaos.*``), SWIM verdicts (``swim.*``), scrub detections, heals and
audits (``scrub.*``), breaker and brownout moves (``overload.*``),
epochs (``membership.epoch``) and refusals (``fabric.refusal``).  One
event per fault or transition, never per op, so the log is always on.
A traced run's Chrome export writes each event as an instant on the
track its kind's ``"<subsystem>."`` prefix names.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class Event(NamedTuple):
    time: float
    kind: str
    fields: dict


class EventLog:
    """Append-only, so in virtual-time order."""

    def __init__(self, sim):
        self.sim = sim
        self._events: List[Event] = []

    def emit(self, kind: str, **fields) -> None:
        """Record ``kind`` now; ``fields`` must be JSON-able."""
        self._events.append(Event(self.sim.now, kind, fields))

    def query(self, kind: Optional[str] = None) -> List[Event]:
        """The events of ``kind`` (every event without one), in order."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]
