"""Hierarchical span tracing on the virtual clock.

The paper's central claim is *overlap*: ARPE hides ``T_encode``/``T_decode``
behind the RDMA request/response phases (Section IV-A, Figure 9).  Scalar
latency aggregates cannot show that — only a timeline can.  This module
produces one: every instrumented layer opens :class:`Span` objects on a
shared :class:`Tracer`, stamped with virtual-clock times, so a run can be
inspected span-by-span (or exported to Perfetto, see
:mod:`repro.obs.export`) and *asserted* on: "did this encode span overlap
that transfer span?".

Spans are hierarchical — an ``op`` span parents its ``encode``/``post``/
``transfer``/``wait``/``decode`` children via ``parent_id`` — and live on
named *tracks* (one per client, server, or NIC), which map to threads in
the Chrome trace viewer.

Untraced runs use :data:`NULL_TRACER`, whose every operation returns the
shared no-op :data:`NULL_SPAN`; the cost of instrumentation is then one
attribute lookup and one call per site.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    """One named interval of virtual time on a track.

    A span starts at construction (``tracer.span(...)``) and ends when
    :meth:`finish` is called — or automatically when used as a context
    manager.  Fully-known intervals can instead be recorded in one shot
    with :meth:`Tracer.record`.
    """

    __slots__ = (
        "sim",
        "span_id",
        "parent_id",
        "track",
        "name",
        "category",
        "start",
        "end",
        "args",
    )

    def __init__(
        self,
        sim,
        span_id: int,
        track: str,
        name: str,
        category: str = "",
        parent: Optional["Span"] = None,
        start: Optional[float] = None,
        **args,
    ):
        self.sim = sim
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else 0
        self.track = track
        self.name = name
        self.category = category
        self.start = sim.now if start is None else start
        self.end: Optional[float] = None
        self.args: Dict[str, object] = args

    # -- lifecycle ----------------------------------------------------------
    def finish(self, **args) -> "Span":
        """Close the span at the current virtual time (idempotent)."""
        if self.end is None:
            self.end = self.sim.now
        if args:
            self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    # -- inspection ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds of virtual time covered (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        """True when the two (finished) spans share any virtual time."""
        if self.end is None or other.end is None:
            return False
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Span #%d %s/%s [%s..%s]>" % (
            self.span_id,
            self.track,
            self.name,
            self.start,
            self.end,
        )


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    span_id = 0
    parent_id = 0
    track = ""
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    args: Dict[str, object] = {}
    finished = True
    duration = 0.0

    def finish(self, **args) -> "_NullSpan":
        return self

    def overlaps(self, other) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: The shared no-op span (``bool(NULL_SPAN.span_id)`` is falsy).
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from every instrumented layer of one simulation."""

    enabled = True

    def __init__(self, sim, events=None):
        self.sim = sim
        #: the cluster's EventLog: the Chrome export writes its instants
        self.events = events
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    # -- emission -----------------------------------------------------------
    def span(
        self,
        track: str,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **args,
    ) -> Span:
        """Open a span starting now; close it with ``finish()`` / ``with``."""
        span = Span(
            self.sim, next(self._ids), track, name, category, parent, **args
        )
        self.spans.append(span)
        return span

    def record(
        self,
        track: str,
        name: str,
        start: float,
        duration: float,
        category: str = "",
        parent: Optional[Span] = None,
        **args,
    ) -> Span:
        """Record a fully-known interval in one call (e.g. a wire transfer
        whose completion time the fabric computes upfront)."""
        span = Span(
            self.sim,
            next(self._ids),
            track,
            name,
            category,
            parent,
            start=start,
            **args,
        )
        span.end = start + duration
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """All closed spans, in emission order."""
        return [span for span in self.spans if span.end is not None]

    def by_category(self, category: str) -> List[Span]:
        """Closed spans with the given category."""
        return [
            span
            for span in self.spans
            if span.category == category and span.end is not None
        ]

    def children_of(self, parent: Span) -> List[Span]:
        """Direct children of ``parent`` in the span hierarchy."""
        return [s for s in self.spans if s.parent_id == parent.span_id]

    def tracks(self) -> List[str]:
        """Track names in order of first appearance."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        return list(seen)

    def overlapping_pairs(
        self, category_a: str, category_b: str
    ) -> List[Tuple[Span, Span]]:
        """All (a, b) span pairs from the two categories that overlap in
        virtual time — the primitive behind "encode hid behind transfer"
        assertions."""
        spans_b = self.by_category(category_b)
        pairs = []
        for a in self.by_category(category_a):
            for b in spans_b:
                if a.overlaps(b):
                    pairs.append((a, b))
        return pairs


class NullTracer:
    """API-compatible tracer that records nothing (the default).

    Every method returns :data:`NULL_SPAN`; instrumented code pays one
    call per site and allocates nothing.
    """

    enabled = False
    events = None
    spans: Tuple[Span, ...] = ()

    def span(self, track, name, category="", parent=None, **args) -> _NullSpan:
        return NULL_SPAN

    def record(
        self, track, name, start, duration, category="", parent=None, **args
    ) -> _NullSpan:
        return NULL_SPAN

    def finished_spans(self) -> List[Span]:
        return []

    def by_category(self, category: str) -> List[Span]:
        return []

    def tracks(self) -> List[str]:
        return []


#: Shared default tracer for untraced components.
NULL_TRACER = NullTracer()
