"""Span-hierarchy and overlap queries over a :class:`~repro.obs.trace.Tracer`,
for assertions in tests."""

from typing import List, Tuple

from repro.obs.trace import Span


def children_of(tracer, parent: Span) -> List[Span]:
    """Direct children of ``parent`` in the span hierarchy."""
    return [s for s in tracer.spans if s.parent_id == parent.span_id]


def overlapping_pairs(
    tracer, category_a: str, category_b: str
) -> List[Tuple[Span, Span]]:
    """All (a, b) span pairs from the two categories that overlap in
    virtual time — the primitive behind "encode hid behind transfer"
    assertions."""
    spans_b = tracer.by_category(category_b)
    return [
        (a, b)
        for a in tracer.by_category(category_a)
        for b in spans_b
        if a.overlaps(b)
    ]
