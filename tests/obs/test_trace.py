"""Span and Tracer unit behaviour."""

import pytest

from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.simulation import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim)


def advance(sim, seconds):
    sim.run(sim.timeout(seconds))


class TestSpan:
    def test_span_records_virtual_times(self, sim, tracer):
        advance(sim, 1.0)
        span = tracer.span("client-0", "set:k", category="op")
        assert span.start == sim.now
        advance(sim, 2.0)
        span.finish()
        assert span.end == pytest.approx(3.0)
        assert span.duration == pytest.approx(2.0)

    def test_finish_is_idempotent(self, sim, tracer):
        span = tracer.span("t", "n")
        advance(sim, 1.0)
        span.finish()
        end = span.end
        advance(sim, 1.0)
        span.finish()
        assert span.end == end

    def test_context_manager_finishes(self, sim, tracer):
        with tracer.span("t", "n") as span:
            advance(sim, 0.5)
        assert span.finished
        assert span.duration == pytest.approx(0.5)

    def test_parent_linkage(self, sim, tracer):
        parent = tracer.span("t", "op")
        child = tracer.span("t", "encode", parent=parent)
        assert child.parent_id == parent.span_id
        parent.finish()
        child.finish()
        assert tracer.children_of(parent) == [child]

    def test_overlap_detection(self, tracer):
        a = tracer.record("t", "a", start=0.0, duration=2.0)
        b = tracer.record("t", "b", start=1.0, duration=2.0)
        c = tracer.record("t", "c", start=5.0, duration=1.0)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_adjacent_spans_do_not_overlap(self, tracer):
        a = tracer.record("t", "a", start=0.0, duration=1.0)
        b = tracer.record("t", "b", start=1.0, duration=1.0)
        assert not a.overlaps(b)

    def test_unfinished_span_never_overlaps(self, sim, tracer):
        open_span = tracer.span("t", "open")
        closed = tracer.record("t", "closed", start=0.0, duration=10.0)
        assert not open_span.overlaps(closed)
        assert not closed.overlaps(open_span)

    def test_args_captured_and_extended(self, sim, tracer):
        span = tracer.span("t", "n", size=42)
        span.finish(ok=True)
        assert span.args == {"size": 42, "ok": True}


class TestTracerQueries:
    def test_finished_spans_excludes_open(self, sim, tracer):
        tracer.span("t", "open")
        tracer.record("t", "done", start=0.0, duration=1.0)
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["done"]

    def test_by_category_and_name(self, tracer):
        tracer.record("t", "e1", start=0.0, duration=1.0, category="encode")
        tracer.record("t", "x1", start=0.0, duration=1.0, category="transfer")
        assert [s.name for s in tracer.by_category("encode")] == ["e1"]
        assert [s.name for s in tracer.by_category("transfer")] == ["x1"]

    def test_tracks_in_first_appearance_order(self, tracer):
        tracer.record("b", "1", start=0.0, duration=1.0)
        tracer.record("a", "2", start=0.0, duration=1.0)
        tracer.record("b", "3", start=0.0, duration=1.0)
        assert tracer.tracks() == ["b", "a"]

    def test_overlapping_pairs(self, tracer):
        e = tracer.record("c", "enc", start=0.0, duration=2.0, category="encode")
        t = tracer.record("n", "xfer", start=1.0, duration=2.0, category="transfer")
        tracer.record("n", "late", start=9.0, duration=1.0, category="transfer")
        assert tracer.overlapping_pairs("encode", "transfer") == [(e, t)]


class TestNullTracer:
    def test_null_tracer_returns_null_span(self):
        assert NULL_TRACER.span("t", "n") is NULL_SPAN
        assert NULL_TRACER.record("t", "n", 0.0, 1.0) is NULL_SPAN

    def test_null_tracer_records_nothing(self):
        NULL_TRACER.span("t", "n")
        assert NULL_TRACER.finished_spans() == []
        assert NULL_TRACER.by_category("op") == []
        assert NULL_TRACER.tracks() == []

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            pass
        assert span.finish(ok=True) is NULL_SPAN
        assert not NULL_SPAN.overlaps(NULL_SPAN)
        assert NULL_SPAN.args == {}

    def test_enabled_flags(self, sim):
        assert Tracer(sim).enabled
        assert not NullTracer().enabled
