"""Observability: span tracing, metrics, and trace exporters.

The substrate every performance claim in this repro rests on:

- :mod:`repro.obs.trace` — hierarchical :class:`Span` trees
  (``op -> encode/post/transfer/wait/decode``) on the virtual clock,
  collected by a :class:`Tracer`; :data:`NULL_TRACER` makes untraced runs
  pay near-zero cost.
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms (window occupancy, buffer-pool waits, queue
  depths, evictions, wire bytes, degraded reads).
- :mod:`repro.obs.events` — the per-cluster :class:`EventLog`
  (``cluster.events``): ``emit(kind, **fields)`` and ``query(kind)``.
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  Perfetto or ``chrome://tracing``) and plain-text reports.

Enable tracing on a cluster with ``build_cluster(..., trace=True)`` and
export with :func:`write_chrome_trace`::

    cluster = build_cluster(scheme="era-ce-cd", trace=True)
    ...  # run a workload
    write_chrome_trace(cluster.tracer, "run.trace.json", cluster.metrics)
"""

from repro.obs.events import Event, EventLog
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    render_metrics,
    render_timeline,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "chrome_trace_events",
    "render_metrics",
    "render_timeline",
    "write_chrome_trace",
]
