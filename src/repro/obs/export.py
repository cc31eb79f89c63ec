"""Trace and metrics exporters.

Two output formats:

- **Chrome ``trace_event`` JSON** — load the file in Perfetto
  (https://ui.perfetto.dev, "Open trace file") or ``chrome://tracing``.
  Each tracer track becomes a named thread row; spans become complete
  (``ph: "X"``) events with microsecond timestamps on the virtual clock,
  so the encode/transfer overlap the paper argues for is *visible* as
  stacked bars, and the cluster's event log (faults, verdicts,
  transitions) becomes instants (``ph: "i"``) on subsystem rows.
- **Plain text** — a timeline listing and a metrics summary for harness
  logs and quick terminal inspection.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Synthetic process id for all tracks (one simulation = one "process").
TRACE_PID = 1


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """Tracer spans (``X`` phase) and event log instants (``i`` phase)
    as a Chrome ``trace_event`` list.

    Track names are emitted as ``thread_name`` metadata so the viewer
    shows ``client-0``, ``server-3``, ``net:client-0``... as labelled rows;
    an event of kind ``"chaos.fault"`` lands on the ``chaos`` row with
    category ``fault``.  Timestamps are virtual-clock microseconds.
    """
    tids: Dict[str, int] = {}
    events: List[dict] = []
    logged = tracer.events.query() if tracer.events is not None else []
    for track in tracer.tracks() + [e.kind.partition(".")[0] for e in logged]:
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": TRACE_PID,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
    for span in tracer.finished_spans():
        tid = tids.setdefault(span.track, len(tids) + 1)
        event = {
            "ph": "X",
            "name": span.name,
            "cat": span.category or "span",
            "pid": TRACE_PID,
            "tid": tid,
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": dict(span.args, span_id=span.span_id),
        }
        if span.parent_id:
            event["args"]["parent_id"] = span.parent_id
        events.append(event)
    for time, kind, fields in logged:
        track, _, category = kind.partition(".")
        # named by its scalar fields: a fault reads "drop a->b get"
        name = " ".join(str(value) for value in fields.values()
                        if isinstance(value, (str, int, float)))
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": name or category,
                "cat": category,
                "pid": TRACE_PID,
                "tid": tids[track],
                "ts": time * 1e6,
                "args": fields,
            }
        )
    return events


def chrome_trace(
    tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> dict:
    """The full JSON-object trace document (``traceEvents`` + metadata)."""
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        document["otherData"] = {"metrics": metrics.snapshot()}
    return document


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    metrics: Optional[MetricsRegistry] = None,
) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, metrics), fh)
    return path


def render_timeline(tracer: Tracer, limit: Optional[int] = None) -> str:
    """Plain-text span timeline, ordered by start time.

    One line per finished span::

        [     12.3us ..     45.6us] client-0         op       set:k7
    """
    spans = sorted(tracer.finished_spans(), key=lambda s: (s.start, s.span_id))
    if limit is not None:
        spans = spans[:limit]
    lines = []
    for span in spans:
        lines.append(
            "[%12.1fus ..%12.1fus] %-16s %-10s %s"
            % (
                span.start * 1e6,
                span.end * 1e6,
                span.track,
                span.category or "-",
                span.name,
            )
        )
    return "\n".join(lines)


def render_metrics(metrics: MetricsRegistry) -> str:
    """Plain-text metrics summary: counters, gauges, then histograms."""
    lines = []
    for name, counter in sorted(metrics.counters().items()):
        lines.append("counter    %-40s %d" % (name, counter.value))
    for name, gauge in sorted(metrics.gauges().items()):
        lines.append(
            "gauge      %-40s %g (peak %g)" % (name, gauge.value, gauge.peak)
        )
    for name, hist in sorted(metrics.histograms().items()):
        if hist.count:
            lines.append(
                "histogram  %-40s n=%d mean=%g p50=%g p99=%g max=%g"
                % (
                    name,
                    hist.count,
                    hist.mean,
                    hist.percentile(50),
                    hist.percentile(99),
                    hist.maximum,
                )
            )
        else:
            lines.append("histogram  %-40s n=0" % name)
    return "\n".join(lines)
