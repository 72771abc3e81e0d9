"""Unified telemetry: metrics registry, tracing spans, run-log sinks.

Three layers (see ``docs/observability.md`` for the metric catalog):

* :mod:`~repro.obs.registry` — process-wide counters, gauges, and
  bounded log-bucket histograms under hierarchical names;
* :mod:`~repro.obs.trace` — ``span()``/``@traced`` duration tracing
  feeding ``trace.<name>.ms`` histograms plus a bounded recent-span ring;
* :mod:`~repro.obs.sinks` — JSONL/CSV run logs driven by a
  :class:`~repro.obs.sinks.Recorder` attached to the trainer listener
  hook; the default :class:`~repro.obs.sinks.NullSink` keeps telemetry
  opt-in (no records, no files).

Jobs enable it declaratively through the ``telemetry`` spec section
(``{"sink": "jsonl"}``, or ``repro run job.json --set
telemetry.sink=jsonl``); ``repro top <run-dir>`` renders the resulting
log.
"""

from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       get_registry, merge_histogram_states,
                       summarize_histogram)
from .sinks import JsonlSink, NullSink, Recorder, Sink, make_sink, read_jsonl
from .trace import SpanRecord, clear_spans, recent_spans, span, traced

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "summarize_histogram", "merge_histogram_states",
    "Sink", "NullSink", "JsonlSink", "Recorder", "make_sink",
    "read_jsonl",
    "span", "traced", "SpanRecord", "recent_spans", "clear_spans",
]
