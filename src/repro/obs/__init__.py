"""``repro.obs`` — tracing, structured logging, and engine telemetry.

The observability layer of the serving stack, in three pieces:

* :mod:`repro.obs.trace` — lightweight monotonic-clock spans with
  trace/parent ids, W3C ``traceparent`` propagation, sampling, a bounded
  in-memory store, and JSONL / Chrome-trace-event exporters;
* :mod:`repro.obs.logging` — one structured JSON record per request
  (trace id, kind, cache hit, coalesced batch size, shard count, backend,
  per-stage duration breakdown) plus a threshold-driven slow-query ring;
* :mod:`repro.obs.metrics` — the metrics registry: typed counter, gauge
  and summary families with one generic Prometheus render (``/metrics``),
  plus the process-wide engine work counters (chunks processed, rows
  retired, prefix widenings, locator passes) incremented from the
  hot-path modules.

Everything here is stdlib-only and import-light: the engine modules pull
in :mod:`repro.obs.metrics` (no reverse dependency), and the serving
layer owns one :class:`~repro.obs.trace.Tracer` per
:class:`~repro.serving.service.QueryService`.  Tracing is off by default
and near-zero-cost when disabled: every instrumentation point funnels
through a no-op span fast path (:data:`~repro.obs.trace.NULL_SPAN`).
"""

from .logging import RequestLog, summarize_trace
from .metrics import ENGINE, Counter, Gauge, Registry, Summary
from .trace import (
    NULL_SPAN,
    Span,
    TraceConfig,
    Tracer,
    call_with_span,
    current_span,
    format_traceparent,
    parse_traceparent,
    to_chrome,
    to_jsonl,
    use_span,
)

__all__ = [
    "Counter",
    "ENGINE",
    "Gauge",
    "NULL_SPAN",
    "Registry",
    "RequestLog",
    "Span",
    "Summary",
    "TraceConfig",
    "Tracer",
    "call_with_span",
    "current_span",
    "format_traceparent",
    "parse_traceparent",
    "summarize_trace",
    "to_chrome",
    "to_jsonl",
    "use_span",
]
