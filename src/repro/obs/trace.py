"""Spans, traces, and context propagation for the serving stack.

A **span** is one named, timed piece of work (an HTTP request, a cache
lookup, one worker chunk); a **trace** is the tree of spans sharing a
``trace_id``.  The design goals, in priority order:

1. **Near-zero cost when disabled.**  Every instrumentation point calls
   :meth:`Tracer.start_span` / :meth:`Tracer.start_trace`, which return
   the singleton :data:`NULL_SPAN` unless this tracer is enabled *and*
   the surrounding trace was sampled.  The disabled path is one method
   call and one attribute check; perfbench runs every workload with
   tracing off, so a tax on that path shows in its gated numbers.
2. **Correct timing.**  Durations come from ``time.perf_counter()``
   (monotonic); wall-clock anchors come from ``time.time()`` so spans
   recorded in *other processes* (shard workers) stay comparable when
   shipped back — a worker's ``perf_counter`` origin is not the
   parent's, its wall clock is (close enough for profiling).
3. **W3C interop.**  Trace context enters and leaves over the standard
   ``traceparent`` header (``00-<trace32>-<span16>-<flags>``), so the
   gateway composes with external tracing meshes.

Cross-thread propagation uses a :class:`contextvars.ContextVar`
(:func:`current_span` / :func:`use_span`); thread pools that do not copy
context (``loop.run_in_executor``) wrap the callable with
:func:`call_with_span`.  Cross-*process* spans cannot share a tracer:
workers record plain span dicts (name, wall start, duration, pid/tid,
attrs) that ship back with their results and are re-parented into the
live trace via :meth:`Tracer.record_remote`.

Finished spans land in a bounded deque (oldest evicted first) from
which the exporters read: :func:`to_jsonl` for line-per-span archives
and :func:`to_chrome` for the Chrome trace-event format that
``chrome://tracing`` and https://ui.perfetto.dev load directly.
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .metrics import Registry

__all__ = [
    "NULL_SPAN",
    "Span",
    "TraceConfig",
    "Tracer",
    "call_with_span",
    "current_span",
    "format_traceparent",
    "parse_traceparent",
    "to_chrome",
    "to_jsonl",
    "use_span",
]

_HEX = set("0123456789abcdef")


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def _is_hex(s: str) -> bool:
    return bool(s) and set(s) <= _HEX


def parse_traceparent(header: object) -> Optional[Tuple[str, str, bool]]:
    """``(trace_id, parent_span_id, sampled)`` from a W3C header, or None.

    Accepts version ``00`` headers (and, per spec, any higher version
    whose first four fields parse the same way); all-zero trace or span
    ids are invalid and rejected, as is anything malformed — a bad
    header never breaks a request, it just starts a fresh trace.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[:4]
    if (len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16
            or len(flags) != 2):
        return None
    if not all(_is_hex(p) for p in (version, trace_id, span_id, flags)):
        return None
    if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return trace_id, span_id, bool(int(flags, 16) & 0x01)


def format_traceparent(trace_id: str, span_id: str,
                       sampled: bool = True) -> str:
    """The W3C ``traceparent`` header for an outgoing/response context."""
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


@dataclass
class TraceConfig:
    """Tunables of one :class:`Tracer` (validated eagerly).

    Attributes
    ----------
    enabled:
        Master switch; ``False`` makes every span the no-op
        :data:`NULL_SPAN` regardless of the other knobs.
    sample:
        Probability in ``[0, 1]`` that a *new* trace (one without an
        upstream ``traceparent``) is recorded.  Incoming traceparent
        headers carry their own sampled flag, which is honored.
    max_spans:
        Bound of the in-memory finished-span store (oldest evicted).
    slow_ms:
        Requests at least this slow land in the slow-query log
        (:class:`repro.obs.logging.RequestLog`); ``0`` logs everything.
    """

    enabled: bool = True
    sample: float = 1.0
    max_spans: int = 4096
    slow_ms: float = 250.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {self.sample}")
        if self.max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {self.max_spans}")
        if self.slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {self.slow_ms}")

    @classmethod
    def coerce(cls, value: object) -> "TraceConfig":
        """The ``ServiceConfig(trace=...)`` shorthand ladder.

        ``None``/``False`` -> disabled; ``True`` -> record everything;
        a number -> that sample rate (``0`` disables); a
        :class:`TraceConfig` passes through unchanged.
        """
        if value is None or value is False:
            return cls(enabled=False, sample=0.0)
        if value is True:
            return cls(enabled=True, sample=1.0)
        if isinstance(value, (int, float)):
            rate = float(value)
            return cls(enabled=rate > 0.0, sample=rate)
        if isinstance(value, cls):
            return value
        raise TypeError(f"trace must be None, a bool, a sample rate, or a "
                        f"TraceConfig, got {type(value).__name__}")


class _NullSpan:
    """The no-op span: every tracing call site degrades to this.

    A singleton (:data:`NULL_SPAN`) so the disabled fast path allocates
    nothing; ``sampled`` is False, every mutator returns ``self``, and
    the context-manager protocol is a pass-through.
    """

    __slots__ = ()
    sampled = False
    trace_id = ""
    span_id = ""
    parent_id = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def link(self, span) -> "_NullSpan":
        return self

    def finish(self) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __repr__(self) -> str:
        return "<NULL_SPAN>"


NULL_SPAN = _NullSpan()

#: The ambient span of the current thread of control (contextvars, so
#: asyncio tasks inherit it too).  Default is the no-op span — code that
#: never touches a tracer pays one ContextVar default lookup at most.
_CURRENT: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "repro_obs_current_span", default=NULL_SPAN)


def current_span():
    """The ambient span (``NULL_SPAN`` when nothing is being traced)."""
    return _CURRENT.get()


@contextmanager
def use_span(span):
    """Make *span* the ambient span for the duration of the block."""
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


def call_with_span(span, fn: Callable[[], object]) -> object:
    """Run ``fn()`` with *span* ambient — for pools that don't copy context
    (``loop.run_in_executor`` submits bare callables to worker threads)."""
    token = _CURRENT.set(span)
    try:
        return fn()
    finally:
        _CURRENT.reset(token)


class Span:
    """One live, timed piece of work inside a sampled (or header-carrying)
    trace.  Construct via :meth:`Tracer.start_trace` /
    :meth:`Tracer.start_span`, never directly; finish exactly once (the
    context-manager form guarantees it)."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "sampled", "start", "attrs", "links", "pid", "tid",
                 "_t0", "_done")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: Optional[str], sampled: bool,
                 attrs: Dict) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.sampled = sampled
        self.attrs = attrs
        self.links: List[Dict[str, str]] = []
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._done = False

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes (kind, rows, status, hit, ...)."""
        self.attrs.update(attrs)
        return self

    def link(self, span) -> "Span":
        """Record a causal link to a span in another branch/trace (the
        coalescer links every waiting request to the one engine span)."""
        if getattr(span, "span_id", ""):
            self.links.append({"trace_id": span.trace_id,
                               "span_id": span.span_id})
        return self

    def finish(self) -> float:
        """Close the span; returns its duration in seconds (idempotent)."""
        if self._done:
            return 0.0
        self._done = True
        duration = time.perf_counter() - self._t0
        if self.sampled:
            self.tracer._record(self, duration)
        return duration

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()

    def __repr__(self) -> str:
        return (f"<Span {self.name} {self.trace_id[:8]}/{self.span_id} "
                f"sampled={self.sampled}>")


class Tracer:
    """Sampling decisions, the bounded finished-span store, and stage
    aggregation for one service's traces.

    Thread-safe: spans finish on gateway event-loop threads, pool
    threads, and coalesced-flush leaders concurrently; the store and
    the stage summary take small locks per *finished sampled span*
    (never on the disabled path).  The tracer's families (sample rate,
    traces and spans counted, spans stored, per-stage durations) live
    in *registry* — the owning service's, or a private one.
    """

    def __init__(self, config: object = None,
                 registry: Optional[Registry] = None) -> None:
        self.config = TraceConfig.coerce(config)
        self.enabled = self.config.enabled and self.config.sample > 0.0
        self._lock = threading.Lock()
        self._spans: "deque[Dict]" = deque(maxlen=self.config.max_spans)
        registry = registry if registry is not None else Registry()
        registry.gauge("repro_trace_sampled",
                       "Trace sample rate (0 when tracing is disabled).",
                       fn=lambda: (self.config.sample if self.enabled
                                   else 0.0))
        self._traces = registry.counter("repro_trace_traces_total",
                                        "Sampled traces started.")
        self._recorded = registry.counter(
            "repro_trace_spans_total",
            "Spans recorded into the bounded trace store.")
        registry.gauge("repro_trace_spans_stored",
                       "Spans currently held by the bounded trace store.",
                       fn=lambda: len(self._spans))
        self._stages = registry.summary(
            "repro_stage_duration_seconds",
            "Per-pipeline-stage durations from sampled trace spans "
            "(cache, coalesce, dispatch, worker compute, reassembly).",
            ("stage",))

    # ------------------------------------------------------------- spans
    def start_trace(self, name: str, traceparent: Optional[str] = None,
                    **attrs):
        """Open a **root** span, honoring an upstream ``traceparent``.

        Returns :data:`NULL_SPAN` when disabled.  When enabled but the
        sampling coin (or the upstream flag) says no, returns an
        *unsampled* :class:`Span`: it records nothing, but carries fresh
        ids so response headers still propagate trace context.
        """
        if not self.enabled:
            return NULL_SPAN
        upstream = parse_traceparent(traceparent) if traceparent else None
        if upstream is not None:
            trace_id, parent_id, sampled = upstream
        else:
            trace_id = _new_trace_id()
            parent_id = None
            sampled = (self.config.sample >= 1.0
                       or random.random() < self.config.sample)
        if sampled:
            self._traces.inc()
        return Span(self, name, trace_id, parent_id, sampled, attrs)

    def start_span(self, name: str, parent=None, **attrs):
        """Open a child span under *parent* (default: the ambient span).

        The no-op fast path: disabled tracer, or an unsampled/absent
        parent, costs one call and two attribute checks.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = _CURRENT.get()
        if not parent.sampled:
            return NULL_SPAN
        return Span(self, name, parent.trace_id, parent.span_id, True,
                    attrs)

    @contextmanager
    def root(self, name: str, **attrs):
        """``with tracer.root("client"):`` — a sampled-if-lucky root span
        made ambient for the block (the in-process analogue of one HTTP
        request)."""
        span = self.start_trace(name, **attrs)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            span.finish()

    def record_remote(self, parent, spec: Optional[Dict]) -> None:
        """Adopt a span recorded in a worker process, re-parented under
        *parent*.

        *spec* is the plain dict a worker ships back with its chunk
        result: ``{"name", "start" (wall clock), "duration", "pid",
        "tid", "attrs"}``.  Workers cannot share this tracer (or its
        perf_counter origin), so they report wall-anchored timings and
        the parent process grafts them into the live trace here.
        """
        if spec is None or not getattr(parent, "sampled", False):
            return
        record = {
            "trace_id": parent.trace_id,
            "span_id": _new_span_id(),
            "parent_id": parent.span_id,
            "name": spec.get("name", "worker.compute"),
            "start": float(spec.get("start", 0.0)),
            "duration": float(spec.get("duration", 0.0)),
            "pid": spec.get("pid"),
            "tid": spec.get("tid"),
            "attrs": dict(spec.get("attrs") or {}),
            "links": [],
        }
        self._store(record)

    # ------------------------------------------------------------- store
    def _record(self, span: Span, duration: float) -> None:
        self._store({
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start": span.start,
            "duration": duration,
            "pid": span.pid,
            "tid": span.tid,
            "attrs": span.attrs,
            "links": span.links,
        })

    def _store(self, record: Dict) -> None:
        with self._lock:
            self._spans.append(record)
        self._recorded.inc()
        self._stages.observe(record["name"], record["duration"])

    def spans(self, trace_id: Optional[str] = None) -> List[Dict]:
        """A snapshot of the finished-span store (optionally one trace)."""
        with self._lock:
            records = list(self._spans)
        if trace_id is not None:
            records = [r for r in records if r["trace_id"] == trace_id]
        return records

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def snapshot(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "sample": self.config.sample,
            "traces_started": self._traces.get(),
            "spans_recorded": self._recorded.get(),
            "spans_stored": len(self._spans),
        }


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------
def to_jsonl(records: Iterable[Dict]) -> str:
    """One JSON object per line — grep/jq-friendly archive format."""
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


def to_chrome(records: Iterable[Dict]) -> Dict:
    """Chrome trace-event JSON (the ``{"traceEvents": [...]}`` envelope).

    Complete ``ph: "X"`` duration events with microsecond timestamps —
    loadable as-is in ``chrome://tracing`` and https://ui.perfetto.dev.
    Span/trace ids and attributes ride along in ``args`` so the trace
    tree stays reconstructible from the export alone.
    """
    events = []
    for r in records:
        args = {"trace_id": r["trace_id"], "span_id": r["span_id"]}
        if r.get("parent_id"):
            args["parent_id"] = r["parent_id"]
        if r.get("links"):
            args["links"] = r["links"]
        args.update(r.get("attrs") or {})
        events.append({
            "name": r["name"],
            "cat": "repro",
            "ph": "X",
            "ts": r["start"] * 1e6,
            "dur": max(r["duration"], 0.0) * 1e6,
            "pid": r.get("pid") or 0,
            "tid": r.get("tid") or 0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
