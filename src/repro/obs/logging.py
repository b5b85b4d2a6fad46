"""Structured JSON request logging and the slow-query ring.

One record per served request, assembled *after* the response is
decided, from two sources: the transport facts the gateway knows
(kind, status, wall time) and — when the request's trace was sampled —
the per-stage breakdown reconstructed from the finished-span store
(:func:`summarize_trace`).  Records are single-line JSON, so the access
log is directly ``jq``-able and ingestible by any log pipeline.

Requests at least ``slow_ms`` slow additionally land in a bounded
in-memory ring served by ``GET /debug/slow`` and are emitted at
``WARNING`` level — so ``--log-level WARNING`` keeps a production access
log quiet except for exactly the requests worth looking at.

The emitter is a stock :mod:`logging` logger (``repro.obs.access``,
non-propagating).  Without a configured sink the logger keeps a
``NullHandler`` — record assembly still feeds the slow ring, nothing is
written anywhere.
"""

from __future__ import annotations

import io
import json
import logging
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["RequestLog", "summarize_trace"]

#: Span names whose summed durations form the per-stage breakdown; the
#: order here is the pipeline order (used for display only).
_STAGES = ("http.queue", "service.query", "service.batch",
           "service.cache", "coalesce.wait", "coalesce.flush",
           "service.execute", "shard.dispatch", "worker.compute",
           "shard.reassemble")


def summarize_trace(records: List[Dict]) -> Dict[str, object]:
    """Fold one trace's span records into the request-log fields.

    Returns ``stages_ms`` (span name -> summed milliseconds, pipeline
    spans only) plus the headline facts mined from span attributes:
    cache hit/miss, coalesced batch size, shard/chunk count, executor
    backend, and how many worker spans shipped back.
    """
    stages: Dict[str, float] = {}
    out: Dict[str, object] = {}
    workers = 0
    for rec in records:
        name = rec["name"]
        if name in _STAGES:
            stages[name] = stages.get(name, 0.0) + rec["duration"] * 1e3
        attrs = rec.get("attrs") or {}
        if name == "service.cache" and "hit" in attrs:
            out["cache_hit"] = bool(attrs["hit"])
        if name == "service.query" and "cache_hit" in attrs:
            out["cache_hit"] = bool(attrs["cache_hit"])
        if name == "coalesce.wait" and "batch_size" in attrs:
            out["coalesced_batch"] = int(attrs["batch_size"])
        if name == "shard.dispatch":
            if "chunks" in attrs:
                out["shards"] = int(attrs["chunks"])
            if "backend" in attrs:
                out["backend"] = attrs["backend"]
        if name == "service.execute" and "sharded" in attrs:
            out["sharded"] = bool(attrs["sharded"])
        if name == "worker.compute":
            workers += 1
    if workers:
        out["worker_spans"] = workers
    out["stages_ms"] = {name: round(stages[name], 3)
                        for name in _STAGES if name in stages}
    return out


class RequestLog:
    """The request-record assembler, access-log emitter, and slow ring.

    Parameters
    ----------
    path:
        Access-log sink: a file path, ``"-"`` for stderr, or ``None``
        for no emission (the slow ring still fills).
    stream:
        An explicit text stream sink (tests); overrides *path*.
    level:
        Logger threshold name (``"INFO"`` emits every request record,
        ``"WARNING"`` only the slow ones).
    slow_ms:
        Threshold for the slow-query ring / WARNING records; ``0``
        marks everything slow (used by the CI smoke to prove the
        slow path end to end).
    capacity:
        Bound of the in-memory slow ring (oldest evicted).
    """

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[io.TextIOBase] = None,
                 level: str = "INFO", slow_ms: float = 250.0,
                 capacity: int = 256) -> None:
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.slow_ms = float(slow_ms)
        self.slow_total = 0
        self._slow: "deque[Dict]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        # A per-instance logger child keeps concurrent services (tests
        # run many) from stacking handlers on one shared logger object.
        self._logger = logging.getLogger(
            f"repro.obs.access.{id(self):x}")
        self._logger.propagate = False
        self._logger.setLevel(getattr(logging, str(level).upper(),
                                      logging.INFO))
        self._handler: Optional[logging.Handler] = None
        if stream is not None:
            self._handler = logging.StreamHandler(stream)
        elif path == "-":
            self._handler = logging.StreamHandler(sys.stderr)
        elif path:
            self._handler = logging.FileHandler(path, encoding="utf-8")
        if self._handler is not None:
            self._handler.setFormatter(logging.Formatter("%(message)s"))
            self._logger.addHandler(self._handler)
        else:
            self._logger.addHandler(logging.NullHandler())

    @property
    def emits(self) -> bool:
        """Whether records are written anywhere (vs slow-ring only)."""
        return self._handler is not None

    # ------------------------------------------------------------------
    def record(self, kind: str, status: int, duration_s: float,
               tracer=None, span=None, **extra) -> Dict[str, object]:
        """Assemble, emit, and (when slow) ring-buffer one request record.

        *span* is the request's root span (may be ``NULL_SPAN``);
        *tracer* supplies the span store for the stage breakdown.  The
        assembled record is returned for callers that want it.
        """
        duration_ms = duration_s * 1e3
        rec: Dict[str, object] = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S",
                                time.gmtime()) + "Z",
            "kind": kind,
            "status": int(status),
            "duration_ms": round(duration_ms, 3),
        }
        if span is not None and getattr(span, "trace_id", ""):
            rec["request_id"] = span.trace_id
            rec["sampled"] = bool(span.sampled)
        if span is not None and getattr(span, "sampled", False) \
                and tracer is not None:
            rec.update(summarize_trace(tracer.spans(span.trace_id)))
        rec.update(extra)
        slow = duration_ms >= self.slow_ms
        if slow:
            rec["slow"] = True
            with self._lock:
                self._slow.append(rec)
                self.slow_total += 1
        self._logger.log(logging.WARNING if slow else logging.INFO,
                         json.dumps(rec, sort_keys=True, default=str))
        return rec

    def slow_snapshot(self) -> List[Dict]:
        """The slow-query ring, oldest first."""
        with self._lock:
            return list(self._slow)

    def close(self) -> None:
        """Detach and close the sink handler (idempotent)."""
        handler, self._handler = self._handler, None
        if handler is not None:
            self._logger.removeHandler(handler)
            handler.close()
