"""Per-layer metrics of a traced run.

Three sources, as the layers allow:

* the server's own spans (``GET /debug/traces?format=jsonl``, tracer at
  sample 1.0): gateway, service, cache, coalescer, shard tier and worker
  compute;
* an in-process replay of one request's rows, timing calls into the
  public engine, kernel-provider and ``V_Pr`` functions from here;
* the launcher's timings of its set-up calls.

A span's self time is its duration minus the part of its interval that
its descendant spans cover.  Every metric is a median over requests (or
spans) unless its name says otherwise; a layer the workload never
reaches reports 0.
"""

import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

import repro.quantification.batch_exact as batch_exact

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("http.request_ms", "ms"), ("http.codec_ms", "ms"),
    ("http.outside_span_ms", "ms"), ("http.resp_kb", "kB"),
    ("http.queue_ms", "ms"),
    ("service.execute_ms", "ms"), ("service.cache_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("coalesce.wait_ms", "ms"), ("coalesce.rows_per_flush", "rows"),
    ("shard.dispatch_ms", "ms"), ("worker.compute_ms", "ms"),
    ("shard.overhead_ms", "ms"), ("shard.chunks", "count"),
    ("shard.reassemble_ms", "ms"), ("executor.retries", "count"),
    ("engine.quantify_exact_ms", "ms"), ("kernel.distance_matrix_ms", "ms"),
    ("kernel.sweep_eq2_ms", "ms"), ("engine.rows_ms", "ms"),
    ("vpr.quantify_ms", "ms"), ("planelocate.locate_ms", "ms"),
    ("vpr.in_window_share", "ratio"), ("vpr.plane_mb", "MB"),
    ("setup.import_s", "s"), ("setup.index_s", "s"),
    ("setup.vpr_build_s", "s"), ("setup.plane_encode_s", "s"),
    ("setup.serve_s", "s"), ("setup.warm_s", "s"),
    ("setup.first_request_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _covered(lo: float, hi: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of *intervals*."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def span_layers(records: Sequence[Dict],
                timed: Sequence[Tuple[str, float, int]]) -> Dict[str, float]:
    """Gateway, service, cache, coalescer and shard metrics from spans.

    *timed* lists ``(trace_id, client_seconds, reply_bytes)`` of every
    timed request (an exchange that failed has no trace id and is
    skipped); spans of other traces (warm-up) are ignored.
    """
    traces: Dict[str, List[Dict]] = defaultdict(list)
    for r in records:
        traces[r["trace_id"]].append(r)
    request_ms, codec_ms, outside_ms, queue_ms = [], [], [], []
    spans: Dict[str, List[Dict]] = defaultdict(list)
    for trace_id, client_s, _ in timed:
        if not trace_id:
            continue
        trace = traces.get(trace_id, ())
        roots = [s for s in trace if s["name"] == "http.request"]
        if len(roots) != 1:
            raise RuntimeError(f"trace {trace_id} has {len(roots)} "
                               f"http.request spans; the trace store "
                               f"dropped spans")
        root = roots[0]
        children = defaultdict(list)
        for s in trace:
            children[s["parent_id"]].append(s)
            spans[s["name"]].append(s)
        below, stack = [], list(children[root["span_id"]])
        while stack:
            s = stack.pop()
            below.append((s["start"], s["start"] + s["duration"]))
            stack.extend(children[s["span_id"]])
        lo, hi = root["start"], root["start"] + root["duration"]
        request_ms.append(root["duration"] * 1e3)
        codec_ms.append((root["duration"] - _covered(lo, hi, below)) * 1e3)
        outside_ms.append((client_s - root["duration"]) * 1e3)
        queue_ms.append(sum(s["duration"] for s in trace
                            if s["name"] == "http.queue") * 1e3)

    def ms(name: str) -> float:
        return median(s["duration"] * 1e3 for s in spans[name])

    hits = lookups = 0
    for s in spans["service.cache"]:
        a = s["attrs"]
        if "hit" in a:
            hits += bool(a["hit"])
            lookups += 1
        else:
            hits += a.get("hits", 0)
            lookups += a.get("hits", 0) + a.get("misses", 0)
    computes: Dict[str, float] = defaultdict(float)
    for s in spans["worker.compute"]:
        computes[s["parent_id"]] += s["duration"]
    dispatches = spans["shard.dispatch"]
    flushes = spans["coalesce.flush"]
    return {
        "http.request_ms": median(request_ms),
        "http.codec_ms": median(codec_ms),
        "http.outside_span_ms": median(outside_ms),
        "http.resp_kb": median(b / 1e3 for _, _, b in timed),
        "http.queue_ms": float(np.mean(queue_ms)) if queue_ms else 0.0,
        "service.execute_ms": ms("service.execute"),
        "service.cache_ms": ms("service.cache"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "coalesce.wait_ms": ms("coalesce.wait"),
        "coalesce.rows_per_flush": (
            float(np.mean([s["attrs"]["batch_size"] for s in flushes]))
            if flushes else 0.0),
        "shard.dispatch_ms": ms("shard.dispatch"),
        "worker.compute_ms": median(computes[s["span_id"]] * 1e3
                                    for s in dispatches),
        "shard.overhead_ms": median(
            (s["duration"] - computes[s["span_id"]] / s["attrs"]["workers"])
            * 1e3 for s in dispatches),
        "shard.chunks": median(s["attrs"]["chunks"] for s in dispatches),
        "shard.reassemble_ms": ms("shard.reassemble"),
    }


class _TimedProvider:
    """A kernel provider whose distance-matrix and sweep calls are timed."""

    def __init__(self, provider, totals: Dict[str, float]) -> None:
        self._provider = provider
        self._totals = totals

    def _timed(self, name: str, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return getattr(self._provider, name)(*args, **kwargs)
        finally:
            self._totals[name] += time.perf_counter() - t0

    def distance_matrix(self, *args, **kwargs):
        return self._timed("distance_matrix", *args, **kwargs)

    def sweep_eq2(self, *args, **kwargs):
        return self._timed("sweep_eq2", *args, **kwargs)


def engine_layers(index, rows: np.ndarray, reps: int) -> Dict[str, float]:
    """Replay ``batch_quantify_exact`` on *rows* with the resolved kernel
    provider's calls timed; medians over *reps* calls."""
    index.batch_quantify_exact(rows)  # builds the lazy engine
    real = batch_exact.get_provider
    totals: Dict[str, float] = defaultdict(float)
    batch_exact.get_provider = lambda name="auto": _TimedProvider(
        real(name), totals)
    samples = defaultdict(list)
    try:
        for _ in range(reps):
            totals.clear()
            t0 = time.perf_counter()
            index.batch_quantify_exact(rows)
            total = time.perf_counter() - t0
            samples["engine"].append(total)
            samples["dist"].append(totals["distance_matrix"])
            samples["sweep"].append(totals["sweep_eq2"])
            samples["rows"].append(total - totals["distance_matrix"]
                                   - totals["sweep_eq2"])
    finally:
        batch_exact.get_provider = real
    return {"engine.quantify_exact_ms": median(samples["engine"]) * 1e3,
            "kernel.distance_matrix_ms": median(samples["dist"]) * 1e3,
            "kernel.sweep_eq2_ms": median(samples["sweep"]) * 1e3,
            "engine.rows_ms": median(samples["rows"]) * 1e3}


def vpr_layers(vpr, rows: np.ndarray, reps: int) -> Dict[str, float]:
    """Replay ``quantify_batch`` and the locator's ``locate_batch`` on
    *rows*; the in-window share counts rows inside the diagram's window
    that the locator places in a face."""
    (x0, y0), (x1, y1) = vpr.box
    inside = ((rows[:, 0] > x0) & (rows[:, 0] < x1)
              & (rows[:, 1] > y0) & (rows[:, 1] < y1))
    located = vpr.locator.locate_batch(rows) >= 0
    quantify, locate = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        vpr.quantify_batch(rows)
        t1 = time.perf_counter()
        vpr.locator.locate_batch(rows)
        t2 = time.perf_counter()
        quantify.append(t1 - t0)
        locate.append(t2 - t1)
    return {"vpr.quantify_ms": median(quantify) * 1e3,
            "planelocate.locate_ms": median(locate) * 1e3,
            "vpr.in_window_share": float(np.mean(inside & located))}
