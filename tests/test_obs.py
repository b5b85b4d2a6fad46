"""Tests for ``repro.obs``: tracing, structured logging, engine counters.

The tracing layer's contract has three legs, each pinned here:

* **Inertness** — serving with tracing enabled returns answers bitwise
  identical to the untraced service, on every executor rung and
  both HTTP transports (tracing observes the pipeline, never steers it).
* **Well-formed trees** — each trace has exactly one root, every child's
  ``parent_id`` resolves inside its own trace (no orphans), and worker
  spans shipped back from shard chunks re-parent under the dispatch span.
* **Zero-cost disabled path** — with tracing off every instrumentation
  point returns the ``NULL_SPAN`` singleton and the store stays empty.
"""

import asyncio
import io
import json
import threading
import time

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.obs.logging import RequestLog, summarize_trace
from repro.obs.metrics import ENGINE, Counter
from repro.obs.trace import (
    NULL_SPAN,
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
from repro.serving.http import (
    HttpConfig,
    QueryGateway,
    ServerThread,
    encode_result,
)
from repro.serving.executors import LADDER
from repro.testing.rungs import on_rung


def _index(n=10, seed=3):
    return PNNIndex(random_discrete_points(n, 2, seed=seed, spread=2.0))


def _queries(m, extent=8.0, seed=11):
    rng = np.random.default_rng(seed)
    return [(float(x), float(y))
            for x, y in rng.uniform(-1.0, extent, size=(m, 2))]


# ----------------------------------------------------------------------
# W3C traceparent.
# ----------------------------------------------------------------------

class TestTraceparent:
    def test_roundtrip(self):
        trace, span = "ab" * 16, "cd" * 8
        header = format_traceparent(trace, span, sampled=True)
        assert header == f"00-{trace}-{span}-01"
        assert parse_traceparent(header) == (trace, span, True)

    def test_unsampled_flag(self):
        header = format_traceparent("ab" * 16, "cd" * 8, sampled=False)
        assert header.endswith("-00")
        assert parse_traceparent(header)[2] is False

    @pytest.mark.parametrize("bad", [
        None, 42, "", "garbage",
        "00-short-span-01",
        "00-" + "g" * 32 + "-" + "cd" * 8 + "-01",   # non-hex trace
        "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",   # all-zero trace
        "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span
        "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
    ])
    def test_malformed_rejected(self, bad):
        assert parse_traceparent(bad) is None

    def test_future_version_accepted(self):
        header = "cc-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extrafield"
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8, True)


# ----------------------------------------------------------------------
# TraceConfig coercion and validation.
# ----------------------------------------------------------------------

class TestTraceConfig:
    def test_coercion_ladder(self):
        assert TraceConfig.coerce(None).enabled is False
        assert TraceConfig.coerce(False).enabled is False
        on = TraceConfig.coerce(True)
        assert on.enabled and on.sample == 1.0
        half = TraceConfig.coerce(0.5)
        assert half.enabled and half.sample == 0.5
        assert TraceConfig.coerce(0.0).enabled is False
        cfg = TraceConfig(enabled=True, sample=0.25, slow_ms=10.0)
        assert TraceConfig.coerce(cfg) is cfg

    def test_coercion_rejects_junk(self):
        with pytest.raises(TypeError):
            TraceConfig.coerce("yes please")

    @pytest.mark.parametrize("kwargs", [
        {"sample": -0.1}, {"sample": 1.5}, {"max_spans": 0},
        {"slow_ms": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TraceConfig(**kwargs)


# ----------------------------------------------------------------------
# Spans, sampling, the bounded store.
# ----------------------------------------------------------------------

class TestTracer:
    def test_null_span_is_inert_singleton(self):
        assert NULL_SPAN.set(x=1) is NULL_SPAN
        assert NULL_SPAN.link(NULL_SPAN) is NULL_SPAN
        assert NULL_SPAN.finish() == 0.0
        assert NULL_SPAN.sampled is False
        with NULL_SPAN as s:
            assert s is NULL_SPAN

    def test_disabled_tracer_returns_null(self):
        tracer = Tracer(None)
        assert tracer.start_trace("root") is NULL_SPAN
        assert tracer.start_span("child") is NULL_SPAN
        assert tracer.spans() == []

    def test_sampled_trace_records(self):
        tracer = Tracer(True)
        with tracer.root("root", kind="test") as root:
            assert root.sampled
            with tracer.start_span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
        records = tracer.spans(root.trace_id)
        assert [r["name"] for r in records] == ["child", "root"]
        assert records[1]["attrs"]["kind"] == "test"
        assert tracer.snapshot()["traces_started"] == 1

    def test_zero_sample_carries_context_but_records_nothing(self):
        tracer = Tracer(TraceConfig(enabled=True, sample=0.0))
        # enabled is derived: sample 0 means no trace can ever record.
        assert not tracer.enabled
        assert tracer.start_trace("root") is NULL_SPAN

    def test_upstream_header_overrides_sampling_coin(self):
        tracer = Tracer(TraceConfig(enabled=True, sample=1.0))
        header = format_traceparent("ab" * 16, "cd" * 8, sampled=False)
        span = tracer.start_trace("root", traceparent=header)
        assert span.trace_id == "ab" * 16
        assert span.parent_id == "cd" * 8
        assert not span.sampled
        span.finish()
        assert tracer.spans() == []
        # And a child under an unsampled parent is the null span.
        assert tracer.start_span("child", parent=span) is NULL_SPAN

    def test_store_is_bounded(self):
        tracer = Tracer(TraceConfig(enabled=True, max_spans=8))
        for _ in range(20):
            with tracer.root("r"):
                pass
        snap = tracer.snapshot()
        assert snap["spans_stored"] == 8
        assert snap["spans_recorded"] == 20

    def test_finish_is_idempotent(self):
        tracer = Tracer(True)
        span = tracer.start_trace("once")
        assert span.finish() > 0.0
        assert span.finish() == 0.0
        assert len(tracer.spans()) == 1

    def test_record_remote_reparents(self):
        tracer = Tracer(True)
        with tracer.root("dispatch") as parent:
            tracer.record_remote(parent, {
                "name": "worker.compute", "start": time.time(),
                "duration": 0.25, "pid": 4242, "tid": 7,
                "attrs": {"chunk": 3}})
        workers = [r for r in tracer.spans()
                   if r["name"] == "worker.compute"]
        assert len(workers) == 1
        assert workers[0]["parent_id"] == parent.span_id
        assert workers[0]["trace_id"] == parent.trace_id
        assert workers[0]["pid"] == 4242
        assert workers[0]["attrs"]["chunk"] == 3
        # Remote specs under an unsampled parent are dropped.
        tracer.record_remote(NULL_SPAN, {"name": "worker.compute"})
        assert len(tracer.spans()) == 2  # dispatch + one worker

    def test_context_propagation(self):
        tracer = Tracer(True)
        assert current_span() is NULL_SPAN
        with tracer.root("root") as root:
            assert current_span() is root
            seen = call_with_span(root, current_span)
            assert seen is root
        assert current_span() is NULL_SPAN
        with use_span(root):
            assert current_span() is root
        assert current_span() is NULL_SPAN


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------

class TestExporters:
    def _records(self):
        tracer = Tracer(True)
        with tracer.root("root", kind="delta"):
            with tracer.start_span("child"):
                pass
        return tracer.spans()

    def test_jsonl(self):
        lines = to_jsonl(self._records()).splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert {p["name"] for p in parsed} == {"root", "child"}

    def test_chrome_trace_events(self):
        doc = to_chrome(self._records())
        events = doc["traceEvents"]
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 0
            assert "trace_id" in ev["args"]
        child = next(e for e in events if e["name"] == "child")
        root = next(e for e in events if e["name"] == "root")
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        json.dumps(doc)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# Structured logging and the slow-query ring.
# ----------------------------------------------------------------------

class TestRequestLog:
    def test_record_emits_single_line_json(self):
        sink = io.StringIO()
        log = RequestLog(stream=sink, slow_ms=1e9)
        rec = log.record("delta", 200, 0.002)
        assert rec["status"] == 200
        assert "slow" not in rec
        parsed = json.loads(sink.getvalue().strip())
        assert parsed["kind"] == "delta"
        log.close()

    def test_slow_ring_bounded_and_counted(self):
        log = RequestLog(slow_ms=0.0, capacity=3)
        for i in range(5):
            log.record("delta", 200, 0.001, request=i)
        assert log.slow_total == 5
        ring = log.slow_snapshot()
        assert len(ring) == 3
        assert [r["request"] for r in ring] == [2, 3, 4]
        assert all(r["slow"] for r in ring)
        assert not log.emits  # no sink configured

    def test_warning_level_silences_fast_requests(self):
        sink = io.StringIO()
        log = RequestLog(stream=sink, level="WARNING", slow_ms=1000.0)
        log.record("delta", 200, 0.001)       # fast -> INFO, suppressed
        assert sink.getvalue() == ""
        log.record("delta", 200, 2.0)         # slow -> WARNING, emitted
        assert json.loads(sink.getvalue().strip())["slow"] is True
        log.close()

    def test_trace_breakdown_folds_into_record(self):
        tracer = Tracer(True)
        with tracer.root("http.request", kind="delta") as root:
            with tracer.start_span("service.cache", hit=False):
                pass
        log = RequestLog(slow_ms=1e9)
        rec = log.record("delta", 200, 0.01, tracer=tracer, span=root)
        assert rec["request_id"] == root.trace_id
        assert rec["cache_hit"] is False
        assert "service.cache" in rec["stages_ms"]

    def test_summarize_trace_mines_attributes(self):
        records = [
            {"name": "shard.dispatch", "duration": 0.01,
             "attrs": {"chunks": 4, "backend": "process"}},
            {"name": "worker.compute", "duration": 0.002, "attrs": {}},
            {"name": "worker.compute", "duration": 0.003, "attrs": {}},
            {"name": "coalesce.wait", "duration": 0.001,
             "attrs": {"batch_size": 32}},
        ]
        out = summarize_trace(records)
        assert out["shards"] == 4
        assert out["backend"] == "process"
        assert out["worker_spans"] == 2
        assert out["coalesced_batch"] == 32
        assert out["stages_ms"]["worker.compute"] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestLog(slow_ms=-1.0)
        with pytest.raises(ValueError):
            RequestLog(capacity=0)


# ----------------------------------------------------------------------
# Engine counters.
# ----------------------------------------------------------------------

class TestEngineCounters:
    def test_counter_set(self):
        c = Counter("repro_test_total", "test", ("name",))
        c.inc("a")
        c.inc("a", 4)
        c.inc("b")
        assert c.get("a") == 5
        assert c.snapshot() == {"a": 5, "b": 1}
        c.reset()
        assert c.snapshot() == {}

    def test_hot_paths_count_work(self):
        index = _index(8)
        qs = _queries(40)
        before = ENGINE.snapshot()
        index.batch_delta(qs)
        index.batch_quantify_exact(qs)
        index.batch_quantify_vpr(qs)
        after = ENGINE.snapshot()

        def grew(name):
            return after.get(name, 0) > before.get(name, 0)

        assert grew("batch_engine.chunks")
        assert grew("exact_sweep.chunks")
        assert grew("exact_sweep.rows_retired")
        # The V_Pr locator is the merged-slab tree; its counters carry
        # the point-location work.
        assert grew("planelocate.batches")
        assert grew("planelocate.bisection_passes")


# ----------------------------------------------------------------------
# Traced == untraced parity + span-tree shape, all executor backends.
# ----------------------------------------------------------------------

PARITY_KINDS = ("delta", "nonzero_nn", "quantify_exact", "top_k")
PARITY_PARAMS = {"top_k": {"k": 3}}


def _encoded(kind, result):
    rows = list(result) if kind == "delta" else result
    return [encode_result(kind, row) for row in rows]


def _span_trees(tracer):
    """``{trace_id: records}`` for every trace currently stored."""
    trees = {}
    for rec in tracer.spans():
        trees.setdefault(rec["trace_id"], []).append(rec)
    return trees


def _assert_well_formed(records):
    """One root, no orphans: the tree invariant every trace must hold."""
    ids = {r["span_id"] for r in records}
    roots = [r for r in records if not r["parent_id"]]
    assert len(roots) == 1, \
        f"expected one root, got {[r['name'] for r in roots]}"
    for rec in records:
        if rec["parent_id"]:
            assert rec["parent_id"] in ids, \
                f"orphan span {rec['name']} ({rec['span_id']})"


class TestTracedParity:
    @pytest.mark.parametrize("rung", LADDER)
    def test_batch_parity_and_span_tree(self, rung):
        index = _index(10)
        qs = _queries(60)
        with index.serve(workers=0) as plain:
            expected = {kind: _encoded(kind, plain.batch(
                kind, qs, **PARITY_PARAMS.get(kind, {})))
                for kind in PARITY_KINDS}
        with on_rung(rung) as workers:
            traced = index.serve(workers=workers, shard_min_batch=16,
                                 trace=True)
        with traced:
            for kind in PARITY_KINDS:
                got = _encoded(kind, traced.batch(
                    kind, qs, **PARITY_PARAMS.get(kind, {})))
                assert got == expected[kind], \
                    f"tracing perturbed {kind} answers on {rung}"
            trees = _span_trees(traced.tracer)
            assert len(trees) >= len(PARITY_KINDS)
            names = set()
            for records in trees.values():
                _assert_well_formed(records)
                names |= {r["name"] for r in records}
            assert "service.batch" in names
            if rung != "inline":
                assert traced.executor.mode == rung
                assert {"service.execute", "shard.dispatch",
                        "worker.compute",
                        "shard.reassemble"} <= names, \
                    f"missing shard stages on {rung}: {sorted(names)}"

    @pytest.mark.parametrize("rung", ("thread", "process"))
    def test_worker_spans_reparent_under_dispatch(self, rung):
        index = _index(10)
        qs = _queries(48)
        with on_rung(rung) as workers:
            service = index.serve(workers=workers, shard_min_batch=16,
                                  shard_chunk=16, trace=True)
        with service:
            assert service.executor.mode == rung
            service.batch("delta", qs)
            records = service.tracer.spans()
        by_id = {r["span_id"]: r for r in records}
        workers = [r for r in records if r["name"] == "worker.compute"]
        dispatches = [r for r in records if r["name"] == "shard.dispatch"]
        assert dispatches, "no shard.dispatch span recorded"
        assert len(workers) >= 2, "expected one worker span per chunk"
        for w in workers:
            parent = by_id[w["parent_id"]]
            assert parent["name"] == "shard.dispatch"
            assert w["attrs"]["method"] == "delta"
            assert w["attrs"]["rows"] > 0
        if rung == "process":
            parent_pid = dispatches[0]["pid"]
            assert any(w["pid"] != parent_pid for w in workers), \
                "process-backend worker spans should cross processes"

    def test_scalar_parity_and_coalesce_linking(self):
        index = _index(10)
        qs = _queries(12)
        with index.serve(workers=0) as plain:
            expected = [plain.query("nonzero_nn", q) for q in qs]
        with index.serve(workers=0, max_batch=64, trace=True) as traced:
            # Hold the first flush so the other eleven queries queue
            # behind it and coalesce into the next one.
            entered, release = threading.Event(), threading.Event()
            inner = traced.batcher._flush_fn

            def gated(*args):
                if not entered.is_set():
                    entered.set()
                    assert release.wait(timeout=10)
                return inner(*args)

            traced.batcher._flush_fn = gated
            got = [None] * len(qs)

            def submit(i):
                got[i] = traced.query("nonzero_nn", qs[i])

            threads = [threading.Thread(target=submit, args=(0,))]
            threads[0].start()
            assert entered.wait(timeout=5)
            threads += [threading.Thread(target=submit, args=(i,))
                        for i in range(1, len(qs))]
            for t in threads[1:]:
                t.start()
            give_up = time.monotonic() + 5
            while traced.batcher.pending < len(qs) - 1:
                assert time.monotonic() < give_up
                time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(timeout=5)
                assert not t.is_alive()
            assert got == expected
            records = traced.tracer.spans()
        flushes = [r for r in records if r["name"] == "coalesce.flush"]
        waits = [r for r in records if r["name"] == "coalesce.wait"]
        assert sorted(f["attrs"]["batch_size"] for f in flushes) == \
            [1, len(qs) - 1], "11 queued queries should coalesce into one"
        assert len(waits) == len(qs)
        by_size = {f["attrs"]["batch_size"]: f for f in flushes}
        for w in waits:
            flush = by_size[w["attrs"]["batch_size"]]
            assert {"trace_id": flush["trace_id"],
                    "span_id": flush["span_id"]} in w["links"], \
                "waiting request is not linked to its flush span"
        assert sorted(w["attrs"]["batch_size"] for w in waits) == \
            [1] + [len(qs) - 1] * (len(qs) - 1)
        # Every query is its own trace (one root each), all well-formed.
        for records_ in _span_trees(traced.tracer).values():
            _assert_well_formed(records_)

    def test_sampled_tracing_parity(self):
        """At a mid sample rate both the sampled and the unsampled
        request branches run; neither perturbs answers."""
        index = _index(10)
        qs = _queries(64)
        with index.serve(workers=0) as plain:
            expected = [plain.query("nonzero_nn", q) for q in qs]
            batch = plain.batch("delta", qs)
        trace = TraceConfig(enabled=True, sample=0.5)
        with index.serve(workers=0, cache_capacity=0, trace=trace) as traced:
            assert [traced.query("nonzero_nn", q) for q in qs] == expected
            assert np.array_equal(traced.batch("delta", qs), batch)
            started = traced.tracer.snapshot()["traces_started"]
        assert 0 < started < len(qs) + 1

    def test_disabled_tracing_records_nothing(self):
        index = _index(8)
        with index.serve(workers=0) as service:
            service.batch("delta", _queries(16))
            service.query("nonzero_nn", (1.0, 1.0))
            assert not service.tracer.enabled
            assert service.tracer.spans() == []
            assert "trace" not in service.stats()

    def test_stats_expose_trace_snapshot(self):
        index = _index(8)
        with index.serve(workers=0, trace=True) as service:
            service.batch("delta", _queries(8))
            snap = service.stats()
        assert snap["trace"]["spans_recorded"] > 0
        assert snap["trace"]["sample"] == 1.0

    def test_eviction_counts_by_kind(self):
        index = _index(8)
        with index.serve(workers=0, cache_capacity=8) as service:
            for q in _queries(20, seed=5):
                service.query("delta", q)
            for q in _queries(20, seed=6):
                service.query("nonzero_nn", q)
            snap = service.stats()["cache"]
        assert snap["evictions"] >= 24
        by_kind = snap["evictions_by_kind"]
        assert sum(by_kind.values()) == snap["evictions"]
        assert by_kind.get("delta", 0) > 0
        assert by_kind.get("nonzero_nn", 0) > 0


# ----------------------------------------------------------------------
# HTTP transports: trace headers, debug endpoints, metric families.
# ----------------------------------------------------------------------

def _http(port, method, path, doc=None, headers=None, timeout=30.0):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(doc) if doc is not None else None
        send = {"Content-Type": "application/json"} if body else {}
        if headers:
            send.update(headers)
        conn.request(method, path, body=body, headers=send)
        resp = conn.getresponse()
        raw = resp.read().decode("utf-8")
        parsed = None
        if resp.headers.get_content_type() in ("application/json",
                                               "application/x-ndjson"):
            parsed = raw
            if resp.headers.get_content_type() == "application/json":
                parsed = json.loads(raw)
        return resp.status, parsed, raw, \
            {k.lower(): v for k, v in resp.getheaders()}
    finally:
        conn.close()


@pytest.fixture(scope="module")
def traced_server():
    index = _index(10)
    service = index.serve(workers=0, max_batch=64,
                          trace=TraceConfig(enabled=True, sample=1.0,
                                            slow_ms=0.0))
    config = HttpConfig(port=0, max_inflight=2, warm_kinds=("delta",))
    with service, ServerThread(service, config) as server:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if _http(server.port, "GET", "/healthz")[0] == 200:
                break
            time.sleep(0.05)
        yield server


class TestHttpTracing:
    def test_response_carries_trace_context(self, traced_server):
        port = traced_server.port
        status, doc, _, hdrs = _http(port, "POST", "/v1/query/delta",
                                     {"q": [1.0, 2.0]})
        assert status == 200
        rid = hdrs["x-request-id"]
        assert len(rid) == 32
        parsed = parse_traceparent(hdrs["traceparent"])
        assert parsed is not None and parsed[0] == rid

    def test_upstream_traceparent_joins_trace(self, traced_server):
        port = traced_server.port
        trace_id = "f" * 31 + "e"
        header = format_traceparent(trace_id, "1234567890abcdef")
        status, _, _, hdrs = _http(
            port, "POST", "/v1/query/nonzero_nn",
            {"queries": [[0.5, 0.5], [1.5, 1.5]]},
            headers={"traceparent": header})
        assert status == 200
        assert hdrs["x-request-id"] == trace_id
        # The stored trace nests the whole pipeline under http.request.
        records = traced_server.gateway.tracer.spans(trace_id)
        names = {r["name"] for r in records}
        assert "http.request" in names
        assert "service.batch" in names
        root = next(r for r in records if r["name"] == "http.request")
        assert root["parent_id"] == "1234567890abcdef"
        _assert_well_formed(
            [dict(r, parent_id=None)
             if r["parent_id"] == "1234567890abcdef" else r
             for r in records])

    def test_debug_traces_chrome(self, traced_server):
        port = traced_server.port
        _http(port, "POST", "/v1/query/delta", {"q": [0.25, 0.25]})
        status, doc, _, _ = _http(port, "GET", "/debug/traces")
        assert status == 200
        assert doc["traceEvents"], "trace store export is empty"
        assert doc["metadata"]["spans"] == len(doc["traceEvents"])
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_debug_traces_jsonl_and_filter(self, traced_server):
        port = traced_server.port
        _, _, _, hdrs = _http(port, "POST", "/v1/query/delta",
                              {"q": [0.75, 0.75]})
        rid = hdrs["x-request-id"]
        status, _, raw, _ = _http(
            port, "GET", f"/debug/traces?format=jsonl&trace_id={rid}")
        assert status == 200
        records = [json.loads(line) for line in raw.splitlines() if line]
        assert all(r["trace_id"] == rid for r in records)
        # A single is one pass through the service's scalar front door.
        assert {r["name"] for r in records} >= {
            "http.request", "service.query", "service.cache",
            "coalesce.wait", "coalesce.flush", "service.execute"}
        status, _, _, _ = _http(port, "GET", "/debug/traces?format=xml")
        assert status == 400

    def test_debug_slow(self, traced_server):
        port = traced_server.port
        _http(port, "POST", "/v1/query/delta", {"q": [0.1, 0.9]})
        status, doc, _, _ = _http(port, "GET", "/debug/slow")
        assert status == 200
        assert doc["slow_ms"] == 0.0
        assert doc["total"] >= 1
        assert doc["requests"][-1]["slow"] is True
        assert doc["requests"][-1]["cache_hit"] is False
        assert "service.query" in doc["requests"][-1]["stages_ms"]

    def test_metrics_families(self, traced_server):
        port = traced_server.port
        _http(port, "POST", "/v1/query/delta", {"q": [0.3, 0.7]})
        status, _, raw, _ = _http(port, "GET", "/metrics")
        assert status == 200
        for family in ("repro_stage_duration_seconds",
                       "repro_trace_spans_total",
                       "repro_trace_sampled",
                       "repro_slow_requests_total",
                       "repro_engine_events_total",
                       "repro_cache_kind_evictions_total"):
            assert family in raw, f"/metrics is missing {family}"
        assert 'stage="http.request"' in raw


class TestPrometheusRendering:
    def test_render_without_traffic(self):
        index = _index(6)
        with index.serve(workers=0, trace=True) as service:
            gateway = QueryGateway(service, HttpConfig(port=0))
            text = service.registry.render()
            assert "repro_trace_sampled 1.0" in text
            assert "repro_slow_requests_total 0" in text
            asyncio.run(gateway.shutdown())

    def test_disabled_tracing_renders_zero_sample(self):
        index = _index(6)
        with index.serve(workers=0) as service:
            gateway = QueryGateway(service, HttpConfig(port=0))
            text = service.registry.render()
            assert "repro_trace_sampled 0" in text
            asyncio.run(gateway.shutdown())
