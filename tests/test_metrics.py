"""Tests for the ``/metrics`` exposition and its registry.

The exposition contract pins the full set of families a traced,
sharded service on the thread rung exports after one request of each
kind: every family's name, Prometheus TYPE and label names.  Dashboards
and alerts key on exactly those, so any change to the set is an
interface change, not a refactor.
"""

import json
import os
import re
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

import repro.quantification.batch_exact as batch_exact
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.obs import metrics
from repro.serving import SHARD_METHODS
from repro.serving.http import HttpConfig, QueryGateway, ServerThread
from repro.spatial.kernels import get_provider, native_available
from repro.testing.rungs import on_rung

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _http(port, method, path, doc=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path,
                     body=json.dumps(doc) if doc is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")
    finally:
        conn.close()


def _families(text):
    """``{family: (TYPE, sorted label-name tuples of its samples)}``.

    A summary's ``_count``/``_sum`` samples belong to their family; a
    family with no samples maps to an empty list.
    """
    typed, labels = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split()
            typed[name] = mtype
            labels[name] = set()
        elif line and not line.startswith("#"):
            name, _, rest = line.partition("{")
            name = name.split()[0]
            names = tuple(sorted(re.findall(r'(\w+)="', rest)))
            for suffix in ("_count", "_sum"):
                if name.endswith(suffix) and name[:-len(suffix)] in typed:
                    name = name[:-len(suffix)]
            labels[name].add(names)
    return {name: (typed[name], sorted(labels[name])) for name in typed}


#: The exposition of a two-worker thread-rung service with tracing
#: on and a result cache, after one single-point request of each kind.
CONTRACT = {
    "repro_backend_degraded": ("gauge", [()]),
    "repro_backend_state": ("gauge", [("backend",)]),
    "repro_breaker_trips_total": ("counter", [()]),
    "repro_cache_entries": ("gauge", [()]),
    "repro_cache_evictions_total": ("counter", [()]),
    "repro_cache_kind_evictions_total": ("counter", []),
    "repro_deadline_exceeded_total": ("counter", [()]),
    "repro_degradations_total": ("counter", [()]),
    "repro_engine_events_total": ("counter", [("event",)]),
    "repro_faults_injected_total": ("counter", [()]),
    "repro_http_client_disconnects_total": ("counter", [()]),
    "repro_http_inflight": ("gauge", [()]),
    "repro_http_pending": ("gauge", [()]),
    "repro_http_request_latency_seconds": (
        "summary", [("kind",), ("kind", "quantile")]),
    "repro_http_requests_total": ("counter", [("code", "kind")]),
    "repro_http_shed_total": ("counter", [("kind",)]),
    "repro_kernel_calls_total": ("counter", [("op", "provider")]),
    "repro_kernel_native_available": ("gauge", [()]),
    "repro_kernel_provider": ("gauge", [("provider",)]),
    "repro_ready": ("gauge", [()]),
    "repro_rebuilds_total": ("counter", [()]),
    "repro_retries_total": ("counter", [()]),
    "repro_service_cache_hits_total": ("counter", [("kind",)]),
    "repro_service_cache_misses_total": ("counter", [("kind",)]),
    "repro_service_failures_total": ("counter", [("kind",)]),
    "repro_service_latency_seconds": (
        "summary", [("kind",), ("kind", "quantile")]),
    "repro_service_requests_total": ("counter", [("kind",)]),
    "repro_slow_requests_total": ("counter", [()]),
    "repro_stage_duration_seconds": (
        "summary", [("quantile", "stage"), ("stage",)]),
    "repro_trace_sampled": ("gauge", [()]),
    "repro_trace_spans_stored": ("gauge", [()]),
    "repro_trace_spans_total": ("counter", [()]),
    "repro_trace_traces_total": ("counter", [()]),
    "repro_vpr_build_seconds": ("gauge", [()]),
    "repro_vpr_built": ("gauge", [()]),
    "repro_vpr_plane_locator": ("gauge", [("kind",)]),
    "repro_vpr_plane_locator_build_seconds": ("gauge", [()]),
    "repro_vpr_plane_locator_bytes": ("gauge", [()]),
    "repro_vpr_plane_locator_entries": ("gauge", [()]),
    "repro_vpr_plane_resident": ("gauge", [()]),
    "repro_worker_failures_total": ("counter", [()]),
}


class TestExpositionContract:
    def test_families_types_and_labels(self):
        index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
        with on_rung("thread") as workers, \
                index.serve(workers=workers, trace=True) as service:
            with ServerThread(service, HttpConfig(port=0)) as srv:
                deadline = time.monotonic() + 30
                while _http(srv.port, "GET", "/healthz")[0] != 200:
                    assert time.monotonic() < deadline, "never ready"
                    time.sleep(0.02)
                for kind in SHARD_METHODS:
                    status, _ = _http(srv.port, "POST", f"/v1/query/{kind}",
                                      {"q": [0.5, 0.5]})
                    assert status == 200, kind
                status, text = _http(srv.port, "GET", "/metrics")
        assert status == 200
        assert _families(text) == CONTRACT


class TestWorkerCounters:
    """Engine and kernel counters count sharded work on every rung:
    process workers ship their per-chunk increments home with
    the chunk result, thread workers count in-process."""

    def test_sharded_bulk_counts_match_across_rungs(self):
        points = random_discrete_points(60, 3, seed=5, spread=2.0)
        queries = np.random.default_rng(1).uniform(-5, 15, size=(4096, 2))
        deltas = {}
        for rung in ("thread", "process"):
            index = PNNIndex(points)
            with on_rung(rung) as workers, \
                    index.serve(workers=workers,
                                cache_capacity=0) as service:
                assert service.executor.mode == rung
                # The parent-side increments the bulk made, worker
                # shipments merged in included.
                _, deltas[rung] = metrics.count_shipped(
                    service.batch, "quantify_exact", queries)
        engine, kernel = deltas["thread"]
        assert engine["exact_sweep.rows_retired"] == len(queries)
        assert engine["exact_sweep.chunks"] > 1  # sharded
        assert sum(n for (_, op), n in kernel.items()
                   if op == "sweep_eq2") == engine["exact_sweep.chunks"]
        assert deltas["process"] == deltas["thread"]

    def test_prefix_widenings_match_across_providers(self):
        """``exact_sweep.prefix_widenings`` counts rows re-swept at a
        wider prefix; every provider selects the same prefixes, so the
        engine counters agree exactly."""
        points = random_discrete_points(200, 5, seed=7, spread=1.0)
        queries = np.random.default_rng(2).uniform(0, 10, size=(512, 2))
        providers = ["numpy"] + (["native"] if native_available() else [])
        deltas = {}
        for name in providers:
            provider = get_provider(name)
            with mock.patch.object(batch_exact, "get_provider",
                                   lambda name="auto": provider):
                _, (deltas[name], _) = metrics.count_shipped(
                    PNNIndex(points).batch_quantify_exact, queries)
        engine = deltas["numpy"]
        assert 0 < engine["exact_sweep.prefix_widenings"] < len(queries)
        assert engine["exact_sweep.rows_retired"] == len(queries)
        for name in providers:
            assert deltas[name] == engine


class TestRegistry:
    def test_render_format(self):
        reg = metrics.Registry()
        hits = reg.counter("repro_hits_total", "Hits.", ("kind", "code"))
        hits.inc(("de\"lta", 200), 3)
        reg.counter("repro_idle_total", "Never bumped.")
        reg.gauge("repro_up", "Up.", fn=lambda: True)
        reg.gauge("repro_absent", "No samples.", fn=lambda: None)
        lat = reg.summary("repro_seconds", "Latency.", ("kind",))
        lat.observe("delta", 0.5)
        lat.observe("delta", 1.5)
        assert reg.render().splitlines() == [
            "# HELP repro_hits_total Hits.",
            "# TYPE repro_hits_total counter",
            'repro_hits_total{kind="de\\"lta",code="200"} 3',
            "# HELP repro_idle_total Never bumped.",
            "# TYPE repro_idle_total counter",
            "repro_idle_total 0",
            "# HELP repro_up Up.",
            "# TYPE repro_up gauge",
            "repro_up 1",
            "# HELP repro_seconds Latency.",
            "# TYPE repro_seconds summary",
            'repro_seconds{kind="delta",quantile="0.5"} 0.5',
            'repro_seconds{kind="delta",quantile="0.9"} 1.5',
            'repro_seconds{kind="delta",quantile="0.99"} 1.5',
            'repro_seconds_count{kind="delta"} 2',
            'repro_seconds_sum{kind="delta"} 2.0',
        ]

    def test_keys_and_reads(self):
        reg = metrics.Registry()
        c = reg.counter("repro_c_total", "C.", ("kind", "code"))
        c.inc(("delta", 499))
        assert c.get(("delta", "499")) == c.get(("delta", 499)) == 1
        assert c.snapshot() == {("delta", "499"): 1}
        with pytest.raises(ValueError, match="labels"):
            c.inc("delta")

    def test_register_replaces_by_name(self):
        reg = metrics.Registry()
        first = reg.counter("repro_c_total", "C.")
        first.inc()
        second = reg.counter("repro_c_total", "C.")
        assert reg.families() == [second]
        assert "repro_c_total 0" in reg.render()

    def test_concurrent_updates_are_not_lost(self):
        reg = metrics.Registry()
        hits = reg.counter("repro_hits_total", "Hits.", ("kind",))
        lat = reg.summary("repro_seconds", "Latency.", ("kind",))
        threads, rounds = 16, 2000

        def work():
            for _ in range(rounds):
                hits.inc("delta")
                lat.observe("delta", 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert hits.get("delta") == threads * rounds
        assert lat.snapshot("delta")["count"] == threads * rounds

    def test_shipped_counts_merge(self):
        before = metrics.ENGINE.get("test.shipped")

        def work():
            metrics.ENGINE.inc("test.shipped", 3)
            return "answer"

        shipped = metrics.count_shipped(work)
        assert metrics.ENGINE.get("test.shipped") == before + 3
        assert metrics.merge_shipped(shipped) == "answer"
        assert metrics.ENGINE.get("test.shipped") == before + 6


def _readme_table():
    """``(name, type, labels, help)`` rows of the README metrics table."""
    with open(README, encoding="utf-8") as fh:
        rows = [line for line in fh if line.startswith("| `repro_")]
    return sorted(tuple(cell.strip().strip("`") for cell in
                        row.strip().strip("|").split("|"))
                  for row in rows)


class TestReadmeTable:
    def test_table_lists_the_registry_families(self):
        index = PNNIndex(random_discrete_points(8, 2, seed=3, spread=2.0))
        with on_rung("thread") as workers, \
                index.serve(workers=workers, trace=True) as service:
            QueryGateway(service, HttpConfig(port=0))
            families = sorted(
                (f.name, f.type, ", ".join(f.labels) or "—", f.help)
                for f in service.registry.families())
        assert _readme_table() == families
