"""The wire codec (:mod:`repro.serving.wire`) and where encoding runs.

A bulk reply is encoded where it is computed: shard workers return JSON
fragments, the parent joins them and the gateway frames them on its
pool thread.  The contract is that none of this changes a byte: every
reply equals ``json.dumps(doc, allow_nan=False)`` of the document the
gateway has always answered with.  These tests pin that for all seven
kinds at sizes that take the row cache, the direct engine call and the
sharded path, on every rung; pin that a non-finite answer fails
closed as a 500 without touching the retry ladder; and bound how long
the event loop stalls while a maximum-size bulk is in flight.
"""

import http.client
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.serving import SHARD_METHODS
from repro.serving.executors import LADDER
from repro.serving.http import HttpConfig, ServerThread
from repro.serving.wire import (NonFiniteAnswer, bulk_reply, check_finite,
                                decode_result, encode_result, encode_rows)
from repro.testing.rungs import on_rung, rung_of
from repro.uncertain.discrete import DiscreteUncertainPoint

#: Row counts: the row-cache path, its largest size, and a size that
#: shards (the service below sets ``shard_min_batch`` to it).
SHARD_MIN = 2048
SIZES = (6, 1024, SHARD_MIN)


def old_reply(kind, rows):
    """The bulk body as the gateway wrote it before fragments existed."""
    rows = list(rows) if kind == "delta" else rows
    return json.dumps({"kind": kind, "count": len(rows),
                       "results": [encode_result(kind, r) for r in rows]},
                      allow_nan=False).encode("utf-8")


def oracle(index, kind, q):
    """``PNNIndex.batch_<kind>`` with the gateway's default params."""
    if kind == "top_k":
        return index.batch_top_k(q, k=1)
    if kind == "threshold_nn":
        return index.batch_threshold_nn(q, tau=0.5)
    return getattr(index, f"batch_{kind}")(q)


def _queries(m, seed=99):
    return np.random.default_rng(seed).uniform(-2.0, 8.0, (m, 2))


class _Client:
    """One keep-alive connection to a loopback server."""

    def __init__(self, port, timeout=60.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def request(self, method, path, doc=None):
        body = json.dumps(doc) if doc is not None else None
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": "application/json"}
                          if body else {})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self):
        self.conn.close()


def _wait_ready(port):
    client = _Client(port)
    try:
        for _ in range(1500):
            if client.request("GET", "/healthz")[0] == 200:
                return
            time.sleep(0.02)
    finally:
        client.close()
    raise AssertionError("/healthz never reached 200")


def _resilience(service):
    return {name: c.get() for name, c in service.resilience.items()}


# ----------------------------------------------------------------------
# The codec functions.
# ----------------------------------------------------------------------
class TestFragments:
    def test_fragment_is_the_inside_of_the_results_array(self):
        rows = [{0: 0.25, 7: 0.75}, {3: 1.0}]
        assert encode_rows("quantify_exact", rows) == \
            b'{"0": 0.25, "7": 0.75}, {"3": 1.0}'
        assert encode_rows("delta", np.array([0.1 + 0.2])) == \
            b"0.30000000000000004"
        assert encode_rows("nonzero_nn", []) == b""

    def test_bulk_reply_frames_byte_identically(self):
        rows = [[1, 4], [2]]
        assert bulk_reply("nonzero_nn", 2,
                          encode_rows("nonzero_nn", rows)) \
            == old_reply("nonzero_nn", rows)
        assert bulk_reply("delta", 0, b"") == old_reply("delta", [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_caught_in_the_parent(self, value):
        rows = [{0: 1.0}, {0: 0.5, 2: value}]
        fragment = encode_rows("quantify", rows)  # workers never raise
        with pytest.raises(NonFiniteAnswer, match="row 1") as err:
            check_finite("quantify", fragment)
        assert repr(value) in str(err.value)

    def test_threshold_field_names_never_read_as_non_finite(self):
        from repro.quantification.threshold import ThresholdResult

        row = ThresholdResult(0.5, 0.125, [1], [2, 3])
        check_finite("threshold_nn", encode_rows("threshold_nn", [row]))
        assert decode_result("threshold_nn", json.loads(
            encode_rows("threshold_nn", [row]))) == row


# ----------------------------------------------------------------------
# Byte identity over HTTP: every kind x size x rung.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
    # Built before serving, so process workers attach its plane and
    # quantify_vpr shards (and encodes) there too.
    index.cached_vpr()
    want = {}
    for m in SIZES:
        q = _queries(m, seed=m)
        for kind in SHARD_METHODS:
            want[kind, m] = old_reply(kind, oracle(index, kind, q))
    return index, want


@pytest.mark.parametrize("rung", LADDER)
def test_bulk_replies_are_byte_identical(fleet, rung):
    index, want = fleet
    with on_rung(rung) as workers:
        service = index.serve(workers=workers, shard_min_batch=SHARD_MIN,
                              cache_capacity=4096)
    with service, ServerThread(service, HttpConfig(port=0)) as server:
        _wait_ready(server.port)
        client = _Client(server.port)
        try:
            for m in SIZES:
                body = {"queries": _queries(m, seed=m).tolist()}
                for kind in SHARD_METHODS:
                    status, raw = client.request(
                        "POST", f"/v1/query/{kind}", body)
                    assert status == 200, raw[:300]
                    assert raw == want[kind, m], (kind, m)
        finally:
            client.close()
        sharded = {k: service.sharded.get(k) for k in SHARD_METHODS}
    assert rung_of(service) == rung
    # On the pool rungs the largest size really took the worker-encoded
    # path; inline encodes unsharded.
    assert all(sharded.values()) == (rung != "inline"), sharded


_sites = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                            st.integers(1, 4)),
                  min_size=1, max_size=3)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleet=st.lists(_sites, min_size=1, max_size=4),
       queries=st.lists(st.tuples(st.integers(-20, 20),
                                  st.integers(-20, 20)),
                        min_size=0, max_size=12),
       cached=st.booleans())
def test_service_fragments_property(fleet, queries, cached):
    """On small random indexes (one point, coincident sites and all),
    the framed fragment equals the old reply for every kind."""
    points = [DiscreteUncertainPoint([(x / 2, y / 2) for x, y, _ in sites],
                                     [w for _, _, w in sites])
              for sites in fleet]
    index = PNNIndex(points)
    q = np.array([(x / 4, y / 4) for x, y in queries],
                 dtype=np.float64).reshape(-1, 2)
    with index.serve(workers=0,
                     cache_capacity=64 if cached else 0) as service:
        for kind in SHARD_METHODS:
            params = {"k": 2} if kind == "top_k" else {}
            fragment = service.batch_encoded(kind, q, **params)
            rows = (index.batch_top_k(q, k=2) if kind == "top_k"
                    else oracle(index, kind, q))
            assert bulk_reply(kind, len(q), fragment) == \
                old_reply(kind, rows), kind


# ----------------------------------------------------------------------
# A non-finite answer: a 500 naming the value, outside the retry ladder.
# ----------------------------------------------------------------------
def _nan_delta(original):
    def batch_delta(self, queries):
        out = np.array(original(self, queries), dtype=np.float64)
        if len(out) > 3:
            out[3] = math.nan
        return out
    return batch_delta


@pytest.mark.parametrize("rung", LADDER)
def test_non_finite_answer_is_a_500(monkeypatch, rung):
    # Patched on the class before the pool forks, so process workers answer
    # with the NaN too.
    monkeypatch.setattr(PNNIndex, "batch_delta",
                        _nan_delta(PNNIndex.batch_delta))
    index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
    with on_rung(rung) as workers:
        service = index.serve(workers=workers, shard_min_batch=64,
                              cache_capacity=0)
    with service, ServerThread(service, HttpConfig(
            port=0, warm_kinds=("nonzero_nn",))) as server:
        if rung == "process" and service.executor.start_method != "fork":
            pytest.skip("process workers do not inherit the patch here")
        _wait_ready(server.port)
        before = _resilience(service)
        client = _Client(server.port)
        try:
            for extra in ({}, {"timeout_ms": 60_000}):
                status, raw = client.request(
                    "POST", "/v1/query/delta",
                    dict(queries=_queries(300).tolist(), **extra))
                assert status == 500, raw[:300]
                error = json.loads(raw)["error"]
                assert "non-finite" in error and "nan" in error
                assert "row 3" in error
            # The connection stays usable after the 500s.
            status, raw = client.request("POST", "/v1/query/nonzero_nn",
                                         {"queries": [[0.5, 0.5]]})
            assert status == 200, raw
        finally:
            client.close()
        assert rung_of(service) == rung
        assert _resilience(service) == before
        assert not any(before.values())


# ----------------------------------------------------------------------
# The event loop stays responsive while a max-size bulk is in flight.
# ----------------------------------------------------------------------
#: Largest /healthz round trip allowed while a 100,000-row
#: quantify_exact bulk (an 18.6 MB reply) runs on a 2-worker process
#: service.  Measured on a 2-vCPU container: 56-98 ms worst case with
#: worker-side encoding (the reply write is what is left on the loop),
#: 1.0-1.4 s when the loop encoded the reply itself.
HEALTHZ_BOUND_S = 0.5


def test_healthz_answers_during_a_max_size_bulk():
    index = PNNIndex(random_discrete_points(40, 3, seed=7, spread=2.0))
    service = index.serve(workers=2, cache_capacity=0)
    config = HttpConfig(port=0, warm_kinds=("quantify_exact",))
    rows = config.max_bulk_rows
    body = json.dumps(
        {"queries": _queries(rows, seed=5).tolist()}).encode()
    with service, ServerThread(service, config) as server:
        _wait_ready(server.port)
        gateway = server.gateway
        reply = {}

        def bulk():
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=120)
            try:
                conn.request("POST", "/v1/query/quantify_exact", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                reply["status"], reply["body"] = resp.status, resp.read()
            finally:
                conn.close()

        sender = threading.Thread(target=bulk)
        sender.start()
        deadline = time.monotonic() + 60
        while gateway._inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert gateway._inflight == 1, "the bulk was never admitted"
        probe = _Client(server.port)
        worst, probes = 0.0, 0
        try:
            while sender.is_alive():
                t0 = time.perf_counter()
                status, _ = probe.request("GET", "/healthz")
                worst = max(worst, time.perf_counter() - t0)
                probes += 1
                assert status == 200
                time.sleep(0.005)
        finally:
            probe.close()
            sender.join(timeout=120)
    assert reply["status"] == 200
    doc = json.loads(reply["body"])
    assert doc["count"] == rows
    assert probes >= 5
    assert worst < HEALTHZ_BOUND_S, (
        f"/healthz took {worst * 1e3:.0f} ms during the bulk")
