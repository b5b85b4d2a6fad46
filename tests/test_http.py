"""Tests for ``repro.serving.http``: the async HTTP front door.

The front door's contract is threefold: every endpoint returns exactly
what the in-process :class:`QueryService` call would (bitwise, floats
included — JSON round-trips float64 exactly), saturation degrades into
prompt 429 shedding instead of unbounded queueing, and the
observability surfaces (``/healthz``, ``/metrics``) stay well-formed in
every state.  These tests drive the real stdlib asyncio server over a
loopback socket plus the ASGI adapter in-process, and pin the
validation edges (bad JSON, bad params, unknown kinds, oversized
bodies) the issue calls out.
"""

import json
import threading
import time

import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.quantification.threshold import ThresholdResult
from repro.serving import SHARD_METHODS
from repro.serving.http import (
    HttpConfig,
    QueryGateway,
    ServerThread,
    decode_result,
    encode_result,
)
from repro.serving import smoke
from repro.testing.rungs import on_rung


def _http(port, method, path, doc=None, timeout=30.0):
    """One request against the loopback server: (status, parsed, raw)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(doc) if doc is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"}
                     if body else {})
        resp = conn.getresponse()
        raw = resp.read().decode("utf-8")
        parsed = None
        if resp.headers.get_content_type() == "application/json":
            parsed = json.loads(raw)
        return resp.status, parsed, raw
    finally:
        conn.close()


def _wait_ready(port, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, _ = _http(port, "GET", "/healthz")
        if status == 200:
            return
        time.sleep(0.02)
    raise AssertionError("/healthz never reached 200")


@pytest.fixture(scope="module")
def service():
    # A small discrete fleet keeps all seven kinds answerable (the V_Pr
    # arrangement build is quartic in instance count) within test time.
    index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
    with index.serve(workers=0, max_batch=32, cache_capacity=2048) as svc:
        yield svc


@pytest.fixture()
def own_service():
    """A service of the same fleet with no gateway on it: a service has
    one live gateway at a time, and ``server`` holds ``service``'s."""
    index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
    with index.serve(workers=0, cache_capacity=2048) as svc:
        yield svc


@pytest.fixture(scope="module")
def server(service):
    config = HttpConfig(port=0, max_inflight=2, max_pending=2,
                        warm_kinds=("delta", "nonzero_nn"))
    with ServerThread(service, config) as srv:
        _wait_ready(srv.port)
        yield srv


def _query_points(m=5, seed=99):
    import random

    rng = random.Random(seed)
    return [(rng.uniform(-2.0, 8.0), rng.uniform(-2.0, 8.0))
            for _ in range(m)]


class TestEndpointParity:
    """HTTP answers == in-process answers, bitwise, for every kind."""

    @pytest.mark.parametrize("kind", SHARD_METHODS)
    def test_single_point(self, service, server, kind):
        q = _query_points(1)[0]
        expected = service.query(kind, q)
        status, doc, _ = _http(server.port, "POST", f"/v1/query/{kind}",
                               {"q": list(q)})
        assert status == 200
        assert doc["kind"] == kind
        assert decode_result(kind, doc["result"]) == expected
        # The JSON representation itself is exact too.
        assert doc["result"] == encode_result(kind, expected)

    @pytest.mark.parametrize("kind", SHARD_METHODS)
    def test_bulk_array(self, service, server, kind):
        qs = _query_points(6)
        expected = service.batch(kind, qs)
        rows = list(expected) if kind == "delta" else expected
        status, doc, _ = _http(server.port, "POST", f"/v1/query/{kind}",
                               {"queries": [list(q) for q in qs]})
        assert status == 200
        assert doc["count"] == len(qs)
        got = [decode_result(kind, r) for r in doc["results"]]
        assert got == [decode_result(kind, encode_result(kind, r))
                       for r in rows]
        assert doc["results"] == [encode_result(kind, r) for r in rows]

    def test_params_forwarded(self, service, server):
        q = _query_points(1, seed=5)[0]
        expected = service.query("top_k", q, k=2, method="exact")
        status, doc, _ = _http(
            server.port, "POST", "/v1/query/top_k",
            {"q": list(q), "params": {"k": 2, "method": "exact"}})
        assert status == 200
        assert decode_result("top_k", doc["result"]) == expected

    def test_threshold_result_round_trip(self):
        res = ThresholdResult(0.3, 0.1, [1, 4], [2])
        encoded = encode_result("threshold_nn", res)
        assert decode_result(
            "threshold_nn", json.loads(json.dumps(encoded))) == res

    def test_float_codec_is_bitwise(self):
        # Awkward float64s survive encode -> JSON -> decode exactly.
        vals = [0.1 + 0.2, 1e-17, 2.0 ** -1074, 1.7976931348623157e308]
        for v in vals:
            enc = encode_result("delta", v)
            assert decode_result("delta",
                                 json.loads(json.dumps(enc))) == v


class TestValidation:
    def test_unknown_kind_404(self, server):
        status, doc, _ = _http(server.port, "POST", "/v1/query/nope",
                               {"q": [0, 0]})
        assert status == 404
        assert set(doc["kinds"]) == set(SHARD_METHODS)

    def test_unknown_param_400(self, server):
        status, doc, _ = _http(server.port, "POST", "/v1/query/delta",
                               {"q": [0, 0], "params": {"bogus": 1}})
        assert status == 400 and "bogus" in doc["error"]

    def test_bad_json_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/query/delta", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_missing_and_double_payload_400(self, server):
        status, _, _ = _http(server.port, "POST", "/v1/query/delta", {})
        assert status == 400
        status, _, _ = _http(server.port, "POST", "/v1/query/delta",
                             {"q": [0, 0], "queries": [[0, 0]]})
        assert status == 400

    @pytest.mark.parametrize("length", ["abc", "1e3", "-5"])
    def test_malformed_content_length_400(self, server, length):
        """A Content-Length that is not a decimal byte count answers 400
        and closes the connection, like a malformed request line."""
        import socket

        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/query/delta HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: %s\r\n\r\n{}" % length.encode())
            reply = b""
            while True:
                data = sock.recv(4096)
                if not data:
                    break
                reply += data
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert b"Connection: close" in head.split(b"\r\n")
        assert json.loads(body) == {"error": "malformed Content-Length"}

    def test_malformed_point_400(self, server):
        for bad in ([0], [0, 1, 2], ["x", "y"], [True, False], "nope"):
            status, _, _ = _http(server.port, "POST", "/v1/query/delta",
                                 {"q": bad})
            assert status == 400, bad

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_point_400(self, server, bad):
        """json.loads accepts NaN/Infinity literals; single and bulk
        requests carrying them must answer 400, naming the bulk row."""
        import http.client

        for kind in ("nonzero_nn", "quantify_exact", "top_k"):
            for body, where in ((f'{{"q": [{bad}, 1.0]}}', None),
                                (f'{{"queries": [[0, 0], [1.0, {bad}]]}}',
                                 "queries[1]")):
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=30)
                try:
                    conn.request("POST", f"/v1/query/{kind}", body=body,
                                 headers={"Content-Type":
                                          "application/json"})
                    resp = conn.getresponse()
                    doc = json.loads(resp.read().decode("utf-8"))
                finally:
                    conn.close()
                assert resp.status == 400, (kind, body)
                assert "finite" in doc["error"]
                if where:
                    assert where in doc["error"]
        # The server keeps answering well-formed requests afterwards.
        status, doc, _ = _http(server.port, "POST",
                               "/v1/query/quantify_exact", {"q": [0.5, 0.5]})
        assert status == 200 and doc["result"]

    @pytest.mark.parametrize("kind,params,name", [
        ("top_k", '{"k": 1.5}', "k"),
        ("top_k", '{"k": "3"}', "k"),
        ("top_k", '{"k": 0}', "k"),
        ("top_k", '{"k": -2}', "k"),
        ("top_k", '{"k": NaN}', "k"),
        ("quantify", '{"seed": "x"}', "seed"),
        ("quantify", '{"seed": NaN}', "seed"),
    ])
    def test_bad_int_param_400(self, server, kind, params, name):
        """Non-integer ``k``/``seed`` answer 400 naming the parameter —
        never a 500 from inside an engine, never an empty answer."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", f"/v1/query/{kind}",
                         body=f'{{"q": [0.5, 0.5], "params": {params}}}',
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()
        assert resp.status == 400, params
        assert name in doc["error"]

    @pytest.mark.parametrize("body,where", [
        ("NaN", "top level"),
        ('{"q": [0.5, 0.5], "timeout_ms": Infinity}', "timeout_ms"),
        ('{"q": [0.5, 0.5], "params": {"k": -Infinity}}', "params.k"),
        ('{"queries": [[0, 0], [1.0, NaN]]}', "queries[1][1]"),
    ])
    def test_non_standard_json_constants_400(self, server, body, where):
        """Request JSON is parsed strictly: NaN/Infinity are not JSON."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/query/top_k", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()
        assert resp.status == 400
        assert doc["error"].startswith("invalid JSON body:")
        assert where in doc["error"]

    def test_wrong_verb_405(self, server):
        assert _http(server.port, "GET", "/v1/query/delta")[0] == 405
        assert _http(server.port, "POST", "/metrics", {})[0] == 405
        assert _http(server.port, "POST", "/healthz", {})[0] == 405

    def test_unrouted_path_404(self, server):
        assert _http(server.port, "GET", "/nope")[0] == 404

    def test_bulk_rows_cap_413(self, own_service):
        config = HttpConfig(port=0, max_bulk_rows=4)
        with ServerThread(own_service, config) as srv:
            _wait_ready(srv.port)
            status, doc, _ = _http(
                srv.port, "POST", "/v1/query/delta",
                {"queries": [[0.0, 0.0]] * 5})
            assert status == 413 and "capped" in doc["error"]
            assert _http(srv.port, "POST", "/v1/query/delta",
                         {"queries": [[0.0, 0.0]] * 4})[0] == 200

    def test_index_page(self, server):
        status, doc, _ = _http(server.port, "GET", "/")
        assert status == 200
        assert set(doc["kinds"]) == set(SHARD_METHODS)


class TestAdmissionControl:
    def test_429_when_saturated_then_drains(self, server):
        """Block the engine, fill slots + queue, probe -> 429; queued
        requests still complete once the engine unblocks."""
        gateway = server.gateway
        cfg = gateway.config
        gate = threading.Event()
        original = gateway._run_bulk

        def held(kind, rows, params, deadline=None):
            gate.wait(timeout=30)
            return original(kind, rows, params, deadline)

        gateway._run_bulk = held
        results = []

        def fire():
            results.append(_http(server.port, "POST", "/v1/query/delta",
                                 {"queries": [[0.0, 0.0]]}))

        threads = [threading.Thread(target=fire) for _ in
                   range(cfg.max_inflight + cfg.max_pending)]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if (gateway._inflight >= cfg.max_inflight
                        and gateway._pending >= cfg.max_pending):
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("admission gauges never saturated")
            shed_before = gateway.shed_total.total()
            status, doc, _ = _http(server.port, "POST", "/v1/query/delta",
                                   {"queries": [[0.0, 0.0]]})
            assert status == 429 and doc["shed"] is True
            assert gateway.shed_total.total() == shed_before + 1
        finally:
            gate.set()
            for t in threads:
                t.join(timeout=30)
            gateway._run_bulk = original
        # Every admitted (held) request completed normally.
        assert [s for s, _, _ in results] == [200] * len(threads)
        assert gateway._inflight == 0 and gateway._pending == 0

    def test_429_carries_retry_after(self, server):
        import http.client

        gateway = server.gateway
        gate = threading.Event()
        original = gateway._run_bulk
        gateway._run_bulk = lambda k, r, p, d=None: (gate.wait(30),
                                                     original(k, r, p, d))[1]
        threads = [threading.Thread(
            target=lambda: _http(server.port, "POST", "/v1/query/delta",
                                 {"queries": [[0.0, 0.0]]}))
            for _ in range(gateway.config.max_inflight
                           + gateway.config.max_pending)]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while (time.monotonic() < deadline
                   and gateway._pending < gateway.config.max_pending):
                time.sleep(0.01)
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            try:
                conn.request("POST", "/v1/query/delta",
                             body=json.dumps({"queries": [[0.0, 0.0]]}),
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 429
                assert resp.headers["Retry-After"] is not None
            finally:
                conn.close()
        finally:
            gate.set()
            for t in threads:
                t.join(timeout=30)
            gateway._run_bulk = original


class TestObservability:
    def test_metrics_well_formed(self, server):
        # Generate a little traffic first.
        _http(server.port, "POST", "/v1/query/delta", {"q": [0.0, 0.0]})
        status, _, raw = _http(server.port, "GET", "/metrics")
        assert status == 200
        lines = raw.strip().split("\n")
        helped, typed = set(), {}
        for line in lines:
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                typed[line.split()[2]] = line.split()[3]
            else:
                # Every sample line: name{labels} value | name value,
                # value parseable as float.
                name = line.split("{")[0].split()[0]
                float(line.rsplit(" ", 1)[1])
                base = name
                for suffix in ("_count", "_sum"):
                    if name.endswith(suffix) and \
                            name[:-len(suffix)] in typed:
                        base = name[:-len(suffix)]
                assert base in typed, f"sample {name} missing # TYPE"
        assert helped == set(typed), "HELP/TYPE pairs must match"
        for family in ("repro_ready", "repro_http_inflight",
                       "repro_http_pending", "repro_http_requests_total",
                       "repro_http_shed_total",
                       "repro_http_request_latency_seconds",
                       "repro_service_latency_seconds",
                       "repro_service_requests_total"):
            assert family in typed, family
        assert typed["repro_http_requests_total"] == "counter"
        assert typed["repro_http_request_latency_seconds"] == "summary"
        assert 'kind="delta"' in raw and 'quantile="0.99"' in raw
        # Every kind is pre-registered: series exist even when never hit.
        for kind in SHARD_METHODS:
            assert f'repro_http_shed_total{{kind="{kind}"}}' in raw

    def test_requests_total_counts_by_code(self, server):
        before = server.gateway.requests_total.snapshot()
        _http(server.port, "POST", "/v1/query/delta", {"q": [0.5, 0.5]})
        _http(server.port, "POST", "/v1/query/delta",
              {"q": [0.5, 0.5], "params": {"bogus": 1}})
        after = server.gateway.requests_total.snapshot()
        assert after[("delta", "200")] == before.get(("delta", "200"), 0) + 1
        assert after[("delta", "400")] == before.get(("delta", "400"), 0) + 1

    def test_healthz_gates_on_warmup(self, own_service):
        """503 while warm-up is held, 200 after it completes."""
        gate = threading.Event()
        config = HttpConfig(port=0, warm_kinds=("delta",))
        srv = ServerThread(own_service, config)
        original = srv.gateway._warm
        srv.gateway._warm = lambda: (gate.wait(30), original())[1]
        try:
            srv.start()
            status, doc, _ = _http(srv.port, "GET", "/healthz")
            assert status == 503 and doc["status"] == "warming"
            gate.set()
            _wait_ready(srv.port)
            status, doc, _ = _http(srv.port, "GET", "/healthz")
            assert status == 200 and doc["status"] == "ok"
        finally:
            gate.set()
            srv.stop()

    def test_healthz_reports_warm_failure(self, own_service):
        config = HttpConfig(port=0)
        srv = ServerThread(own_service, config)

        def boom():
            raise RuntimeError("cold start exploded")

        srv.gateway._warm = boom
        try:
            srv.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, doc, _ = _http(srv.port, "GET", "/healthz")
                if doc["status"] == "warmup-failed":
                    break
                time.sleep(0.02)
            assert status == 503
            assert "cold start exploded" in doc["error"]
        finally:
            srv.stop()


class TestOneGatewayPerService:
    def test_second_live_gateway_refused_until_shutdown(self, own_service):
        import asyncio

        first = QueryGateway(own_service, HttpConfig(port=0))
        families = own_service.registry.families()
        with pytest.raises(RuntimeError, match="live gateway"):
            QueryGateway(own_service, HttpConfig(port=0))
        # The refused gateway left the first one's families in place.
        assert own_service.registry.families() == families
        assert own_service.gateway is first
        asyncio.run(first.shutdown())
        second = QueryGateway(own_service, HttpConfig(port=0))
        assert own_service.gateway is second
        asyncio.run(second.shutdown())
        assert own_service.gateway is None

    def test_sequential_servers_share_a_service(self, own_service):
        for _ in range(2):
            with ServerThread(own_service, HttpConfig(port=0)) as srv:
                _wait_ready(srv.port)
                assert own_service.gateway is srv.gateway
                requests = srv.gateway.requests_total
                _http(srv.port, "POST", "/v1/query/delta", {"q": [1, 1]})
                assert requests.get(("delta", 200)) == 1
        assert own_service.gateway is None

    def test_unstarted_gateway_raises_under_optimize(self):
        """``python -O`` strips asserts; running a request on a gateway
        whose startup() was never awaited must still raise."""
        import os
        import subprocess
        import sys

        code = ("import asyncio\n"
                "from repro.core.index import PNNIndex\n"
                "from repro.core.workloads import random_discrete_points\n"
                "from repro.serving.http import QueryGateway\n"
                "index = PNNIndex(random_discrete_points(4, 2, seed=1))\n"
                "with index.serve(workers=0) as service:\n"
                "    gateway = QueryGateway(service)\n"
                "    try:\n"
                "        asyncio.run(gateway._admit_and_run(\n"
                "            'delta', lambda: None))\n"
                "    except RuntimeError as exc:\n"
                "        print('RuntimeError:', exc)\n"
                "    asyncio.run(gateway.shutdown())\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == \
            "RuntimeError: gateway.startup() was not awaited"


class TestHttpConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("max_inflight", 0), ("max_pending", -1), ("max_bulk_rows", 0),
        ("max_body_bytes", 0), ("keep_alive_timeout", 0.0)])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HttpConfig(**{field: value})

    def test_unknown_warm_kind_rejected(self):
        with pytest.raises(ValueError, match="warm_kinds"):
            HttpConfig(warm_kinds=("delta", "nope"))

    def test_zero_pending_is_valid(self):
        assert HttpConfig(max_pending=0).max_pending == 0


class TestSmoke:
    """``python -m repro smoke``: every scenario over a real socket, on
    the process rung and on a host where no process pool starts."""

    @pytest.mark.parametrize("rung,checks", [
        ("process", 95),   # http + chaos + plane
        ("thread", 80),    # http + chaos; plane skipped
    ])
    def test_driver_passes(self, rung, checks, tmp_path):
        lines = []
        with on_rung(rung):
            assert smoke.run(out=str(tmp_path), log=lines.append) == 0
        assert lines[-1] == f"smoke: {checks} checks, all passed"
        assert not [line for line in lines if line.startswith("FAIL")]
        assert f"executor: {rung}, 2 workers" in lines
        saved = {"http-metrics.txt", "chaos-metrics.txt", "http-trace.json"}
        if rung == "process":
            saved.add("plane-metrics.txt")
        else:
            assert ("plane: skipped on thread (only process workers "
                    "attach the plane)") in lines
        assert {p.name for p in tmp_path.iterdir()} == saved

    def test_failed_check_exits_1(self, monkeypatch):
        real = smoke._family
        monkeypatch.setattr(
            smoke, "_family", lambda series, name: 0.0
            if name == "repro_http_shed_total" else real(series, name))
        monkeypatch.setattr(smoke, "SCENARIOS", smoke.SCENARIOS[:1])
        lines = []
        with on_rung("thread"):
            assert smoke.run(log=lines.append) == 1
        assert [line for line in lines if line.startswith("FAIL")] == \
            ["FAIL /metrics lacks request/shed counts or p99 quantiles"]
        assert lines[-1] == "smoke: 1 of 56 checks FAILED"
