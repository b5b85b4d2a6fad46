"""The query input domain: fail closed outside it, keep the paper's
invariants everywhere inside it.

An index answers queries that are finite, within ``|coord| <= 2**500``
(``dx*dx`` stays finite) and within ``2**30`` extents of its support box
(beyond ~1e12 extents site-to-site differences round away: ``Σπ`` drifts
below 1 and ``NN≠0`` comes back empty, contradicting Lemma 2.1).  Every
front door — the index, the service and HTTP, single and bulk — rejects
anything else with ``ValueError`` / 400 naming the rows.
"""

import json
import math

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, random_disks
from repro.serving.http import QueryGateway, ServerThread
from repro.serving.smoke import _http_json
from repro.spatial.batch import (ABSOLUTE_WINDOW, EXTENT_REACH, MAX_COORD,
                                 check_query_domain, query_window)
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.uncertain.disk_uniform import DiskUniformPoint

FAR = [1e16, 1e300]


def _discrete():
    return PNNIndex(random_discrete_points(20, 3, seed=1, spread=2.0))


def _disks():
    disks = random_disks(20, seed=3, extent=10.0, r_min=0.1, r_max=0.4)
    return PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks])


def _tiny():
    """The discrete fleet shrunk to a ~1e-5-wide cloud away from 0."""
    pts = random_discrete_points(20, 3, seed=1, spread=2.0)
    return PNNIndex([DiscreteUncertainPoint(
        [(5.0 + x * 1e-6, -3.0 + y * 1e-6) for x, y in p.points], p.weights)
        for p in pts])


def _edge_queries(index):
    """The window's corners and edge midpoints: just inside the bound."""
    lo_x, lo_y, hi_x, hi_y = index.query_window
    mx, my = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
    return [(lo_x, lo_y), (hi_x, hi_y), (lo_x, hi_y), (hi_x, lo_y),
            (mx, hi_y), (lo_x, my)]


class TestWindow:
    def test_window_is_the_support_box_grown_by_the_reach(self):
        index = _discrete()
        xmin = min(d.cx - d.r for d in index._supports)
        ymax = max(d.cy + d.r for d in index._supports)
        extent = max(max(d.cx + d.r for d in index._supports) - xmin,
                     ymax - min(d.cy - d.r for d in index._supports))
        lo_x, _, _, hi_y = index.query_window
        assert lo_x == xmin - EXTENT_REACH * extent
        assert hi_y == ymax + EXTENT_REACH * extent

    @pytest.mark.parametrize("scale,shift", [(1e-3, 0.0), (1e3, 0.0),
                                             (1.0, 1e6)])
    def test_window_moves_with_the_index(self, scale, shift):
        """Scaling or translating the index moves the bound with it."""
        pts = random_discrete_points(20, 3, seed=1, spread=2.0)
        index = PNNIndex([DiscreteUncertainPoint(
            [(shift + x * scale, shift + y * scale) for x, y in p.points],
            p.weights) for p in pts])
        _, _, hi_x, _ = index.query_window
        extent = (hi_x - shift) / (EXTENT_REACH + 1.0)  # ~ box side
        inside = (shift + extent * 2.0 ** 29, shift)
        assert index.nonzero_nn(inside)
        row = index.batch_quantify_exact([inside])[0]
        assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9)
        with pytest.raises(ValueError, match="domain"):
            index.nonzero_nn((shift + extent * 2.0 ** 31, shift))

    def test_zero_extent_keeps_only_the_absolute_bound(self):
        assert query_window(2.0, 3.0, 2.0, 3.0) == ABSOLUTE_WINDOW
        index = PNNIndex([DiscreteUncertainPoint([(2.0, 3.0)], [1.0])])
        assert index.query_window == ABSOLUTE_WINDOW
        assert index.batch_nonzero_nn([(1e100, -1e100)]) == [[0]]
        assert index.nonzero_nn((MAX_COORD, -MAX_COORD)) == [0]
        with pytest.raises(ValueError, match="domain"):
            index.nonzero_nn((2 * MAX_COORD, 0.0))

    def test_huge_extent_is_clipped_to_the_absolute_bound(self):
        assert query_window(-1e200, 0.0, 1e200, 1.0) == ABSOLUTE_WINDOW

    def test_check_names_rows_and_points(self):
        window = query_window(0.0, 0.0, 1.0, 1.0)
        good = np.array([[0.5, 0.5], [-1e8, 1e8]])
        check_query_domain(good, window)
        check_query_domain((0.5, 0.5), window)
        bad = np.array([[0.5, 0.5], [1e16, 0.0], [0.0, math.nan]])
        with pytest.raises(ValueError, match=r"row\(s\) 1, 2: queries\[1\]"):
            check_query_domain(bad, window)
        check_query_domain(np.array([0.5, 0.5]), window)
        for point in [(1e16, 0.0), (math.nan, 0.0), (0.0, -math.inf),
                      np.array([0.0, 1e16])]:
            with pytest.raises(ValueError, match="finite and inside"):
                check_query_domain(point, window)


class TestEngineFailsClosed:
    @pytest.fixture(scope="class")
    def index(self):
        return _discrete()

    @pytest.mark.parametrize("far", FAR)
    def test_batch_front_doors_name_the_rows(self, index, far):
        queries = [(1.0, 1.0), (far, far), (2.0, 2.0), (-far, 0.5)]
        calls = [index.batch_delta, index.batch_nonzero_nn,
                 index.batch_quantify, index.batch_quantify_exact,
                 index.batch_quantify_vpr,
                 lambda q: index.batch_top_k(q, 2),
                 lambda q: index.batch_threshold_nn(q, 0.3)]
        for call in calls:
            with pytest.raises(ValueError,
                               match=r"row\(s\) 1, 3: queries\[1\]"):
                call(queries)

    @pytest.mark.parametrize("far", FAR)
    def test_scalar_front_doors_raise(self, index, far):
        for call in (index.delta, index.nonzero_nn,
                     lambda p: index.quantify(p, method="exact"),
                     index.quantify, index.quantify_vpr,
                     lambda p: index.top_k_nn(p, 2),
                     lambda p: index.threshold_nn(p, 0.3)):
            with pytest.raises(ValueError, match="domain"):
                call((1.0, far))

    @pytest.mark.parametrize("far", FAR)
    def test_service_rejects_before_any_work(self, index, far):
        with index.serve(workers=0, coalesce=True, cache_capacity=16) as svc:
            with pytest.raises(ValueError, match="domain"):
                svc.submit("nonzero_nn", (far, 0.0))
            with pytest.raises(ValueError, match="domain"):
                svc.query("delta", (0.0, far))
            with pytest.raises(ValueError, match=r"queries\[1\]"):
                svc.batch("quantify_exact", [(0.0, 0.0), (far, 0.0)])
            assert svc.stats()["methods"].get(
                "nonzero_nn", {}).get("requests", 0) == 0


class TestInvariantsAtTheBound:
    """Just inside the bound the paper's invariants still hold: Σπ = 1
    and NN≠0(q) is non-empty (Lemma 2.1), batch equal to scalar."""

    @pytest.mark.parametrize("make", [_discrete, _tiny])
    def test_discrete_indexes(self, make):
        index = make()
        queries = _edge_queries(index)
        nn = index.batch_nonzero_nn(queries)
        assert all(nn)
        assert nn == [index.nonzero_nn(q) for q in queries]
        assert np.isfinite(index.batch_delta(queries)).all()
        for row in index.batch_quantify_exact(queries):
            assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9)
            assert set(row) <= set(range(index.n))

    def test_disk_index(self):
        index = _disks()
        queries = _edge_queries(index)
        nn = index.batch_nonzero_nn(queries)
        assert all(nn)
        assert nn == [index.nonzero_nn(q) for q in queries]
        assert np.isfinite(index.batch_delta(queries)).all()
        for row, allowed in zip(
                index.batch_quantify(queries, method="monte_carlo"), nn):
            assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9)
            assert set(row) <= set(allowed)

    def test_one_step_outside_is_rejected(self):
        index = _discrete()
        _, _, hi_x, _ = index.query_window
        outside = float(np.nextafter(hi_x, math.inf))
        with pytest.raises(ValueError, match="domain"):
            index.batch_delta([(outside, 0.0)])


class TestTieTol:
    @pytest.fixture(scope="class")
    def index(self):
        return PNNIndex(random_discrete_points(6, 2, seed=3, spread=2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    def test_engine_and_service_reject(self, index, bad):
        with pytest.raises(ValueError, match="tie_tol"):
            index.batch_quantify_exact([(0.5, 0.5)], tie_tol=bad)
        with index.serve(workers=0, cache_capacity=0) as svc:
            with pytest.raises(ValueError, match="tie_tol"):
                svc.canonicalize("quantify_exact", {"tie_tol": bad})

    def test_valid_values_still_sum_to_one(self, index):
        for tol in (0.0, 1e-12):
            row = index.batch_quantify_exact([(0.5, 0.5)], tie_tol=tol)[0]
            assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9)


def _post_raw(port, kind, body):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", f"/v1/query/{kind}", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


class TestHttpFailsClosed:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.serving.http import HttpConfig

        index = PNNIndex(random_discrete_points(8, 2, seed=5, spread=2.0))
        service = index.serve(workers=0, cache_capacity=64, max_batch=8,
                              flush_window=0.002)
        srv = ServerThread(service, HttpConfig(port=0)).start()
        for _ in range(600):
            if _http_json(srv.port, "GET", "/healthz")[0] == 200:
                break
        yield srv
        srv.stop()
        service.close()

    @pytest.mark.parametrize("far", FAR)
    @pytest.mark.parametrize("kind", ["delta", "nonzero_nn",
                                      "quantify_exact"])
    def test_single_and_bulk_400(self, server, kind, far):
        status, doc, raw, _ = _http_json(server.port, "POST",
                                         f"/v1/query/{kind}",
                                         {"q": [far, 1.0]})
        assert status == 400, raw
        assert "domain" in doc["error"]
        status, doc, raw, _ = _http_json(
            server.port, "POST", f"/v1/query/{kind}",
            {"queries": [[0.0, 0.0], [1.0, 1.0], [1.0, -far]]})
        assert status == 400, raw
        assert "queries[2]" in doc["error"]
        assert "Infinity" not in raw

    def test_bad_single_never_reaches_the_coalescer(self, server):
        batcher = server.gateway.service.batcher
        before = batcher.submitted
        status, _, _, _ = _http_json(server.port, "POST",
                                     "/v1/query/nonzero_nn",
                                     {"q": [1e300, 1e300]})
        assert status == 400
        assert batcher.submitted == before

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1"])
    def test_bad_tie_tol_400(self, server, bad):
        status, doc = _post_raw(
            server.port, "quantify_exact",
            f'{{"q": [0.5, 0.5], "params": {{"tie_tol": {bad}}}}}')
        assert status == 400
        assert "tie_tol" in doc["error"]

    def test_served_answers_stay_inside_the_domain(self, server):
        status, doc, raw, _ = _http_json(server.port, "POST",
                                         "/v1/query/delta",
                                         {"q": [3.0, 3.0]})
        assert status == 200 and math.isfinite(doc["result"])


def test_gateway_json_is_strict():
    with pytest.raises(ValueError):
        QueryGateway._dump({"result": math.inf})
