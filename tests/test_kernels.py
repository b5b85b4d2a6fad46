"""Property tests for the pluggable kernel tier (``repro.spatial.kernels``).

The tier's inviolable contract mirrors the executor refactor's: **the
native provider returns bitwise-identical outputs to the NumPy oracle on
every entry point, for every input shape — including exact ties, zero
distances, parallel segments, and empty batches.**  These tests pin that
contract, the one-provider rule (the host's provider — native when it
builds, else NumPy — is the only one any engine, worker or scrape uses),
and end-to-end serving parity of native against the NumPy oracle across
the executor rungs.

Native-dependent cases skip on hosts without a C compiler; the
compiler-less cases simulate such a host via ``REPRO_KERNEL_CC``
pointed at a nonexistent binary (the documented knob).  Engine-level
NumPy runs on a compiler host patch the module-level ``get_provider``
lookups (:func:`on_provider`), as ``perfbench/layers.py`` does.
"""

import contextlib
import json
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.quantification.batch_exact as batch_exact
import repro.spatial.batch as spatial_batch
import repro.spatial.kernels as kernels
import repro.spatial.kernels.build as build
import repro.spatial.planelocate as planelocate
import repro.voronoi.vpr as vpr
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.geometry.segments import bisector_line
from repro.obs.metrics import kernel_counters
from repro.quantification.batch_exact import (_PREFIX_START,
                                              BatchExactQuantifier)
from repro.quantification.exact_discrete import (quantification_vector,
                                                 sweep_quantification)
from repro.serving import SHARD_METHODS
from repro.serving.executors import LADDER
from repro.serving.http import HttpConfig, ServerThread
from repro.serving.service import ServiceConfig
from repro.spatial.kernels import (
    get_provider,
    kernel_status,
    native_available,
)
from repro.spatial.kernels.build import CACHE_ENV, CC_ENV, BuildError
from repro.testing.rungs import on_rung, rung_of
from repro.uncertain.discrete import DiscreteUncertainPoint

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler on this host; the tier degrades to numpy")


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A host without a usable C compiler, with pristine provider caches.

    Points the compiler override at a nonexistent binary and the build
    cache at a throwaway directory, then drops the module-level provider
    caches so resolution re-runs under the patched environment — and
    again on teardown so later tests see the real host.
    """
    monkeypatch.setenv(CC_ENV, str(tmp_path / "no-such-cc"))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    kernels._reset_for_tests()
    yield monkeypatch
    kernels._reset_for_tests()


def _providers():
    return get_provider("numpy"), get_provider("native")


@contextlib.contextmanager
def on_provider(name):
    """Run every engine in this process on provider *name*.

    Patches each module-level ``get_provider`` the engines call — the
    batch engines, the point locator, the shared plane, and the kernels
    package itself, which the geometry batch functions import lazily.
    """
    provider = get_provider(name)
    with contextlib.ExitStack() as stack:
        for module in (spatial_batch, batch_exact, planelocate, vpr,
                       kernels):
            stack.enter_context(mock.patch.object(
                module, "get_provider", lambda name="auto": provider))
        yield provider


# ----------------------------------------------------------------------
# Bitwise parity: distance matrix.
# ----------------------------------------------------------------------
@needs_native
class TestDistanceMatrixParity:
    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (64, 129), (200, 50)])
    def test_random_inputs(self, m, n):
        oracle, native = _providers()
        rng = np.random.default_rng(m * 1000 + n)
        qx, qy = rng.uniform(-50, 50, m), rng.uniform(-50, 50, m)
        px, py = rng.uniform(-50, 50, n), rng.uniform(-50, 50, n)
        assert np.array_equal(oracle.distance_matrix(qx, qy, px, py),
                              native.distance_matrix(qx, qy, px, py))

    def test_coincident_and_lattice_points(self):
        # Zero distances and exactly representable ties.
        oracle, native = _providers()
        qx = np.array([0.0, 1.0, 2.0, 1.0, -3.0])
        qy = np.array([0.0, 1.0, 0.0, 1.0, 4.0])
        px = np.array([0.0, 1.0, 2.0, 0.5])
        py = np.array([0.0, 1.0, 0.0, 0.5])
        d_o = oracle.distance_matrix(qx, qy, px, py)
        d_n = native.distance_matrix(qx, qy, px, py)
        assert np.array_equal(d_o, d_n)
        assert d_o[0, 0] == 0.0 and d_o[1, 1] == 0.0
        assert d_o[1, 1] == d_o[3, 1]  # duplicated query row ties exactly

    def test_extreme_magnitudes(self):
        oracle, native = _providers()
        qx = np.array([1e-300, 1e300, 0.0, -1e155])
        qy = np.array([1e-300, -1e300, 5e-324, 1e155])
        px = np.array([0.0, 1e300, 2.0])
        py = np.array([0.0, 1e300, -2.0])
        with np.errstate(over="ignore"):  # inf lanes are the point here
            assert np.array_equal(oracle.distance_matrix(qx, qy, px, py),
                                  native.distance_matrix(qx, qy, px, py))

    def test_empty_batches(self):
        oracle, native = _providers()
        e = np.empty(0)
        q = np.array([1.0, 2.0])
        for args in ((e, e, e, e), (q, q, e, e), (e, e, q, q)):
            d_o = oracle.distance_matrix(*args)
            d_n = native.distance_matrix(*args)
            assert d_o.shape == d_n.shape
            assert np.array_equal(d_o, d_n)


# ----------------------------------------------------------------------
# The NumPy provider's internal Eq. (2) step loop (prefix-ordered input).
# ----------------------------------------------------------------------
def _sweep_inputs(points, queries):
    """Prepared (sorted) sweep inputs plus the quantifier they came from."""
    oracle = get_provider("numpy")
    quant = BatchExactQuantifier(points)
    q = np.asarray(queries, dtype=np.float64)
    d = oracle.distance_matrix(q[:, 0], q[:, 1], quant._sx, quant._sy)
    order = np.argsort(d, axis=1, kind="stable")
    ds = np.take_along_axis(d, order, axis=1)
    return quant, ds, quant._parent[order], quant._weight[order]


def _lattice_points():
    """Sites on an integer lattice: masses of exactly-equal distances."""
    points = []
    for i in range(4):
        for j in range(4):
            sites = [(float(i + di), float(j + dj))
                     for di in (0, 1) for dj in (0, 1)]
            points.append(DiscreteUncertainPoint(
                sites, [0.25] * 4, normalize=False))
    q = [(float(x), float(y)) for x in range(5) for y in range(5)]
    q += [(x + 0.5, y + 0.5) for x in range(4) for y in range(4)]
    return points, q


def _scalar_rows(points, queries, tie_tol=0.0):
    return [quantification_vector(points, tuple(q), tie_tol=tie_tol)
            for q in np.asarray(queries, dtype=np.float64).tolist()]


class TestSweepParity:
    """``NumpyProvider._sweep_prefix`` — the step loop both fused
    providers run on each ordered prefix — against the scalar sweep:
    every row it marks done holds the scalar answer bitwise."""

    @staticmethod
    def _check(points, queries, ds, pp, pw, totals, tie_tol, final):
        res, done = get_provider("numpy")._sweep_prefix(
            ds, pp, pw, totals, len(points), tie_tol, final)
        scalar = _scalar_rows(points, queries, tie_tol)
        if final:
            assert done.all()
        for j in np.flatnonzero(done):
            assert res[j].tolist() == scalar[j]
        return done

    @pytest.mark.parametrize("n,k,m", [(5, 2, 9), (30, 3, 40), (80, 5, 64)])
    @pytest.mark.parametrize("final", [False, True])
    def test_random_workloads(self, n, k, m, final):
        points = random_discrete_points(n, k, seed=n + k, spread=2.0)
        rng = random.Random(m)
        extent = math.sqrt(n) * 2.2
        q = [(rng.uniform(0, extent), rng.uniform(0, extent))
             for _ in range(m)]
        quant, ds, pp, pw = _sweep_inputs(points, q)
        for tie_tol in (0.0, 1e-9):
            self._check(points, q, ds, pp, pw, quant._totals, tie_tol,
                        final)

    def test_tie_heavy_lattice(self):
        # Multi-member tie groups, descending-offset contribution order.
        points, q = _lattice_points()
        quant, ds, pp, pw = _sweep_inputs(points, q)
        for final in (False, True):
            self._check(points, q, ds, pp, pw, quant._totals, 0.0, final)

    def test_prefix_narrower_than_sites(self):
        # A truncated prefix: a row retired inside it already holds its
        # full answer; a live row is left for the wider re-sweep.
        points = random_discrete_points(40, 4, seed=11, spread=2.0)
        rng = random.Random(7)
        q = [(rng.uniform(0, 14), rng.uniform(0, 14)) for _ in range(25)]
        quant, ds, pp, pw = _sweep_inputs(points, q)
        for width in (1, 5, 40):
            done = self._check(points, q, ds[:, :width], pp[:, :width],
                               pw[:, :width], quant._totals, 0.0, False)
            # One site cannot exhaust two parents; 40 sites usually do.
            assert done.any() == (width == 40)

    def test_empty_rows(self):
        res, done = get_provider("numpy")._sweep_prefix(
            np.empty((0, 3)), np.empty((0, 3), dtype=np.intp),
            np.empty((0, 3)), np.array([3], dtype=np.int64), 1, 0.0, True)
        assert res.shape == (0, 1) and done.shape == (0,)


# ----------------------------------------------------------------------
# Bitwise parity: the fused Eq. (2) prefix kernel (select, order, sweep).
# ----------------------------------------------------------------------
_AVAILABLE = ("numpy", "native") if native_available() else ("numpy",)


def _fused_all(points, queries, tie_tol=0.0, width=_PREFIX_START):
    """``sweep_eq2`` on every available provider, checked bitwise against
    each other and the scalar sweep; returns the widened-row count."""
    quant = BatchExactQuantifier(points)
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    d = get_provider("numpy").distance_matrix(q[:, 0], q[:, 1],
                                              quant._sx, quant._sy)
    outs = [get_provider(name).sweep_eq2(
        d, quant._parent, quant._weight, quant._totals, quant.n, tie_tol,
        width) for name in _AVAILABLE]
    res, widened = outs[0]
    assert res.shape == (len(q), quant.n)
    for other, other_widened in outs[1:]:
        assert np.array_equal(res, other)
        assert widened == other_widened
    assert res.tolist() == _scalar_rows(points, q, tie_tol)
    return widened


class TestFusedSweepParity:
    """native == NumPy oracle == scalar ``quantification_vector``,
    bitwise, with equal widened-row counts.  On hosts without a
    compiler the oracle is still pinned to the scalar sweep."""

    @pytest.mark.parametrize("n,k,m", [(5, 2, 9), (30, 3, 40), (80, 5, 64)])
    @pytest.mark.parametrize("tie_tol", [0.0, 1e-9])
    def test_random_workloads(self, n, k, m, tie_tol):
        points = random_discrete_points(n, k, seed=n + k, spread=2.0)
        rng = random.Random(m)
        extent = math.sqrt(n) * 2.2
        q = [(rng.uniform(0, extent), rng.uniform(0, extent))
             for _ in range(m)]
        for width in (1, 4, _PREFIX_START):
            _fused_all(points, q, tie_tol, width)

    @pytest.mark.parametrize("tie_tol", [0.0, 1e-9])
    def test_tie_heavy_lattice(self, tie_tol):
        points, q = _lattice_points()
        _fused_all(points, q, tie_tol)

    @pytest.mark.parametrize("tie_tol", [0.0, 1e-9])
    def test_ties_straddling_the_prefix_cut(self, tie_tol):
        # Lattice queries see groups of 4-8 equal distances; every narrow
        # width cuts some group in two, so the truncated final group is
        # left unflushed and the row either retired or widens.
        points, q = _lattice_points()
        widened = [_fused_all(points, q, tie_tol, width)
                   for width in (2, 3, 5, 6, 7, 9)]
        assert any(widened)

    def test_rows_forced_to_widen(self):
        # Hundreds of co-located parents: no parent exhausts until deep
        # into the sorted order, so every row re-sweeps up to the full
        # site set.
        rng = random.Random(12)
        points = []
        for i in range(300):
            base = (rng.uniform(0, 0.01), rng.uniform(0, 0.01))
            far = (100.0 + i, 100.0 - i)
            points.append(DiscreteUncertainPoint([base, far], [0.5, 0.5]))
        q = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        # 64 -> 256 -> 600 (the full sort): two re-sweeps per row.
        assert _fused_all(points, q) == 2 * len(q)

    def test_sites_below_the_start_width(self):
        # The bulk_vpr shape: N = 32 < the start width, one full sort.
        points = random_discrete_points(16, 2, seed=7, spread=2.0)
        rng = random.Random(5)
        q = [(rng.uniform(-1, 11), rng.uniform(-1, 11)) for _ in range(50)]
        assert _fused_all(points, q) == 0

    def test_one_and_zero_rows(self):
        points = random_discrete_points(12, 3, seed=2, spread=2.0)
        _fused_all(points, [(1.0, 2.0)])
        assert _fused_all(points, np.empty((0, 2))) == 0

    def test_coincident_sites(self):
        # Every parent shares its sites with the next: exact zero
        # distances and cross-parent ties at each site.
        spots = [(float(i % 3), float(i // 3)) for i in range(6)]
        points = [DiscreteUncertainPoint([spots[i], spots[(i + 1) % 6]],
                                         [0.5, 0.5]) for i in range(6)]
        q = spots + [(0.5, 0.5), (1.0, 0.5), (7.0, -3.0)]
        for width in (1, 2, 3, _PREFIX_START):
            _fused_all(points, q, 0.0, width)

    def test_zero_weight_sites(self):
        # Zero weights (below the model's validation, at the kernel
        # surface): a parent's count-based exact zero must still fire.
        rng = np.random.default_rng(3)
        sx, sy = rng.uniform(0, 5, 24), rng.uniform(0, 5, 24)
        parent = np.repeat(np.arange(8, dtype=np.intp), 3)
        weight = np.tile([0.0, 0.5, 0.5], 8)
        totals = np.full(8, 3, dtype=np.int64)
        q = rng.uniform(0, 5, size=(20, 2))
        d = get_provider("numpy").distance_matrix(q[:, 0], q[:, 1], sx, sy)
        scalar = [sweep_quantification(list(zip(row, parent.tolist(),
                                                weight.tolist())), totals)
                  for row in d.tolist()]
        for width in (1, 2, 5, _PREFIX_START):
            outs = [get_provider(name).sweep_eq2(d, parent, weight, totals,
                                                 8, 0.0, width)
                    for name in _AVAILABLE]
            for res, widened in outs:
                assert res.tolist() == scalar
                assert widened == outs[0][1]

    def test_width_must_be_positive(self):
        d = np.zeros((1, 2))
        for name in _AVAILABLE:
            with pytest.raises(ValueError, match="width"):
                get_provider(name).sweep_eq2(
                    d, np.zeros(2, dtype=np.intp), np.full(2, 0.5),
                    np.array([2]), 1, 0.0, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10_000),
           st.sampled_from([1, 2, 5, _PREFIX_START]),
           st.sampled_from([0.0, 1e-9, 0.25]), st.booleans())
    def test_property_small_random_indexes(self, n, k, seed, width,
                                           tie_tol, snap):
        points = random_discrete_points(n, k, seed=seed, spread=2.0)
        if snap:  # grid-snapped sites force exact ties
            points = [DiscreteUncertainPoint(
                [(round(x), round(y)) for x, y in p.points], p.weights,
                normalize=False) for p in points]
        rng = random.Random(seed)
        q = [(rng.uniform(-1, 11), rng.uniform(-1, 11)) for _ in range(8)]
        if snap:
            q = [(float(round(x)), float(round(y))) for x, y in q]
        _fused_all(points, q, tie_tol, width)


# ----------------------------------------------------------------------
# Bitwise parity: geometry batch kernels.
# ----------------------------------------------------------------------
def _bisector_batch(sites):
    lines = [bisector_line(sites[i], sites[j])
             for i in range(len(sites)) for j in range(i + 1, len(sites))]
    A = np.array([ln[0] for ln in lines])
    B = np.array([ln[1] for ln in lines])
    C = np.array([ln[2] for ln in lines])
    return A, B, C


@needs_native
class TestGeometryParity:
    def test_line_box_clip(self):
        oracle, native = _providers()
        rng = random.Random(21)
        sites = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(9)]
        A, B, C = _bisector_batch(sites)
        # Axis-aligned and box-missing lines join the batch: the
        # small-|d| guard and the reject path must agree too.
        A = np.concatenate([A, [0.0, 1.0, 1.0]])
        B = np.concatenate([B, [1.0, 0.0, 0.0]])
        C = np.concatenate([C, [4.0, 3.0, 99.0]])
        box = ((-1.0, -1.0), (9.0, 9.0))
        segs_o, valid_o = oracle.line_box_clip(A, B, C, box, 1e-9)
        segs_n, valid_n = native.line_box_clip(A, B, C, box, 1e-9)
        assert np.array_equal(valid_o, valid_n)
        assert np.array_equal(segs_o[valid_o], segs_n[valid_n])
        assert not valid_o[-1]  # the line at x=99 misses the box

    def test_segment_intersections(self):
        oracle, native = _providers()
        # Crossing, parallel, collinear-overlapping, and shared-endpoint
        # pairs — the denominator guard and the slack window must agree.
        segs = np.array([
            [0.0, 0.0, 4.0, 4.0],
            [0.0, 4.0, 4.0, 0.0],
            [0.0, 1.0, 4.0, 5.0],   # parallel to the first
            [1.0, 1.0, 3.0, 3.0],   # collinear with the first
            [4.0, 4.0, 8.0, 4.0],   # shares an endpoint with the first
            [2.0, -1.0, 2.0, 5.0],
        ])
        ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
        I, J = np.triu_indices(len(segs), k=1)
        args = (ax, ay, bx, by, I.astype(np.intp), J.astype(np.intp), 1e-9)
        px_o, py_o, hit_o = oracle.segment_intersections(*args)
        px_n, py_n, hit_n = native.segment_intersections(*args)
        assert np.array_equal(hit_o, hit_n)
        assert np.array_equal(px_o[hit_o], px_n[hit_n])
        assert np.array_equal(py_o[hit_o], py_n[hit_n])


# ----------------------------------------------------------------------
# End-to-end engine parity through PNNIndex.
# ----------------------------------------------------------------------
@needs_native
class TestEngineParity:
    def test_batch_engines_bitwise(self):
        points = random_discrete_points(40, 3, seed=9, spread=2.0)
        rng = random.Random(3)
        extent = math.sqrt(40) * 2.2
        qs = [(rng.uniform(0, extent), rng.uniform(0, extent))
              for _ in range(60)]
        small = random_discrete_points(8, 2, seed=9, spread=2.0)
        with on_provider("numpy"):
            a = PNNIndex(points)
            want = (a.batch_delta(qs), a.batch_quantify_exact(qs),
                    PNNIndex(small).build_vpr().quantify_batch(qs))
        b = PNNIndex(points)
        assert np.array_equal(b.batch_delta(qs), want[0])
        assert b.batch_quantify_exact(qs) == want[1]
        assert PNNIndex(small).build_vpr().quantify_batch(qs) == want[2]

    def test_on_provider_reaches_every_engine(self):
        # The helper the parity tests rely on: with it active, a V_Pr
        # build and query make NumPy kernel calls only.
        points = random_discrete_points(8, 2, seed=4, spread=2.0)
        before = kernel_counters()
        with on_provider("numpy"):
            index = PNNIndex(points)
            index.build_vpr()
            index.batch_quantify_vpr([(1.0, 2.0), (3.5, 0.5)])
            index.batch_delta([(1.0, 2.0)])
        assert _providers_called(before) == {"numpy"}


# ----------------------------------------------------------------------
# Selection: one provider per host.
# ----------------------------------------------------------------------
def _calls_since(before):
    """``{"<provider>:<op>": n}`` kernel calls made since *before*."""
    return {key: n - before.get(key, 0)
            for key, n in kernel_counters().items()
            if n > before.get(key, 0)}


def _providers_called(before):
    return {key.split(":")[0] for key in _calls_since(before)}


class TestSelection:
    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            get_provider("cuda")
        with pytest.raises(ValueError):
            PNNIndex(random_discrete_points(3, 2, seed=1), kernel="bogus")

    def test_numpy_always_available(self):
        assert get_provider("numpy").name == "numpy"

    @pytest.mark.parametrize("name", ["numpy", "native"])
    def test_only_auto_is_accepted(self, name):
        # The inert fields: a provider name is a fact about the host,
        # so naming one is an error rather than a setting.
        points = random_discrete_points(3, 2, seed=1)
        with pytest.raises(ValueError, match="kernel"):
            PNNIndex(points, kernel=name)
        with pytest.raises(ValueError, match="kernel"):
            ServiceConfig(kernel=name)
        with pytest.raises(ValueError, match="kernel"):
            PNNIndex(points).serve(kernel=name)
        assert PNNIndex(points, kernel="auto").kernel == "auto"
        assert ServiceConfig().kernel == "auto"

    @needs_native
    def test_provider_is_a_host_fact(self, monkeypatch):
        # The retired REPRO_KERNEL steer no longer moves anything.
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        kernels._reset_for_tests()
        try:
            assert get_provider().name == "native"
            assert get_provider("auto") is get_provider("native")
        finally:
            kernels._reset_for_tests()

    def test_auto_degrades_without_compiler(self, no_compiler):
        assert not native_available()
        assert get_provider().name == "numpy"

    def test_named_native_raises_without_compiler(self, no_compiler):
        with pytest.raises(BuildError, match="compiler"):
            get_provider("native")

    def test_status_document(self):
        status = kernel_status()
        assert status["resolved"] == get_provider().name
        assert status["native_available"] == (status["native_error"]
                                              is None)
        for key in ("compiler", "cflags", "library", "cached"):
            assert key in status

    def test_status_reports_missing_compiler(self, no_compiler):
        status = kernel_status()
        assert status["compiler"] is None
        assert status["resolved"] == "numpy"
        assert not status["native_available"]
        assert "compiler" in status["native_error"]

    def test_calls_are_counted(self):
        before = kernel_counters().get("numpy:distance_matrix", 0)
        e = np.array([0.0, 1.0])
        get_provider("numpy").distance_matrix(e, e, e, e)
        after = kernel_counters()["numpy:distance_matrix"]
        assert after == before + 1


def _http(port, method, path, doc=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path,
                     body=json.dumps(doc) if doc is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")
    finally:
        conn.close()


def _healthz(port):
    deadline = time.monotonic() + 60
    while True:
        status, body = _http(port, "GET", "/healthz")
        if status == 200:
            return json.loads(body)
        assert time.monotonic() < deadline, "/healthz never reached 200"
        time.sleep(0.02)


class TestOneProvider:
    """Every kernel call the serving stack makes — all seven kinds,
    the V_Pr build, sharded chunks on thread and process workers — runs
    on the one provider ``/healthz`` reports, on a compiler host and on
    a simulated compiler-less one alike."""

    @pytest.mark.parametrize("host", ["as_is", "no_compiler"])
    def test_calls_carry_only_the_resolved_provider(self, host, request):
        if host == "no_compiler":
            request.getfixturevalue("no_compiler")
        expected = "native" if native_available() else "numpy"
        before = kernel_counters()
        index = PNNIndex(random_discrete_points(10, 2, seed=3, spread=2.0))
        index.build_vpr()
        rows = np.random.default_rng(4).uniform(-1, 9, (32, 2)).tolist()
        resolved = set()
        for rung in ("thread", "process"):
            with on_rung(rung) as workers:
                service = index.serve(workers=workers, shard_min_batch=1,
                                      cache_capacity=0)
            with service:
                assert service.executor.mode == rung
                with ServerThread(service, HttpConfig(port=0)) as srv:
                    resolved.add(_healthz(srv.port)["kernel"]["resolved"])
                    for kind in SHARD_METHODS:
                        status, body = _http(srv.port, "POST",
                                             f"/v1/query/{kind}",
                                             {"queries": rows})
                        assert status == 200, (kind, body)
        assert resolved == {expected}
        assert _providers_called(before) == {expected}
        ops = {key.split(":")[1] for key in _calls_since(before)}
        assert ops == {"distance_matrix", "sweep_eq2", "line_box_clip",
                       "segment_intersections", "plane_locate",
                       "emit_sparse_rows"}

    def test_scrapes_do_not_probe_the_toolchain(self, monkeypatch):
        # /metrics gauges and /healthz read the provider the process
        # already resolved; only ``python -m repro kernels`` probes.
        probes = []
        real = build.compile_info

        def counted():
            probes.append(1)
            return real()

        monkeypatch.setattr(build, "compile_info", counted)
        monkeypatch.setattr(kernels, "compile_info", counted)
        index = PNNIndex(random_discrete_points(6, 2, seed=5, spread=2.0))
        with index.serve() as service:
            with ServerThread(service, HttpConfig(port=0)) as srv:
                doc = _healthz(srv.port)
                status, text = _http(srv.port, "GET", "/metrics")
        assert status == 200
        assert doc["kernel"] == {"resolved": get_provider().name,
                                 "native_available": native_available(),
                                 "native_error": kernels.native_error()}
        line = f'repro_kernel_provider{{provider="{get_provider().name}"}} 1'
        assert line in text.splitlines()
        assert probes == []
        kernel_status()
        assert probes == [1]


# ----------------------------------------------------------------------
# Serving parity: the host's native provider on every executor rung.
# ----------------------------------------------------------------------
@needs_native
class TestServingParity:
    @pytest.mark.parametrize("rung", LADDER)
    def test_native_rung_bitwise(self, rung):
        points = random_discrete_points(30, 3, seed=13, spread=2.0)
        rng = random.Random(17)
        extent = math.sqrt(30) * 2.2
        qs = [(rng.uniform(0, extent), rng.uniform(0, extent))
              for _ in range(48)]
        with on_provider("numpy"):
            baseline_idx = PNNIndex(points)
            base_delta = baseline_idx.batch_delta(qs)
            base_exact = baseline_idx.batch_quantify_exact(qs)
        index = PNNIndex(points)
        with on_rung(rung) as workers, \
                index.serve(workers=workers, shard_min_batch=1) as service:
            assert rung_of(service) == rung
            assert np.array_equal(service.batch("delta", qs), base_delta)
            assert service.batch("quantify_exact", qs) == base_exact
