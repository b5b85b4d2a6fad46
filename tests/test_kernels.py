"""Property tests for the pluggable kernel tier (``repro.spatial.kernels``).

The tier's inviolable contract mirrors the executor refactor's: **the
native provider returns bitwise-identical outputs to the NumPy oracle on
every entry point, for every input shape — including exact ties, zero
distances, parallel segments, and empty batches.**  These tests pin that
contract, the selection/degradation policy (``"auto"`` honors
``REPRO_KERNEL`` then degrades silently; explicit ``"native"`` raises),
and end-to-end serving parity with ``kernel="native"`` across all four
executor backends.

Native-dependent cases skip on hosts without a C compiler; the
selection-policy cases simulate such a host via ``REPRO_KERNEL_CC``
pointed at a nonexistent binary (the documented knob).
"""

import math
import random

import numpy as np
import pytest

import repro.spatial.kernels as kernels
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.geometry.segments import bisector_line
from repro.obs.metrics import kernel_counters
from repro.quantification.batch_exact import BatchExactQuantifier
from repro.spatial.kernels import (
    KERNEL_ENV,
    KERNELS,
    KernelUnavailable,
    get_provider,
    kernel_status,
    native_available,
    resolve_kernel,
)
from repro.spatial.kernels.build import CACHE_ENV, CC_ENV

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler on this host; the tier degrades to numpy")

ALL_BACKENDS = ("inline", "thread", "process", "shm")


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
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    kernels._reset_for_tests()
    yield monkeypatch
    kernels._reset_for_tests()


@pytest.fixture
def clean_env(monkeypatch):
    """Pristine provider caches under a controllable ``REPRO_KERNEL``."""
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    kernels._reset_for_tests()
    yield monkeypatch
    kernels._reset_for_tests()


def _providers():
    return get_provider("numpy"), get_provider("native")


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
# Bitwise parity: the Eq. (2) sweep step loop.
# ----------------------------------------------------------------------
def _sweep_inputs(points, queries):
    """Prepared (sorted) sweep inputs plus the quantifier they came from."""
    oracle = get_provider("numpy")
    quant = BatchExactQuantifier(points, kernel="numpy")
    q = np.asarray(queries, dtype=np.float64)
    d = oracle.distance_matrix(q[:, 0], q[:, 1], quant._sx, quant._sy)
    order = np.argsort(d, axis=1, kind="stable")
    ds = np.take_along_axis(d, order, axis=1)
    return quant, ds, quant._parent[order], quant._weight[order]


@needs_native
class TestSweepParity:
    @pytest.mark.parametrize("n,k,m", [(5, 2, 9), (30, 3, 40), (80, 5, 64)])
    @pytest.mark.parametrize("final", [False, True])
    def test_random_workloads(self, n, k, m, final):
        oracle, native = _providers()
        points = random_discrete_points(n, k, seed=n + k, spread=2.0)
        rng = random.Random(m)
        extent = math.sqrt(n) * 2.2
        q = [(rng.uniform(0, extent), rng.uniform(0, extent))
             for _ in range(m)]
        quant, ds, pp, pw = _sweep_inputs(points, q)
        for tie_tol in (0.0, 1e-9):
            res_o, done_o = oracle.sweep_eq2(ds, pp, pw, quant._totals,
                                             n, tie_tol, final)
            res_n, done_n = native.sweep_eq2(ds, pp, pw, quant._totals,
                                             n, tie_tol, final)
            assert np.array_equal(done_o, done_n)
            assert np.array_equal(res_o, res_n)

    def test_tie_heavy_lattice(self):
        # Sites on an integer lattice, queries on lattice points: masses
        # of exactly-equal distances exercise the tie-group flush path
        # (multi-member groups, descending-offset contribution order).
        oracle, native = _providers()
        from repro.uncertain.discrete import DiscreteUncertainPoint

        points = []
        for i in range(4):
            for j in range(4):
                sites = [(float(i + di), float(j + dj))
                         for di in (0, 1) for dj in (0, 1)]
                points.append(DiscreteUncertainPoint(
                    sites, [0.25] * 4, normalize=False))
        q = [(float(x), float(y)) for x in range(5) for y in range(5)]
        q += [(x + 0.5, y + 0.5) for x in range(4) for y in range(4)]
        quant, ds, pp, pw = _sweep_inputs(points, q)
        for final in (False, True):
            res_o, done_o = oracle.sweep_eq2(ds, pp, pw, quant._totals,
                                             len(points), 0.0, final)
            res_n, done_n = native.sweep_eq2(ds, pp, pw, quant._totals,
                                             len(points), 0.0, final)
            assert np.array_equal(done_o, done_n)
            assert np.array_equal(res_o, res_n)

    def test_prefix_narrower_than_sites(self):
        # A truncated prefix (the widening loop's intermediate state):
        # rows may finish or stay live; parity on both the results and
        # the done mask.
        oracle, native = _providers()
        points = random_discrete_points(40, 4, seed=11, spread=2.0)
        rng = random.Random(7)
        q = [(rng.uniform(0, 14), rng.uniform(0, 14)) for _ in range(25)]
        quant, ds, pp, pw = _sweep_inputs(points, q)
        for width in (1, 5, 40):
            args = (ds[:, :width], pp[:, :width], pw[:, :width],
                    quant._totals, 40, 0.0, False)
            res_o, done_o = oracle.sweep_eq2(*args)
            res_n, done_n = native.sweep_eq2(*args)
            assert np.array_equal(done_o, done_n)
            assert np.array_equal(res_o, res_n)

    def test_empty_rows(self):
        oracle, native = _providers()
        ds = np.empty((0, 3))
        pp = np.empty((0, 3), dtype=np.intp)
        pw = np.empty((0, 3))
        totals = np.array([3], dtype=np.int64)
        res_o, done_o = oracle.sweep_eq2(ds, pp, pw, totals, 1, 0.0, True)
        res_n, done_n = native.sweep_eq2(ds, pp, pw, totals, 1, 0.0, True)
        assert np.array_equal(res_o, res_n)
        assert np.array_equal(done_o, done_n)


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
        a = PNNIndex(points, kernel="numpy")
        b = PNNIndex(points, kernel="native")
        assert np.array_equal(a.batch_delta(qs), b.batch_delta(qs))
        assert a.batch_quantify_exact(qs) == b.batch_quantify_exact(qs)

    def test_set_kernel_switches_engines(self):
        points = random_discrete_points(20, 3, seed=4, spread=2.0)
        index = PNNIndex(points, kernel="numpy")
        baseline = index.batch_quantify_exact([(1.0, 2.0), (3.5, 0.5)])
        assert index._batch_exact is not None
        index.set_kernel("native")
        assert index.kernel == "native"
        assert index._batch is None and index._batch_exact is None
        assert index.batch_quantify_exact(
            [(1.0, 2.0), (3.5, 0.5)]) == baseline


# ----------------------------------------------------------------------
# Selection and degradation policy.
# ----------------------------------------------------------------------
class TestSelection:
    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            get_provider("cuda")
        with pytest.raises(ValueError):
            resolve_kernel("fast")
        with pytest.raises(ValueError):
            PNNIndex(random_discrete_points(3, 2, seed=1), kernel="bogus")

    def test_numpy_always_available(self):
        provider = get_provider("numpy")
        assert provider.name == "numpy"
        assert resolve_kernel("numpy") == "numpy"

    def test_env_steers_auto(self, clean_env):
        clean_env.setenv(KERNEL_ENV, "numpy")
        assert resolve_kernel("auto") == "numpy"
        assert get_provider("auto").name == "numpy"
        # Explicit names beat the env.
        assert resolve_kernel("numpy") == "numpy"

    def test_env_invalid_value_rejected(self, clean_env):
        clean_env.setenv(KERNEL_ENV, "turbo")
        with pytest.raises(ValueError):
            resolve_kernel("auto")

    def test_auto_degrades_without_compiler(self, no_compiler):
        assert not native_available()
        assert resolve_kernel("auto") == "numpy"
        assert get_provider("auto").name == "numpy"

    def test_env_forced_native_degrades(self, no_compiler):
        no_compiler.setenv(KERNEL_ENV, "native")
        assert resolve_kernel("auto") == "numpy"
        assert get_provider("auto").name == "numpy"

    def test_explicit_native_raises(self, no_compiler):
        with pytest.raises(KernelUnavailable):
            get_provider("native")
        index = PNNIndex(random_discrete_points(4, 2, seed=2))
        with pytest.raises(KernelUnavailable):
            index.set_kernel("native")
        # ...and through the serving config path as well.
        with pytest.raises(KernelUnavailable):
            index.serve(kernel="native")

    def test_service_config_validates_kernel(self):
        from repro.serving.service import ServiceConfig

        with pytest.raises(ValueError):
            ServiceConfig(kernel="bogus")
        assert ServiceConfig().kernel == "auto"

    def test_status_document(self):
        status = kernel_status()
        assert list(status["kernels"]) == list(KERNELS)
        assert status["selected"] in ("native", "numpy")
        assert status["native_available"] == (status["native_error"]
                                              is None)
        for key in ("compiler", "cflags", "library", "cached"):
            assert key in status

    def test_status_reports_missing_compiler(self, no_compiler):
        status = kernel_status()
        assert status["compiler"] is None
        assert status["selected"] == "numpy"
        assert not status["native_available"]
        assert "compiler" in status["native_error"]

    def test_calls_are_counted(self):
        before = kernel_counters().get("numpy:distance_matrix", 0)
        e = np.array([0.0, 1.0])
        get_provider("numpy").distance_matrix(e, e, e, e)
        after = kernel_counters()["numpy:distance_matrix"]
        assert after == before + 1


# ----------------------------------------------------------------------
# Serving parity: kernel="native" across all four executor backends.
# ----------------------------------------------------------------------
@needs_native
class TestServingParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_native_backend_bitwise(self, backend):
        points = random_discrete_points(30, 3, seed=13, spread=2.0)
        rng = random.Random(17)
        extent = math.sqrt(30) * 2.2
        qs = [(rng.uniform(0, extent), rng.uniform(0, extent))
              for _ in range(48)]
        baseline_idx = PNNIndex(points, kernel="numpy")
        base_delta = baseline_idx.batch_delta(qs)
        base_exact = baseline_idx.batch_quantify_exact(qs)
        index = PNNIndex(points)
        with index.serve(workers=2, backend=backend, kernel="native",
                         shard_min_batch=1) as service:
            assert index.kernel == "native"
            assert np.array_equal(service.batch_delta(qs), base_delta)
            assert service.batch("quantify_exact", qs) == base_exact

    def test_auto_config_inherits_index_kernel(self):
        points = random_discrete_points(10, 2, seed=8, spread=2.0)
        index = PNNIndex(points, kernel="numpy")
        with index.serve(workers=1) as service:
            assert index.kernel == "numpy"  # "auto" config leaves it be
            service.delta((1.0, 1.0))
