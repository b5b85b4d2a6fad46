"""Single-core speed bars: each fast path against its own slow oracle.

Every bar is the ratio of two best-of-N wall times taken back to back on
one core, so it is a vectorization (or compilation) gain that holds on
any host.  The bars are module constants set well below the measured
margins (2-core container, in parentheses) so a busy machine cannot flip
them; a regression that loses most of a path's advantage still can.

Bitwise parity of each pair lives with the path's own suite
(``test_batch_equivalence``, ``test_batch_exact_quantify``,
``test_vectorized_kernels``, ``test_kernels``, ``test_planelocate``);
these tests only time.  Service-path throughput (sharding, HTTP, tracing
and fault-handling overhead) is judged end to end by the perfbench gate.
The native-kernel bars skip on hosts without a C compiler, where the
kernel tier runs on NumPy by design.
"""

import math
import random
import time

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, random_disks
from repro.geometry.seg_arrangement import SegmentArrangement
from repro.geometry.segments import bisector_line, line_box_clip
from repro.quantification.batch_exact import (_PREFIX_START,
                                              BatchExactQuantifier)
from repro.spatial.kernels import get_provider, native_available, native_error
from repro.spatial.planelocate import PersistentPlaneLocator
from repro.testing.oracles import ScalarVPRDiagram
from repro.uncertain.disk_uniform import DiskUniformPoint

#: ``batch_nonzero_nn`` over the scalar loop, dense engine (10-14x).
BATCH_MIN_SPEEDUP = 2.0
#: The same on the bucketed engine of a 20k-disk index (5-6.5x).
BUCKET_MIN_SPEEDUP = 1.0
#: ``batch_quantify_exact`` over the scalar Eq. (2) sweep (33-39x).
EXACT_MIN_SPEEDUP = 2.0
#: The vectorized V_Pr build over the scalar oracle build (5.7-6.1x).
VPR_BUILD_MIN_SPEEDUP = 1.5
#: Native ``distance_matrix`` and ``sweep_eq2`` over NumPy (6.8-8.6x).
NATIVE_MIN_SPEEDUP = 1.5
#: Native ``plane_locate`` over NumPy on a bisector arrangement
#: (3.8-4.6x).  Bisection is a chain of dependent loads, so the compiled
#: loop saves NumPy's per-level passes but cannot overlap the loads.
NATIVE_LOCATE_MIN_SPEEDUP = 1.3
#: Native ``plane_locate`` over NumPy on a built V_Pr diagram (4.0-4.3x).
NATIVE_VPR_LOCATE_MIN_SPEEDUP = 1.5


def _best(fn, reps=3):
    """``(best wall time, last result)`` over *reps* calls of *fn*."""
    best, result = math.inf, None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_speedup(what, slow_t, fast_t, bar):
    speedup = slow_t / fast_t
    assert speedup >= bar, \
        f"{what}: {speedup:.2f}x < {bar}x " \
        f"(slow {slow_t * 1e3:.1f} ms, fast {fast_t * 1e3:.1f} ms)"


def _disk_index(n, seed):
    extent = math.sqrt(n) * 2.0
    disks = random_disks(n, seed=seed, extent=extent, r_min=0.1, r_max=0.4)
    return PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks]), extent


def _uniform(m, lo, hi, seed):
    rng = random.Random(seed)
    return np.array([(rng.uniform(lo, hi), rng.uniform(lo, hi))
                     for _ in range(m)])


def _providers():
    if not native_available():
        pytest.skip(f"native kernel unavailable on this host "
                    f"({native_error()}); the tier runs on NumPy")
    return get_provider("numpy"), get_provider("native")


class TestBatchEngines:
    def test_dense_batch_nonzero_nn(self):
        index, extent = _disk_index(500, seed=1919)
        qs = _uniform(1000, 0.0, extent, seed=19)
        index.batch_nonzero_nn(qs[:4])  # engine build outside the timers
        scalar_t, _ = _best(
            lambda: [index.nonzero_nn((x, y)) for x, y in qs.tolist()])
        batch_t, _ = _best(lambda: index.batch_nonzero_nn(qs))
        _assert_speedup("dense batch_nonzero_nn", scalar_t, batch_t,
                        BATCH_MIN_SPEEDUP)

    def test_bucket_batch_nonzero_nn(self):
        index, extent = _disk_index(20_000, seed=2020)
        qs = _uniform(400, 0.0, extent, seed=23)
        index.batch_nonzero_nn(qs[:4])
        assert index.batch_engine().backend == "bucket"
        scalar_t, _ = _best(
            lambda: [index.nonzero_nn((x, y)) for x, y in qs.tolist()])
        batch_t, _ = _best(lambda: index.batch_nonzero_nn(qs))
        _assert_speedup("bucket batch_nonzero_nn", scalar_t, batch_t,
                        BUCKET_MIN_SPEEDUP)

    def test_batch_quantify_exact(self):
        index = PNNIndex(random_discrete_points(200, 5, seed=2026,
                                                spread=2.0))
        qs = _uniform(1000, 0.0, math.sqrt(200) * 2.2, seed=59)
        index.batch_quantify_exact(qs[:4])
        scalar_t, _ = _best(
            lambda: [index.quantify((x, y), method="exact")
                     for x, y in qs.tolist()], reps=2)
        batch_t, _ = _best(lambda: index.batch_quantify_exact(qs))
        _assert_speedup("batch_quantify_exact", scalar_t, batch_t,
                        EXACT_MIN_SPEEDUP)


def test_vectorized_vpr_build():
    pts = random_discrete_points(9, 2, seed=31, spread=2.0)
    index = PNNIndex(pts)
    scalar_t, _ = _best(lambda: ScalarVPRDiagram(pts), reps=2)
    vector_t, _ = _best(index.build_vpr, reps=2)
    _assert_speedup("vectorized V_Pr build", scalar_t, vector_t,
                    VPR_BUILD_MIN_SPEEDUP)


class TestNativeKernels:
    def test_distance_matrix(self):
        oracle, native = _providers()
        rng = np.random.default_rng(2027)
        qx, qy = rng.uniform(0.0, 50.0, (2, 2048))
        px, py = rng.uniform(0.0, 50.0, (2, 512))
        numpy_t, _ = _best(lambda: oracle.distance_matrix(qx, qy, px, py))
        native_t, _ = _best(lambda: native.distance_matrix(qx, qy, px, py))
        _assert_speedup("native distance_matrix", numpy_t, native_t,
                        NATIVE_MIN_SPEEDUP)

    def test_sweep_eq2(self):
        oracle, native = _providers()
        n = 200
        quant = BatchExactQuantifier(
            random_discrete_points(n, 5, seed=2026, spread=2.0),
            kernel="numpy")
        q = _uniform(2048, 0.0, math.sqrt(n) * 2.2, seed=59)
        # The distance rows are computed once; the fused prefix call
        # (selection, ordering, step loop, widening) is what is timed.
        d = oracle.distance_matrix(q[:, 0], q[:, 1], quant._sx, quant._sy)

        def run(provider):
            return provider.sweep_eq2(d, quant._parent, quant._weight,
                                      quant._totals, n, 0.0, _PREFIX_START)

        numpy_t, _ = _best(lambda: run(oracle))
        native_t, _ = _best(lambda: run(native))
        _assert_speedup("native sweep_eq2", numpy_t, native_t,
                        NATIVE_MIN_SPEEDUP)

    def test_plane_locate_bisector_arrangement(self):
        _providers()
        rng = random.Random(4)
        sites = [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(12)]
        box = ((-1.0, -1.0), (7.0, 7.0))
        segs = [line_box_clip(*bisector_line(sites[i], sites[j]), box)
                for i in range(len(sites))
                for j in range(i + 1, len(sites))]
        (xmin, ymin), (xmax, ymax) = box
        walls = [((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
                 ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]
        arr = SegmentArrangement([s for s in segs if s] + walls)
        self._race(arr, _uniform(20_000, -0.9, 6.9, seed=2027),
                   NATIVE_LOCATE_MIN_SPEEDUP)

    def test_plane_locate_vpr_diagram(self):
        _providers()
        arr = PNNIndex(random_discrete_points(12, 2, seed=2028,
                                              spread=2.0)).build_vpr() \
            .arrangement
        rng = np.random.default_rng(2028)
        xs, ys = arr._vx, arr._vy
        pad_x = 0.05 * (xs.max() - xs.min())
        pad_y = 0.05 * (ys.max() - ys.min())
        q = np.column_stack([
            rng.uniform(xs.min() - pad_x, xs.max() + pad_x, 20_000),
            rng.uniform(ys.min() - pad_y, ys.max() + pad_y, 20_000)])
        faces = self._race(arr, q, NATIVE_VPR_LOCATE_MIN_SPEEDUP)
        assert int((faces >= 0).sum()) > len(q) // 2, \
            "degenerate workload: most queries fell in the unbounded face"

    @staticmethod
    def _race(arr, q, bar):
        lanes = {kernel: PersistentPlaneLocator(arr, kernel=kernel)
                 for kernel in ("numpy", "native")}
        for lane in lanes.values():
            lane.locate_batch(q[:8])  # warm
        numpy_t, faces = _best(lambda: lanes["numpy"].locate_batch(q))
        native_t, _ = _best(lambda: lanes["native"].locate_batch(q))
        _assert_speedup("native plane_locate", numpy_t, native_t, bar)
        return faces
