"""Edge cases of the batch-query subsystem.

Covers the degenerate inputs the vectorized kernels must survive: empty
query batches, single-point indexes, duplicate/coincident queries,
zero-extent (certain) supports, and queries placed exactly on cell
boundaries — where Lemma 2.1's ``j != i`` second-minimum rule decides
membership.  Every answer is cross-checked against the scalar path and
the brute-force reference.
"""

import math
import random

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, random_disks
from repro.quantification.monte_carlo import MonteCarloQuantifier
from repro.spatial.batch import BatchQueryEngine
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.uncertain.disk_uniform import DiskUniformPoint


def certain(x, y):
    """A zero-extent (certain) uncertain point."""
    return DiscreteUncertainPoint([(x, y)], [1.0])


def check_against_scalar(index, queries):
    batch_nn = index.batch_nonzero_nn(queries)
    batch_delta = index.batch_delta(queries)
    for j, q in enumerate(queries):
        assert batch_nn[j] == index.nonzero_nn(q)
        assert batch_nn[j] == sorted(index.nonzero_nn_bruteforce(q))
        assert batch_delta[j] == index.delta(q)
    return batch_nn


class TestEmptyAndTiny:
    def test_empty_query_batch(self):
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0), certain(3, 0)])
        assert index.batch_nonzero_nn([]) == []
        assert index.batch_delta([]).shape == (0,)
        assert index.batch_quantify([], method="monte_carlo") == []
        assert index.batch_top_k([], 3, method="monte_carlo") == []

    def test_empty_batch_numpy_input(self):
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0)])
        assert index.batch_nonzero_nn(np.empty((0, 2))) == []

    def test_single_point_index(self):
        index = PNNIndex([DiskUniformPoint((1.0, 2.0), 0.5)])
        queries = [(0.0, 0.0), (1.0, 2.0), (50.0, -3.0)]
        assert index.batch_nonzero_nn(queries) == [[0], [0], [0]]
        check_against_scalar(index, queries)

    def test_single_certain_point_index(self):
        index = PNNIndex([certain(1.0, 1.0)])
        assert index.batch_nonzero_nn([(1.0, 1.0), (0.0, 0.0)]) == [[0], [0]]
        assert index.batch_delta([(1.0, 1.0)])[0] == 0.0

    def test_malformed_queries_raise(self):
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0)])
        with pytest.raises(ValueError):
            index.batch_delta([(1.0, 2.0, 3.0)])

    def test_engine_rejects_empty_and_bad_backend(self):
        with pytest.raises(ValueError):
            BatchQueryEngine([])
        with pytest.raises(ValueError):
            BatchQueryEngine([certain(0, 0)], backend="gpu")


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteQueries:
    """NaN / ±inf coordinates are outside every engine's domain: each
    front door must raise ValueError (naming the rows for batches), never
    return an empty or confidently ranked answer."""

    @pytest.fixture(scope="class")
    def index(self):
        return PNNIndex(random_discrete_points(6, 2, seed=3, spread=2.0))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_batch_methods_name_the_rows(self, index, bad):
        queries = [(0.5, 0.5), (bad, 1.0), (1.0, 1.0), (2.0, bad)]
        calls = [index.batch_delta, index.batch_nonzero_nn,
                 index.batch_quantify, index.batch_quantify_exact,
                 index.batch_quantify_vpr,
                 lambda q: index.batch_top_k(q, 2),
                 lambda q: index.batch_threshold_nn(q, 0.3)]
        for call in calls:
            with pytest.raises(ValueError, match=r"row\(s\) 1, 3"):
                call(queries)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_scalar_methods_raise(self, index, bad):
        q = (1.0, bad)
        for call in (index.delta, index.nonzero_nn,
                     lambda p: index.quantify(p, method="exact"),
                     index.quantify, index.quantify_vpr,
                     lambda p: index.top_k_nn(p, 2),
                     lambda p: index.threshold_nn(p, 0.3)):
            with pytest.raises(ValueError, match="finite"):
                call(q)

    def test_service_submit_rejects_before_coalescing(self, index):
        with index.serve(workers=0, coalesce=True, cache_capacity=0) as svc:
            with pytest.raises(ValueError, match="finite"):
                svc.submit("quantify_exact", (float("nan"), 0.0))
            good = svc.submit("quantify_exact", (0.5, 0.5))
            assert good.result(timeout=30) == \
                index.batch_quantify_exact([(0.5, 0.5)])[0]
            with pytest.raises(ValueError, match="finite"):
                svc.batch("nonzero_nn", [(0.0, 0.0), (float("inf"), 0.0)])


class TestDuplicateQueries:
    def test_coincident_queries_get_identical_answers(self):
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0),
                          DiskUniformPoint((4, 0), 1.0), certain(2, 2)])
        q = (1.5, 0.25)
        batch = index.batch_nonzero_nn([q, q, q, q])
        assert batch[0] == batch[1] == batch[2] == batch[3]
        check_against_scalar(index, [q] * 4)

    def test_query_coincident_with_sites(self):
        index = PNNIndex([certain(0, 0), certain(1, 0),
                          DiskUniformPoint((0.5, 0), 0.25)])
        queries = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)]
        check_against_scalar(index, queries)


class TestCertainSupports:
    """Zero-radius supports: delta_i == Delta_i, the Lemma 2.1 edge."""

    def test_unique_nearest_certain_point_qualifies(self):
        # The unique nearest certain point must be reported even though
        # its min_dist equals the global minimum Delta (Eq. 4 naively
        # applied would drop it) — the j != i threshold is the second min.
        index = PNNIndex([certain(1, 0), certain(3, 0)])
        assert index.batch_nonzero_nn([(0.0, 0.0)]) == [[0]]
        check_against_scalar(index, [(0.0, 0.0), (1.0, 0.0), (1.9, 0.0)])

    def test_equidistant_certain_points_tie(self):
        # Exactly between two certain points neither dominates: the
        # nearest-neighbor event is a tie of probability-zero margin and
        # the scalar semantics report neither.  Batch must match, not
        # "fix", that convention.
        index = PNNIndex([certain(-1, 0), certain(1, 0)])
        q_tie = (0.0, 0.0)
        assert index.batch_nonzero_nn([q_tie]) == \
            [index.nonzero_nn(q_tie)] == \
            [sorted(index.nonzero_nn_bruteforce(q_tie))]
        # Nudged off the bisector the tie breaks to one side.
        check_against_scalar(index, [(0.25, 0.0), (-0.25, 0.0), q_tie])

    def test_certain_point_on_disk_delta_sphere(self):
        # Certain point exactly at distance Delta of a disk point: the
        # boundary where the strict < of Lemma 2.1 matters.
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0), certain(3, 0)])
        # At q = (1, 0): Delta_disk = 2, certain point at distance 2 - tie.
        check_against_scalar(index, [(1.0, 0.0), (1.25, 0.0), (0.75, 0.0)])

    def test_mixed_certain_and_extended(self):
        index = PNNIndex([certain(0, 0), DiskUniformPoint((0, 0), 0.5),
                          certain(2, 0), DiskUniformPoint((4, 0), 1.0)])
        queries = [(x / 4.0, y / 4.0) for x in range(-4, 20, 3)
                   for y in (-1, 0, 2)]
        check_against_scalar(index, queries)


class TestCellBoundaries:
    def test_queries_on_voronoi_style_boundaries(self):
        # Two equal disks: the bisector x = 2 is a V!=0 cell boundary;
        # points on it tie in Delta, so the unique-argmin rule flips.
        index = PNNIndex([DiskUniformPoint((0, 0), 1.0),
                          DiskUniformPoint((4, 0), 1.0)])
        queries = [(2.0, y) for y in (-2.0, 0.0, 1.0, 3.5)]
        queries += [(2.0 + eps, 0.0) for eps in (-0.25, 0.25)]
        check_against_scalar(index, queries)

    def test_boundary_grid_sweep(self):
        # A quantized grid over a symmetric configuration hits many exact
        # boundary coincidences; all three implementations must agree.
        index = PNNIndex([DiskUniformPoint((-2, 0), 1.0),
                          DiskUniformPoint((2, 0), 1.0),
                          certain(0, 2), certain(0, -2)])
        queries = [(x / 2.0, y / 2.0)
                   for x in range(-8, 9) for y in range(-8, 9)]
        check_against_scalar(index, queries)


class TestBackends:
    def test_forced_bucket_on_small_index(self):
        pts = [DiskUniformPoint((i * 1.0, (i % 3) * 1.0), 0.5)
               for i in range(7)] + [certain(2, 2)]
        index = PNNIndex(pts)
        queries = [(0.5, 0.5), (3.0, 1.0), (7.0, 0.0), (2.0, 2.0)]
        bucket = BatchQueryEngine(pts, backend="bucket")
        assert bucket.nonzero_nn(queries) == index.batch_nonzero_nn(queries)

    def test_auto_backend_thresholds(self):
        small = PNNIndex([certain(i, 0) for i in range(5)])
        assert small.batch_engine().backend == "dense"
        disks = random_disks(1500, seed=5, extent=60.0)
        big = PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks])
        assert big.batch_engine().backend == "bucket"

    def test_bucket_matches_scalar_on_large_discrete_index(self):
        pts = random_discrete_points(1400, 3, seed=11, extent=70.0,
                                     spread=0.4)
        index = PNNIndex(pts)
        assert index.batch_engine().backend == "bucket"
        rng = random.Random(13)
        queries = [(rng.uniform(-5, 75), rng.uniform(-5, 75))
                   for _ in range(60)]
        check_against_scalar(index, queries)

    def test_chunking_boundaries(self):
        # More queries than one chunk: answers must be seamless across
        # chunk edges (chunk size is n-dependent, so use a biggish n).
        disks = random_disks(700, seed=17, extent=50.0)
        index = PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks])
        rng = random.Random(19)
        queries = [(rng.uniform(0, 50), rng.uniform(0, 50))
                   for _ in range(500)]
        batch = index.batch_nonzero_nn(queries)
        for j in (0, 93, 94, 95, 187, 188, 250, 499):
            assert batch[j] == index.nonzero_nn(queries[j])


class TestMonteCarloBatchEdges:
    def test_empty_queries(self):
        mc = MonteCarloQuantifier([certain(0, 0), certain(2, 0)],
                                  rounds=10, seed=0)
        assert mc.estimate_matrix([]).shape == (0, 2)
        assert mc.estimate_batch([]) == []

    def test_certain_points_are_deterministic(self):
        mc = MonteCarloQuantifier([certain(0, 0), certain(2, 0)],
                                  rounds=25, seed=0)
        est = mc.estimate_batch([(0.5, 0.0), (1.75, 0.0)])
        assert est[0] == {0: 1.0}
        assert est[1] == {1: 1.0}

    def test_batch_equals_scalar_rowwise(self):
        pts = random_discrete_points(6, 3, seed=23, spread=1.5)
        mc = MonteCarloQuantifier(pts, rounds=60, seed=2)
        queries = [(0.0, 0.0), (5.0, 5.0), (2.5, 1.0), (2.5, 1.0)]
        mat = mc.estimate_matrix(queries)
        for q, row in zip(queries, mat):
            assert mc.estimate_vector(q) == list(row)
        assert list(mat[2]) == list(mat[3])  # duplicate queries

    def test_space_cost_unchanged(self):
        pts = [certain(0, 0), certain(1, 1), certain(2, 0)]
        mc = MonteCarloQuantifier(pts, rounds=17, seed=0)
        assert mc.space_cost() == 17 * 3
        assert mc.instantiations.shape == (17, 3, 2)


class TestQuantifyFallbacks:
    def test_exact_method_batches_via_loop(self):
        pts = [DiscreteUncertainPoint([(0, 0), (1, 0)], [0.5, 0.5]),
               DiscreteUncertainPoint([(3, 0)], [1.0])]
        index = PNNIndex(pts)
        queries = [(0.5, 0.0), (2.0, 0.0)]
        batch = index.batch_quantify(queries, method="exact")
        scalar = [index.quantify(q, method="exact") for q in queries]
        assert batch == scalar

    def test_spiral_method_batches_via_loop(self):
        pts = random_discrete_points(5, 3, seed=29, spread=1.0)
        index = PNNIndex(pts)
        queries = [(1.0, 1.0), (4.0, 2.0)]
        batch = index.batch_quantify(queries, method="spiral", epsilon=0.2)
        scalar = [index.quantify(q, method="spiral", epsilon=0.2)
                  for q in queries]
        assert batch == scalar

    def test_batch_top_k_zero_k(self):
        index = PNNIndex([certain(0, 0), certain(1, 0)])
        assert index.batch_top_k([(0.5, 0.0)], 0) == [[]]
