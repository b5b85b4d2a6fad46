"""Unit tests for the exact probabilistic Voronoi diagram (Theorem 4.2)."""

import random
import time

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.quantification.exact_discrete import quantification_vector
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.vpr import ProbabilisticVoronoiDiagram


def random_points(n, k, seed, extent=5.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        sites = [(rng.uniform(0, extent), rng.uniform(0, extent))
                 for _ in range(k)]
        weights = [rng.uniform(0.5, 2.0) for _ in range(k)]
        out.append(DiscreteUncertainPoint(sites, weights))
    return out


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ProbabilisticVoronoiDiagram([])

    def test_two_certain_points(self):
        pts = [DiscreteUncertainPoint([(0, 0)], [1.0]),
               DiscreteUncertainPoint([(4, 0)], [1.0])]
        vpr = ProbabilisticVoronoiDiagram(pts)
        # One bisector through the box: two cells.
        assert vpr.num_faces == 2
        assert vpr.query((1, 0)) == [1.0, 0.0]
        assert vpr.query((3, 0)) == [0.0, 1.0]

    def test_face_count_positive(self):
        vpr = ProbabilisticVoronoiDiagram(random_points(3, 2, seed=1))
        assert vpr.num_faces >= 4
        assert vpr.num_vertices > 0
        assert vpr.complexity >= vpr.num_faces

    def test_duplicate_sites_tolerated(self):
        pts = [DiscreteUncertainPoint([(0, 0), (1, 1)], [0.5, 0.5]),
               DiscreteUncertainPoint([(0, 0), (2, 2)], [0.5, 0.5])]
        vpr = ProbabilisticVoronoiDiagram(pts)  # shared site (0, 0)
        assert vpr.num_faces >= 2


class TestQueries:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_query_matches_direct_sweep(self, seed):
        pts = random_points(4, 2, seed=seed)
        vpr = ProbabilisticVoronoiDiagram(pts)
        rng = random.Random(seed + 100)
        for _ in range(60):
            q = (rng.uniform(0, 5), rng.uniform(0, 5))
            got = vpr.query(q)
            want = quantification_vector(pts, q)
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    def test_locator_is_built_lazily(self):
        """Building the diagram leaves point location to the first query
        (batch parity is pinned in test_vectorized_kernels)."""
        vpr = PNNIndex(random_discrete_points(6, 2, seed=31,
                                              spread=2.0)).build_vpr()
        assert vpr._locator is None, "locator must not be built eagerly"
        rng = random.Random(17)
        qs = np.array([(rng.uniform(-1, 5), rng.uniform(-1, 5))
                       for _ in range(500)])
        start = time.perf_counter()
        assert len(vpr.query_batch(qs)) == len(qs)
        # Locator build plus 500 queries: a bound against a wedged or
        # quadratic build, not a speed bar.
        assert time.perf_counter() - start < 30.0
        assert vpr._locator is not None

    def test_query_outside_box_falls_back(self):
        pts = random_points(3, 2, seed=7)
        vpr = ProbabilisticVoronoiDiagram(pts)
        q = (1000.0, 1000.0)
        got = vpr.query(q)
        want = quantification_vector(pts, q)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    def test_positive_probabilities_sparse(self):
        pts = random_points(5, 2, seed=9)
        vpr = ProbabilisticVoronoiDiagram(pts)
        out = vpr.positive_probabilities((2.5, 2.5))
        assert all(v > 0 for v in out.values())
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)

    def test_probability_vectors_sum_to_one(self):
        pts = random_points(4, 3, seed=11)
        vpr = ProbabilisticVoronoiDiagram(pts)
        rng = random.Random(0)
        for _ in range(40):
            q = (rng.uniform(0, 5), rng.uniform(0, 5))
            assert sum(vpr.query(q)) == pytest.approx(1.0, abs=1e-9)

    def test_vector_constant_within_face(self):
        """Lemma 4.1's defining property: pi is constant on each cell."""
        pts = random_points(3, 2, seed=13)
        vpr = ProbabilisticVoronoiDiagram(pts)
        rng = random.Random(1)
        by_face = {}
        for _ in range(300):
            q = (rng.uniform(0, 5), rng.uniform(0, 5))
            face = vpr.locator.locate(q)
            if face is None:
                continue
            vec = tuple(round(v, 9) for v in quantification_vector(pts, q))
            if face in by_face:
                assert by_face[face] == vec
            else:
                by_face[face] = vec

    def test_distinct_vectors_counted(self):
        pts = random_points(3, 2, seed=17)
        vpr = ProbabilisticVoronoiDiagram(pts)
        assert 1 <= vpr.distinct_vectors() <= vpr.num_faces
