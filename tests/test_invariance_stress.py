"""Invariance and numerical-stress tests.

The diagram combinatorics must be invariant under translation, uniform
scaling and rotation of the input; the query semantics must survive large
coordinate offsets.  These tests guard the tolerance model (``repro.geometry.primitives``;
"Reproduction notes" in README.md).
"""

import math
import random

import pytest

from repro.core.workloads import random_disks
from repro.geometry.disks import Disk, nonzero_nn_bruteforce
from repro.quantification.exact_discrete import quantification_vector
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.diagram import NonzeroVoronoiDiagram


def transform_disks(disks, scale=1.0, dx=0.0, dy=0.0, angle=0.0):
    out = []
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    for d in disks:
        x = d.cx * cos_a - d.cy * sin_a
        y = d.cx * sin_a + d.cy * cos_a
        out.append(Disk(x * scale + dx, y * scale + dy, d.r * scale))
    return out


BASE = random_disks(9, seed=77, extent=10.0, r_min=0.3, r_max=1.0)
BASE_DIAGRAM = NonzeroVoronoiDiagram(BASE)


class TestDiagramInvariance:
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_scaling_preserves_counts(self, scale):
        diagram = NonzeroVoronoiDiagram(transform_disks(BASE, scale=scale))
        assert diagram.num_vertices == BASE_DIAGRAM.num_vertices
        assert diagram.num_edges == BASE_DIAGRAM.num_edges
        assert diagram.num_faces == BASE_DIAGRAM.num_faces

    @pytest.mark.parametrize("offset", [(1e3, -1e3), (1e5, 1e5)])
    def test_translation_preserves_counts(self, offset):
        diagram = NonzeroVoronoiDiagram(
            transform_disks(BASE, dx=offset[0], dy=offset[1]))
        assert diagram.num_vertices == BASE_DIAGRAM.num_vertices
        assert diagram.num_edges == BASE_DIAGRAM.num_edges
        assert diagram.num_faces == BASE_DIAGRAM.num_faces

    @pytest.mark.parametrize("angle", [0.3, 1.1, 2.7])
    def test_rotation_preserves_counts(self, angle):
        diagram = NonzeroVoronoiDiagram(transform_disks(BASE, angle=angle))
        assert diagram.num_vertices == BASE_DIAGRAM.num_vertices
        assert diagram.num_edges == BASE_DIAGRAM.num_edges
        assert diagram.num_faces == BASE_DIAGRAM.num_faces

    def test_vertices_transform_covariantly(self):
        angle, scale, dx, dy = 0.7, 3.0, 5.0, -2.0
        moved = NonzeroVoronoiDiagram(
            transform_disks(BASE, scale=scale, dx=dx, dy=dy, angle=angle))
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        mapped = sorted(
            (round((p[0] * cos_a - p[1] * sin_a) * scale + dx, 5),
             round((p[0] * sin_a + p[1] * cos_a) * scale + dy, 5))
            for p in BASE_DIAGRAM.vertex_points())
        got = sorted((round(p[0], 5), round(p[1], 5))
                     for p in moved.vertex_points())
        assert len(mapped) == len(got)
        for a, b in zip(mapped, got):
            assert math.dist(a, b) < 1e-3


class TestQuerySemanticsUnderOffset:
    def test_nonzero_nn_far_from_origin(self):
        rng = random.Random(5)
        offset = 1e6
        disks = [Disk(offset + rng.uniform(0, 10), offset + rng.uniform(0, 10),
                      rng.uniform(0.3, 1.0)) for _ in range(12)]
        reference = [Disk(d.cx - offset, d.cy - offset, d.r) for d in disks]
        for _ in range(50):
            qx, qy = rng.uniform(0, 10), rng.uniform(0, 10)
            far = nonzero_nn_bruteforce(disks, (offset + qx, offset + qy))
            near = nonzero_nn_bruteforce(reference, (qx, qy))
            assert far == near

    def test_quantification_translation_invariant(self):
        rng = random.Random(6)
        pts, moved = [], []
        offset = 1e5
        for _ in range(6):
            sites = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(3)]
            weights = [rng.uniform(0.5, 2.0) for _ in range(3)]
            pts.append(DiscreteUncertainPoint(sites, weights))
            moved.append(DiscreteUncertainPoint(
                [(x + offset, y + offset) for x, y in sites],
                list(pts[-1].weights), normalize=False))
        q = (4.4, 6.1)
        a = quantification_vector(pts, q)
        b = quantification_vector(moved, (q[0] + offset, q[1] + offset))
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-7

    def test_tiny_radii(self):
        disks = [Disk(0, 0, 1e-9), Disk(3, 0, 1e-9), Disk(0, 4, 1e-9)]
        diagram = NonzeroVoronoiDiagram(disks)
        # Near-certain points: the diagram approximates the standard
        # Voronoi diagram; queries remain sane.
        assert diagram.nonzero_nn((0.1, 0.1)) == [0]

    def test_huge_radii(self):
        disks = [Disk(0, 0, 1e6), Disk(3e6, 0, 1e6)]
        diagram = NonzeroVoronoiDiagram(disks)
        assert diagram.nonzero_nn((1.5e6, 0.0)) == [0, 1]
