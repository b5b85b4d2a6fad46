"""Property suite for the vectorized geometry kernels and the V_Pr pipeline.

The contract under test is *bitwise* agreement between the batched NumPy
kernels and their scalar references:

* :func:`segment_intersections_batch` vs :func:`segment_intersection` —
  crossing, touching, shared-endpoint, near-parallel and collinear
  configurations, identical hit masks and identical intersection floats;
* :func:`line_box_clip_batch` vs :func:`line_box_clip` — identical
  validity masks and endpoints;
* ``SegmentArrangement`` vs the ``ScalarSegmentArrangement`` oracle —
  identical vertex coordinates (bit for bit), identical edges, identical
  face loops and areas, Euler's relation on the vectorized counts;
* ``ProbabilisticVoronoiDiagram`` vs the ``ScalarVPRDiagram`` oracle —
  identical V/E/F counts and bitwise-equal face probability vectors;
* the ``SlabPointLocator`` oracle's ``locate_batch`` vs per-query
  ``locate``.

The oracles live in :mod:`repro.testing.oracles`.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.seg_arrangement import SegmentArrangement
from repro.geometry.segments import (
    bisector_line,
    line_box_clip,
    line_box_clip_batch,
    segment_intersection,
    segment_intersections_batch,
)
from repro.quantification.exact_discrete import quantification_vector
from repro.testing.oracles import (ScalarSegmentArrangement,
                                   ScalarVPRDiagram, SlabPointLocator,
                                   interior_point)
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.vpr import ProbabilisticVoronoiDiagram


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_floats(a, b):
    __tracebackhint__ = True
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert bits(float(x)) == bits(float(y)), (a, b)


coords = st.floats(min_value=-50, max_value=50,
                   allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


# ----------------------------------------------------------------------
# segment_intersections_batch vs segment_intersection.
# ----------------------------------------------------------------------

def _pairwise_check(segs):
    arr = np.asarray(segs, dtype=np.float64).reshape(len(segs), 4)
    ax, ay, bx, by = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    pi, pj = np.triu_indices(len(segs), 1)
    px, py, hit = segment_intersections_batch(ax, ay, bx, by, pi, pj)
    for p in range(len(pi)):
        i, j = int(pi[p]), int(pj[p])
        a, b = (segs[i][0], segs[i][1]), (segs[i][2], segs[i][3])
        c, d = (segs[j][0], segs[j][1]), (segs[j][2], segs[j][3])
        want = segment_intersection(a, b, c, d)
        assert (want is not None) == bool(hit[p])
        if want is not None:
            assert_same_floats(want, (px[p], py[p]))


class TestSegmentIntersectionBatch:
    def test_crossing_touching_shared_collinear(self):
        segs = [
            (-1.0, 0.0, 1.0, 0.0),     # horizontal
            (0.0, -1.0, 0.0, 1.0),     # proper crossing
            (1.0, 0.0, 1.0, 1.0),      # touching at an endpoint
            (0.0, 0.0, 2.0, 0.0),      # collinear overlap (rejected)
            (0.5, -1.0, 0.5, 0.0),     # T-junction
            (3.0, 0.0, 4.0, 0.0),      # disjoint collinear
            (0.0, 1e-13, 2.0, -1e-13),  # near-parallel to the horizontal
        ]
        _pairwise_check(segs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(points, points), min_size=2, max_size=8))
    def test_random_configurations(self, seg_pairs):
        segs = [(a[0], a[1], b[0], b[1]) for a, b in seg_pairs]
        _pairwise_check(segs)

    def test_shared_endpoint_fan(self):
        segs = [(0.0, 0.0, math.cos(t), math.sin(t))
                for t in (0.1, 0.9, 2.2, 4.0)]
        _pairwise_check(segs)


# ----------------------------------------------------------------------
# line_box_clip_batch vs line_box_clip.
# ----------------------------------------------------------------------

class TestLineBoxClipBatch:
    BOX = ((-1.3, -0.7), (2.1, 1.9))

    def _check(self, lines):
        A = [a for a, _, _ in lines]
        B = [b for _, b, _ in lines]
        C = [c for _, _, c in lines]
        segs, valid = line_box_clip_batch(A, B, C, self.BOX)
        for i, (a, b, c) in enumerate(lines):
            want = line_box_clip(a, b, c, self.BOX)
            assert (want is not None) == bool(valid[i])
            if want is not None:
                flat = (want[0][0], want[0][1], want[1][0], want[1][1])
                assert_same_floats(flat, segs[i])

    def test_axis_aligned_and_missing(self):
        self._check([(0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (0.0, 1.0, 50.0),
                     (1.0, 0.0, -50.0), (1.0, 1.0, 0.0), (1e-12, 1.0, 0.5)])

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_random_lines(self, a, b, c):
        if abs(a) < 1e-6 and abs(b) < 1e-6:
            return
        self._check([(a, b, c)])

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            line_box_clip_batch([0.0], [0.0], [1.0], self.BOX)

    def test_bisectors_of_random_sites(self):
        rng = random.Random(5)
        lines = []
        for _ in range(60):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if p != q:
                lines.append(bisector_line(p, q))
        self._check(lines)


# ----------------------------------------------------------------------
# Arrangement parity: vectorized vs the scalar oracle.
# ----------------------------------------------------------------------

def random_segments(rng, kind):
    segs = []
    if kind == 0:        # long random lines (many proper crossings)
        for _ in range(rng.randrange(3, 12)):
            ang = rng.uniform(0, math.pi)
            off = rng.uniform(-2, 2)
            dx, dy = math.cos(ang), math.sin(ang)
            mid = (-off * dy, off * dx)
            segs.append(((mid[0] - 10 * dx, mid[1] - 10 * dy),
                         (mid[0] + 10 * dx, mid[1] + 10 * dy)))
    elif kind == 1:      # grid + diagonal (exact shared endpoints)
        k = rng.randrange(2, 5)
        for i in range(k + 1):
            segs.append(((0.0, float(i)), (float(k), float(i))))
            segs.append(((float(i), 0.0), (float(i), float(k))))
        segs.append(((0.0, 0.0), (float(k), float(k))))
    elif kind == 2:      # near-concurrent star (tolerance merging)
        for j in range(6):
            a = j * math.pi / 6 + 1e-12 * j
            segs.append(((-math.cos(a), -math.sin(a)),
                         (math.cos(a), math.sin(a))))
        for _ in range(4):
            segs.append(((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         (rng.uniform(-1, 1), rng.uniform(-1, 1))))
    else:                # short segments incl. zero-length rejects
        for _ in range(rng.randrange(5, 18)):
            a = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            if rng.random() < 0.9:
                b = (a[0] + rng.uniform(-1, 1), a[1] + rng.uniform(-1, 1))
            else:
                b = a
            segs.append((a, b))
    return segs


class TestArrangementModeParity:
    @pytest.mark.parametrize("trial", range(16))
    def test_bitwise_identical_arrangements(self, trial):
        rng = random.Random(100 + trial)
        segs = random_segments(rng, trial % 4)
        s = ScalarSegmentArrangement(segs)
        v = SegmentArrangement(segs)
        assert s.num_vertices == v.num_vertices
        for p, q in zip(s.vertices, v.vertices):
            assert_same_floats((float(p[0]), float(p[1])),
                               (float(q[0]), float(q[1])))
        assert s.edges == v.edges
        assert s.face_loops == v.face_loops
        assert_same_floats(s.face_areas, v.face_areas)
        assert s.face_interior_points() == v.face_interior_points()

    @pytest.mark.parametrize("trial", range(8))
    def test_euler_relation_vector_mode(self, trial):
        rng = random.Random(200 + trial)
        arr = SegmentArrangement(random_segments(rng, trial % 4))
        if arr.num_edges:
            assert arr.num_faces == \
                arr.num_edges - arr.num_vertices + 1 + arr.num_components
        loops = len(arr.face_loops)
        assert loops == arr.bounded_face_count() + arr.num_components

    def test_interior_points_match_scalar_reference(self):
        rng = random.Random(9)
        arr = SegmentArrangement(random_segments(rng, 1))
        got = arr.face_interior_points()
        want = [interior_point([arr.vertices[v] for v in loop])
                for loop in arr.bounded_face_loops()]
        for g, w in zip(got, want):
            assert_same_floats(g, w)

    def test_array_input_accepted(self):
        rows = np.array([[0.0, 0.0, 2.0, 0.0], [1.0, -1.0, 1.0, 1.0]])
        arr = SegmentArrangement(rows)
        assert (arr.num_vertices, arr.num_edges) == (5, 4)


# ----------------------------------------------------------------------
# V_Pr build parity: vectorized vs the scalar oracle.
# ----------------------------------------------------------------------

def random_uncertain(n, k, seed, extent=5.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        sites = [(rng.uniform(0, extent), rng.uniform(0, extent))
                 for _ in range(k)]
        weights = [rng.uniform(0.5, 2.0) for _ in range(k)]
        out.append(DiscreteUncertainPoint(sites, weights))
    return out


class TestVprModeParity:
    @pytest.mark.parametrize("seed,n,k", [(1, 3, 2), (2, 4, 2), (3, 3, 3),
                                          (4, 5, 2), (5, 2, 4)])
    def test_bitwise_identical_diagrams(self, seed, n, k):
        pts = random_uncertain(n, k, seed)
        s = ScalarVPRDiagram(pts)
        v = ProbabilisticVoronoiDiagram(pts)
        assert (s.num_vertices, s.arrangement.num_edges, s.num_faces) == \
            (v.num_vertices, v.arrangement.num_edges, v.num_faces)
        assert s.complexity == v.complexity
        assert np.array_equal(s._face_matrix, v._face_matrix)
        assert set(s._face_vectors) == set(v._face_vectors)
        for loop, vec in s._face_vectors.items():
            assert_same_floats(vec, v._face_vectors[loop])
        assert s.distinct_vectors() == v.distinct_vectors()

    def test_duplicate_and_shared_sites(self):
        pts = [DiscreteUncertainPoint([(0, 0), (1, 1)], [0.5, 0.5]),
               DiscreteUncertainPoint([(0, 0), (2, 2)], [0.5, 0.5]),
               DiscreteUncertainPoint([(1, 1), (1, 1)], [0.3, 0.7])]
        s = ScalarVPRDiagram(pts)
        v = ProbabilisticVoronoiDiagram(pts)
        assert s.num_faces == v.num_faces
        for loop, vec in s._face_vectors.items():
            assert_same_floats(vec, v._face_vectors[loop])

    def test_query_and_query_batch_agree(self):
        pts = random_uncertain(4, 2, seed=11)
        v = ProbabilisticVoronoiDiagram(pts)
        rng = random.Random(77)
        qs = [(rng.uniform(-3, 8), rng.uniform(-3, 8)) for _ in range(120)]
        mat = v.query_batch(qs)
        assert mat.shape == (120, 4)
        for j, q in enumerate(qs):
            assert_same_floats(v.query(q), mat[j])
            want = quantification_vector(pts, q)
            assert max(abs(a - b) for a, b in zip(mat[j], want)) < 1e-9

    def test_query_batch_duck_typed_points_fall_back_scalar(self):
        """The scalar oracle supports duck-typed site models; query_batch's
        out-of-window fallback must match query() for them too."""
        class DuckSites:
            def __init__(self, sites, weights):
                self._sw = list(zip(sites, weights))
                self.k = len(sites)

            def sites_with_weights(self):
                return list(self._sw)

        pts = [DuckSites([(0.0, 0.0), (1.0, 1.0)], [0.5, 0.5]),
               DuckSites([(3.0, 0.0)], [1.0])]
        vpr = ScalarVPRDiagram(pts)
        qs = [(0.5, 0.2), (100.0, 100.0)]   # inside + far outside
        mat = vpr.query_batch(qs)
        for j, q in enumerate(qs):
            assert_same_floats(vpr.query(q), mat[j])
        # The production build must also accept duck-typed models,
        # labeling through the scalar sweep instead of the batch engine.
        vec = ProbabilisticVoronoiDiagram(pts)
        assert vec.num_faces == vpr.num_faces
        for loop, v in vpr._face_vectors.items():
            assert_same_floats(v, vec._face_vectors[loop])


# ----------------------------------------------------------------------
# Box-padding heuristic (satellite regression).
# ----------------------------------------------------------------------

class TestBoxPadding:
    def test_far_from_origin_cloud_keeps_local_window(self):
        """The old heuristic mixed a raw coordinate into the spread, so a
        cloud near (1000, 1000) got a ~750-unit pad; the pad must scale
        with the cloud's extent, not its distance from the origin."""
        rng = random.Random(3)
        far = [DiscreteUncertainPoint(
            [(1000.0 + rng.uniform(0, 2), 1000.0 + rng.uniform(0, 2))
             for _ in range(2)], [0.5, 0.5]) for _ in range(3)]
        vpr = ProbabilisticVoronoiDiagram(far)
        (xmin, ymin), (xmax, ymax) = vpr.box
        assert xmax - xmin <= 3.0 * 2.5   # extent + 2 * 0.75 * spread
        assert ymax - ymin <= 3.0 * 2.5
        # Queries stay exact, inside and outside the window.
        for q in [(1001.0, 1001.0), (900.0, 900.0)]:
            want = quantification_vector(far, q)
            assert max(abs(a - b)
                       for a, b in zip(vpr.query(q), want)) < 1e-9

    def test_translation_invariant_window_shape(self):
        rng = random.Random(4)
        base = [[(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(2)]
                for _ in range(3)]
        near = [DiscreteUncertainPoint(s, [0.5, 0.5]) for s in base]
        shifted = [DiscreteUncertainPoint(
            [(x + 500.0, y - 300.0) for x, y in s], [0.5, 0.5])
            for s in base]
        a = ProbabilisticVoronoiDiagram(near)
        b = ProbabilisticVoronoiDiagram(shifted)
        (ax0, ay0), (ax1, ay1) = a.box
        (bx0, by0), (bx1, by1) = b.box
        assert (ax1 - ax0) == pytest.approx(bx1 - bx0)
        assert (ay1 - ay0) == pytest.approx(by1 - by0)

    def test_degenerate_cloud_floors_pad(self):
        pts = [DiscreteUncertainPoint([(5.0, 5.0)], [1.0]),
               DiscreteUncertainPoint([(5.1, 5.0)], [1.0])]
        vpr = ProbabilisticVoronoiDiagram(pts)
        (xmin, _), (xmax, _) = vpr.box
        assert xmax - xmin >= 1.0   # spread floor keeps a usable window


# ----------------------------------------------------------------------
# Slab oracle: locate_batch vs per-query locate.
# ----------------------------------------------------------------------

class TestLocateBatch:
    def _parity(self, arr, qs):
        loc = SlabPointLocator(arr)
        batch = loc.locate_batch(qs)
        for j, q in enumerate(qs):
            want = loc.locate(q)
            got = None if batch[j] < 0 else int(batch[j])
            assert want == got, (q, want, got)

    def test_grid(self):
        segs = []
        for i in range(4):
            segs.append(((0.0, float(i)), (3.0, float(i))))
            segs.append(((float(i), 0.0), (float(i), 3.0)))
        arr = SegmentArrangement(segs)
        rng = random.Random(8)
        qs = [(rng.uniform(-1, 4), rng.uniform(-1, 4)) for _ in range(300)]
        qs += [(1.0, 1.5), (0.0, 0.5), (3.0, 3.0), (10.0, 10.0)]
        self._parity(arr, qs)

    def test_bisector_arrangement(self):
        rng = random.Random(21)
        sites = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(6)]
        box = ((-1.0, -1.0), (5.0, 5.0))
        segs = []
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                a, b, c = bisector_line(sites[i], sites[j])
                clipped = line_box_clip(a, b, c, box)
                if clipped:
                    segs.append(clipped)
        (xmin, ymin), (xmax, ymax) = box
        segs += [((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
                 ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]
        arr = SegmentArrangement(segs)
        qs = [(rng.uniform(-2, 6), rng.uniform(-2, 6)) for _ in range(400)]
        self._parity(arr, qs)

    def test_empty_and_shapes(self):
        arr = SegmentArrangement([])
        loc = SlabPointLocator(arr)
        out = loc.locate_batch([(0.0, 0.0), (1.0, 1.0)])
        assert out.tolist() == [-1, -1]
        assert loc.locate_batch(np.empty((0, 2))).shape == (0,)
        assert loc.locate_all([(0.0, 0.0)]) == [None]

    def test_single_vertical_segment_zero_slabs(self):
        """All vertices on one x-coordinate: no slabs, everything is
        unbounded — locate_batch must agree with locate, not crash."""
        arr = SegmentArrangement([((0.0, 0.0), (0.0, 1.0))])
        loc = SlabPointLocator(arr)
        qs = [(0.0, 0.5), (0.0, 0.0), (1.0, 0.5), (-1.0, 0.5)]
        assert loc.locate_batch(qs).tolist() == [-1, -1, -1, -1]
        for q in qs:
            assert loc.locate(q) is None
