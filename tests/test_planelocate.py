"""Merged-slab locator vs. the slab oracle: bitwise equivalence.

The persistent plane locator replaces the slab table's ``Theta(V * S)``
rows with an ``O(E log S)`` segment tree, and the contract is stronger
than "same faces": every ``locate`` / ``locate_batch`` / ``locate_all``
answer must be **bitwise identical** to the slab oracle's
(:class:`repro.testing.oracles.SlabPointLocator`), including on
tie-heavy lattice inputs, at exact vertices, and a half-ulp off edges.
"""

import math
import random

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.geometry.seg_arrangement import SegmentArrangement
from repro.geometry.segments import bisector_line, line_box_clip
from repro.spatial.kernels import native_available
from repro.spatial.planelocate import (PersistentPlaneLocator,
                                       plane_locate_scalar, slab_table_rows)
from repro.testing.oracles import SlabPointLocator


def boxed(segments, box):
    (xmin, ymin), (xmax, ymax) = box
    return list(segments) + [
        ((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
        ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]


def bisector_arrangement(sites, box):
    segs = []
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            a, b, c = bisector_line(sites[i], sites[j])
            seg = line_box_clip(a, b, c, box)
            if seg:
                segs.append(seg)
    return SegmentArrangement(boxed(segs, box))


def assert_locators_agree(arr, queries):
    """Every API of both locators, elementwise identical."""
    slab = SlabPointLocator(arr)
    tree = PersistentPlaneLocator(arr)
    q = np.asarray(queries, dtype=np.float64)
    got_slab = slab.locate_batch(q)
    got_tree = tree.locate_batch(q)
    assert np.array_equal(got_slab, got_tree), \
        f"locate_batch diverges at rows " \
        f"{np.flatnonzero(got_slab != got_tree)[:5]}"
    assert slab.locate_all(q) == tree.locate_all(q)
    for point in q[:64]:
        assert slab.locate(tuple(point)) == tree.locate(tuple(point))
    return got_slab


class TestGridEquivalence:
    def setup_method(self):
        segs = []
        for i in range(4):
            segs.append(((0.0, float(i)), (3.0, float(i))))
            segs.append(((float(i), 0.0), (float(i), 3.0)))
        self.arr = SegmentArrangement(segs)

    def test_cell_centers(self):
        q = [(i + 0.5, j + 0.5) for i in range(3) for j in range(3)]
        faces = assert_locators_agree(self.arr, q)
        assert len(set(faces.tolist())) == 9
        assert (faces >= 0).all()

    def test_outside_and_boundary(self):
        q = [(10.0, 10.0), (-5.0, 1.0), (1.5, 3.5),   # outside
             (0.0, 0.5), (3.0, 0.5), (1.0, 1.0),       # on edges/vertices
             (1.5, 2.0), (2.0, 1.5)]
        assert_locators_agree(self.arr, q)

    def test_scalar_matches_batch(self):
        tree = PersistentPlaneLocator(self.arr)
        q = [(0.5, 0.5), (2.5, 2.5), (9.0, 9.0), (1.0, 1.0)]
        batch = tree.locate_batch(q)
        for point, want in zip(q, batch.tolist()):
            got = tree.locate(point)
            assert got == (None if want < 0 else want)


class TestBisectorEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_sites(self, seed):
        rng = random.Random(seed)
        sites = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(6)]
        box = ((-1.0, -1.0), (5.0, 5.0))
        arr = bisector_arrangement(sites, box)
        q = [(rng.uniform(-1.5, 5.5), rng.uniform(-1.5, 5.5))
             for _ in range(400)]
        assert_locators_agree(arr, q)

    def test_queries_at_vertices_and_near_edges(self):
        rng = random.Random(9)
        sites = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(5)]
        arr = bisector_arrangement(sites, ((-1.0, -1.0), (5.0, 5.0)))
        vx, vy = arr._vx, arr._vy
        picks = rng.sample(range(len(vx)), min(80, len(vx)))
        q = [(float(vx[i]), float(vy[i])) for i in picks]
        q += [(float(vx[i]) + 1e-9, float(vy[i]) - 1e-9) for i in picks]
        q += [(float(vx[i]) - 1e-9, float(vy[i]) + 1e-9) for i in picks]
        assert_locators_agree(arr, q)

    def test_faces_match_nearest_site(self):
        """Sanity beyond parity: cells really are nearest-site regions."""
        rng = random.Random(4)
        sites = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(5)]
        arr = bisector_arrangement(sites, ((-1.0, -1.0), (5.0, 5.0)))
        tree = PersistentPlaneLocator(arr)
        face_to_site = {}
        for _ in range(300):
            q = (rng.uniform(-0.9, 4.9), rng.uniform(-0.9, 4.9))
            face = tree.locate(q)
            assert face is not None
            nearest = min(range(len(sites)),
                          key=lambda s: math.dist(sites[s], q))
            assert face_to_site.setdefault(face, nearest) == nearest


class TestTieHeavyLattice:
    """Integer-lattice sites: collinear bisectors, shared vertices,
    axis-aligned edges — the inputs where a wrong tiebreak shows up."""

    def test_lattice_sites_lattice_queries(self):
        sites = [(float(i), float(j)) for i in range(3) for j in range(3)]
        box = ((-1.0, -1.0), (3.0, 3.0))
        arr = bisector_arrangement(sites, box)
        q = [(x * 0.25 - 1.0, y * 0.25 - 1.0)
             for x in range(17) for y in range(17)]
        assert_locators_agree(arr, q)

    def test_collinear_horizontal_stack(self):
        sites = [(0.0, float(j)) for j in range(4)]
        box = ((-2.0, -1.0), (2.0, 4.0))
        arr = bisector_arrangement(sites, box)
        q = [(x * 0.5 - 2.0, y * 0.5 - 1.0)
             for x in range(9) for y in range(11)]
        assert_locators_agree(arr, q)


class TestDegenerate:
    def test_single_segment_no_slab(self):
        # One vertical segment: a single distinct x, zero slabs.
        arr = SegmentArrangement([((1.0, 0.0), (1.0, 2.0))])
        tree = PersistentPlaneLocator(arr)
        assert tree.locate((1.0, 1.0)) is None
        assert tree.locate_batch([(1.0, 1.0), (0.0, 0.0)]).tolist() \
            == [-1, -1]
        stats = tree.stats()
        assert stats["kind"] == "persistent" and stats["entries"] == 0

    def test_empty_query_batch(self):
        arr = bisector_arrangement([(0.0, 0.0), (2.0, 0.0)],
                                   ((-1.0, -1.0), (3.0, 1.0)))
        tree = PersistentPlaneLocator(arr)
        out = tree.locate_batch(np.empty((0, 2)))
        assert out.shape == (0,)

    def test_scalar_reference_out_of_range(self):
        xs = np.array([0.0, 1.0])
        offs = np.zeros(3, dtype=np.int64)
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        assert plane_locate_scalar(5.0, 0.0, xs, offs, empty_i, empty_i,
                                   empty_f, empty_f, 1) == -1


class TestKernelParity:
    def test_numpy_vs_native(self):
        if not native_available():
            pytest.skip("native kernel unavailable; numpy is the oracle")
        rng = random.Random(11)
        sites = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(7)]
        arr = bisector_arrangement(sites, ((-1.0, -1.0), (5.0, 5.0)))
        q = np.column_stack([
            np.random.default_rng(12).uniform(-1.5, 5.5, 2000),
            np.random.default_rng(13).uniform(-1.5, 5.5, 2000)])
        got_numpy = PersistentPlaneLocator(arr, kernel="numpy") \
            .locate_batch(q)
        got_native = PersistentPlaneLocator(arr, kernel="native") \
            .locate_batch(q)
        assert np.array_equal(got_numpy, got_native)

    def test_stats_reports_build(self):
        arr = bisector_arrangement([(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)],
                                   ((-1.0, -1.0), (3.0, 4.0)))
        stats = PersistentPlaneLocator(arr).stats()
        assert stats["entries"] > 0
        assert stats["slabs"] > 0
        assert stats["leaf_base"] >= stats["slabs"]
        assert stats["nbytes"] > 0
        assert stats["build_seconds"] >= 0.0


class TestBuildMemory:
    def test_tree_is_far_smaller_than_the_slab_table(self):
        """The merged-slab tree stores O(E log S) entries where the slab
        table needs Theta(V * S) rows: on a V_Pr diagram the table,
        counted analytically (24 bytes a row plus its two x arrays),
        is at least 5x the built locator's bytes (10.1x here)."""
        vpr = PNNIndex(random_discrete_points(8, 2, seed=2028,
                                              spread=2.0)).build_vpr()
        arr = vpr.arrangement
        slabs = max(len(np.unique(arr._vx)) - 1, 0)
        slab_bytes = slab_table_rows(arr) * 24 + 2 * (slabs + 1) * 8
        assert slab_bytes >= 5 * vpr.locator_stats()["nbytes"]
