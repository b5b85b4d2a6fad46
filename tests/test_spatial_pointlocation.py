"""Unit tests for the slab-table point-location oracle."""

import math
import random

from repro.geometry.seg_arrangement import SegmentArrangement
from repro.geometry.segments import bisector_line, line_box_clip
from repro.testing.oracles import SlabPointLocator


def boxed(segments, box):
    (xmin, ymin), (xmax, ymax) = box
    return list(segments) + [
        ((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
        ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]


class TestGridLocation:
    def setup_method(self):
        segs = []
        for i in range(4):
            segs.append(((0.0, float(i)), (3.0, float(i))))
            segs.append(((float(i), 0.0), (float(i), 3.0)))
        self.arr = SegmentArrangement(segs)
        self.loc = SlabPointLocator(self.arr)

    def test_distinct_cells(self):
        faces = {self.loc.locate((i + 0.5, j + 0.5))
                 for i in range(3) for j in range(3)}
        assert None not in faces
        assert len(faces) == 9

    def test_outside_returns_none(self):
        assert self.loc.locate((10, 10)) is None
        assert self.loc.locate((-5, 1)) is None
        assert self.loc.locate((1.5, 3.5)) is None

    def test_same_cell_same_face(self):
        a = self.loc.locate((0.2, 0.2))
        b = self.loc.locate((0.8, 0.7))
        assert a == b


class TestBisectorArrangementLocation:
    def test_locate_agrees_with_nearest_site(self):
        """In a bisector arrangement of sites, cells = nearest-site regions."""
        rng = random.Random(4)
        sites = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(5)]
        box = ((-1.0, -1.0), (5.0, 5.0))
        segs = []
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                a, b, c = bisector_line(sites[i], sites[j])
                seg = line_box_clip(a, b, c, box)
                if seg:
                    segs.append(seg)
        arr = SegmentArrangement(boxed(segs, box))
        loc = SlabPointLocator(arr)
        # Points in the same face must share the same nearest site.
        face_to_site = {}
        for _ in range(300):
            q = (rng.uniform(-0.9, 4.9), rng.uniform(-0.9, 4.9))
            face = loc.locate(q)
            assert face is not None
            nearest = min(range(len(sites)),
                          key=lambda s: math.dist(sites[s], q))
            if face in face_to_site:
                assert face_to_site[face] == nearest, \
                    f"face {face} spans two nearest-site regions"
            else:
                face_to_site[face] = nearest
