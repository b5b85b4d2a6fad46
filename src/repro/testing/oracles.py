"""Bitwise reference oracles for the ``V_Pr`` pipeline (tests only).

Production builds the exact probabilistic Voronoi diagram one way (the
vectorized pipeline of :mod:`repro.voronoi.vpr`) and locates queries one
way (the merged-slab tree of :mod:`repro.spatial.planelocate`).  The
straightforward implementations they replaced live on here, as the
references the parity suites and benchmarks pin them to bit for bit:
the pure-Python arrangement build (:class:`ScalarSegmentArrangement`,
with :func:`interior_point`), the scalar ``V_Pr`` build
(:class:`ScalarVPRDiagram`), and the ``Theta(V * S)`` slab table
(:class:`SlabPointLocator`).  The library never imports this module; a
subprocess test holds that.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..geometry.primitives import Point, dist
from ..geometry.seg_arrangement import SegmentArrangement
from ..geometry.segments import (bisector_line, line_box_clip,
                                 segment_intersection)
from ..quantification.exact_discrete import quantification_vector
from ..spatial.batch import as_query_array
from ..spatial.planelocate import _edge_slab_spans, slab_table_rows
from ..voronoi.vpr import ProbabilisticVoronoiDiagram, box_boundary

__all__ = ["ScalarSegmentArrangement", "ScalarVPRDiagram",
           "SlabPointLocator", "interior_point", "scalar_bisector_segments"]


# ----------------------------------------------------------------------
# Scalar arrangement build.
# ----------------------------------------------------------------------
class ScalarSegmentArrangement(SegmentArrangement):
    """A :class:`SegmentArrangement` built by the pure-Python pair loop.

    Every pair of segments is intersected with the scalar
    :func:`~repro.geometry.segments.segment_intersection`, cut points are
    sorted along each segment by a stable projection sort, and vertices
    register one at a time through a hash-grid probe.  Face extraction
    is the production code's, so vertices, edges, faces and areas must
    agree with the vectorized build bit for bit.
    """

    def _build(self, segments) -> None:
        tol = self.tol
        inv = 1.0 / tol
        grid: Dict[Tuple[int, int], List[int]] = {}
        coords: List[Point] = []

        def register(p: Point) -> int:
            """Hash-grid vertex dedup at the merge tolerance: the first
            registered vertex within *tol* in the 3x3 cell block wins."""
            cx = math.floor(p[0] * inv)
            cy = math.floor(p[1] * inv)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for vid in grid.get((cx + dx, cy + dy), ()):
                        if dist(p, coords[vid]) <= tol:
                            return vid
            coords.append(p)
            grid.setdefault((cx, cy), []).append(len(coords) - 1)
            return len(coords) - 1

        segments = [(a, b) for a, b in segments if dist(a, b) > tol]
        cuts: List[List[Point]] = [[a, b] for a, b in segments]
        for i in range(len(segments)):
            a, b = segments[i]
            for j in range(i + 1, len(segments)):
                c, d = segments[j]
                p = segment_intersection(a, b, c, d)
                if p is not None:
                    cuts[i].append(p)
                    cuts[j].append(p)

        edge_set: Dict[Tuple[int, int], None] = {}
        for (a, b), pts in zip(segments, cuts):
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            pts.sort(key=lambda p: (p[0] - a[0]) * dx + (p[1] - a[1]) * dy)
            vids = [register(p) for p in pts]
            for u, v in zip(vids, vids[1:]):
                if u != v:
                    edge_set[(min(u, v), max(u, v))] = None

        self._vx = np.array([p[0] for p in coords], dtype=np.float64)
        self._vy = np.array([p[1] for p in coords], dtype=np.float64)
        self._earr = np.array(list(edge_set), dtype=np.intp).reshape(-1, 2)


def interior_point(poly: List[Point]) -> Point:
    """An interior point of a simple CCW polygon (scalar reference)."""
    n = len(poly)
    if n == 3:
        return ((poly[0][0] + poly[1][0] + poly[2][0]) / 3.0,
                (poly[0][1] + poly[1][1] + poly[2][1]) / 3.0)
    # Find a strictly convex corner (the lowest-then-leftmost vertex is one).
    idx = min(range(n), key=lambda i: (poly[i][1], poly[i][0]))
    a = poly[(idx - 1) % n]
    b = poly[idx]
    c = poly[(idx + 1) % n]
    inside: Optional[Point] = None
    best = -1.0
    for i, q in enumerate(poly):
        if i in ((idx - 1) % n, idx, (idx + 1) % n):
            continue
        if _in_triangle(q, a, b, c):
            d = _line_dist(q, a, c)
            if d > best:
                best = d
                inside = q
    if inside is None:
        return ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
    return ((b[0] + inside[0]) / 2.0, (b[1] + inside[1]) / 2.0)


def _in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    def cross(o: Point, u: Point, v: Point) -> float:
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _line_dist(p: Point, a: Point, b: Point) -> float:
    num = abs((b[0] - a[0]) * (a[1] - p[1]) - (a[0] - p[0]) * (b[1] - a[1]))
    # Shared sqrt form (not math.hypot) so the vectorized
    # face_interior_array stays bitwise-comparable to this reference.
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    den = math.sqrt(dx * dx + dy * dy)
    return num / den if den > 0 else 0.0


# ----------------------------------------------------------------------
# Scalar V_Pr build.
# ----------------------------------------------------------------------
def scalar_bisector_segments(sites: List[Point],
                             box: Tuple[Point, Point]):
    """Clipped bisectors of all site pairs, deduplicated (scalar loops).

    Same normalized, 9-decimal, sign-canonicalized line key as the
    batched :meth:`~repro.voronoi.vpr.ProbabilisticVoronoiDiagram.
    _bisector_segments_batch`, evaluated pair by pair in scan order.
    """
    seen = set()
    segments = []
    m = len(sites)
    for a in range(m):
        for b in range(a + 1, m):
            p, r = sites[a], sites[b]
            if p == r:
                continue  # coincident sites never swap distance order
            la, lb, lc = bisector_line(p, r)
            norm = max(abs(la), abs(lb), abs(lc), 1e-30)
            ka = round((la / norm) * 1e9) / 1e9 + 0.0
            kb = round((lb / norm) * 1e9) / 1e9 + 0.0
            kc = round((lc / norm) * 1e9) / 1e9 + 0.0
            if ka < 0 or (ka == 0 and (kb < 0 or (kb == 0 and kc < 0))):
                ka, kb, kc = -ka + 0.0, -kb + 0.0, -kc + 0.0
            key = (ka, kb, kc)
            if key in seen:
                continue
            seen.add(key)
            clipped = line_box_clip(la, lb, lc, box)
            if clipped is not None:
                segments.append(clipped)
    return segments


class ScalarVPRDiagram(ProbabilisticVoronoiDiagram):
    """``V_Pr`` built by the pure-Python pipeline end to end.

    Scalar bisector loops, the :class:`ScalarSegmentArrangement`, and one
    Eq. (2) sweep per bounded face.  Queries use the production locator
    and fallback, so only the build differs; the face matrix and V/E/F
    counts must equal the vectorized build's bit for bit.
    """

    def _build_arrangement(self, sites, box) -> SegmentArrangement:
        segments = scalar_bisector_segments(sites, box)
        segments.extend(box_boundary(box))
        return ScalarSegmentArrangement(segments)

    def _label_faces(self) -> np.ndarray:
        vectors = [quantification_vector(self.points, (x, y))
                   for x, y in self._interior.tolist()]
        return np.asarray(vectors, dtype=np.float64).reshape(
            -1, len(self.points))


# ----------------------------------------------------------------------
# Slab point location.
# ----------------------------------------------------------------------
class SlabPointLocator:
    """The classic slab table over a :class:`SegmentArrangement`.

    The arrangement's vertex x-coordinates cut the plane into slabs;
    inside a slab the edges spanning it are totally ordered in y, so a
    query is two binary searches.  The table holds one row per (edge,
    spanned-slab) pair — ``Theta(V * S)`` rows — and answers exactly as
    :class:`~repro.spatial.planelocate.PersistentPlaneLocator` does:
    ``locate(q)`` returns a face loop index or ``None`` for the
    unbounded face, ``locate_batch`` an ``(m,)`` array with ``-1``.
    """

    #: Analytic row count of the table over an arrangement (no build).
    table_rows = staticmethod(slab_table_rows)

    def __init__(self, arrangement: SegmentArrangement) -> None:
        self.arrangement = arrangement
        vx, vy = arrangement._vx, arrangement._vy
        xs = np.unique(vx)
        self._xs = xs
        n_slabs = max(len(xs) - 1, 0)
        self._bounded = np.asarray(arrangement.face_areas) > arrangement.tol
        if n_slabs == 0 or arrangement.num_edges == 0:
            self._offs = np.zeros(n_slabs + 1, dtype=np.intp)
            self._row_u = np.empty(0, dtype=np.intp)
            self._row_v = np.empty(0, dtype=np.intp)
            self._row_hid_rev = np.empty(0, dtype=np.intp)
            return
        earr, eu, ev, eids, i0, i1 = _edge_slab_spans(arrangement, xs)
        counts = i1 - i0
        total = int(counts.sum())
        eidx = np.repeat(eids, counts)
        offs_c = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slab_ids = (np.arange(total, dtype=np.intp)
                    - np.repeat(offs_c, counts) + np.repeat(i0, counts))
        ru = eu[eidx]
        rv = ev[eidx]
        # Order rows within each slab by y at the slab midline, slope
        # breaking exact ties: a near-zero-width slab can *round* its
        # midline onto a boundary where edges share a vertex, so the
        # tiebreak must be geometric (the merged-slab tree's) rather
        # than positional.
        mid = 0.5 * (xs[slab_ids] + xs[slab_ids + 1])
        pux, puy = vx[ru], vy[ru]
        pvx, pvy = vx[rv], vy[rv]
        t = (mid - pux) / (pvx - pux)
        ymid = puy + t * (pvy - puy)
        slope = (pvy - puy) / (pvx - pux)
        order = np.lexsort((slope, ymid, slab_ids))
        self._row_u = ru[order]
        self._row_v = rv[order]
        row_e = eidx[order]
        # Half-edge id of (v -> u): the face containing a query below the
        # row is the loop left of the reversed half-edge.
        self._row_hid_rev = np.where(self._row_u == earr[row_e, 1],
                                     2 * row_e, 2 * row_e + 1)
        counts_s = np.bincount(slab_ids, minlength=n_slabs)
        self._offs = np.concatenate(([0], np.cumsum(counts_s))).astype(np.intp)

    def stats(self) -> dict:
        """Size figures, shaped like the production locator's."""
        nbytes = (self._xs.nbytes + self._offs.nbytes + self._row_u.nbytes
                  + self._row_v.nbytes + self._row_hid_rev.nbytes)
        return {
            "kind": "slab",
            "entries": int(len(self._row_u)),
            "slabs": int(max(len(self._xs) - 1, 0)),
            "nbytes": int(nbytes),
        }

    def locate(self, q: Point) -> Optional[int]:
        """Face loop index containing *q* (``None`` = unbounded face)."""
        xs = self._xs
        if len(xs) == 0 or q[0] < xs[0] or q[0] > xs[-1]:
            return None
        slab = int(np.searchsorted(xs, q[0], side="right")) - 1
        if slab >= len(self._offs) - 1:
            slab = len(self._offs) - 2
        lo = int(self._offs[slab])
        hi = int(self._offs[slab + 1])
        end = hi
        vx, vy = self.arrangement._vx, self.arrangement._vy
        qx, qy = float(q[0]), float(q[1])
        # Find the first edge whose y at q.x is >= q.y.
        while lo < hi:
            mid = (lo + hi) // 2
            u, v = self._row_u[mid], self._row_v[mid]
            t = (qx - vx[u]) / (vx[v] - vx[u])
            y = vy[u] + t * (vy[v] - vy[u])
            if y < qy:
                lo = mid + 1
            else:
                hi = mid
        if lo == end:
            return None  # above all edges in the slab (or an empty slab)
        loop = int(self.arrangement._half_loop[self._row_hid_rev[lo]])
        return loop if self._bounded[loop] else None

    def locate_batch(self, queries) -> np.ndarray:
        """Vectorized :meth:`locate`: every query advances one bisection
        step per NumPy pass, replaying the scalar comparisons."""
        q = as_query_array(queries)
        m = len(q)
        out = np.full(m, -1, dtype=np.intp)
        xs, offs = self._xs, self._offs
        if m == 0 or len(offs) < 2:
            return out  # no slabs (e.g. all vertices share one x)
        qx, qy = q[:, 0], q[:, 1]
        vx, vy = self.arrangement._vx, self.arrangement._vy
        inside = (qx >= xs[0]) & (qx <= xs[-1])
        slab = np.searchsorted(xs, qx, side="right") - 1
        slab = np.clip(slab, 0, len(offs) - 2)
        lo = np.where(inside, offs[slab], 0)
        hi = np.where(inside, offs[slab + 1], 0)
        end = offs[slab + 1]
        max_row = max(len(self._row_u) - 1, 0)
        while True:
            run = lo < hi
            if not run.any():
                break
            mid = np.minimum((lo + hi) >> 1, max_row)
            u = self._row_u[mid]
            v = self._row_v[mid]
            pux = vx[u]
            t = (qx - pux) / (vx[v] - pux)
            y = vy[u] + t * (vy[v] - vy[u])
            less = y < qy
            lo = np.where(run & less, mid + 1, lo)
            hi = np.where(run & ~less, mid, hi)
        found = inside & (lo < end)
        if found.any():
            loops = self.arrangement._half_loop[self._row_hid_rev[lo[found]]]
            out[found] = np.where(self._bounded[loops], loops, -1)
        return out

    def locate_all(self, queries) -> List[Optional[int]]:
        """:meth:`locate_batch` as a list of ``Optional[int]``."""
        return [None if v < 0 else int(v) for v in self.locate_batch(queries)]
