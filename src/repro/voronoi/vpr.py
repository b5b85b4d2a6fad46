"""The exact probabilistic Voronoi diagram ``V_Pr`` (Section 4.1).

Lemma 4.1: the ``O(N^2)`` perpendicular bisectors of all pairs of possible
site locations subdivide the plane into ``O(N^4)`` convex cells, inside
each of which the distance order to every site — and therefore every
quantification probability (Eq. 2) — is constant.  Theorem 4.2 preprocesses
this refinement for point location, answering exact quantification queries
in ``O(log N + t)``.

Most of that refinement is invisible to Eq. (2).  Past the guaranteed-NN
distance ``Delta(q) = min_i max_a d(q, p_i^a)`` some uncertain point has
all its sites closer, every term carries the factor ``1 - F_i = 0``, and
the sweep's sum never sees how the sites beyond ``Delta`` are ordered.  So
the bisector of sites ``p`` and ``r`` matters only where ``d(x, p) <=
Delta(x)``, and the served diagram keeps only those pieces
(:func:`clipped_segments`):

1. every pair's bisector line, deduplicated and clipped to a bounding box
   (chosen to contain the query region of interest plus every pairwise
   midpoint) by the batched clip kernel;
2. along each line, the box chord minus at most ``n`` open gaps where
   some uncertain point has every site strictly closer than ``p`` (each
   term ``|x-p|^2 - |x-s|^2`` is linear along the line), united over all
   pairs sharing the line and overshooting each gap end slightly;
3. a vertical connector from every piece end inside the box up to the
   top of the frame, so no piece ends inside a face and every face stays
   simple;
4. the box frame.

The segment arrangement's bounded faces each get their exact probability
vector evaluated at an interior point.  The clip merges cells with equal
answers and the connectors cut some again, so faces, ids and V/E/F
counts are not the full arrangement's; what is preserved is the
*answer*: at every point of the box the served diagram returns the full
arrangement's face vector bit for bit.  On the ``bulk_vpr`` benchmark's
data set (16 points, ``k = 2``) that is 13,213 faces instead of
107,587, and a 3.1 MB plane instead of 51.7 MB.  Queries go through the
merged-slab point locator
(:class:`~repro.spatial.planelocate.PersistentPlaneLocator`); queries
outside the box fall back to the direct Eq. (2) sweep, preserving
exactness everywhere.

The build is vectorized end to end: pairwise bisector coefficients in one
NumPy broadcast, normalized-key dedup via a stable ``unique``, the batched
line-vs-box clip kernel, the Delta clip as ``(pairs, sites)`` array
passes, the vectorized arrangement build, and one
:meth:`~repro.quantification.batch_exact.BatchExactQuantifier.matrix`
call labeling every bounded face at once.  Duck-typed site models outside
:class:`~repro.uncertain.discrete.DiscreteUncertainPoint` have no batched
engine, so their faces are labeled by the per-face Eq. (2) sweep.

The full arrangement, built by the original pure-Python pair loops and
per-face sweeps, is the test oracle
:class:`repro.testing.oracles.ScalarVPRDiagram`: ``tests/test_vpr_clip.py``
asserts bitwise-equal answers at every one of its face interior points
and at random queries, and experiment E10 fits Lemma 4.1's growth on it.
Its ``Theta(N^4)`` size is the paper's motivation for the approximation
algorithms of Sections 4.2/4.3; the served plane is far smaller, but the
build still enumerates all ``O(N^2)`` lines and pairwise intersections of
the kept pieces, so it remains practical only for small instances.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.primitives import Point
from ..geometry.seg_arrangement import SegmentArrangement
from ..geometry.segments import line_box_clip_batch
from ..obs.metrics import ENGINE
from ..quantification.batch_exact import BatchExactQuantifier, sparse_rows
from ..quantification.exact_discrete import quantification_vector
from ..spatial.kernels import get_provider
from ..spatial.planelocate import PersistentPlaneLocator, plane_locate_scalar
from ..uncertain.discrete import DiscreteUncertainPoint

__all__ = ["ProbabilisticVoronoiDiagram", "SharedPlaneDiagram"]

#: Version tag of the shared-plane array layout (``to_plane_arrays``).
PLANE_FORMAT_VERSION = 1

#: Kept bisector pieces reach this fraction of their box chord past every
#: gap end.  Extra bisector only refines faces, so overshoot is safe; a
#: piece stopping exactly at a gap end lands a rounding error (~1e-9) off
#: the arrangement vertex there, just outside the vertex merge tolerance,
#: and leaves a sliver corner whose label point sits on an edge.
_OVERSHOOT = 1e-6
#: Element budget of one (pairs, sites) block of the clip arrays.
_CLIP_ELEMENTS = 1 << 20


def box_boundary(box: Tuple[Point, Point]) -> List[Tuple[Point, Point]]:
    """The four sides of *box* as segments (the arrangement's frame)."""
    (xmin, ymin), (xmax, ymax) = box
    return [((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
            ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]


def bisector_lines(sx: np.ndarray, sy: np.ndarray):
    """Pairwise bisector coefficients and their deduplicated lines.

    One broadcast computes the ``a*x + b*y = c`` coefficients of every
    pair of distinct site coordinates (pairs of one uncertain point
    included: swapping them reorders the sweep's sum).  The dedup key is
    the coefficient triple normalized by its max-abs component, rounded
    to 9 decimals and sign-canonicalized so that the first nonzero
    component is positive (two opposite-orientation triples describe the
    same line).  Lines are numbered in scan order of their first pair.

    Returns ``(pi, pj, line, la, lb, lc)``: the site indices of every
    pair, the line id of every pair, and each line's coefficients taken
    from its first pair.
    """
    pi, pj = np.triu_indices(len(sx), 1)
    distinct = (sx[pi] != sx[pj]) | (sy[pi] != sy[pj])
    pi, pj = pi[distinct], pj[distinct]
    px, py, rx, ry = sx[pi], sy[pi], sx[pj], sy[pj]
    la = 2.0 * (rx - px)
    lb = 2.0 * (ry - py)
    lc = (rx * rx + ry * ry) - (px * px + py * py)
    norm = np.maximum(np.maximum(np.abs(la), np.abs(lb)),
                      np.maximum(np.abs(lc), 1e-30))
    ka = np.rint((la / norm) * 1e9) / 1e9 + 0.0
    kb = np.rint((lb / norm) * 1e9) / 1e9 + 0.0
    kc = np.rint((lc / norm) * 1e9) / 1e9 + 0.0
    flip = (ka < 0) | ((ka == 0) & ((kb < 0) | ((kb == 0) & (kc < 0))))
    sign = np.where(flip, -1.0, 1.0)
    trip = np.ascontiguousarray(np.stack(
        (ka * sign + 0.0, kb * sign + 0.0, kc * sign + 0.0), axis=1))
    keys = trip.view(np.dtype((np.void, trip.dtype.itemsize * 3))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    return (pi, pj, rank[inverse.ravel()], la[first], lb[first],
            lc[first])


def _kept_intervals(sx: np.ndarray, sy: np.ndarray, parent: np.ndarray,
                    pi: np.ndarray, pj: np.ndarray,
                    chords: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """Where each pair's bisector can reorder the Eq. (2) prefix.

    Pair ``(p, r)`` is parameterized along its line's box chord
    ``x(t) = A + t (B - A)``, ``t`` in ``[0, 1]`` (one ``chords`` row per
    pair).  It matters where ``d(x, p) <= Delta(x)``, i.e. where every
    uncertain point ``i`` has a site ``s`` with ``|x-p|^2 - |x-s|^2 <=
    0``.  That term is linear in ``t``, so site ``s`` covers a half-line
    and point ``i`` leaves at most one open gap ``(max of its left
    half-line ends, min of its right half-line starts)``.  The uncertain
    points owning ``p`` and ``r`` never leave a gap (``p``'s own term is
    zero, and ``r``'s is zero on the bisector), nor does any point with a
    site coincident with ``p`` or ``r`` (its term is identically zero;
    evaluated, float noise would cut at random places).  Each gap shrinks
    by :data:`_OVERSHOOT` at both ends, so kept pieces reach past the
    arrangement vertex where the gap starts instead of stopping a rounding
    error short of it.

    Returns ``(pair, start, end)``: the kept ``t``-intervals, pair-major.
    """
    offs = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
    ax, ay = chords[:, 0], chords[:, 1]
    dx, dy = chords[:, 2] - ax, chords[:, 3] - ay
    out_p, out_s, out_e = [], [], []
    block = max(1, _CLIP_ELEMENTS // len(sx))
    for lo in range(0, len(pi), block):
        sl = slice(lo, lo + block)
        p, r = pi[sl], pj[sl]
        px, py = sx[p][:, None], sy[p][:, None]
        ux, uy = ax[sl][:, None] - px, ay[sl][:, None] - py
        vx, vy = ax[sl][:, None] - sx, ay[sl][:, None] - sy
        f0 = (ux * ux + uy * uy) - (vx * vx + vy * vy)
        slope = 2.0 * (dx[sl][:, None] * (sx - px)
                       + dy[sl][:, None] * (sy - py))
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = -f0 / slope
        covered = ((slope == 0.0) & (f0 <= 0.0)) \
            | ((sx == px) & (sy == py)) \
            | ((sx == sx[r][:, None]) & (sy == sy[r][:, None])) \
            | (parent == parent[p][:, None]) | (parent == parent[r][:, None])
        left = np.where(covered, np.inf,
                        np.where(slope > 0.0, cut, -np.inf))
        right = np.where(~covered & (slope < 0.0), cut, np.inf)
        gap_lo = np.maximum.reduceat(left, offs, axis=1) + _OVERSHOOT
        gap_hi = np.minimum.reduceat(right, offs, axis=1) - _OVERSHOOT
        gap = gap_lo < gap_hi
        # Complement of the union of the gaps: sort by gap start, and
        # between gaps keep [running max of gap ends, next gap start].
        by_start = np.argsort(np.where(gap, gap_lo, np.inf), axis=1,
                              kind="stable")
        g_lo = np.take_along_axis(np.where(gap, gap_lo, np.inf), by_start, 1)
        g_hi = np.take_along_axis(np.where(gap, gap_hi, -np.inf),
                                  by_start, 1)
        reach = np.maximum.accumulate(g_hi, axis=1)
        rows = len(p)
        start = np.maximum(np.concatenate(
            (np.full((rows, 1), -np.inf), reach), axis=1), 0.0)
        end = np.minimum(np.concatenate(
            (g_lo, np.ones((rows, 1))), axis=1), 1.0)
        emit = np.concatenate(
            (np.take_along_axis(gap, by_start, 1),
             np.ones((rows, 1), dtype=bool)), axis=1) & (start < end)
        pr, col = np.nonzero(emit)
        out_p.append(pr + lo)
        out_s.append(start[pr, col])
        out_e.append(end[pr, col])
    return (np.concatenate(out_p), np.concatenate(out_s),
            np.concatenate(out_e))


def _share_columns(ex: np.ndarray, ey: np.ndarray, ox: np.ndarray,
                   oy: np.ndarray, fixed: np.ndarray, needs: np.ndarray,
                   box: Tuple[Point, Point],
                   tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Move connector-bound piece ends whose ``x`` nearly agree onto one
    ``x``.

    Two vertical segments closer than the vertex merge tolerance *tol*
    share merged vertices and overlap.  Ends meant to share a column
    (mirror-image pieces overshooting one hub where many bisectors
    cross) come out a few ulps apart, and a piece may end a rounding
    error off a vertical bisector.  Ends (``needs``) whose sorted ``x``
    lie within ``16 * tol`` (or 256 ulps of the box's largest
    coordinate) of the previous one form one column, at the ``x`` of its
    vertical piece (``fixed``) if it has one, else at its smallest
    ``x``; every other end in the column slides along its piece (other
    end ``(ox, oy)``) onto that ``x``.
    """
    idx = np.flatnonzero(needs)
    if not len(idx):
        return ex, ey
    (xmin, _), (xmax, _) = box
    snap = max(16.0 * tol, 256.0 * float(
        np.spacing(max(abs(xmin), abs(xmax), 1.0))))
    order = idx[np.argsort(ex[idx], kind="stable")]
    xs = ex[order]
    head = np.r_[True, np.diff(xs) > snap]
    column = np.cumsum(head) - 1
    target = xs[head][column]
    pinned = fixed[order]
    col_x = np.full(int(column[-1]) + 1, np.nan)
    col_x[column[pinned][::-1]] = xs[pinned][::-1]
    target = np.where(np.isnan(col_x[column]), target, col_x[column])
    move = order[(target != xs) & ~pinned]
    to = target[(target != xs) & ~pinned]
    ex, ey = ex.copy(), ey.copy()
    ey[move] = ey[move] + (to - ex[move]) * (
        (ey[move] - oy[move]) / (ex[move] - ox[move]))
    ex[move] = to
    return ex, ey


def clipped_segments(sx: np.ndarray, sy: np.ndarray, parent: np.ndarray,
                     box: Tuple[Point, Point],
                     tol: float = 1e-9) -> np.ndarray:
    """The segments of the Delta-clipped ``V_Pr`` arrangement, ``(S, 4)``.

    Sites ``(sx[j], sy[j])`` belong to uncertain point ``parent[j]``
    (non-decreasing).  Past ``Delta(q) = min_i max_a d(q, p_i^a)`` every
    Eq. (2) term is exactly zero, so the bisector of ``p`` and ``r``
    matters only where ``d(x, p) <= Delta(x)``:

    1. every pair's bisector line, deduplicated (:func:`bisector_lines`)
       and clipped to *box* by the batched clip kernel;
    2. the kept ``t``-intervals of every pair (:func:`_kept_intervals`),
       united over all pairs sharing a line;
    3. one vertical connector per distinct ``x`` of a piece endpoint
       inside the box, from the lowest such endpoint up to the top of the
       frame, at that endpoint's exact ``x`` (ends closer than the merge
       tolerance share one ``x``: :func:`_share_columns`); a vertical
       piece spans its whole chord and becomes its ``x``'s connector
       rather than being overlapped by it.  No piece then ends inside a
       face, every face stays simple, and the frame reaches every
       component;
    4. the box frame.

    Every piece and connector lies on a full-arrangement bisector or
    refines a face of the clipped one, so each face keeps one Eq. (2)
    answer.  The full arrangement is the test oracle
    :class:`repro.testing.oracles.ScalarVPRDiagram`.
    """
    frame = np.array([(a[0], a[1], b[0], b[1])
                      for a, b in box_boundary(box)], dtype=np.float64)
    pi, pj, line, la, lb, lc = bisector_lines(sx, sy)
    chords, valid = line_box_clip_batch(la, lb, lc, box)
    on_box = valid[line]
    pi, pj, line = pi[on_box], pj[on_box], line[on_box]
    if not len(pi):
        return frame
    pair, start, end = _kept_intervals(sx, sy, parent, pi, pj,
                                       chords[line])
    # Union per line: sort by (line, start); a run of intervals merges
    # while the next start is within the running max of the ends.  The
    # running max restarts per line through line-major integer keys.
    kl = line[pair]
    order = np.lexsort((start, kl))
    kl, start, end = kl[order], start[order], end[order]
    m = len(kl)
    end_rank = np.empty(m, dtype=np.int64)
    by_end = np.argsort(end, kind="stable")
    end_rank[by_end] = np.arange(m)
    run = np.maximum.accumulate(kl.astype(np.int64) * m + end_rank)
    reach = end[by_end[run - kl.astype(np.int64) * m]]
    new = np.ones(m, dtype=bool)
    new[1:] = (kl[1:] != kl[:-1]) | (start[1:] > reach[:-1])
    heads = np.flatnonzero(new)
    tails = np.r_[heads[1:], m] - 1
    kl, t0, t1 = kl[heads], start[heads], reach[tails]

    ax, ay, bx, by = (chords[kl, c] for c in range(4))
    # A vertical piece would dangle from its lower end and overlap its
    # x's connector, so it spans its whole chord and becomes that
    # connector.
    vertical = ax == bx
    t0 = np.where(vertical, 0.0, t0)
    t1 = np.where(vertical, 1.0, t1)
    x0 = np.where(t0 == 0.0, ax, ax + t0 * (bx - ax))
    y0 = np.where(t0 == 0.0, ay, ay + t0 * (by - ay))
    x1 = np.where(t1 == 1.0, bx, ax + t1 * (bx - ax))
    y1 = np.where(t1 == 1.0, by, ay + t1 * (by - ay))
    # The arrangement's own zero-length filter, applied here so that a
    # dropped piece leaves no connector behind.
    ddx, ddy = x1 - x0, y1 - y0
    live = np.sqrt(ddx * ddx + ddy * ddy) > tol
    x0, y0, x1, y1 = x0[live], y0[live], x1[live], y1[live]
    t0, t1, vertical = t0[live], t1[live], vertical[live]
    # Piece ends: (x, y), the piece's other end, and whether it is inside
    # the box (or on a vertical piece) and so needs a connector.
    ex, ey = np.concatenate((x0, x1)), np.concatenate((y0, y1))
    ox, oy = np.concatenate((x1, x0)), np.concatenate((y1, y0))
    needs = np.concatenate(((t0 > 0.0) | vertical, (t1 < 1.0) | vertical))
    ex, ey = _share_columns(ex, ey, ox, oy, np.concatenate((vertical,
                                                            vertical)),
                            needs, box, tol)
    half = len(x0)
    x0, y0, x1, y1 = ex[:half], ey[:half], ex[half:], ey[half:]
    vertical = x0 == x1
    top = float(box[1][1])
    ux, inv = np.unique(ex[needs], return_inverse=True)
    low = np.full(len(ux), np.inf)
    np.minimum.at(low, inv.ravel(), ey[needs])
    reach_top = top - low > tol
    ux, low = ux[reach_top], low[reach_top]
    keep = ~vertical
    pieces = np.stack((x0[keep], y0[keep], x1[keep], y1[keep]), axis=1)
    connectors = np.stack((ux, low, ux, np.full(len(ux), top)), axis=1)
    return np.vstack((pieces, connectors, frame))


class _FaceVectorQueries:
    """The query surface a built or attached ``V_Pr`` serves.

    Subclasses map queries to rows of the ``(F, n)`` face matrix
    ``_face_matrix`` (``-1`` outside the window or on an unbounded
    sliver) through :meth:`_locate_row` / :meth:`_locate_rows`; rows
    that miss are answered by the exact Eq. (2) sweep.
    """

    points: list
    _face_matrix: np.ndarray
    _quantifier: Optional[BatchExactQuantifier]

    def _locate_row(self, q: Point) -> int:
        raise NotImplementedError

    def _locate_rows(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _all_discrete(self) -> bool:
        return all(isinstance(p, DiscreteUncertainPoint)
                   for p in self.points)

    def _exact_quantifier(self) -> BatchExactQuantifier:
        """The (lazily built, shareable) vectorized Eq. (2) engine."""
        if self._quantifier is None:
            self._quantifier = BatchExactQuantifier(self.points)
        return self._quantifier

    def query(self, q: Point) -> List[float]:
        """Exact ``(pi_1(q), ..., pi_n(q))``.

        ``O(log N + n)`` via point location inside the window (the vector
        is precomputed per cell); exact fallback sweep outside.
        """
        row = self._locate_row(q)
        if row >= 0:
            return self._face_matrix[row].tolist()
        return quantification_vector(self.points, q)

    def query_batch(self, queries) -> np.ndarray:
        """:meth:`query` for an ``(m, 2)`` array, as an ``(m, n)`` matrix.

        One vectorized point-location pass gathers the precomputed face
        vectors; rows outside the window (or on unbounded slivers) are
        answered by the batched Eq. (2) sweep.  Row ``j`` equals
        ``query(queries[j])`` bitwise.
        """
        from ..spatial.batch import as_query_array

        q = as_query_array(queries)
        rows = self._locate_rows(q)
        out = np.empty((len(q), len(self.points)), dtype=np.float64)
        known = rows >= 0
        if known.any():
            out[known] = self._face_matrix[rows[known]]
        missing = ~known
        if missing.any():
            if self._all_discrete():
                out[missing] = self._exact_quantifier().matrix(q[missing])
            else:
                # Duck-typed site models: same exact fallback the scalar
                # query() uses, row by row.
                for j in np.flatnonzero(missing):
                    out[j] = quantification_vector(
                        self.points, (float(q[j, 0]), float(q[j, 1])))
        return out

    def quantify_batch(self, queries) -> List[Dict[int, float]]:
        """Sparse ``{i: pi_i(q)}`` dicts (zeros omitted), one per query.

        The serving container: the same ``row > 0`` filter as
        :meth:`~repro.core.index.PNNIndex.batch_quantify_exact`, over
        :meth:`query_batch` rows — so wherever the float vectors agree
        with the direct Eq. (2) sweep (everywhere outside the window,
        and on every generic in-window query), the dicts are equal row
        for row.  The ``quantify_vpr`` query kind serves the same rows
        (:meth:`~repro.core.index.PNNIndex.quantify_vpr_matrix`).
        """
        mat = self.query_batch(queries)
        return sparse_rows(mat, mat > 0.0)

    def positive_probabilities(self, q: Point,
                               tol: float = 0.0) -> Dict[int, float]:
        """The paper's query output: all ``(P_i, pi_i(q))`` with positive pi."""
        vec = self.query(q)
        return {i: v for i, v in enumerate(vec) if v > tol}


class ProbabilisticVoronoiDiagram(_FaceVectorQueries):
    """Exact quantification-probability queries via the ``V_Pr`` refinement.

    Parameters
    ----------
    points:
        Discrete uncertain points (the exact diagram only exists for
        discrete distributions; Section 4.1).
    box:
        Optional ``((xmin, ymin), (xmax, ymax))`` query window.  Defaults
        to the bounding box of all sites, inflated by three quarters of the
        larger side of the cloud's extent (floored at 1 for degenerate
        clouds) — large enough to contain every bounded cell near the
        data, and *translation invariant*: a cloud far from the origin
        gets the same window shape as the same cloud at the origin.
        Queries outside the window remain exact via the fallback sweep.
    quantifier:
        Optional prebuilt :class:`~repro.quantification.batch_exact.
        BatchExactQuantifier` over *points*, reused for face labeling and
        batch queries (:meth:`PNNIndex.build_vpr
        <repro.core.index.PNNIndex.build_vpr>` passes its cached one).
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint],
                 box: Optional[Tuple[Point, Point]] = None,
                 quantifier: Optional[BatchExactQuantifier] = None) -> None:
        if not points:
            raise ValueError("need at least one uncertain point")
        ENGINE.inc("vpr.builds")
        t_build = time.perf_counter()
        self.points = list(points)
        self._quantifier = quantifier
        sites: List[Point] = []
        for p in self.points:
            sites.extend(site for site, _ in p.sites_with_weights())
        self.total_sites = len(sites)

        if box is None:
            xs = [s[0] for s in sites]
            ys = [s[1] for s in sites]
            # Pad by the cloud's spread (max side of its bounding box),
            # floored at 1.0 for near-degenerate clouds.  The previous
            # heuristic mixed the raw coordinate ``xs[0]`` into the spread,
            # which blew the window up to the *distance from the origin*
            # for far-away clouds (a ~1000x larger arrangement for a cloud
            # at x = 1000) — see the far-cloud regression test.
            spread = max(1.0, max(xs) - min(xs), max(ys) - min(ys))
            pad = 0.75 * spread
            box = ((min(xs) - pad, min(ys) - pad),
                   (max(xs) + pad, max(ys) + pad))
        self.box = box
        self.arrangement = self._build_arrangement(sites, box)
        # The merged-slab locator is built lazily on first point
        # location; only query workloads need it (the complexity
        # experiments E10/E17 never pay for it).
        self._locator: Optional[PersistentPlaneLocator] = None

        areas = np.asarray(self.arrangement.face_areas)
        bounded = np.flatnonzero(areas > self.arrangement.tol)
        self._bounded_loops: List[int] = bounded.tolist()
        self._interior = self.arrangement.face_interior_array()
        self._face_matrix = self._label_faces()
        # loop-id -> matrix-row map; the per-face dict views are lazy.
        self._loop_row = np.full(max(len(areas), 1), -1, dtype=np.intp)
        if len(bounded):
            self._loop_row[bounded] = np.arange(len(bounded))
        self._face_vectors_cache: Optional[Dict[int, List[float]]] = None
        self.build_seconds = time.perf_counter() - t_build

    @property
    def _face_vectors(self) -> Dict[int, List[float]]:
        """Per-face probability vectors (materialized from the matrix)."""
        if self._face_vectors_cache is None:
            self._face_vectors_cache = dict(
                zip(self._bounded_loops, self._face_matrix.tolist()))
        return self._face_vectors_cache

    # ------------------------------------------------------------------
    # Build steps (the scalar test oracle overrides both).
    # ------------------------------------------------------------------
    def _build_arrangement(self, sites: List[Point],
                           box: Tuple[Point, Point]) -> SegmentArrangement:
        """The Delta-clipped bisector pieces, their connectors and the box
        frame, arranged (see :func:`clipped_segments`)."""
        counts = [len(p.sites_with_weights()) for p in self.points]
        parent = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        sx = np.array([s[0] for s in sites], dtype=np.float64)
        sy = np.array([s[1] for s in sites], dtype=np.float64)
        return SegmentArrangement(clipped_segments(sx, sy, parent, box))

    def _label_faces(self) -> np.ndarray:
        """The ``(F, n)`` matrix of exact face probability vectors.

        Discrete points go through the batched Eq. (2) engine in one
        call; duck-typed site models label through the per-face scalar
        sweep (bitwise-identical rows either way).
        """
        if self._all_discrete() and len(self._interior):
            return self._exact_quantifier().matrix(self._interior)
        vectors = [quantification_vector(self.points, (x, y))
                   for x, y in self._interior.tolist()]
        return np.asarray(vectors, dtype=np.float64).reshape(
            -1, len(self.points))

    # ------------------------------------------------------------------
    @property
    def locator(self) -> PersistentPlaneLocator:
        """The Theorem 4.2 point-location structure (built on first use)."""
        if self._locator is None:
            self._locator = PersistentPlaneLocator(self.arrangement)
        return self._locator

    def locator_stats(self) -> Dict[str, object]:
        """The built locator's :meth:`stats` (builds it if needed)."""
        return self.locator.stats()

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Arrangement vertices (grows like ``N^4`` — Lemma 4.1)."""
        return self.arrangement.num_vertices

    @property
    def num_faces(self) -> int:
        """Number of cells in the refinement within the window."""
        return self.arrangement.bounded_face_count()

    @property
    def complexity(self) -> int:
        """Total ``V + E + F`` of the clipped arrangement."""
        return self.arrangement.complexity

    def distinct_vectors(self, decimals: int = 9) -> int:
        """Number of distinct probability vectors over the cells.

        Lemma 4.1's lower-bound construction makes ``Omega(n^4)`` cells
        pairwise distinct; this counter is what experiment E10 reports.
        Counted in one vectorized pass: round the ``(F, n)`` face matrix,
        then count unique rows.
        """
        if not len(self._face_matrix):
            return 0
        scale = 10.0 ** decimals
        r = np.rint(self._face_matrix * scale) / scale + 0.0
        r = np.ascontiguousarray(r)
        rows = r.view(np.dtype((np.void, r.dtype.itemsize * r.shape[1])))
        return len(np.unique(rows.ravel()))

    # ------------------------------------------------------------------
    def _locate_row(self, q: Point) -> int:
        loop = self.locator.locate(q)
        return -1 if loop is None else int(self._loop_row[loop])

    def _locate_rows(self, q: np.ndarray) -> np.ndarray:
        locs = self.locator.locate_batch(q)
        return np.where(locs >= 0, self._loop_row[np.maximum(locs, 0)], -1)

    # ------------------------------------------------------------------
    def to_plane_arrays(self) -> Dict[str, np.ndarray]:
        """The built ``V_Pr`` as flat arrays for shared-plane serving.

        Face quantification vectors plus the persistent locator's
        arrays, in the layout :func:`repro.spatial.codec.
        check_plane_arrays` validates — everything a
        :class:`SharedPlaneDiagram` needs to answer queries without
        rebuilding the diagram.  Raises
        :class:`~repro.spatial.codec.CodecUnsupported` for non-discrete
        site models (no batched fallback engine on the far side).
        """
        from ..spatial.codec import CodecUnsupported

        if not self._all_discrete():
            raise CodecUnsupported(
                "shared-plane serving requires discrete uncertain points")
        loc = self.locator
        ent_row = self._loop_row[loc.ent_loop].astype(np.int64)
        faces = np.ascontiguousarray(self._face_matrix, dtype=np.float64)
        meta = np.array([
            PLANE_FORMAT_VERSION, loc.leaf_base, len(self.points),
            max(len(loc._xs) - 1, 0), len(self.arrangement._vx),
            len(loc._ent_u), faces.shape[0]], dtype=np.int64)
        return {
            "meta": meta,
            "xs": np.ascontiguousarray(loc._xs, dtype=np.float64),
            "offs": np.ascontiguousarray(loc._offs, dtype=np.int64),
            "ent_u": np.ascontiguousarray(loc._ent_u, dtype=np.int64),
            "ent_v": np.ascontiguousarray(loc._ent_v, dtype=np.int64),
            "ent_row": np.ascontiguousarray(ent_row, dtype=np.int64),
            "vx": np.ascontiguousarray(self.arrangement._vx,
                                       dtype=np.float64),
            "vy": np.ascontiguousarray(self.arrangement._vy,
                                       dtype=np.float64),
            "faces": faces,
            "box": np.array(self.box, dtype=np.float64),
        }


class SharedPlaneDiagram(_FaceVectorQueries):
    """A ``V_Pr`` served from pre-built plane arrays (attach, don't build).

    The parent process builds the diagram once, exports it with
    :meth:`ProbabilisticVoronoiDiagram.to_plane_arrays`, and ships the
    arrays to the ``process`` backend's workers in the pool initargs
    (inherited copy-on-write under ``fork``).  A worker wraps them
    in this class and answers the same ``query`` / ``query_batch`` /
    ``quantify_batch`` surface **bitwise identically**: in-window
    queries run the ``plane_locate`` kernel over the attached locator
    arrays and gather the precomputed face vectors; rows outside the
    window (or on unbounded slivers) fall back to the exact batched
    Eq. (2) sweep built from the worker's own points, exactly as the
    parent does.  The ``Theta(N^4)`` build cost is paid exactly once
    per serving process tree.
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint],
                 arrays: Dict[str, np.ndarray],
                 quantifier: Optional[BatchExactQuantifier] = None) -> None:
        from ..spatial.codec import check_plane_arrays

        t0 = time.perf_counter()
        check_plane_arrays(arrays)
        meta = arrays["meta"]
        if int(meta[0]) != PLANE_FORMAT_VERSION:
            raise ValueError(
                f"plane format version {int(meta[0])} != "
                f"{PLANE_FORMAT_VERSION}")
        self.points = list(points)
        if int(meta[2]) != len(self.points):
            raise ValueError(
                f"plane was built over {int(meta[2])} uncertain points, "
                f"got {len(self.points)}")
        self.leaf_base = int(meta[1])
        self._xs = arrays["xs"]
        self._offs = arrays["offs"]
        self._ent_u = arrays["ent_u"]
        self._ent_v = arrays["ent_v"]
        self._ent_row = arrays["ent_row"]
        self._vx = arrays["vx"]
        self._vy = arrays["vy"]
        self._face_matrix = arrays["faces"]
        b = arrays["box"]
        self.box = ((float(b[0, 0]), float(b[0, 1])),
                    (float(b[1, 0]), float(b[1, 1])))
        self._quantifier = quantifier
        ENGINE.inc("vpr.plane_attaches")
        self.attach_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vx)

    @property
    def num_faces(self) -> int:
        return int(self._face_matrix.shape[0])

    def locator_stats(self) -> Dict[str, object]:
        """Attached-plane figures, shaped like the locator's ``stats``."""
        nbytes = sum(int(a.nbytes) for a in (
            self._xs, self._offs, self._ent_u, self._ent_v, self._ent_row))
        return {
            "kind": "persistent",
            "entries": int(len(self._ent_u)),
            "slabs": int(max(len(self._xs) - 1, 0)),
            "leaf_base": int(self.leaf_base),
            "nbytes": nbytes,
            "attach_seconds": float(self.attach_seconds),
        }

    def _locate_row(self, q: Point) -> int:
        ent = plane_locate_scalar(
            float(q[0]), float(q[1]), self._xs, self._offs,
            self._ent_u, self._ent_v, self._vx, self._vy, self.leaf_base)
        return int(self._ent_row[ent]) if ent >= 0 else -1

    def _locate_rows(self, q: np.ndarray) -> np.ndarray:
        rows = np.full(len(q), -1, dtype=np.intp)
        if len(q) and len(self._xs) >= 2 and len(self._ent_u):
            ENGINE.inc("planelocate.batches")
            ent, found = get_provider().plane_locate(
                q[:, 0], q[:, 1], self._xs, self._offs,
                self._ent_u, self._ent_v, self._vx, self._vy,
                self.leaf_base)
            if found.any():
                rows[found] = self._ent_row[ent[found]]
        return rows
