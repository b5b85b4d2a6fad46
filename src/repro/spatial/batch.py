"""NumPy-vectorized batch-query backend for :class:`~repro.core.index.PNNIndex`.

The scalar query path answers one query at a time through pure-Python
kd-tree traversals.  For the many-query workloads the ROADMAP targets
(probabilistic-Voronoi sweeps, Monte-Carlo rounds, grid rasterisation)
this module answers an ``(m, 2)`` array of queries in a handful of
vectorized passes while preserving the *exact* Lemma 2.1 semantics of the
scalar code — including the second-minimum threshold for the unique
``Delta`` argmin, which matters for zero-extent (certain) supports.

Two interchangeable execution strategies sit behind one engine:

* ``dense`` — brute-force matrix kernels: the exact ``(m, n)`` min/max
  distance matrices are materialised per query chunk (chunks sized to stay
  cache-resident) and every stage is a full-matrix reduction.  Unbeatable
  for small/medium ``n``.
* ``bucket`` — an array-based kd-tree: the support centers are median-split
  into contiguous *buckets* of a permutation array, with per-bucket bboxes
  and min/max radii.  Queries prune buckets with vectorized box-distance
  matrices (``(m, L)`` with ``L ≈ n / leaf``) and only the surviving
  (query, point) pairs are evaluated — the batch analogue of the scalar
  tree's two-stage traversal.

Both strategies confirm candidates with exact per-model kernels, grouped
by distribution family so the whole batch needs only a few passes:

* disk-supported models (uniform disk, truncated Gaussian): closed-form
  ``max(d - r, 0)`` / ``d + r``;
* annuli: the same with the inner-hole case;
* discrete site sets: padded ``(g, k_max, 2)`` site tensors (minimum over
  sites, maximum over convex-hull vertices — the same site lists the
  scalar oracles scan);
* histograms: padded cell-rectangle tensors (minimum of point-to-rect
  distances over the positive cells, maximum over their corners);
* convex polygons: padded edge tensors (containment test plus minimum of
  point-to-segment distances; maximum over the vertices);
* anything else falls back to the model's scalar ``min_dist`` /
  ``max_dist`` per entry, so exactness is never sacrificed for speed.

Exact confirmations use the same ``sqrt(dx*dx + dy*dy)`` distance form as
the scalar code (see ``geometry.primitives.dist``), so batch and scalar
answers agree bitwise.  Candidate *pruning* in the bucketed strategy
additionally widens its bounds by a few ulps of slack, so rounding in the
box-distance matrices can only ever add candidates (whose exact values
then decide), never drop one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..geometry.disks import Disk
from ..geometry.primitives import EPS
from ..obs.metrics import ENGINE
from .kernels import get_provider
from ..uncertain.annulus import AnnulusUniformPoint
from ..uncertain.base import UncertainPoint
from ..uncertain.discrete import DiscreteUncertainPoint
from ..uncertain.disk_uniform import DiskUniformPoint
from ..uncertain.gaussian import TruncatedGaussianPoint
from ..uncertain.histogram import HistogramUncertainPoint
from ..uncertain.polygon import ConvexPolygonUniformPoint

__all__ = ["ABSOLUTE_WINDOW", "BatchQueryEngine", "EXTENT_REACH",
           "MAX_COORD", "SupportDiskPoint", "as_query_array",
           "check_query_domain", "query_window"]

#: Largest accepted ``|coordinate|``: coordinate differences stay below
#: ``2**501``, so ``dx*dx + dy*dy`` stays finite and no distance
#: overflows to ``inf``.
MAX_COORD = 2.0 ** 500
#: How far outside an index's support box a query may lie, in multiples
#: of the box's extent (its larger side).  Near ``1e12`` extents the
#: site-to-site distance differences round away — ``Σπ`` drifts below 1
#: and ``NN≠0`` comes back empty — so ``2**30`` keeps ~1000x of margin.
EXTENT_REACH = 2.0 ** 30
#: ``(xmin, ymin, xmax, ymax)`` of the domain without an index: finite
#: coordinates within ``±MAX_COORD``.
ABSOLUTE_WINDOW = (-MAX_COORD, -MAX_COORD, MAX_COORD, MAX_COORD)


def query_window(xmin: float, ymin: float, xmax: float,
                 ymax: float) -> Tuple[float, float, float, float]:
    """The query domain of an index whose supports span this box.

    The box grown by :data:`EXTENT_REACH` times its extent on every
    side, clipped to :data:`ABSOLUTE_WINDOW`.  A zero-extent box (every
    site coincident) keeps only the absolute bound.
    """
    extent = max(xmax - xmin, ymax - ymin)
    if not extent > 0:
        return ABSOLUTE_WINDOW
    reach = EXTENT_REACH * extent
    return (max(xmin - reach, -MAX_COORD), max(ymin - reach, -MAX_COORD),
            min(xmax + reach, MAX_COORD), min(ymax + reach, MAX_COORD))


def check_query_domain(q, window=ABSOLUTE_WINDOW) -> None:
    """Raise :class:`ValueError` unless every query lies in *window*.

    The one owner of the input domain.  *q* is either an ``(m, 2)``
    float64 array (one vectorized pass; the error names the offending
    rows) or one ``(x, y)`` point (one scalar test).  NaN compares false
    against both bounds, so it fails like ``±inf`` and overflowing
    coordinates.  *window* is ``(xmin, ymin, xmax, ymax)``, usually an
    index's :attr:`~repro.core.index.PNNIndex.query_window`.
    """
    lo_x, lo_y, hi_x, hi_y = window
    if isinstance(q, np.ndarray) and q.ndim == 2:
        x, y = q[:, 0], q[:, 1]
        ok = (x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)
        if ok.all():
            return
        bad = np.flatnonzero(~ok).tolist()
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ValueError(
            f"queries must be finite and inside the query domain "
            f"{_describe(window)}; out-of-domain row(s) "
            f"{', '.join(map(str, bad[:10]))}: "
            f"{', '.join(f'queries[{j}]' for j in bad[:10])}{more}")
    x, y = q
    if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y):
        raise ValueError(f"query point ({x!r}, {y!r}) must be finite and "
                         f"inside the query domain {_describe(window)}")


def _describe(window) -> str:
    lo_x, lo_y, hi_x, hi_y = window
    return (f"(x in [{lo_x:.6g}, {hi_x:.6g}], "
            f"y in [{lo_y:.6g}, {hi_y:.6g}])")


def as_query_array(queries, window=ABSOLUTE_WINDOW) -> np.ndarray:
    """Validate *queries* into the library's ``(m, 2)`` float64 form.

    The shared input contract of every batch front door —
    :class:`BatchQueryEngine`, the serving layer, and the exact
    quantification engine all funnel through this one validator, so the
    error message (and empty-input behaviour) stays uniform.  Rows
    outside *window* (:func:`check_query_domain`) are rejected, naming
    them.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.size == 0:
        return q.reshape(0, 2)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError("queries must be an (m, 2) array of points")
    check_query_domain(q, window)
    return q

# Below this many points the dense matrix kernels win outright.
_DENSE_MAX_POINTS = 1024
# Target element count of per-chunk work matrices.  Small enough that the
# dozen-or-so passes of a chunk run over L2-resident data (a 2^16-double
# matrix is 512 KB) — large chunks go memory-bandwidth-bound and lose 2-3x.
_CHUNK_ELEMENTS = 1 << 16
# Bucket capacity of the array kd-tree (leaves hold 1..LEAF points).
# Larger leaves shrink the (m, L) box-distance matrices; the extra pair
# evaluations are cheap linear passes.
_LEAF_SIZE = 64
# Relative pruning slack (a few ulps): absorbs box-distance rounding so
# bucket pruning can only over-include, never drop a candidate.
_SLACK = 4e-15


class SupportDiskPoint(UncertainPoint):
    """A bare support disk viewed as an uncertain point (bounds only).

    Adapter for callers that hold plain :class:`~repro.geometry.disks.Disk`
    regions (the Voronoi rasterisers, ``NN!=0`` sweeps) and only need the
    Lemma 2.1 min/max distances — there is no distribution to sample or
    integrate, so the pdf-side interface raises.  Unlike
    :class:`~repro.uncertain.disk_uniform.DiskUniformPoint` a zero radius
    (a certain point) is allowed, matching ``Disk`` semantics.
    """

    def __init__(self, disk: Disk) -> None:
        self.disk = disk

    def support_disk(self) -> Disk:
        return self.disk

    def min_dist(self, q) -> float:
        return self.disk.min_dist(q)

    def max_dist(self, q) -> float:
        return self.disk.max_dist(q)

    def sample(self, rng):
        raise TypeError("SupportDiskPoint carries no distribution")

    def distance_cdf(self, q, r: float) -> float:
        raise TypeError("SupportDiskPoint carries no distribution")


def _xy_dist(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` — the library's shared distance form."""
    return np.sqrt(dx * dx + dy * dy)


def _pair_dist(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Distances for aligned ``(p, 2)`` query/center pair arrays."""
    return _xy_dist(q[:, 0] - c[:, 0], q[:, 1] - c[:, 1])


# ----------------------------------------------------------------------
# Exact-distance kernels, one per model family.  Each exposes
#   matrices              : (mc, 2) queries -> exact (mc, g) min AND max
#   min_pairs / max_pairs : aligned (query row, local point) pairs
# The matrix path computes the center-distance matrix once and reuses its
# buffers — the chunked passes then stay cache-resident.
# ----------------------------------------------------------------------

class _DiskKernel:
    """Models whose min/max distances equal the support-disk bounds."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray) -> None:
        self.cx = np.ascontiguousarray(centers[:, 0])
        self.cy = np.ascontiguousarray(centers[:, 1])
        self.centers = centers
        self.radii = np.ascontiguousarray(radii)

    def _d_matrix(self, qc: np.ndarray) -> np.ndarray:
        return get_provider().distance_matrix(qc[:, 0], qc[:, 1],
                                              self.cx, self.cy)

    def matrices(self, qc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = self._d_matrix(qc)
        max_m = d + self.radii[None, :]
        np.subtract(d, self.radii[None, :], out=d)
        min_m = np.maximum(d, 0.0, out=d)
        return min_m, max_m

    def min_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        d = _pair_dist(q, self.centers[local])
        return np.maximum(d - self.radii[local], 0.0)

    def max_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return _pair_dist(q, self.centers[local]) + self.radii[local]


class _AnnulusKernel:
    """Annulus supports: the inner hole keeps the query away."""

    def __init__(self, points: Sequence[AnnulusUniformPoint]) -> None:
        self.centers = np.array([p.center for p in points], dtype=np.float64)
        self.r_inner = np.array([p.r_inner for p in points], dtype=np.float64)
        self.r_outer = np.array([p.r_outer for p in points], dtype=np.float64)

    @staticmethod
    def _min_from(d: np.ndarray, r_in: np.ndarray,
                  r_out: np.ndarray) -> np.ndarray:
        return np.where(d < r_in, r_in - d,
                        np.where(d > r_out, d - r_out, 0.0))

    def matrices(self, qc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = _xy_dist(qc[:, 0:1] - self.centers[None, :, 0],
                     qc[:, 1:2] - self.centers[None, :, 1])
        max_m = d + self.r_outer[None, :]
        min_m = self._min_from(d, self.r_inner[None, :],
                               self.r_outer[None, :])
        return min_m, max_m

    def min_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        d = _pair_dist(q, self.centers[local])
        return self._min_from(d, self.r_inner[local], self.r_outer[local])

    def max_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return _pair_dist(q, self.centers[local]) + self.r_outer[local]


class _SitesKernel:
    """Discrete models: min over sites, max over convex-hull vertices.

    Sites are stored as one padded ``(g, k_max, 2)`` tensor (padding
    repeats the first site, which is neutral for both min and max), hull
    vertices likewise — the same lists the scalar ``min_dist`` loop and
    :class:`~repro.geometry.convexhull.FarthestPointOracle` scan.
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint]) -> None:
        self.sites = self._padded([p.points for p in points])
        self.hulls = self._padded([p.hull_sites() for p in points])

    @staticmethod
    def _padded(row_lists: Sequence[Sequence[Sequence[float]]]
                ) -> np.ndarray:
        """Ragged lists of fixed-width rows to a ``(g, k_max, w)`` tensor.

        Padding repeats each group's first row — neutral for the min/max
        reductions (a duplicate never changes an extremum) and for the
        polygon kernel's all-edges conjunction (a repeated halfplane
        test).  Shared by the sites, histogram, and polygon kernels.
        """
        kmax = max(len(rows) for rows in row_lists)
        width = len(row_lists[0][0])
        out = np.empty((len(row_lists), kmax, width), dtype=np.float64)
        for g, rows in enumerate(row_lists):
            arr = np.asarray(rows, dtype=np.float64)
            out[g, :len(rows)] = arr
            out[g, len(rows):] = arr[0]
        return out

    def matrices(self, qc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = _xy_dist(self.sites[None, :, :, 0] - qc[:, None, None, 0],
                     self.sites[None, :, :, 1] - qc[:, None, None, 1])
        min_m = d.min(axis=2)
        d = _xy_dist(self.hulls[None, :, :, 0] - qc[:, None, None, 0],
                     self.hulls[None, :, :, 1] - qc[:, None, None, 1])
        return min_m, d.max(axis=2)

    @staticmethod
    def _pair_site_dists(q: np.ndarray, sites: np.ndarray) -> np.ndarray:
        return _xy_dist(sites[:, :, 0] - q[:, None, 0],
                        sites[:, :, 1] - q[:, None, 1])

    def min_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return self._pair_site_dists(q, self.sites[local]).min(axis=1)

    def max_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return self._pair_site_dists(q, self.hulls[local]).max(axis=1)


class _HistogramKernel:
    """Histogram models: min over positive cells, max over their corners.

    Cells are stored as one padded ``(g, c_max, 4)`` rectangle tensor
    (``x0, y0, x1, y1``; padding repeats the first cell, neutral for the
    min), corners as a padded ``(g, 4*c_max, 2)`` point tensor — exactly
    the rectangles and corners the scalar ``min_dist`` / ``max_dist``
    loops scan, in the same ``sqrt(dx*dx + dy*dy)`` distance form.
    """

    def __init__(self, points: Sequence[HistogramUncertainPoint]) -> None:
        self.rects = _SitesKernel._padded(
            [[(a[0], a[1], b[0], b[1]) for a, b in p.cell_rects()]
             for p in points])
        self.corners = _SitesKernel._padded([p.corners() for p in points])

    @staticmethod
    def _rect_min(px: np.ndarray, py: np.ndarray,
                  rects: np.ndarray) -> np.ndarray:
        """Min distance to any rectangle; reduces the second-to-last axis."""
        dx = np.maximum(np.maximum(rects[..., 0] - px, px - rects[..., 2]),
                        0.0)
        dy = np.maximum(np.maximum(rects[..., 1] - py, py - rects[..., 3]),
                        0.0)
        return _xy_dist(dx, dy).min(axis=-1)

    def matrices(self, qc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        min_m = self._rect_min(qc[:, None, None, 0], qc[:, None, None, 1],
                               self.rects[None])
        d = _xy_dist(self.corners[None, :, :, 0] - qc[:, None, None, 0],
                     self.corners[None, :, :, 1] - qc[:, None, None, 1])
        return min_m, d.max(axis=2)

    def min_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return self._rect_min(q[:, None, 0], q[:, None, 1],
                              self.rects[local])

    def max_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return _SitesKernel._pair_site_dists(
            q, self.corners[local]).max(axis=1)


class _PolygonKernel:
    """Convex-polygon models: containment + edge distances, vertex maxima.

    Edges are stored as one padded ``(g, e_max, 4)`` tensor (``ax, ay,
    bx, by``; padding repeats the first edge, which duplicates one
    halfplane test and one segment distance — neutral for both the
    all-edges containment conjunction and the min reduction).  The
    containment predicate and the clamped-projection segment distance
    reproduce the scalar ``polygon_contains`` / ``_segment_dist``
    arithmetic exactly, tolerance bands included.
    """

    def __init__(self, points: Sequence[ConvexPolygonUniformPoint]) -> None:
        self.verts = _SitesKernel._padded([p.vertices for p in points])
        self.edges = _SitesKernel._padded(
            [[(a[0], a[1], b[0], b[1]) for a, b in p.edges()]
             for p in points])

    @staticmethod
    def _poly_min(px: np.ndarray, py: np.ndarray,
                  edges: np.ndarray) -> np.ndarray:
        """Exact polygon min distance; reduces the second-to-last axis."""
        ax = edges[..., 0]
        ay = edges[..., 1]
        abx = edges[..., 2] - ax
        aby = edges[..., 3] - ay
        dqax = px - ax
        dqay = py - ay
        # Containment: no edge may see the query strictly right of it
        # (the scalar polygon_contains scale-aware tolerance band).
        cross = abx * dqay - aby * dqax
        span = np.maximum(1.0, np.maximum(np.abs(abx) + np.abs(aby),
                                          np.abs(dqax) + np.abs(dqay)))
        inside = ~(cross < -EPS * span * span).any(axis=-1)
        # Segment distances via the clamped projection (scalar
        # _segment_dist), degenerate edges collapsing to the endpoint.
        denom = abx * abx + aby * aby
        degenerate = denom <= 1e-30
        t = (dqax * abx + dqay * aby) / np.where(degenerate, 1.0, denom)
        t = np.minimum(1.0, np.maximum(0.0, t))
        seg = _xy_dist(px - (ax + t * abx), py - (ay + t * aby))
        end = _xy_dist(dqax, dqay)
        best = np.where(degenerate, end, seg).min(axis=-1)
        return np.where(inside, 0.0, best)

    def matrices(self, qc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        min_m = self._poly_min(qc[:, None, None, 0], qc[:, None, None, 1],
                               self.edges[None])
        d = _xy_dist(self.verts[None, :, :, 0] - qc[:, None, None, 0],
                     self.verts[None, :, :, 1] - qc[:, None, None, 1])
        return min_m, d.max(axis=2)

    def min_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return self._poly_min(q[:, None, 0], q[:, None, 1],
                              self.edges[local])

    def max_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return _SitesKernel._pair_site_dists(
            q, self.verts[local]).max(axis=1)


class _FallbackKernel:
    """Any other model: the scalar min_dist/max_dist, entry by entry.

    Exactness over speed — user-defined models (and subclasses of the
    built-ins, which may override the extreme distances) keep their
    scalar semantics bit for bit.
    """

    def __init__(self, points: Sequence[UncertainPoint]) -> None:
        self.models = list(points)

    def matrices(self, qc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        qs = [(x, y) for x, y in qc.tolist()]
        min_m = np.array([[m.min_dist(q) for m in self.models] for q in qs],
                         dtype=np.float64)
        max_m = np.array([[m.max_dist(q) for m in self.models] for q in qs],
                         dtype=np.float64)
        return min_m, max_m

    def _eval(self, q: np.ndarray, local: np.ndarray,
              want_max: bool) -> np.ndarray:
        out = np.empty(len(local), dtype=np.float64)
        for j, (g, x, y) in enumerate(zip(local.tolist(),
                                          q[:, 0].tolist(),
                                          q[:, 1].tolist())):
            model = self.models[g]
            out[j] = model.max_dist((x, y)) if want_max \
                else model.min_dist((x, y))
        return out

    def min_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return self._eval(q, local, want_max=False)

    def max_pairs(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return self._eval(q, local, want_max=True)


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------

class BatchQueryEngine:
    """Vectorized ``Delta`` / ``NN!=0`` queries over a fixed point set.

    Parameters
    ----------
    points:
        The uncertain points (any mix of models; at least one).
    backend:
        ``"auto"`` (dense below ``_DENSE_MAX_POINTS`` points, bucketed
        above), or force ``"dense"`` / ``"bucket"``.
    """

    def __init__(self, points: Sequence[UncertainPoint],
                 backend: str = "auto") -> None:
        if not points:
            raise ValueError("batch engine needs at least one uncertain point")
        if backend not in ("auto", "dense", "bucket"):
            raise ValueError(f"unknown backend {backend!r}")
        self.points: List[UncertainPoint] = list(points)
        n = len(self.points)
        supports = [p.support_disk() for p in self.points]
        self.centers = np.array([d.center for d in supports],
                                dtype=np.float64)
        self.radii = np.array([d.r for d in supports], dtype=np.float64)
        self._cx = np.ascontiguousarray(self.centers[:, 0])
        self._cy = np.ascontiguousarray(self.centers[:, 1])
        self._cr = self.radii
        self._build_kernels()
        self._matrix_cheap = all(
            isinstance(k, (_DiskKernel, _AnnulusKernel))
            for k in self._kernels)
        self.backend = backend if backend != "auto" else (
            "dense" if n <= _DENSE_MAX_POINTS else "bucket")
        if self.backend == "bucket":
            self._build_buckets()

    @classmethod
    def from_disks(cls, disks: Sequence[Disk],
                   backend: str = "auto") -> "BatchQueryEngine":
        """An engine over bare disks (Lemma 2.1 bounds only).

        Wraps each disk in :class:`SupportDiskPoint`, so the whole set runs
        on the closed-form disk kernel — the batch counterpart of
        ``NonzeroVoronoiDiagram.nonzero_nn`` / ``locate_cell``.
        """
        return cls([SupportDiskPoint(d) for d in disks], backend=backend)

    @property
    def n(self) -> int:
        return len(self.points)

    # ------------------------------------------------------------------
    # Kernel grouping.
    # ------------------------------------------------------------------
    def _build_kernels(self) -> None:
        groups: Dict[str, List[int]] = {
            "disk": [], "annulus": [], "sites": [], "histogram": [],
            "polygon": [], "fallback": []}
        for i, p in enumerate(self.points):
            # Exact type checks: a subclass may override min/max_dist, in
            # which case only the fallback kernel is guaranteed exact.
            if type(p) in (DiskUniformPoint, TruncatedGaussianPoint,
                           SupportDiskPoint):
                groups["disk"].append(i)
            elif type(p) is AnnulusUniformPoint:
                groups["annulus"].append(i)
            elif type(p) is DiscreteUncertainPoint:
                groups["sites"].append(i)
            elif type(p) is HistogramUncertainPoint:
                groups["histogram"].append(i)
            elif type(p) is ConvexPolygonUniformPoint:
                groups["polygon"].append(i)
            else:
                groups["fallback"].append(i)
        self._kernels: List[object] = []
        self._kernel_names: List[str] = []
        self._kernel_cols: List[np.ndarray] = []
        self._kernel_of = np.empty(self.n, dtype=np.intp)
        self._local_of = np.empty(self.n, dtype=np.intp)
        for name, idxs in groups.items():
            if not idxs:
                continue
            members = [self.points[i] for i in idxs]
            if name == "disk":
                kernel: object = _DiskKernel(self.centers[idxs],
                                             self.radii[idxs])
            elif name == "annulus":
                kernel = _AnnulusKernel(members)  # type: ignore[arg-type]
            elif name == "sites":
                kernel = _SitesKernel(members)  # type: ignore[arg-type]
            elif name == "histogram":
                kernel = _HistogramKernel(members)  # type: ignore[arg-type]
            elif name == "polygon":
                kernel = _PolygonKernel(members)  # type: ignore[arg-type]
            else:
                kernel = _FallbackKernel(members)
            kid = len(self._kernels)
            self._kernels.append(kernel)
            self._kernel_names.append(name)
            self._kernel_cols.append(np.array(idxs, dtype=np.intp))
            for local, i in enumerate(idxs):
                self._kernel_of[i] = kid
                self._local_of[i] = local

    def kernel_groups(self) -> List[str]:
        """Active kernel-group names, e.g. ``["disk", "histogram"]``.

        Introspection for tests and benchmarks: a mixed-model index is at
        full vectorized speed exactly when ``"fallback"`` is absent.
        """
        return list(self._kernel_names)

    def _exact_matrices(self, qc: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact ``(mc, n)`` min- and max-distance matrices for a chunk."""
        if len(self._kernels) == 1:
            # Homogeneous index (the common case): the kernel's column
            # order is the point order, no scatter pass needed.
            return self._kernels[0].matrices(qc)  # type: ignore[attr-defined]
        mc = len(qc)
        min_m = np.empty((mc, self.n), dtype=np.float64)
        max_m = np.empty((mc, self.n), dtype=np.float64)
        for kernel, cols in zip(self._kernels, self._kernel_cols):
            k_min, k_max = kernel.matrices(qc)  # type: ignore[attr-defined]
            min_m[:, cols] = k_min
            max_m[:, cols] = k_max
        return min_m, max_m

    def _exact_pairs(self, q_xy: np.ndarray, pidx: np.ndarray,
                     want_max: bool) -> np.ndarray:
        """Exact min/max distance for aligned (query, point) pair arrays."""
        out = np.empty(len(pidx), dtype=np.float64)
        kid = self._kernel_of[pidx]
        for k, kernel in enumerate(self._kernels):
            sel = np.flatnonzero(kid == k)
            if not sel.size:
                continue
            local = self._local_of[pidx[sel]]
            fn = kernel.max_pairs if want_max else kernel.min_pairs  # type: ignore[attr-defined]
            out[sel] = fn(q_xy[sel], local)
        return out

    # ------------------------------------------------------------------
    # Array kd-tree (bucket) construction.
    # ------------------------------------------------------------------
    def _build_buckets(self) -> None:
        n = self.n
        perm = np.arange(n, dtype=np.intp)
        xy = self.centers
        leaves: List[Tuple[int, int]] = []
        stack: List[Tuple[int, int]] = [(0, n)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo <= _LEAF_SIZE:
                leaves.append((lo, hi))
                continue
            block = xy[perm[lo:hi]]
            spans = block.max(axis=0) - block.min(axis=0)
            axis = 0 if spans[0] >= spans[1] else 1
            mid = (hi - lo) // 2
            order = np.argpartition(block[:, axis], mid)
            perm[lo:hi] = perm[lo:hi][order]
            stack.append((lo, lo + mid))
            stack.append((lo + mid, hi))
        leaves.sort()
        self._perm = perm
        starts = np.array([s for s, _ in leaves] + [n], dtype=np.intp)
        self._leaf_start = starts
        self._leaf_size = starts[1:] - starts[:-1]
        L = len(leaves)
        self._leaf_lo = np.empty((L, 2), dtype=np.float64)
        self._leaf_hi = np.empty((L, 2), dtype=np.float64)
        self._leaf_min_r = np.empty(L, dtype=np.float64)
        self._leaf_max_r = np.empty(L, dtype=np.float64)
        for j, (lo, hi) in enumerate(leaves):
            block = xy[perm[lo:hi]]
            self._leaf_lo[j] = block.min(axis=0)
            self._leaf_hi[j] = block.max(axis=0)
            radii = self.radii[perm[lo:hi]]
            self._leaf_min_r[j] = radii.min()
            self._leaf_max_r[j] = radii.max()

    def _leaf_box_dist(self, qc: np.ndarray) -> np.ndarray:
        """``(mc, L)`` L2 distances from each query to each bucket bbox."""
        dx = self._leaf_lo[None, :, 0] - qc[:, 0:1]
        np.maximum(dx, qc[:, 0:1] - self._leaf_hi[None, :, 0], out=dx)
        np.maximum(dx, 0.0, out=dx)
        np.multiply(dx, dx, out=dx)
        dy = self._leaf_lo[None, :, 1] - qc[:, 1:2]
        np.maximum(dy, qc[:, 1:2] - self._leaf_hi[None, :, 1], out=dy)
        np.maximum(dy, 0.0, out=dy)
        np.multiply(dy, dy, out=dy)
        dx += dy
        return np.sqrt(dx, out=dx)

    def _gather_leaf_pairs(self, ql: np.ndarray, ll: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand (query, leaf) pairs into (query, point) pairs."""
        sizes = self._leaf_size[ll]
        width = int(sizes.max()) if sizes.size else 0
        cols = np.arange(width, dtype=np.intp)
        valid = cols[None, :] < sizes[:, None]
        flat = self._leaf_start[ll][:, None] + cols[None, :]
        pidx = self._perm[flat[valid]]
        qidx = np.broadcast_to(ql[:, None], valid.shape)[valid]
        return qidx, pidx

    # ------------------------------------------------------------------
    # Segment reductions over query-major candidate pair lists.  All pair
    # arrays below are produced query-major (np.nonzero / gathers preserve
    # row order), so per-query reductions are reduceat calls — no sorting.
    # ------------------------------------------------------------------
    @staticmethod
    def _seg_starts(qidx: np.ndarray, m: int) -> np.ndarray:
        """Segment start offsets of a query-major pair list covering all m."""
        change = np.empty(len(qidx), dtype=bool)
        change[0] = True
        np.not_equal(qidx[1:], qidx[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        if len(starts) != m:
            raise RuntimeError("a query lost all candidates during pruning")
        return starts

    @staticmethod
    def _segment_two_min(qidx: np.ndarray, vals: np.ndarray, m: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-query two smallest values (multiset: a tied minimum repeats).

        ``qidx`` must be non-decreasing with every query in [0, m) present.
        """
        starts = BatchQueryEngine._seg_starts(qidx, m)
        v1 = np.minimum.reduceat(vals, starts)
        attain = vals == v1[qidx]
        counts = np.add.reduceat(attain, starts)
        rest = np.minimum.reduceat(np.where(attain, np.inf, vals), starts)
        v2 = np.where(counts > 1, v1, rest)
        return v1, v2

    @staticmethod
    def _segment_delta(qidx: np.ndarray, pidx: np.ndarray, vals: np.ndarray,
                       m: int, sentinel: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact ``(min1, second, unique)`` per query from candidate pairs.

        Mirrors the scalar ``PNNIndex._delta_info``: ``second`` is the
        second element of the sorted candidate multiset (so a tied minimum
        yields ``second == min1``), and ``unique`` is the argmin index when
        the minimum is attained exactly once, else -1.  ``sentinel`` is any
        value exceeding every point index (n works).
        """
        starts = BatchQueryEngine._seg_starts(qidx, m)
        min1 = np.minimum.reduceat(vals, starts)
        attain = vals == min1[qidx]
        counts = np.add.reduceat(attain, starts)
        arg1 = np.minimum.reduceat(np.where(attain, pidx, sentinel), starts)
        rest = np.minimum.reduceat(np.where(attain, np.inf, vals), starts)
        tie = counts > 1
        second = np.where(tie, min1, rest)
        unique = np.where(tie, -1, arg1)
        return min1, second, unique

    @staticmethod
    def _with_slack(bound: np.ndarray) -> np.ndarray:
        """Pruning thresholds widened by a few ulps (see module docstring)."""
        return bound + _SLACK * (1.0 + np.abs(bound))

    # ------------------------------------------------------------------
    # Dense strategy.  When every model's exact distances are closed-form
    # in the center distance (disk/annulus families), the full exact
    # matrices cost the same as the support bounds: pure row reductions.
    # Otherwise (site-based or fallback models present) a support-bound
    # pass prunes first and only surviving pairs are confirmed exactly.
    # ------------------------------------------------------------------
    def _support_matrices(self, qc: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Support-disk bound matrices ``(lb, ub) = (d -/+ r)`` for a chunk."""
        d = get_provider().distance_matrix(qc[:, 0], qc[:, 1],
                                           self._cx, self._cy)
        ub = d + self._cr[None, :]
        lb = np.subtract(d, self._cr[None, :], out=d)
        return lb, ub

    def _chunk_dense(self, qc: np.ndarray, report: bool):
        if not self._matrix_cheap:
            return self._chunk_dense_pruned(qc, report)
        min_m, max_m = self._exact_matrices(qc)
        rows = np.arange(len(qc))
        arg1 = max_m.argmin(axis=1)
        min1 = max_m[rows, arg1]
        # Second-smallest Delta_j: mask the argmin and reduce again (max_m
        # is a per-chunk scratch array, so clobbering it is fine).
        max_m[rows, arg1] = np.inf
        second = max_m.min(axis=1)
        # >= 2 attainers of the minimum <=> second == min1 <=> no unique
        # argmin (Lemma 2.1's j != i threshold then equals the minimum).
        unique = np.where(second == min1, -1, arg1)
        if not report:
            return min1, second, unique, None
        # Report threshold is min1 everywhere except the unique argmin's
        # own column, which compares against the second minimum.
        rep = min_m < min1[:, None]
        urows = np.flatnonzero(unique >= 0)
        ucols = unique[urows]
        rep[urows, ucols] = min_m[urows, ucols] < second[urows]
        q2, p2 = np.nonzero(rep)
        return min1, second, unique, (q2, p2)

    def _chunk_dense_pruned(self, qc: np.ndarray, report: bool):
        mc = len(qc)
        lb, ub = self._support_matrices(qc)
        # Stage-1 pruning bound: the second-smallest support upper bound
        # dominates the true second-smallest Delta_j (same argument as the
        # scalar weighted_two_min bound), so every point that can influence
        # (min1, second) passes the lb filter.
        rows = np.arange(mc)
        a1 = ub.argmin(axis=1)
        ub[rows, a1] = np.inf
        v2 = ub.min(axis=1)
        bound = self._with_slack(v2)
        q1, p1 = np.nonzero(lb <= bound[:, None])
        maxv = self._exact_pairs(qc[q1], p1, want_max=True)
        min1, second, unique = self._segment_delta(q1, p1, maxv, mc, self.n)
        if not report:
            return min1, second, unique, None
        # Stage 2: the report bound never exceeds the stage-1 bound, so
        # the surviving pairs are a superset of every reportable point.
        report_bound = self._with_slack(np.where(unique >= 0, second, min1))
        keep2 = lb[q1, p1] <= report_bound[q1]
        q2 = q1[keep2]
        p2 = p1[keep2]
        minv = self._exact_pairs(qc[q2], p2, want_max=False)
        thr = np.where(p2 == unique[q2], second[q2], min1[q2])
        keep = minv < thr
        return min1, second, unique, (q2[keep], p2[keep])

    # ------------------------------------------------------------------
    # Bucketed strategy: prune buckets, evaluate surviving pairs.
    # ------------------------------------------------------------------
    def _chunk_bucket(self, qc: np.ndarray, report: bool):
        mc = len(qc)
        boxd = self._leaf_box_dist(qc)
        # Leaf-level lower bounds: boxd + min_r for members' ub = d + r,
        # boxd - max_r for members' lb = d - r.
        leaf_ub_lb = boxd + self._leaf_min_r[None, :]
        leaf_lb_lb = boxd - self._leaf_max_r[None, :]
        # Seed: the two most ub-promising leaves guarantee two observed
        # upper bounds (n >= 2 here), so their second-minimum soundly
        # over-estimates the true one.
        L = boxd.shape[1]
        if L >= 2:
            rows = np.arange(mc)
            s1 = leaf_ub_lb.argmin(axis=1)
            leaf_ub_lb[rows, s1] = np.inf  # scratch; not reused below
            s2 = leaf_ub_lb.argmin(axis=1)
            seeds = np.stack([s1, s2], axis=1)
        else:
            seeds = np.zeros((mc, 1), dtype=np.intp)
        ql0 = np.repeat(np.arange(mc, dtype=np.intp), seeds.shape[1])
        qidx0, pidx0 = self._gather_leaf_pairs(ql0, seeds.ravel())
        ub0 = _pair_dist(qc[qidx0], self.centers[pidx0]) + self.radii[pidx0]
        _, v2p = self._segment_two_min(qidx0, ub0, mc)
        # Gather every leaf that may hold a point with lb <= v2p: that
        # covers both the true two smallest upper bounds and (after the
        # bound tightens to the true second minimum) every candidate.
        leafmask = leaf_lb_lb <= self._with_slack(v2p)[:, None]
        ql, ll = np.nonzero(leafmask)
        qidx, pidx = self._gather_leaf_pairs(ql, ll)
        q_xy = qc[qidx]
        d = _pair_dist(q_xy, self.centers[pidx])
        ub = d + self.radii[pidx]
        lb = d - self.radii[pidx]
        _, v2 = self._segment_two_min(qidx, ub, mc)
        bound = self._with_slack(v2)
        keep1 = lb <= bound[qidx]
        q1 = qidx[keep1]
        p1 = pidx[keep1]
        maxv = self._exact_pairs(q_xy[keep1], p1, want_max=True)
        min1, second, unique = self._segment_delta(q1, p1, maxv, mc, self.n)
        if not report:
            return min1, second, unique, None
        # Stage 2 reuses the gathered pairs: report_bound <= bound, so the
        # leaf mask above already covers every reportable point.
        report_bound = self._with_slack(np.where(unique >= 0, second, min1))
        keep2 = lb <= report_bound[qidx]
        q2 = qidx[keep2]
        p2 = pidx[keep2]
        minv = self._exact_pairs(q_xy[keep2], p2, want_max=False)
        thr = np.where(p2 == unique[q2], second[q2], min1[q2])
        keep = minv < thr
        return min1, second, unique, (q2[keep], p2[keep])

    # ------------------------------------------------------------------
    # Public queries.
    # ------------------------------------------------------------------
    # Kept as a method alias for callers holding an engine; the public
    # module-level validator is the named dependency.
    _as_queries = staticmethod(as_query_array)

    def chunk_size(self) -> int:
        """Query rows per cache-resident work chunk (backend dependent).

        The granularity at which :meth:`delta_info` / :meth:`nonzero_nn`
        internally release work, and the natural unit for callers that
        stream a large batch through the chunk entry points below.
        """
        per_query = self.n if self.backend == "dense" \
            else max(1, len(self._leaf_size))
        return max(16, _CHUNK_ELEMENTS // per_query)

    def query_chunks(self, queries, chunk_size: int = 0
                     ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(offset, chunk)`` pieces of a validated query array.

        ``chunk_size`` defaults to :meth:`chunk_size`.  Empty inputs yield
        nothing.  Every reduction in the engine is per query row, so
        results computed piece by piece concatenate bitwise-equal to the
        whole-array call at *any* chunking — the invariance the serving
        layer's shard executor depends on when it splits batches across
        worker replicas (each worker answers its slice through these
        whole-batch entry points).
        """
        q = self._as_queries(queries)
        step = chunk_size if chunk_size > 0 else self.chunk_size()
        for s in range(0, len(q), step):
            yield s, q[s:s + step]

    def delta_info_chunk(self, chunk) -> Tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """:meth:`delta_info` over one (already validated or raw) chunk."""
        qc = self._as_queries(chunk)
        mc = len(qc)
        if self.n == 1:
            min1 = np.empty(mc, dtype=np.float64)
            if mc:
                min1[:] = self._exact_pairs(
                    qc, np.zeros(mc, dtype=np.intp), want_max=True)
            return min1, np.full(mc, np.inf), np.zeros(mc, dtype=np.intp)
        if mc == 0:
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.intp))
        ENGINE.inc("batch_engine.chunks")
        chunk_fn = self._chunk_dense if self.backend == "dense" \
            else self._chunk_bucket
        min1, second, unique, _ = chunk_fn(qc, report=False)
        return min1, second, unique

    def nonzero_nn_chunk(self, chunk) -> List[List[int]]:
        """:meth:`nonzero_nn` over one (already validated or raw) chunk."""
        qc = self._as_queries(chunk)
        if self.n == 1:
            return [[0] for _ in range(len(qc))]
        if len(qc) == 0:
            return []
        ENGINE.inc("batch_engine.chunks")
        chunk_fn = self._chunk_dense if self.backend == "dense" \
            else self._chunk_bucket
        q2, p2 = chunk_fn(qc, report=True)[3]
        if self.backend == "bucket":
            order = np.lexsort((p2, q2))
            q2 = q2[order]
            p2 = p2[order]
        # q2 is now query-major with ascending point ids per query.
        counts = np.bincount(q2, minlength=len(qc))
        flat = p2.tolist()
        out: List[List[int]] = []
        pos = 0
        for c in counts.tolist():
            out.append(flat[pos:pos + c])
            pos += c
        return out

    def delta_info(self, queries) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
        """Vectorized ``(min Delta, second-min Delta, unique argmin or -1)``.

        Exact per-query equivalents of ``PNNIndex._delta_info``.
        """
        q = self._as_queries(queries)
        m = len(q)
        min1 = np.empty(m, dtype=np.float64)
        second = np.empty(m, dtype=np.float64)
        unique = np.empty(m, dtype=np.intp)
        for s, qc in self.query_chunks(q):
            res = self.delta_info_chunk(qc)
            min1[s:s + len(qc)], second[s:s + len(qc)], \
                unique[s:s + len(qc)] = res
        return min1, second, unique

    def delta(self, queries) -> np.ndarray:
        """``Delta(q)`` for every row of *queries*."""
        return self.delta_info(queries)[0]

    def nonzero_nn(self, queries) -> List[List[int]]:
        """``NN!=0(q)`` index lists (each sorted) for every query row."""
        q = self._as_queries(queries)
        out: List[List[int]] = []
        for _, qc in self.query_chunks(q):
            out.extend(self.nonzero_nn_chunk(qc))
        return out
