"""The exact probabilistic Voronoi diagram ``V_Pr`` (Section 4.1).

Lemma 4.1: the ``O(N^2)`` perpendicular bisectors of all pairs of possible
site locations subdivide the plane into ``O(N^4)`` convex cells, inside
each of which the distance order to every site — and therefore every
quantification probability (Eq. 2) — is constant.  Theorem 4.2 preprocesses
this refinement for point location, answering exact quantification queries
in ``O(log N + t)``.

Construction: bisector lines are clipped to a bounding box (chosen to
contain the query region of interest plus every pairwise midpoint), the
box boundary is added, and the segment arrangement's bounded faces each get
their exact probability vector evaluated at an interior point.  Queries go
through the merged-slab point locator
(:class:`~repro.spatial.planelocate.PersistentPlaneLocator`); queries
outside the box fall back to the direct Eq. (2) sweep, preserving
exactness everywhere.

The build is vectorized end to end: pairwise bisector coefficients in one
NumPy broadcast, normalized-key dedup via a stable ``unique``, the batched
line-vs-box clip kernel, the vectorized arrangement build, and one
:meth:`~repro.quantification.batch_exact.BatchExactQuantifier.matrix`
call labeling every bounded face at once.  Duck-typed site models outside
:class:`~repro.uncertain.discrete.DiscreteUncertainPoint` have no batched
engine, so their faces are labeled by the per-face Eq. (2) sweep.

The original pure-Python pair loops and per-face sweeps are kept as the
test oracle :class:`repro.testing.oracles.ScalarVPRDiagram`;
``tests/test_speed_bars.py`` bars the build speedup over it (~6x on one
core at ``N = 18``) and ``tests/test_vectorized_kernels.py`` asserts
identical V/E/F counts and bitwise-equal face vectors.

This structure is *meant* to be enormous — its ``Theta(N^4)`` size is the
paper's motivation for the approximation algorithms of Sections 4.2/4.3 —
so it is only practical for small instances, which is also all the
``Omega(n^4)`` lower-bound experiment (E10) needs.
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
from ..spatial.planelocate import PersistentPlaneLocator, plane_locate_scalar
from ..uncertain.discrete import DiscreteUncertainPoint

__all__ = ["ProbabilisticVoronoiDiagram", "SharedPlaneDiagram"]

#: Version tag of the shared-plane array layout (``to_plane_arrays``).
PLANE_FORMAT_VERSION = 1


def box_boundary(box: Tuple[Point, Point]) -> List[Tuple[Point, Point]]:
    """The four sides of *box* as segments (the arrangement's frame)."""
    (xmin, ymin), (xmax, ymax) = box
    return [((xmin, ymin), (xmax, ymin)), ((xmax, ymin), (xmax, ymax)),
            ((xmax, ymax), (xmin, ymax)), ((xmin, ymax), (xmin, ymin))]


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
        :meth:`~repro.quantification.batch_exact.BatchExactQuantifier.
        batch`, over :meth:`query_batch` rows — so wherever the float
        vectors agree with the direct Eq. (2) sweep (everywhere outside
        the window, and on every generic in-window query), the dicts are
        equal row for row.  This is what the ``quantify_vpr`` query kind
        serves.
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
        """Clipped pairwise bisectors plus the box frame, arranged."""
        sx = np.array([s[0] for s in sites], dtype=np.float64)
        sy = np.array([s[1] for s in sites], dtype=np.float64)
        segs = self._bisector_segments_batch(sx, sy, box)
        frame = np.array([(a[0], a[1], b[0], b[1])
                          for a, b in box_boundary(box)])
        return SegmentArrangement(np.vstack([segs, frame]))

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
    @staticmethod
    def _bisector_segments_batch(sx: np.ndarray, sy: np.ndarray,
                                 box: Tuple[Point, Point]) -> np.ndarray:
        """Clipped bisectors of all site pairs, deduplicated (batched).

        One broadcast computes every pair's coefficients.  The dedup key
        is the line's coefficient triple normalized by its max-abs
        component, rounded to 9 decimals, and sign-canonicalized so that
        the first nonzero component is positive (two opposite-orientation
        triples describe the same line); a stable ``unique`` over the keys
        keeps each line's first pair in scan order.  The batched clip
        kernel cuts the survivors to the box, returning an ``(S, 4)``
        segment array bit-for-bit equal to the scalar oracle's list.
        """
        pi, pj = np.triu_indices(len(sx), 1)
        px, py = sx[pi], sy[pi]
        rx, ry = sx[pj], sy[pj]
        distinct = (px != rx) | (py != ry)
        px, py, rx, ry = px[distinct], py[distinct], rx[distinct], ry[distinct]
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
        ka = ka * sign + 0.0
        kb = kb * sign + 0.0
        kc = kc * sign + 0.0
        trip = np.ascontiguousarray(np.stack((ka, kb, kc), axis=1))
        keys = trip.view(np.dtype((np.void, trip.dtype.itemsize * 3)))
        _, first = np.unique(keys.ravel(), return_index=True)
        first.sort()
        segs, valid = line_box_clip_batch(la[first], lb[first], lc[first],
                                          box)
        return segs[valid]

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
                 arrays: Dict[str, np.ndarray], kernel: str = "auto",
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
        self.kernel = kernel
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
        from ..spatial.kernels import get_provider

        rows = np.full(len(q), -1, dtype=np.intp)
        if len(q) and len(self._xs) >= 2 and len(self._ent_u):
            ENGINE.inc("planelocate.batches")
            ent, found = get_provider(self.kernel).plane_locate(
                q[:, 0], q[:, 1], self._xs, self._offs,
                self._ent_u, self._ent_v, self._vx, self._vy,
                self.leaf_base)
            if found.any():
                rows[found] = self._ent_row[ent[found]]
        return rows
