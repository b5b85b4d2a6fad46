"""Planar arrangements of line segments with face extraction.

This is the substrate behind the exact probabilistic Voronoi diagram
``V_Pr`` of Theorem 4.2 / Lemma 4.1: the ``O(N^2)`` bisector lines of all
pairs of possible site locations are clipped to a bounding box and their
arrangement is built here; each face of the arrangement has a constant
distance order to all sites and therefore constant quantification
probabilities.

The paper invokes the randomized incremental construction of [AS00]; we use
the straightforward quadratic algorithm (all pairwise intersections, then a
half-edge face traversal), vectorized: chunked all-pairs segment
intersection as flat coordinate arrays (:func:`~repro.geometry.segments.
segment_intersections_batch`), cut-point ordering via one global
``lexsort``, and a vectorized hash-grid vertex registry: exact duplicates
collapse through a quantized-cell ``unique`` pass, and only the rare
*clustered* points (some other distinct point in their 3x3 tolerance-cell
neighborhood — e.g. three bisectors through one circumcenter) go through
the sequential probe, whose merge semantics are order-dependent.

The build evaluates the same IEEE-754 expressions with the same tolerance
comparisons as the original pure-Python pair loop, kept as the test
oracle :class:`repro.testing.oracles.ScalarSegmentArrangement` (a
subclass overriding :meth:`SegmentArrangement._build`), so vertices,
edges and faces agree *bitwise* (property-tested in
``tests/test_vectorized_kernels.py``).

Face loops are extracted by the standard rotation system: outgoing
half-edges are sorted by angle around each vertex (``np.argsort`` over one
``arctan2`` pass) and ``next(h)`` is the clockwise predecessor of
``twin(h)``, which walks each face with its interior on the left.  Counts
satisfy Euler's relation ``V - E + F = 1 + C`` (checked in tests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .primitives import Point
from .segments import segment_intersections_batch

__all__ = ["SegmentArrangement"]

# Pair-block size for the chunked all-pairs intersection sweep: bounds the
# peak size of the per-chunk coordinate arrays while keeping each NumPy
# pass long enough to amortize dispatch overhead.
_PAIR_CHUNK = 1 << 21


class SegmentArrangement:
    """Arrangement of straight-line segments.

    Parameters
    ----------
    segments:
        Input segments as ``((x1, y1), (x2, y2))`` pairs or an ``(S, 4)``
        array of ``(x1, y1, x2, y2)`` rows.  Zero-length segments are
        ignored.  Collinear overlapping segments are not supported (the
        ``V_Pr`` builder deduplicates identical bisectors upstream);
        crossing, touching and shared-endpoint configurations are all
        handled.
    tol:
        Vertex merge tolerance.  Nearly-coincident intersection points
        (e.g. three bisectors through one circumcenter) merge into a single
        higher-degree vertex.
    """

    def __init__(self, segments, tol: float = 1e-9) -> None:
        self.tol = tol
        self._vertices_list: Optional[List[Point]] = None
        self._edges_list: Optional[List[Tuple[int, int]]] = None
        self._build(segments)
        self._build_faces()

    @property
    def vertices(self) -> List[Point]:
        """Vertex coordinates as ``(x, y)`` tuples (materialized lazily —
        the vectorized pipeline works off the coordinate arrays)."""
        if self._vertices_list is None:
            self._vertices_list = list(zip(self._vx.tolist(),
                                           self._vy.tolist()))
        return self._vertices_list

    @property
    def edges(self) -> List[Tuple[int, int]]:
        """Edges as ``(u, v)`` vertex-id tuples (materialized lazily)."""
        if self._edges_list is None:
            self._edges_list = list(map(tuple, self._earr.tolist()))
        return self._edges_list

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def _build(self, segments) -> None:
        """Set the vertex arrays ``_vx``/``_vy`` and the ``(E, 2)`` edge
        array ``_earr`` from the input segments."""
        arr = np.asarray(segments, dtype=np.float64)
        if arr.size == 0:
            self._empty()
            return
        arr = arr.reshape(len(arr), 4)
        ax, ay, bx, by = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
        # Zero-length filter: same sqrt(dx*dx + dy*dy) > tol predicate as
        # the scalar path ((a-b)**2 == (b-a)**2 bitwise).
        dxs = bx - ax
        dys = by - ay
        keep = np.sqrt(dxs * dxs + dys * dys) > self.tol
        ax, ay, bx, by = ax[keep], ay[keep], bx[keep], by[keep]
        dxs, dys = dxs[keep], dys[keep]
        s_count = len(ax)
        if s_count == 0:
            self._empty()
            return

        # All-pairs intersections, chunked over lexicographic (i, j) pairs.
        hit_i: List[np.ndarray] = []
        hit_j: List[np.ndarray] = []
        hit_x: List[np.ndarray] = []
        hit_y: List[np.ndarray] = []
        row = 0
        while row < s_count - 1:
            hi = row
            pairs = 0
            while hi < s_count - 1 and \
                    (pairs == 0 or pairs + (s_count - 1 - hi) <= _PAIR_CHUNK):
                pairs += s_count - 1 - hi
                hi += 1
            rows = np.arange(row, hi, dtype=np.intp)
            counts = s_count - 1 - rows
            pair_i = np.repeat(rows, counts)
            offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
            pair_j = (np.arange(pairs, dtype=np.intp)
                      - np.repeat(offs, counts) + np.repeat(rows + 1, counts))
            px, py, hit = segment_intersections_batch(
                ax, ay, bx, by, pair_i, pair_j)
            hit_i.append(pair_i[hit])
            hit_j.append(pair_j[hit])
            hit_x.append(px[hit])
            hit_y.append(py[hit])
            row = hi
        if hit_i:
            cut_i = np.concatenate(hit_i)
            cut_j = np.concatenate(hit_j)
            cut_x = np.concatenate(hit_x)
            cut_y = np.concatenate(hit_y)
        else:
            cut_i = cut_j = np.empty(0, dtype=np.intp)
            cut_x = cut_y = np.empty(0, dtype=np.float64)

        # Each intersection cuts both parent segments; within a segment the
        # scalar code appends partners in ascending order.
        seg_of = np.concatenate((cut_i, cut_j))
        partner = np.concatenate((cut_j, cut_i))
        cx = np.concatenate((cut_x, cut_x))
        cy = np.concatenate((cut_y, cut_y))
        order = np.lexsort((partner, seg_of))
        seg_of, cx, cy = seg_of[order], cx[order], cy[order]
        cut_counts = np.bincount(seg_of, minlength=s_count)
        cut_offs = np.concatenate(([0], np.cumsum(cut_counts)[:-1]))
        pos_in_seg = np.arange(len(seg_of)) - cut_offs[seg_of]

        # Flat point sequence per segment: endpoints at positions 0/1, cut
        # points after — the scalar pre-sort list order.
        ep_seg = np.repeat(np.arange(s_count, dtype=np.intp), 2)
        ep_x = np.empty(2 * s_count)
        ep_x[0::2], ep_x[1::2] = ax, bx
        ep_y = np.empty(2 * s_count)
        ep_y[0::2], ep_y[1::2] = ay, by
        ep_pos = np.empty(2 * s_count, dtype=np.intp)
        ep_pos[0::2], ep_pos[1::2] = 0, 1
        fseg = np.concatenate((ep_seg, seg_of))
        fx = np.concatenate((ep_x, cx))
        fy = np.concatenate((ep_y, cy))
        fpos = np.concatenate((ep_pos, pos_in_seg + 2))
        # Along-segment ordering: the scalar stable sort by the projection
        # key, reproduced by lexsort with the pre-sort position as the
        # tie-breaker.
        key = (fx - ax[fseg]) * dxs[fseg] + (fy - ay[fseg]) * dys[fseg]
        order = np.lexsort((fpos, key, fseg))
        fseg = fseg[order]
        fx = fx[order]
        fy = fy[order]

        vids = self._register_vertices(fx, fy)

        # Consecutive distinct vertices along each segment become edges;
        # dict-style first-occurrence dedup keeps the scalar edge order.
        same = fseg[1:] == fseg[:-1]
        eu = vids[:-1][same]
        ev = vids[1:][same]
        ne = eu != ev
        eu, ev = eu[ne], ev[ne]
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        if len(lo):
            keys = lo * np.intp(len(self._vx)) + hi
            _, first = np.unique(keys, return_index=True)
            first.sort()
            self._earr = np.stack((lo[first], hi[first]), axis=1)
        else:
            self._earr = np.empty((0, 2), dtype=np.intp)

    def _empty(self) -> None:
        self._vx = np.empty(0, dtype=np.float64)
        self._vy = np.empty(0, dtype=np.float64)
        self._earr = np.empty((0, 2), dtype=np.intp)

    def _register_vertices(self, fx: np.ndarray,
                           fy: np.ndarray) -> np.ndarray:
        """Vertex ids for the flat point sequence, scalar-registry faithful.

        Exact duplicates collapse through one ``unique`` pass.  A point can
        only merge with a *distinct* point when the two share a 3x3
        quantized-cell neighborhood, so only those *clustered* occurrences
        replay the scalar sequential probe (whose first-match-in-scan-order
        semantics are order-dependent); isolated points — the huge majority
        — register vectorized.  Registration order (and therefore vertex id
        numbering) follows the flat sequence exactly as the scalar loop's.
        """
        tol = self.tol
        total = len(fx)
        carr = fx + 1j * fy
        uvals, first_idx, inverse = np.unique(
            carr, return_index=True, return_inverse=True)
        ux = fx[first_idx]
        uy = fy[first_idx]
        inv = 1.0 / tol
        cell_x = np.floor(ux * inv).astype(np.int64)
        cell_y = np.floor(uy * inv).astype(np.int64)
        # Compact int64 cell keys (rank-compressed per axis — raw cell
        # coordinates can overflow a pairing product at tol = 1e-9).
        ucx = np.unique(cell_x)
        ucy = np.unique(cell_y)
        stride = np.int64(len(ucy) + 2)
        ax_pos: Dict[int, np.ndarray] = {}
        ax_ok: Dict[int, np.ndarray] = {}
        ay_pos: Dict[int, np.ndarray] = {}
        ay_ok: Dict[int, np.ndarray] = {}
        for d in (0, 1):
            posx = np.searchsorted(ucx, cell_x + d)
            okx = posx < len(ucx)
            posx = np.minimum(posx, len(ucx) - 1)
            ax_pos[d], ax_ok[d] = posx, okx & (ucx[posx] == cell_x + d)
        for d in (-1, 0, 1):
            posy = np.searchsorted(ucy, cell_y + d)
            oky = posy < len(ucy)
            posy = np.minimum(posy, len(ucy) - 1)
            ay_pos[d], ay_ok[d] = posy, oky & (ucy[posy] == cell_y + d)
        keys0 = ax_pos[0] * stride + ay_pos[0]
        occ_sorted, occ_counts = np.unique(keys0, return_counts=True)
        self_pos = np.searchsorted(occ_sorted, keys0)
        # "Clustered" is symmetric, so scanning the forward half of the
        # 3x3 neighborhood and scatter-flagging the cells it hits covers
        # the backward half for free.
        clustered = occ_counts[self_pos] > 1
        hit = np.zeros(len(occ_sorted), dtype=bool)
        for dxc, dyc in ((0, 1), (1, -1), (1, 0), (1, 1)):
            nb = ax_pos[dxc] * stride + ay_pos[dyc]
            pos = np.searchsorted(occ_sorted, nb)
            pos_c = np.minimum(pos, len(occ_sorted) - 1)
            found = ax_ok[dxc] & ay_ok[dyc] & (occ_sorted[pos_c] == nb)
            clustered |= found
            hit[pos_c[found]] = True
        clustered |= hit[self_pos]

        # Registration events in flat order: isolated uniques register at
        # their first occurrence; clustered occurrences replay the probe.
        occ_clustered = clustered[inverse]
        reg_pos_parts = [first_idx[~clustered]]
        # For clustered occurrences: flat position of the registered point
        # each occurrence resolves to (itself if it registered anew).
        resolve: Dict[int, int] = {}
        cl_positions = np.flatnonzero(occ_clustered)
        if len(cl_positions):
            grid: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
            fx_l = fx[cl_positions].tolist()
            fy_l = fy[cl_positions].tolist()
            new_regs: List[int] = []
            sqrt = math.sqrt
            floor = math.floor
            for p, px_, py_ in zip(cl_positions.tolist(), fx_l, fy_l):
                cxi = floor(px_ * inv)
                cyi = floor(py_ * inv)
                found = -1
                for ddx in (-1, 0, 1):
                    if found >= 0:
                        break
                    for ddy in (-1, 0, 1):
                        if found >= 0:
                            break
                        for rx_, ry_, r in grid.get((cxi + ddx, cyi + ddy),
                                                    ()):
                            dx_ = px_ - rx_
                            dy_ = py_ - ry_
                            # dist()'s sqrt(dx*dx + dy*dy), inlined.
                            if sqrt(dx_ * dx_ + dy_ * dy_) <= tol:
                                found = r
                                break
                if found >= 0:
                    resolve[p] = found
                else:
                    resolve[p] = p
                    grid.setdefault((cxi, cyi), []).append((px_, py_, p))
                    new_regs.append(p)
            reg_pos_parts.append(np.array(new_regs, dtype=np.intp))
        reg_pos = np.concatenate(reg_pos_parts).astype(np.intp)
        reg_pos.sort()
        # vid = rank of the registration event in flat order.
        vid_of_occ = np.empty(total, dtype=np.intp)
        iso = ~occ_clustered
        vid_of_occ[iso] = np.searchsorted(reg_pos, first_idx[inverse[iso]])
        if len(cl_positions):
            targets = np.array([resolve[p] for p in cl_positions.tolist()],
                               dtype=np.intp)
            vid_of_occ[cl_positions] = np.searchsorted(reg_pos, targets)
        self._vx = fx[reg_pos]
        self._vy = fy[reg_pos]
        return vid_of_occ

    # ------------------------------------------------------------------
    # Face extraction.
    # ------------------------------------------------------------------
    def _build_faces(self) -> None:
        n_half = 2 * self.num_edges
        self._half_index: Optional[Dict[Tuple[int, int], int]] = None
        self._face_loops_cache: Optional[List[List[int]]] = None
        if n_half == 0:
            self._half_src = np.empty(0, dtype=np.intp)
            self._half_dst = np.empty(0, dtype=np.intp)
            self._half_loop = np.empty(0, dtype=np.intp)
            self._loops_flat = np.empty(0, dtype=np.intp)
            self._loop_lens = np.empty(0, dtype=np.intp)
            self._loop_offs = np.empty(0, dtype=np.intp)
            self.face_areas = np.empty(0, dtype=np.float64)
            return
        earr = self._earr
        half_src = np.empty(n_half, dtype=np.intp)
        half_dst = np.empty(n_half, dtype=np.intp)
        half_src[0::2], half_src[1::2] = earr[:, 0], earr[:, 1]
        half_dst[0::2], half_dst[1::2] = earr[:, 1], earr[:, 0]
        vx, vy = self._vx, self._vy
        # Rotation system: outgoing half-edges sorted CCW around each
        # vertex — one arctan2 pass and one stable lexsort.
        ang = np.arctan2(vy[half_dst] - vy[half_src],
                         vx[half_dst] - vx[half_src])
        hid = np.arange(n_half, dtype=np.intp)
        # Exact (src, angle) ties would mean two overlapping collinear
        # edges out of one vertex — unsupported input — so two sort keys
        # suffice and the stable sort keeps half-edge id order regardless.
        order = np.lexsort((ang, half_src))
        rank = np.empty(n_half, dtype=np.intp)
        rank[order] = np.arange(n_half)
        src_sorted = half_src[order]
        is_start = np.empty(n_half, dtype=bool)
        is_start[0] = True
        is_start[1:] = src_sorted[1:] != src_sorted[:-1]
        group_start = np.flatnonzero(is_start)
        group_end = np.append(group_start[1:], n_half)
        gidx = np.cumsum(is_start) - 1
        gstart = group_start[gidx]
        gend = group_end[gidx]
        pos = np.arange(n_half)
        prev_pos = np.where(pos == gstart, gend - 1, pos - 1)
        # next(h) = CW predecessor of twin(h) in twin's ring: walks each
        # face with its interior on the left.
        next_arr = order[prev_pos[rank[hid ^ 1]]]

        # Cycle extraction without a sequential walk: pointer doubling
        # labels every half-edge with its cycle's minimum id — the id the
        # scan-order discovery would start the loop at — then a
        # multi-cursor sweep advances all cycles in lockstep to lay the
        # loops out flat (iterations = longest face boundary, not total
        # half-edge count).
        lbl = hid.copy()
        ptr = next_arr.copy()
        for _ in range(max(n_half, 2).bit_length()):
            new = np.minimum(lbl, lbl[ptr])
            if np.array_equal(new, lbl):
                break  # labels converge after ceil(log2(longest face))
            lbl = new
            ptr = ptr[ptr]
        reps = np.flatnonzero(lbl == hid)
        lens = np.bincount(lbl, minlength=n_half)[reps]
        loop_offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        flat = np.empty(n_half, dtype=np.intp)
        cur = reps.copy()
        cursor = loop_offs.copy()
        remaining = lens.copy()
        while len(cur):
            flat[cursor] = cur
            cur = next_arr[cur]
            cursor = cursor + 1
            remaining = remaining - 1
            alive = remaining > 0
            if not alive.all():
                cur = cur[alive]
                cursor = cursor[alive]
                remaining = remaining[alive]

        self._half_src = half_src
        self._half_dst = half_dst
        self._loops_flat = flat
        self._loop_lens = lens
        self._loop_offs = loop_offs
        self._half_loop = np.searchsorted(reps, lbl)
        # Shoelace per loop: consecutive loop vertices are exactly
        # (src, dst) of each half-edge, so one vectorized pass suffices.
        contrib = vx[half_src] * vy[half_dst] - vx[half_dst] * vy[half_src]
        self.face_areas = 0.5 * np.add.reduceat(contrib[flat], loop_offs)

    @property
    def face_loops(self) -> List[List[int]]:
        """Vertex id loops, one per face (materialized lazily).

        The build keeps loops as flat arrays; the list-of-lists view is
        only assembled when something asks for it (tests, callers walking
        individual faces) — the hot ``V_Pr`` pipeline never does.
        """
        if self._face_loops_cache is None:
            verts = self._half_src[self._loops_flat].tolist()
            offs = self._loop_offs.tolist()
            ends = offs[1:] + [len(verts)]
            self._face_loops_cache = [verts[o:e] for o, e in zip(offs, ends)]
        return self._face_loops_cache

    def loop_of_halfedge(self, src: int, dst: int) -> int:
        """Index (into ``face_loops``) of the face left of half-edge src->dst.

        The rotation-system traversal walks every face with its interior on
        the left, so the loop containing a half-edge is exactly the face on
        its left side.
        """
        if self._half_index is None:
            self._half_index = {
                (int(s), int(d)): h
                for h, (s, d) in enumerate(zip(self._half_src,
                                               self._half_dst))
            }
        return int(self._half_loop[self._half_index[(src, dst)]])

    # ------------------------------------------------------------------
    # Counts.
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of distinct arrangement vertices."""
        return len(self._vx)

    @property
    def num_edges(self) -> int:
        """Number of arrangement edges (maximal pieces between vertices)."""
        return len(self._earr)

    @property
    def num_components(self) -> int:
        """Connected components of the arrangement graph."""
        parent = list(range(len(self.vertices)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        used = {find(u) for u, v in self.edges} | {find(v) for u, v in self.edges}
        return len(used)

    @property
    def num_faces(self) -> int:
        """Number of faces including the unbounded face (Euler relation)."""
        if not self.edges:
            return 1
        return self.num_edges - self.num_vertices + 1 + self.num_components

    @property
    def complexity(self) -> int:
        """Total complexity ``V + E + F`` — the paper's diagram complexity."""
        return self.num_vertices + self.num_edges + self.num_faces

    # ------------------------------------------------------------------
    # Face geometry.
    # ------------------------------------------------------------------
    def bounded_face_loops(self) -> List[List[int]]:
        """Vertex loops of the bounded faces (positive signed area).

        The rotation-system traversal yields every face once; bounded faces
        come out with CCW (positive-area) loops, the unbounded face(s) with
        negative total area.
        """
        return [loop for loop, area in zip(self.face_loops, self.face_areas)
                if area > self.tol]

    def bounded_face_count(self) -> int:
        """Number of bounded faces."""
        return int(np.count_nonzero(np.asarray(self.face_areas) > self.tol))

    def face_interior_points(self) -> List[Point]:
        """One interior sample point per bounded face, as ``(x, y)`` tuples."""
        return list(map(tuple, self.face_interior_array().tolist()))

    def face_interior_array(self) -> np.ndarray:
        """Interior sample points of the bounded faces, as an ``(F, 2)`` array.

        Evaluates the classic convex-corner/triangle method (see
        :func:`repro.testing.oracles.interior_point`, the scalar
        reference) over all bounded
        faces at once, straight off the flat loop arrays — exact for simple
        faces (all faces of a line arrangement are convex, so the ``V_Pr``
        use case is fully covered).
        """
        bounded = np.asarray(self.face_areas) > self.tol
        n_faces = int(np.count_nonzero(bounded))
        if n_faces == 0:
            return np.empty((0, 2), dtype=np.float64)
        keep = bounded[np.repeat(np.arange(len(self._loop_lens)),
                                 self._loop_lens)]
        flat_v = self._half_src[self._loops_flat[keep]]
        lens = self._loop_lens[bounded]
        total = int(lens.sum())
        offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        fid = np.repeat(np.arange(n_faces), lens)
        px = self._vx[flat_v]
        py = self._vy[flat_v]
        pos = np.arange(total) - offs[fid]
        # The lowest-then-leftmost vertex is a strictly convex corner; ties
        # resolve to the first loop position, as the scalar min() does —
        # three reduceat passes instead of a multi-key sort.
        min_y = np.minimum.reduceat(py, offs)
        on_min_y = py == min_y[fid]
        min_x = np.minimum.reduceat(np.where(on_min_y, px, np.inf), offs)
        at_corner = on_min_y & (px == min_x[fid])
        b_pos = np.minimum.reduceat(np.where(at_corner, pos, total + 1),
                                    offs)
        a_flat = offs + (b_pos - 1) % lens
        b_flat = offs + b_pos
        c_flat = offs + (b_pos + 1) % lens
        axf, ayf = px[a_flat], py[a_flat]
        bxf, byf = px[b_flat], py[b_flat]
        cxf, cyf = px[c_flat], py[c_flat]
        # In-triangle test of every loop vertex against its face's (a,b,c).
        ax_e, ay_e = axf[fid], ayf[fid]
        bx_e, by_e = bxf[fid], byf[fid]
        cx_e, cy_e = cxf[fid], cyf[fid]
        d1 = (bx_e - ax_e) * (py - ay_e) - (by_e - ay_e) * (px - ax_e)
        d2 = (cx_e - bx_e) * (py - by_e) - (cy_e - by_e) * (px - bx_e)
        d3 = (ax_e - cx_e) * (py - cy_e) - (ay_e - cy_e) * (px - cx_e)
        has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
        has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
        in_tri = ~(has_neg & has_pos)
        lens_e = lens[fid]
        b_pos_e = b_pos[fid]
        excluded = (pos == b_pos_e) | (pos == (b_pos_e - 1) % lens_e) \
            | (pos == (b_pos_e + 1) % lens_e)
        cand = in_tri & ~excluded & (lens_e > 3)
        # Distance from the chord a-c, maximized per face (first max wins).
        num = np.abs((cx_e - ax_e) * (ay_e - py) - (ax_e - px) * (cy_e - ay_e))
        den_f = np.sqrt((cxf - axf) ** 2 + (cyf - ayf) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ldist = np.where(den_f[fid] > 0, num / den_f[fid], 0.0)
        dm = np.where(cand, ldist, -1.0)
        best = np.maximum.reduceat(dm, offs)
        has_inside = best > -1.0
        flag = cand & (dm == best[fid])
        choose = np.where(flag, pos, total + 1)
        chosen_rel = np.minimum.reduceat(choose, offs)
        chosen_flat = offs + np.minimum(chosen_rel, lens - 1)
        # Three output families, mirroring the scalar case analysis.
        tri3 = lens == 3
        cent3_x = (px[offs] + px[offs + 1] + px[offs + 2]) / 3.0
        cent3_y = (py[offs] + py[offs + 1] + py[offs + 2]) / 3.0
        centc_x = (axf + bxf + cxf) / 3.0
        centc_y = (ayf + byf + cyf) / 3.0
        mid_x = (bxf + px[chosen_flat]) / 2.0
        mid_y = (byf + py[chosen_flat]) / 2.0
        out_x = np.where(tri3, cent3_x, np.where(has_inside, mid_x, centc_x))
        out_y = np.where(tri3, cent3_y, np.where(has_inside, mid_y, centc_y))
        return np.stack((out_x, out_y), axis=1)

