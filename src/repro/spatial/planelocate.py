"""Output-sensitive point location: a merged-slab interval tree.

Theorem 4.2 answers exact quantification queries by point location in
the ``V_Pr`` refinement.  The classic slab method materializes one row
per (edge, spanned-slab) pair — ``Theta(V * S)`` rows, the memory wall
that caps how large a diagram can be served.  This module stores each
edge ``O(log S)`` times instead: the slabs are the leaves of an implicit
segment tree (heap-indexed, padded to a power of two), every
x-monotone edge's slab span ``[i0, i1)`` is split into its canonical
tree nodes, and within a node the entries are sorted by y at the
node's x-midpoint.  That order is total and position-independent: an
edge assigned to a node spans the node's whole x-range, so two entries
of one node can meet only at the range's boundary, never cross or
touch inside it.

A query walks the leaf-to-root path of its slab (``log S`` nodes),
bisects each node's entry list with *exactly* the slab method's
comparison arithmetic (same IEEE-754 expressions, same branch
predicate), and keeps the candidate minimizing the exact float triple
``(y at query x, y at the query slab's midline, slope)``, the slope
negated for an edge whose right end is nearer the midline.  The union
of the path nodes' entries is precisely the slab's row set, each edge
once, and within a slab y-at-query-x order refines midline order — so
the winning candidate is provably the same edge a slab table's
first-hit bisection returns, and faces come out bitwise identical (the
parity suite checks this against the slab-table oracle in
:mod:`repro.testing.oracles`, including on tie-heavy lattice inputs).
The slope key exists for one degenerate case: a near-zero-width slab
whose midline *rounds* onto its boundary collapses the first two keys
for edges sharing a vertex there.  Slope orders lines through a common
point to its right, negated slope to its left, so edges meeting to the
right (their nearer end is the right one) compare by negated slope;
node entries and the slab table break their sort ties the same way, so
the two structures still agree bitwise.

Build is one sweep: spans by ``searchsorted`` (shared with the
slab-table oracle), an ``O(E log S)`` vectorized canonical
decomposition, and one ``lexsort``.  Storage is ``O(E log S)`` worst
case — in practice a few entries per edge versus the table's hundreds
of rows per edge (:func:`slab_table_rows` counts the table's rows
analytically, without building it) — and a query costs ``O(log S)``
bisections of ``O(log E)`` steps each.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..geometry.primitives import Point
from ..geometry.seg_arrangement import SegmentArrangement
from ..obs.metrics import ENGINE
from .kernels import get_provider

__all__ = ["PersistentPlaneLocator", "plane_locate_scalar",
           "slab_table_rows"]


def _edge_slab_spans(arrangement: SegmentArrangement, xs: np.ndarray):
    """Orient edges x-ascending and find their slab spans ``[i0, i1)``.

    *xs* is the sorted array of distinct vertex x-coordinates (the slab
    boundaries).  Returns ``(earr, eu, ev, eids, i0, i1)`` where *eids*
    selects the non-vertical edges and *i0*/*i1* are their slab spans.
    """
    earr = arrangement._earr
    vx = arrangement._vx
    u0, v0 = earr[:, 0], earr[:, 1]
    swap = vx[u0] > vx[v0]
    eu = np.where(swap, v0, u0)
    ev = np.where(swap, u0, v0)
    xl, xr = vx[eu], vx[ev]
    eids = np.flatnonzero(xr > xl)
    # Edge endpoints are arrangement vertices, so their x-coordinates
    # are slab boundaries: the edge spans slabs [i0, i1).
    i0 = np.searchsorted(xs, xl[eids])
    i1 = np.searchsorted(xs, xr[eids])
    return earr, eu, ev, eids, i0, i1


def slab_table_rows(arrangement: SegmentArrangement) -> int:
    """Row count a slab table over *arrangement* would materialize.

    Computed analytically from the edge spans — no table is built — so
    ``vpr-info`` and the build-memory test can report the slab
    structure's footprint at sizes where materializing it would not fit
    in memory.
    """
    xs = np.unique(arrangement._vx)
    if len(xs) < 2 or arrangement.num_edges == 0:
        return 0
    _, _, _, _, i0, i1 = _edge_slab_spans(arrangement, xs)
    return int((i1 - i0).sum())


def _tie_slope(pux, puy, pvx, pvy, x):
    """The last sort key of x-ascending edges ``(pu, pv)`` at abscissa
    *x*: slope, negated for edges whose right end is nearer *x* than
    their left end.

    Entries tie on the first keys only where they meet at a common
    vertex within rounding of *x* (a range too thin for its midline to
    separate them).  Lines through a common point are ordered by slope
    to its right and by negated slope to its left, and edges meeting to
    the right of *x* have that vertex as their nearer, right end.
    """
    slope = (pvy - puy) / (pvx - pux)
    return np.where(pvx - x < x - pux, -slope, slope)


def plane_locate_scalar(qx: float, qy: float, xs: np.ndarray,
                        offs: np.ndarray, ent_u: np.ndarray,
                        ent_v: np.ndarray, vx: np.ndarray, vy: np.ndarray,
                        leaf_base: int) -> int:
    """Scalar reference of the ``plane_locate`` kernel.

    Returns the winning entry index or ``-1``.  Both kernel providers
    replay exactly this comparison sequence on the same floats; the
    combine across path nodes compares exact values (no accumulation),
    so the argmin is evaluation-order independent.
    """
    if len(xs) < 2 or len(ent_u) == 0 or qx < xs[0] or qx > xs[-1]:
        return -1
    n_slabs = len(xs) - 1
    slab = int(np.searchsorted(xs, qx, side="right")) - 1
    if slab > n_slabs - 1:
        slab = n_slabs - 1
    if slab < 0:
        slab = 0
    smid = 0.5 * (xs[slab] + xs[slab + 1])
    best = -1
    best_y = 0.0
    best_m = 0.0
    best_s = 0.0
    node = leaf_base + slab
    while node >= 1:
        lo = int(offs[node])
        hi = int(offs[node + 1])
        end = hi
        # First entry of the node whose y at qx is >= qy — the slab
        # method's bisection, restricted to this node's entries.
        while lo < hi:
            mid = (lo + hi) // 2
            u, v = ent_u[mid], ent_v[mid]
            t = (qx - vx[u]) / (vx[v] - vx[u])
            y = vy[u] + t * (vy[v] - vy[u])
            if y < qy:
                lo = mid + 1
            else:
                hi = mid
        if lo < end:
            u, v = ent_u[lo], ent_v[lo]
            pux = vx[u]
            dx = vx[v] - pux
            dy = vy[v] - vy[u]
            yc = vy[u] + ((qx - pux) / dx) * dy
            ym = vy[u] + ((smid - pux) / dx) * dy
            sl = dy / dx
            if vx[v] - smid < smid - pux:
                sl = -sl
            if best < 0 or yc < best_y or (yc == best_y and ym < best_m) \
                    or (yc == best_y and ym == best_m and sl < best_s):
                best = lo
                best_y = yc
                best_m = ym
                best_s = sl
        node >>= 1
    return best


class PersistentPlaneLocator:
    """Merged-slab point location over a :class:`SegmentArrangement`.

    ``locate(q)`` returns the index (into ``arrangement.face_loops``) of
    the face containing *q*, or ``None`` when *q* lies in the unbounded
    face; queries exactly on an edge or vertex return one of the
    incident faces.  ``locate_batch`` answers an ``(m, 2)`` array at
    once on the kernel provider's ``plane_locate`` entry point.
    Answers are bitwise those of a slab table (the slab-table test
    oracle in :mod:`repro.testing.oracles`) at ``O(E log S)`` storage
    instead of the table's ``Theta(V * S)`` rows.
    """

    def __init__(self, arrangement: SegmentArrangement) -> None:
        t0 = time.perf_counter()
        self.arrangement = arrangement
        self.build_seconds = 0.0
        vx, vy = arrangement._vx, arrangement._vy
        xs = np.unique(vx)
        self._xs = np.ascontiguousarray(xs, dtype=np.float64)
        n_slabs = max(len(xs) - 1, 0)
        self._bounded = np.asarray(arrangement.face_areas) > arrangement.tol
        leaf_base = 1
        while leaf_base < max(n_slabs, 1):
            leaf_base <<= 1
        self.leaf_base = leaf_base
        if n_slabs == 0 or arrangement.num_edges == 0:
            self._empty_init(t0)
            return
        earr, eu, ev, eids, i0, i1 = _edge_slab_spans(arrangement, xs)
        if len(eids) == 0:
            self._empty_init(t0)
            return
        # Canonical segment-tree decomposition of every edge's [i0, i1):
        # the classic two-pointer climb, all edges advanced one tree
        # level per vectorized pass (O(log S) passes).
        l = i0.astype(np.int64) + leaf_base
        r = i1.astype(np.int64) + leaf_base
        node_parts: list = []
        edge_parts: list = []
        while True:
            act = l < r
            if not act.any():
                break
            lodd = act & ((l & 1) == 1)
            if lodd.any():
                node_parts.append(l[lodd].copy())
                edge_parts.append(eids[lodd])
            l = l + lodd
            rodd = act & ((r & 1) == 1)
            if rodd.any():
                node_parts.append(r[rodd] - 1)
                edge_parts.append(eids[rodd])
            r = r - rodd
            l = np.where(act, l >> 1, l)
            r = np.where(act, r >> 1, r)
        node_id = np.concatenate(node_parts)
        ent_edge = np.concatenate(edge_parts)
        # Order entries within each node by y at the node's x-midpoint.
        # frexp recovers the node's tree level exactly (ids < 2^53), and
        # canonical nodes lie fully inside [0, n_slabs), so the slab
        # range below never indexes past xs.
        lev = (np.frexp(node_id.astype(np.float64))[1] - 1).astype(np.int64)
        width = np.int64(leaf_base) >> lev
        lo_slab = (node_id - (np.int64(1) << lev)) * width
        repx = 0.5 * (xs[lo_slab] + xs[lo_slab + width])
        ent_u0 = eu[ent_edge]
        ent_v0 = ev[ent_edge]
        pux, puy = vx[ent_u0], vy[ent_u0]
        pvx, pvy = vx[ent_v0], vy[ent_v0]
        t = (repx - pux) / (pvx - pux)
        ymid = puy + t * (pvy - puy)
        slope = _tie_slope(pux, puy, pvx, pvy, repx)
        order = np.lexsort((slope, ymid, node_id))
        self._ent_u = np.ascontiguousarray(ent_u0[order], dtype=np.int64)
        self._ent_v = np.ascontiguousarray(ent_v0[order], dtype=np.int64)
        ent_e = ent_edge[order]
        # Half-edge id of (v -> u): the face below the entry is the
        # loop left of the reversed half-edge.
        self._ent_hid_rev = np.where(self._ent_u == earr[ent_e, 1],
                                     2 * ent_e, 2 * ent_e + 1).astype(np.intp)
        counts = np.bincount(node_id, minlength=2 * leaf_base)
        self._offs = np.ascontiguousarray(
            np.concatenate(([0], np.cumsum(counts))), dtype=np.int64)
        self.build_seconds = time.perf_counter() - t0

    def _empty_init(self, t0: float) -> None:
        self._offs = np.zeros(2 * self.leaf_base + 1, dtype=np.int64)
        self._ent_u = np.empty(0, dtype=np.int64)
        self._ent_v = np.empty(0, dtype=np.int64)
        self._ent_hid_rev = np.empty(0, dtype=np.intp)
        self.build_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    @property
    def ent_loop(self) -> np.ndarray:
        """Face loop index per entry (for the shared-plane codec)."""
        if len(self._ent_hid_rev) == 0:
            return np.empty(0, dtype=np.intp)
        return np.asarray(self.arrangement._half_loop)[self._ent_hid_rev]

    def stats(self) -> dict:
        """Size/build figures for ``vpr-info`` and the serving metrics."""
        nbytes = (self._xs.nbytes + self._offs.nbytes + self._ent_u.nbytes
                  + self._ent_v.nbytes + self._ent_hid_rev.nbytes)
        return {
            "kind": "persistent",
            "entries": int(len(self._ent_u)),
            "slabs": int(max(len(self._xs) - 1, 0)),
            "leaf_base": int(self.leaf_base),
            "nbytes": int(nbytes),
            "build_seconds": float(self.build_seconds),
        }

    # ------------------------------------------------------------------
    def locate(self, q: Point) -> Optional[int]:
        """Face loop index containing *q* (``None`` = unbounded face)."""
        vx, vy = self.arrangement._vx, self.arrangement._vy
        ent = plane_locate_scalar(
            float(q[0]), float(q[1]), self._xs, self._offs,
            self._ent_u, self._ent_v, vx, vy, self.leaf_base)
        if ent < 0:
            return None
        loop = int(self.arrangement._half_loop[self._ent_hid_rev[ent]])
        if not self._bounded[loop]:
            return None
        return loop

    def locate_batch(self, queries) -> np.ndarray:
        """Vectorized :meth:`locate` over an ``(m, 2)`` query array.

        Returns an ``(m,)`` integer array of face loop indices, ``-1``
        for the unbounded face — elementwise identical to a scalar
        :meth:`locate` loop.
        """
        from .batch import as_query_array

        q = as_query_array(queries)
        m = len(q)
        out = np.full(m, -1, dtype=np.intp)
        if m == 0 or len(self._xs) < 2 or len(self._ent_u) == 0:
            return out
        vx, vy = self.arrangement._vx, self.arrangement._vy
        ENGINE.inc("planelocate.batches")
        ent, found = get_provider().plane_locate(
            q[:, 0], q[:, 1], self._xs, self._offs,
            self._ent_u, self._ent_v, vx, vy, self.leaf_base)
        if found.any():
            hid = self._ent_hid_rev[ent[found]]
            loops = self.arrangement._half_loop[hid]
            out[found] = np.where(self._bounded[loops], loops, -1)
        return out

    def locate_all(self, queries) -> List[Optional[int]]:
        """:meth:`locate_batch` as a list of ``Optional[int]`` (``None`` =
        unbounded), for drop-in use where the scalar API shape is wanted."""
        return [None if v < 0 else int(v) for v in self.locate_batch(queries)]
