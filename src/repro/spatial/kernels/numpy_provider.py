"""The NumPy kernel provider — the always-available bitwise oracle.

These are the library's original vectorized inner loops, moved behind
the :class:`~repro.spatial.kernels.KernelProvider` entry points: the
chunked distance matrix (``spatial/batch.py``), the Eq. (2) prefix
ordering, step loop and widening (``quantification/batch_exact.py``),
the batched segment kernels (``geometry/segments.py``) and the
merged-slab locator's vectorized tree descent
(``spatial/planelocate.py``).  Each was individually bit-pinned to its
scalar reference implementation by the existing property suites; the
native provider is in turn bit-pinned to *these*
(``tests/test_kernels.py``), so the provider choice is purely
operational.  The JSON of sparse batch answers is ``json.dumps`` of
:func:`sparse_rows` itself, the oracle of the native float writer
(``tests/test_float_writer.py``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import numpy as np

from ...obs.metrics import ENGINE, KERNEL

__all__ = ["NumpyProvider", "row_mask", "sparse_rows"]

# The scalar sweep's underflow clamp for nearly-exhausted parents.
_UNDERFLOW = 1e-15
# Compaction policy: rewrite the active-row state once at least this many
# rows are done *and* they are at least half the active set.
_COMPACT_MIN = 32


def row_mask(mat: np.ndarray, positive: bool) -> np.ndarray:
    """The entries a sparse answer row keeps: ``> 0.0`` (the exact
    engines) when *positive*, else ``!= 0`` (Monte-Carlo estimates)."""
    return mat > 0.0 if positive else mat != 0


def sparse_rows(mat: np.ndarray,
                mask: np.ndarray) -> List[Dict[int, float]]:
    """One ``{i: mat[j, i]}`` dict per row ``j``, over the entries where
    *mask* is true, keys ascending.

    The row emitter of every sparse batch answer: one ``np.nonzero``
    pass over the whole matrix, CSR-style row bounds, and ``.tolist()``
    conversion, so the dicts hold plain ``int`` keys and ``float``
    values.
    """
    rows, cols = np.nonzero(mask)
    bounds = np.searchsorted(rows, np.arange(len(mat) + 1)).tolist()
    keys = cols.tolist()
    vals = mat[rows, cols].tolist()
    return [dict(zip(keys[a:b], vals[a:b]))
            for a, b in zip(bounds, bounds[1:])]


class NumpyProvider:
    """Kernel entry points implemented as NumPy passes."""

    name = "numpy"

    def _count(self, op: str) -> None:
        KERNEL.inc((self.name, op))

    # ------------------------------------------------------------------
    def distance_matrix(self, qx: np.ndarray, qy: np.ndarray,
                        px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """``(m, n)`` matrix of ``sqrt(dx*dx + dy*dy)`` distances."""
        self._count("distance_matrix")
        dx = qx[:, None] - px[None, :]
        np.multiply(dx, dx, out=dx)
        dy = qy[:, None] - py[None, :]
        np.multiply(dy, dy, out=dy)
        dx += dy
        return np.sqrt(dx, out=dx)

    # ------------------------------------------------------------------
    def sweep_eq2(self, d: np.ndarray, parent: np.ndarray,
                  weight: np.ndarray, totals: np.ndarray, n: int,
                  tie_tol: float, width: int) -> Tuple[np.ndarray, int]:
        """The whole Eq. (2) prefix of one chunk: select, order, sweep.

        ``d`` is the chunk's unordered ``(r, N)`` distance matrix;
        ``parent`` / ``weight`` the flat per-site arrays and ``totals``
        the per-parent site counts.  Each row is partitioned to its
        ``width`` nearest sites (``argpartition``), that prefix ordered
        by (distance, flat site index) — ``lexsort``, which reproduces
        the stable full sort exactly, a tie group cut by the prefix end
        included — and swept without flushing the final tie group.  Rows
        still live at the prefix end are re-swept ``4x`` wider, ending in
        the full sort at ``width >= N``.
        Returns ``(result, widened)``: the ``(r, n)`` quantification
        rows and the number of row re-sweeps.
        """
        self._count("sweep_eq2")
        if width < 1:
            raise ValueError(f"prefix width must be >= 1, got {width!r}")
        r, big_n = d.shape
        result = np.zeros((r, n), dtype=np.float64)
        pending = np.arange(r, dtype=np.intp)
        width = min(big_n, width)
        widened = 0
        while pending.size:
            dsub = d[pending] if len(pending) < r else d
            if width >= big_n:
                order = np.argsort(dsub, axis=1, kind="stable")
                ds = np.take_along_axis(dsub, order, axis=1)
            else:
                part = np.argpartition(dsub, width - 1, axis=1)[:, :width]
                dpref = np.take_along_axis(dsub, part, axis=1)
                # Primary key distance, secondary flattened site index:
                # exactly the stable full sort, restricted to the prefix.
                rank = np.lexsort((part, dpref), axis=-1)
                order = np.take_along_axis(part, rank, axis=1)
                ds = np.take_along_axis(dpref, rank, axis=1)
                # argpartition keeps an arbitrary subset of a tie group
                # the prefix end cuts; those rows take the stable full
                # sort's prefix, so every prefix holds the width smallest
                # (distance, index) keys, as the native kernel's does.
                last = ds[:, -1:]
                cut = np.flatnonzero((dsub == last).sum(axis=1)
                                     > (ds == last).sum(axis=1))
                if cut.size:
                    dcut = dsub[cut]
                    order[cut] = np.argsort(dcut, axis=1,
                                            kind="stable")[:, :width]
                    ds[cut] = np.take_along_axis(dcut, order[cut], axis=1)
            res, done = self._sweep_prefix(ds, parent[order], weight[order],
                                           totals, n, tie_tol,
                                           final=width >= big_n)
            finished = np.flatnonzero(done)
            result[pending[finished]] = res[finished]
            # Rows still live at the prefix end: re-swept 4x wider.
            pending = pending[~done]
            widened += len(pending)
            width = min(big_n, width * 4)
        return result, widened

    def _sweep_prefix(self, ds: np.ndarray, pp: np.ndarray, pw: np.ndarray,
                      totals: np.ndarray, n: int, tie_tol: float,
                      final: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The vectorized Eq. (2) step loop over prefix-ordered columns.

        ``ds`` / ``pp`` / ``pw`` are ``(r, K)`` sorted distance / parent /
        weight arrays; ``totals`` the per-parent site counts.  Returns
        ``(result_rows, done)`` — ``done[j]`` is true when row ``j``'s
        answer is complete (its zero counter reached two inside the
        prefix, or ``final`` allowed the last tie group to flush because
        the prefix is the whole site set).
        """
        r, width = ds.shape
        result = np.zeros((r, n), dtype=np.float64)
        rows = np.arange(r, dtype=np.intp)        # original row ids
        ar = np.arange(r, dtype=np.intp)          # active-row iota
        survival = np.ones((r, n), dtype=np.float64)
        seen = np.zeros((r, n), dtype=np.int64)
        zero_count = np.zeros(r, dtype=np.int64)
        prod = np.ones(r, dtype=np.float64)
        anchor = np.empty(r, dtype=np.float64)    # first distance of group
        glen = np.zeros(r, dtype=np.int64)        # members absorbed so far
        finished = np.zeros(r, dtype=bool)

        def contribute(sel: np.ndarray, pos: int) -> None:
            """One phase-2 contribution per selected row, from *pos*."""
            ps = pp[sel, pos]
            f_own = survival[sel, ps]
            zc = zero_count[sel]
            pr = prod[sel]
            f_safe = np.where(f_own > 0.0, f_own, 1.0)
            others = np.where(
                zc == 0,
                np.where(f_own > 0.0, pr / f_safe, 0.0),
                np.where((zc == 1) & (f_own == 0.0), pr, 0.0))
            # eta = 0 rows scatter +0.0, a float no-op, so no filter.
            result[rows[sel], ps] += pw[sel, pos] * others

        def flush(mask: np.ndarray, end: int) -> None:
            """Phase 2 for groups spanning positions [end - glen, end)."""
            idx = np.flatnonzero(mask)
            if not idx.size:
                return
            g = glen[idx]
            gmax = int(g.max())
            if gmax == 1:                          # general position
                contribute(idx, end - 1)
                return
            # Offsets descend so positions ascend — the scalar phase-2
            # iteration (and thus the result accumulation) order.
            for o in range(gmax, 0, -1):
                contribute(idx[g >= o], end - o)

        act = r
        for t in range(width):
            dt = ds[:, t]
            if t == 0:
                start = np.ones(act, dtype=bool)
            else:
                start = dt - anchor > tie_tol
                if start.any():
                    flush(start, t)
            anchor[start] = dt[start]
            glen[start] = 0
            # Phase 1: absorb every row's t-th nearest site.
            p_t = pp[:, t]
            old = survival[ar, p_t]
            cnt = seen[ar, p_t] + 1
            seen[ar, p_t] = cnt
            new = old - pw[:, t]
            new[new < _UNDERFLOW] = 0.0
            new[cnt >= totals[p_t]] = 0.0
            survival[ar, p_t] = new
            # The scalar case analysis, as in-place masked updates (the
            # same expressions — prod / old and prod * (new / old) — on
            # exactly the affected lanes).
            shrunk = np.flatnonzero((old > 0.0) & (new > 0.0))
            prod[shrunk] *= new[shrunk] / old[shrunk]
            zeroed = np.flatnonzero((old > 0.0) & (new == 0.0))
            if zeroed.size:
                prod[zeroed] /= old[zeroed]
                zero_count[zeroed] += 1
            glen += 1
            # Retire finished rows: with two exhausted parents every
            # further contribution is exactly zero (including the pending
            # group's — its phase 2 would run with zero_count >= 2).
            done = zero_count >= 2
            nd = int(done.sum())
            if nd == act:
                finished[rows] = True
                act = 0
                break
            if nd >= _COMPACT_MIN and 2 * nd >= act:
                keep = ~done
                finished[rows[done]] = True
                rows = rows[keep]
                ds = ds[keep]
                pp = pp[keep]
                pw = pw[keep]
                survival = survival[keep]
                seen = seen[keep]
                zero_count = zero_count[keep]
                prod = prod[keep]
                anchor = anchor[keep]
                glen = glen[keep]
                act = len(rows)
                ar = ar[:act]
        if act:
            live = zero_count < 2
            finished[rows[~live]] = True
            if final:
                flush(live, width)
                finished[rows] = True
        return result, finished

    # ------------------------------------------------------------------
    def emit_sparse_rows(self, mat: np.ndarray, positive: bool) -> bytes:
        """The JSON fragment of ``sparse_rows(mat, row_mask(mat,
        positive))``, by ``json.dumps`` itself: the oracle the native
        writer is pinned to."""
        self._count("emit_sparse_rows")
        rows = sparse_rows(mat, row_mask(mat, positive))
        return json.dumps(rows)[1:-1].encode("ascii")

    # ------------------------------------------------------------------
    def segment_intersections(self, ax, ay, bx, by, I, J, tol: float):
        """Batched segment-pair intersection; see ``geometry.segments``."""
        self._count("segment_intersections")
        rx = bx[I] - ax[I]
        ry = by[I] - ay[I]
        sx = bx[J] - ax[J]
        sy = by[J] - ay[J]
        denom = rx * sy - ry * sx
        span = np.maximum(np.maximum(1.0, np.abs(rx) + np.abs(ry)),
                          np.abs(sx) + np.abs(sy))
        ok = np.abs(denom) > tol * span * span
        qpx = ax[J] - ax[I]
        qpy = ay[J] - ay[I]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qpx * sy - qpy * sx) / denom
            u = (qpx * ry - qpy * rx) / denom
            slack = 1e-12
            hit = ok & (-slack <= t) & (t <= 1.0 + slack) \
                & (-slack <= u) & (u <= 1.0 + slack)
            px = ax[I] + t * rx
            py = ay[I] + t * ry
        return px, py, hit

    # ------------------------------------------------------------------
    def line_box_clip(self, A, B, C, box, eps: float):
        """Batched Liang–Barsky clip; see ``geometry.segments``."""
        self._count("line_box_clip")
        (xmin, ymin), (xmax, ymax) = box
        norm = np.sqrt(A * A + B * B)
        if np.any(norm <= eps):
            raise ValueError("degenerate line coefficients")
        cx = 0.5 * (xmin + xmax)
        cy = 0.5 * (ymin + ymax)
        offset = (A * cx + B * cy - C) / (norm * norm)
        px = cx - offset * A
        py = cy - offset * B
        dx = -B / norm
        dy = A / norm
        t0 = np.full(A.shape, -np.inf)
        t1 = np.full(A.shape, np.inf)
        valid = np.ones(A.shape, dtype=bool)
        for coord, d, lo, hi in ((px, dx, xmin, xmax), (py, dy, ymin, ymax)):
            small = np.abs(d) <= eps
            valid &= ~(small & ((coord < lo - eps) | (coord > hi + eps)))
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                ta = (lo - coord) / d
                tb = (hi - coord) / d
            swap = ta > tb
            lo_t = np.where(swap, tb, ta)
            hi_t = np.where(swap, ta, tb)
            t0 = np.where(small, t0, np.maximum(t0, lo_t))
            t1 = np.where(small, t1, np.minimum(t1, hi_t))
        valid &= ~(t0 >= t1)
        segs = np.empty(A.shape + (4,), dtype=np.float64)
        segs[..., 0] = px + t0 * dx
        segs[..., 1] = py + t0 * dy
        segs[..., 2] = px + t1 * dx
        segs[..., 3] = py + t1 * dy
        return segs, valid

    # ------------------------------------------------------------------
    def plane_locate(self, qx, qy, xs, offs, ent_u, ent_v, vx, vy,
                     leaf_base):
        """Merged-slab tree descent (``PersistentPlaneLocator``).

        Walks every query's leaf-to-root path, bisects each node's entry
        list for the first entry whose y at ``qx`` is ``>= qy``, and
        keeps the candidate minimizing the float triple ``(y at qx, y
        at the query slab's midline, slope)`` — slope, negated for an
        edge whose right end is nearer the midline, breaking the
        degenerate tie where a sliver slab's midline rounds onto
        ``qx``.
        The combine compares exact values (no accumulation), so the
        result is independent of the order in which path nodes are
        visited.  Returns ``(best, found)`` with ``best`` an entry
        index (``0`` where ``found`` is false).
        """
        self._count("plane_locate")
        m = len(qx)
        best = np.full(m, -1, dtype=np.int64)
        if m == 0 or len(ent_u) == 0 or len(xs) < 2:
            return np.zeros(m, dtype=np.int64), np.zeros(m, dtype=bool)
        inside = (qx >= xs[0]) & (qx <= xs[-1])
        n_slabs = len(xs) - 1
        slab = np.searchsorted(xs, qx, side="right") - 1
        slab = np.minimum(slab, n_slabs - 1)
        slab = np.maximum(slab, 0)  # out-of-window lanes, masked by inside
        smid = 0.5 * (xs[slab] + xs[slab + 1])
        leaf = leaf_base + slab
        depth = int(leaf_base).bit_length() - 1
        max_ent = len(ent_u) - 1
        best_y = np.zeros(m, dtype=np.float64)
        best_m = np.zeros(m, dtype=np.float64)
        best_s = np.zeros(m, dtype=np.float64)
        for level in range(depth + 1):
            node = leaf >> level
            lo = offs[node].copy()
            hi = offs[node + 1].copy()
            end = offs[node + 1]
            lo[~inside] = 0
            hi[~inside] = 0
            while True:
                run = lo < hi
                if not run.any():
                    break
                ENGINE.inc("planelocate.bisection_passes")
                mid = np.minimum((lo + hi) >> 1, max_ent)
                u = ent_u[mid]
                v = ent_v[mid]
                pux = vx[u]
                t = (qx - pux) / (vx[v] - pux)
                y = vy[u] + t * (vy[v] - vy[u])
                less = y < qy
                lo = np.where(run & less, mid + 1, lo)
                hi = np.where(run & ~less, mid, hi)
            has = inside & (lo < end)
            cand = np.minimum(lo, max_ent)
            u = ent_u[cand]
            v = ent_v[cand]
            pux = vx[u]
            dx = vx[v] - pux
            dy = vy[v] - vy[u]
            yc = vy[u] + ((qx - pux) / dx) * dy
            ym = vy[u] + ((smid - pux) / dx) * dy
            sl = dy / dx
            sl = np.where(vx[v] - smid < smid - pux, -sl, sl)
            better = has & ((best < 0) | (yc < best_y)
                            | ((yc == best_y) & (ym < best_m))
                            | ((yc == best_y) & (ym == best_m)
                               & (sl < best_s)))
            best = np.where(better, lo, best)
            best_y = np.where(better, yc, best_y)
            best_m = np.where(better, ym, best_m)
            best_s = np.where(better, sl, best_s)
        found = best >= 0
        return np.where(found, best, 0), found
