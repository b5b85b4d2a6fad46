"""Vectorized exact quantification: the Eq. (2) sweep for query batches.

:mod:`.exact_discrete` answers one query with an ``O(N log N)`` sweep over
all ``N = sum k_i`` sites in pure Python.  This module answers an
``(m, 2)`` array of queries through the *same* sweep, vectorized across
queries: one ``(mc, N)`` distance matrix per chunk (chunks sized to bound
memory), a stable per-row argsort, and then the sweep step loop — served
by a pluggable kernel provider (:mod:`repro.spatial.kernels`): the NumPy
oracle advances all still-active rows one sorted *position* per handful
of array passes, the native provider runs the identical expression
sequence row-scalar in compiled C.

The step loop reproduces the scalar sweep's arithmetic operation for
operation, which is what makes the results **bitwise identical** to
``quantification_vector``:

* distances use the library's shared ``sqrt(dx*dx + dy*dy)`` form, and the
  stable argsort orders exact-equal distances by flattened site index —
  the same order the scalar code's stable ``sorted`` produces;
* per-parent survival factors update by the same sequential subtraction
  (``new = old - w``), with the same count-based *exact zero* once a
  parent's sites are exhausted and the same ``1e-15`` underflow clamp;
* the running product of non-zero factors updates through the same
  ``prod /= old`` / ``prod *= new / old`` expressions, with the explicit
  zero counter deciding the ``prod_{j != parent}`` recovery;
* tie groups are anchored at their first member (``d - d_anchor <=
  tie_tol``) and fully absorbed before any member contributes, matching
  the documented tie-group convention on degenerate inputs.

Rows retire as soon as their zero counter reaches two (every further
contribution is exactly zero — the scalar sweep breaks at the same
moment), and the active set is compacted periodically, so the loop length
tracks how quickly the two nearest parents exhaust rather than ``N``.

Because of that early exit, the full per-row sort is usually wasted work:
the sweep consults only a short sorted prefix.  The engine therefore
partitions each row to its ``K`` nearest sites (``argpartition``), orders
just that prefix — ``lexsort`` on (distance, flattened site index), which
reproduces the stable full sort exactly — and sweeps it without flushing
the final tie group.  A row that retires inside the prefix provably
computed the full sweep's answer (every complete group it flushed is
identical, and the truncated final group would have contributed exactly
zero); the rare rows still live at the prefix end are re-swept with a
``4x`` wider prefix, falling back to the full sort at ``K >= N``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..obs.metrics import ENGINE
from ..spatial.kernels import get_provider
from ..uncertain.discrete import DiscreteUncertainPoint

__all__ = ["BatchExactQuantifier", "check_tie_tol"]

# Target element count of the per-chunk (mc, N) distance matrix.  Larger
# than the batch engine's work-matrix budget: the step loop's Python-level
# overhead amortizes over the chunk's rows, and an 8 MB matrix is still a
# single pass of streaming reductions.
_CHUNK_ELEMENTS = 1 << 20
# First sorted-prefix width tried per chunk; widened 4x for rows whose
# sweep is still live at the prefix end, up to the full site count.
_PREFIX_START = 256


def check_tie_tol(tie_tol: float) -> float:
    """Validate a tie tolerance: finite and ``>= 0``.

    NaN or ``inf`` would merge every distance into one tie group (or
    none), and the sweep would return ``Σπ = 0`` for every row.
    """
    if not (math.isfinite(tie_tol) and tie_tol >= 0):
        raise ValueError(f"tie_tol must be finite and >= 0, got {tie_tol!r}")
    return float(tie_tol)


class BatchExactQuantifier:
    """Exact ``(pi_1(q), ..., pi_n(q))`` for whole query batches.

    Parameters
    ----------
    points:
        Discrete uncertain points (the exact sweep is defined for finite
        site sets; continuous models go through quadrature or estimators).
    tie_tol:
        Distances within ``tie_tol`` of a group's first member are
        processed as one tie group, exactly as in
        :func:`~repro.quantification.exact_discrete.sweep_quantification`.
    kernel:
        Kernel provider for the distance matrix and the sweep step loop:
        ``"auto"`` (default), ``"native"``, or ``"numpy"`` — see
        :mod:`repro.spatial.kernels`.  Providers are bitwise-identical,
        so the choice is purely operational.
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint],
                 tie_tol: float = 0.0, kernel: str = "auto") -> None:
        if not points:
            raise ValueError("batch quantifier needs at least one point")
        for p in points:
            if not isinstance(p, DiscreteUncertainPoint):
                raise TypeError(
                    "exact batch quantification requires discrete "
                    f"distributions, got {type(p).__name__}")
        self.n = len(points)
        self.tie_tol = float(tie_tol)
        get_provider(kernel)  # validate the name (and fail fast on an
        # explicit "native" request the host cannot serve)
        self.kernel = kernel
        xs: List[float] = []
        ys: List[float] = []
        parents: List[int] = []
        weights: List[float] = []
        # Flattened parent-major, site-order-within-parent — the order the
        # scalar sweep builds its site list in, which the stable argsort
        # below preserves inside tie groups.
        for i, p in enumerate(points):
            for (x, y), w in p.sites_with_weights():
                xs.append(x)
                ys.append(y)
                parents.append(i)
                weights.append(w)
        self._sx = np.array(xs, dtype=np.float64)
        self._sy = np.array(ys, dtype=np.float64)
        self._parent = np.array(parents, dtype=np.intp)
        self._weight = np.array(weights, dtype=np.float64)
        self._totals = np.array([p.k for p in points], dtype=np.int64)
        self.total_sites = len(parents)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_queries(queries) -> np.ndarray:
        from ..spatial.batch import as_query_array

        return as_query_array(queries)

    def chunk_size(self) -> int:
        """Query rows per memory-bounded work chunk."""
        return max(16, _CHUNK_ELEMENTS // max(1, self.total_sites))

    def matrix(self, queries) -> np.ndarray:
        """Dense ``(m, n)`` matrix of exact quantification vectors.

        Row ``j`` equals ``quantification_vector(points, queries[j],
        tie_tol)`` bitwise.  Chunk boundaries never change a row (every
        reduction is per query), so any chunking concatenates identically.
        """
        q = self._as_queries(queries)
        m = len(q)
        out = np.empty((m, self.n), dtype=np.float64)
        step = self.chunk_size()
        for lo in range(0, m, step):
            out[lo:lo + step] = self._chunk_matrix(q[lo:lo + step])
        return out

    def quantification_vectors(self, queries) -> List[List[float]]:
        """Full probability vectors, one list per query row.

        Row ``j`` equals ``quantification_vector(points, queries[j],
        tie_tol)`` bitwise — the dense-list twin of :meth:`batch` for
        callers that want scalar-typed rows.  The ``V_Pr`` builder labels
        its ``O(N^4)`` arrangement faces through the same :meth:`matrix`
        machinery (one chunked pass instead of per-face scalar sweeps).
        """
        return self.matrix(queries).tolist()

    def batch(self, queries) -> List[Dict[int, float]]:
        """Sparse ``{i: pi_i(q)}`` dicts (zeros omitted), one per query.

        The same container :meth:`PNNIndex.quantify(method="exact")
        <repro.core.index.PNNIndex.quantify>` returns.
        """
        mat = self.matrix(queries)
        return [{int(i): float(row[i]) for i in np.flatnonzero(row > 0.0)}
                for row in mat]

    # ------------------------------------------------------------------
    # The vectorized sweep core.
    # ------------------------------------------------------------------
    def _chunk_matrix(self, qc: np.ndarray) -> np.ndarray:
        mc = len(qc)
        result = np.zeros((mc, self.n), dtype=np.float64)
        if mc == 0:
            return result
        big_n = self.total_sites
        provider = get_provider(self.kernel)
        # (mc, N) distances in the shared sqrt(dx*dx + dy*dy) form.
        d = provider.distance_matrix(qc[:, 0], qc[:, 1],
                                     self._sx, self._sy)
        pending = np.arange(mc, dtype=np.intp)
        width = min(big_n, _PREFIX_START)
        ENGINE.inc("exact_sweep.chunks")
        first_pass = True
        while pending.size:
            if not first_pass:
                # Rows still live at the prefix end: the sweep re-runs
                # them 4x wider (observable as prefix pressure).
                ENGINE.inc("exact_sweep.prefix_widenings")
            first_pass = False
            dsub = d[pending] if len(pending) < mc else d
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
            res, done = provider.sweep_eq2(ds, self._parent[order],
                                           self._weight[order],
                                           self._totals, self.n,
                                           self.tie_tol,
                                           final=width >= big_n)
            finished = np.flatnonzero(done)
            ENGINE.inc("exact_sweep.rows_retired", int(finished.size))
            result[pending[finished]] = res[finished]
            pending = pending[~done]
            width = min(big_n, width * 4)
        return result

    # The sweep step loop itself lives behind the kernel-provider
    # protocol (repro.spatial.kernels): the NumPy implementation —
    # this module's original ``_sweep``, verbatim — is the bitwise
    # oracle, and the native provider replays the identical expression
    # sequence row-scalar in C.  Orchestration above (chunk planning,
    # prefix ordering, widening, result scatter) is shared by both.
