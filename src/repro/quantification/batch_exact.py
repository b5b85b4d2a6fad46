"""Vectorized exact quantification: the Eq. (2) sweep for query batches.

:mod:`.exact_discrete` answers one query with an ``O(N log N)`` sweep over
all ``N = sum k_i`` sites in pure Python.  This module answers an
``(m, 2)`` array of queries through the *same* sweep.  Per chunk of
query rows (chunks sized to bound memory) the engine makes exactly two
kernel-provider calls (:mod:`repro.spatial.kernels`):

* ``distance_matrix`` — the chunk's unordered ``(mc, N)`` distances;
* ``sweep_eq2`` — the whole per-row prefix: select each row's ``K``
  nearest sites, order them, gather their parents and weights, run the
  sweep step loop, and re-sweep the rows still live at the prefix end
  ``4x`` wider.  The native provider does all of that row-scalar in
  compiled C; the NumPy provider (``argpartition`` → ``lexsort`` →
  gathers → a step loop vectorized across rows → widening) is the
  bitwise oracle and the fallback on hosts without a compiler.

The step loop reproduces the scalar sweep's arithmetic operation for
operation, which is what makes the results **bitwise identical** to
``quantification_vector``:

* distances use the library's shared ``sqrt(dx*dx + dy*dy)`` form, and
  the prefix is ordered by (distance, flattened site index) — a total
  order, so the prefix is exactly the first ``K`` positions of the
  scalar code's stable ``sorted``, ties cut by the prefix end included;
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
moment), so a row consults only a short sorted prefix: the nearest
sites until two parents are exhausted, which is the paper's output
sensitivity.  The prefix is swept without flushing its final tie group.
A row that retires inside the prefix provably computed the full sweep's
answer (every complete group it flushed is identical, and the truncated
final group would have contributed exactly zero); a row still live at
the prefix end is re-swept ``4x`` wider, ending in the full sort at
``K >= N``.  ``exact_sweep.prefix_widenings`` counts those re-sweeps,
equal across providers.

The engine then emits rows: :func:`sparse_rows` turns the dense matrix
into the ``{i: pi_i(q)}`` dicts of the serving API in one pass, and a
bulk reply skips the dicts: the kernel provider's ``emit_sparse_rows``
writes their JSON straight from the matrix (:mod:`repro.serving.wire`).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..obs.metrics import ENGINE
from ..spatial.kernels import get_provider
from ..spatial.kernels.numpy_provider import row_mask, sparse_rows
from ..uncertain.discrete import DiscreteUncertainPoint

__all__ = ["BatchExactQuantifier", "check_tie_tol", "row_mask",
           "sparse_rows"]

# Target element count of the per-chunk (mc, N) distance matrix.  Larger
# than the batch engine's work-matrix budget: the step loop's Python-level
# overhead amortizes over the chunk's rows, and an 8 MB matrix is still a
# single pass of streaming reductions.
_CHUNK_ELEMENTS = 1 << 20
# First sorted-prefix width of every row; widened 4x for rows whose sweep
# is still live at the prefix end, up to the full site count.  Rows of
# the bulk_exact shape (n = 200, k = 5) retire after 32-128 positions,
# 94% of them by 64: a narrower start widens most rows, a wider one sorts
# positions no row reads.
_PREFIX_START = 64


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
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint],
                 tie_tol: float = 0.0) -> None:
        if not points:
            raise ValueError("batch quantifier needs at least one point")
        for p in points:
            if not isinstance(p, DiscreteUncertainPoint):
                raise TypeError(
                    "exact batch quantification requires discrete "
                    f"distributions, got {type(p).__name__}")
        self.n = len(points)
        self.tie_tol = float(tie_tol)
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
        tie_tol)`` bitwise, for callers that want scalar-typed rows.  The ``V_Pr`` builder labels
        its ``O(N^4)`` arrangement faces through the same :meth:`matrix`
        machinery (one chunked pass instead of per-face scalar sweeps).
        """
        return self.matrix(queries).tolist()

    # ------------------------------------------------------------------
    # The vectorized sweep core.
    # ------------------------------------------------------------------
    def _chunk_matrix(self, qc: np.ndarray) -> np.ndarray:
        provider = get_provider()
        # (mc, N) distances in the shared sqrt(dx*dx + dy*dy) form; the
        # provider selects, orders and sweeps each row's prefix.
        d = provider.distance_matrix(qc[:, 0], qc[:, 1],
                                     self._sx, self._sy)
        result, widened = provider.sweep_eq2(d, self._parent, self._weight,
                                             self._totals, self.n,
                                             self.tie_tol, _PREFIX_START)
        ENGINE.inc("exact_sweep.chunks")
        ENGINE.inc("exact_sweep.rows_retired", len(qc))
        if widened:
            ENGINE.inc("exact_sweep.prefix_widenings", widened)
        return result
