"""The Monte-Carlo quantification structure (Section 4.2, Theorems 4.3/4.5).

Preprocessing runs ``s`` rounds; round ``j`` instantiates every uncertain
point once (``R_j = {r_j1, ..., r_jn}``) and indexes the instantiation for
NN queries.  A query finds, in each round, which instantiated point is the
nearest neighbor and increments its counter; ``pi_hat_i(q) = c_i / s``.

The paper builds a Voronoi diagram + point location per round; finding the
NN of ``q`` among ``R_j`` is an ``argmin`` over that round's instantiated
sites.  All rounds are stored as one contiguous ``(s, n, 2)`` tensor and
the argmin/counting runs vectorized across rounds — and, via
:meth:`MonteCarloQuantifier.estimate_matrix`, across whole query batches
at once (rounds x queries in a few NumPy passes).  The scalar
:meth:`~MonteCarloQuantifier.estimate` is the single-row special case of
the same code path, so scalar and batch estimates agree exactly.

Round budget (Theorem 4.3): with ``|Q| = O((nk)^4)`` distinct cells,

    s = ceil( (1 / 2 eps^2) * ln(2 n |Q| / delta) )

guarantees ``|pi_hat - pi| <= eps`` for *all* points and *all* queries
simultaneously with probability ``>= 1 - delta``.  For a single fixed
query, ``s = ceil((1 / 2 eps^2) ln(2 n / delta))`` suffices (plain
Chernoff + union over the ``n`` counters); both budgets are exposed.

Continuous distributions are handled per Theorem 4.5 by sampling each pdf
into a discrete surrogate first (:func:`discretize_continuous`); Lemma 4.4
bounds the induced bias by ``n * alpha`` when each surrogate has
``k(alpha) = O(alpha^-2 log(1/delta'))`` sites.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.primitives import Point
from ..uncertain.base import UncertainPoint
from ..uncertain.discrete import DiscreteUncertainPoint
from .batch_exact import sparse_rows

__all__ = [
    "MonteCarloQuantifier",
    "rounds_for_single_query",
    "rounds_for_all_queries",
    "discretize_continuous",
    "continuous_sample_complexity",
]


def rounds_for_single_query(epsilon: float, delta: float, n: int) -> int:
    """Rounds ensuring ±epsilon w.p. 1-delta for one fixed query point."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return max(1, math.ceil(math.log(2.0 * n / delta) / (2.0 * epsilon * epsilon)))


def rounds_for_all_queries(epsilon: float, delta: float, n: int, k: int) -> int:
    """Theorem 4.3 budget: ±epsilon for *all* queries simultaneously.

    Uses ``|Q| = (nk)^4`` representative queries — one per cell of the
    probabilistic Voronoi diagram (Lemma 4.1), with the constant taken
    as 1.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    big_n = max(2, n * k)
    cells = float(big_n) ** 4
    return max(1, math.ceil(math.log(2.0 * n * cells / delta)
                            / (2.0 * epsilon * epsilon)))


def continuous_sample_complexity(epsilon: float, delta: float, n: int,
                                 c: float = 0.5) -> int:
    """Theorem 4.5 surrogate size ``k(alpha)`` with ``alpha = eps/2n``.

    ``k(alpha) = c / alpha^2 * log(1/delta')`` with ``delta' = delta/2n``.
    This is the *theoretical* bound — ``O((n^2/eps^2) log(n/delta))`` —
    which is extremely conservative; the benchmark (E12) shows far smaller
    surrogates already achieve the target error in practice.
    """
    alpha = epsilon / (2.0 * n)
    delta_prime = delta / (2.0 * n)
    return max(1, math.ceil(c / (alpha * alpha) * math.log(1.0 / delta_prime)))


def discretize_continuous(point: UncertainPoint, k: int,
                          seed: int = 0) -> DiscreteUncertainPoint:
    """Sample a continuous pdf into a uniform discrete surrogate.

    The Theorem 4.5 reduction: ``k`` i.i.d. draws, each with weight
    ``1/k``.  Coincident draws are merged (their weights add) so the
    surrogate satisfies the distinct-sites requirement.
    """
    rng = random.Random(seed)
    counts: Dict[Point, int] = {}
    for _ in range(k):
        p = point.sample(rng)
        counts[p] = counts.get(p, 0) + 1
    sites = list(counts.keys())
    weights = [c / k for c in counts.values()]
    return DiscreteUncertainPoint(sites, weights, normalize=False)


class MonteCarloQuantifier:
    """The Section 4.2 data structure: ``s`` instantiations as one tensor.

    Parameters
    ----------
    points:
        Uncertain points (any model — only ``sample`` is used).
    epsilon, delta:
        Target additive error and failure probability.
    rounds:
        Explicit round count; defaults to the single-query budget
        (pass :func:`rounds_for_all_queries` output for the uniform
        guarantee — it is larger by the ``log |Q|`` term).
    seed:
        Seed for the instantiation RNG (reproducible preprocessing).
    """

    def __init__(self, points: Sequence[UncertainPoint],
                 epsilon: float = 0.1, delta: float = 0.05,
                 rounds: Optional[int] = None, seed: int = 0) -> None:
        if not points:
            raise ValueError("need at least one uncertain point")
        self.points = list(points)
        self.epsilon = epsilon
        self.delta = delta
        self.rounds = rounds if rounds is not None else \
            rounds_for_single_query(epsilon, delta, len(points))
        rng = random.Random(seed)
        self.instantiations = np.array(
            [[p.sample(rng) for p in self.points]
             for _ in range(self.rounds)], dtype=np.float64)  # (s, n, 2)

    # ------------------------------------------------------------------
    def estimate_matrix(self, queries) -> np.ndarray:
        """Dense ``(m, n)`` estimate matrix for an ``(m, 2)`` query array.

        One vectorized pass per chunk: squared distances from every query
        to every instantiated site, an argmin across points per (query,
        round) cell, and a bincount of the winners.  Round winners tie
        toward the smallest index (the scalar path shares this code, so
        the tie rule is uniform everywhere).
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.size == 0:
            q = q.reshape(0, 2)
        elif q.ndim != 2 or q.shape[1] != 2:
            raise ValueError("queries must be an (m, 2) array of points")
        m = len(q)
        s, n, _ = self.instantiations.shape
        out = np.empty((m, n), dtype=np.float64)
        if m == 0:
            return out
        sx = self.instantiations[:, :, 0]
        sy = self.instantiations[:, :, 1]
        # Chunk queries so the (chunk, s, n) distance tensor stays
        # cache-resident — large chunks go memory-bandwidth-bound.
        step = max(1, (1 << 18) // max(1, s * n))
        # One scratch pair for every chunk: the round tensor's work slices
        # are the hot allocation of a large batch, so reuse them instead
        # of paying an allocator round-trip (and page faults) per chunk.
        dx_buf = np.empty((min(step, m), s, n), dtype=np.float64)
        dy_buf = np.empty_like(dx_buf)
        for lo in range(0, m, step):
            qc = q[lo:lo + step]
            mc = len(qc)
            dx = np.subtract(sx[None, :, :], qc[:, None, None, 0],
                             out=dx_buf[:mc])
            dy = np.subtract(sy[None, :, :], qc[:, None, None, 1],
                             out=dy_buf[:mc])
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            dx += dy
            winners = np.argmin(dx, axis=2)  # (chunk, s)
            flat = winners + n * np.arange(mc, dtype=np.intp)[:, None]
            counts = np.bincount(flat.ravel(), minlength=mc * n)
            out[lo:lo + step] = counts.reshape(mc, n) / self.rounds
        return out

    def estimate_batch(self, queries) -> List[Dict[int, float]]:
        """Sparse ``{i: pi_hat_i}`` dicts (zeros omitted), one per query."""
        mat = self.estimate_matrix(queries)
        return sparse_rows(mat, mat != 0)

    def estimate(self, q: Point) -> Dict[int, float]:
        """Sparse estimates ``{i: pi_hat_i(q)}`` (zeros omitted).

        At most ``rounds`` distinct indices can appear — matching the
        paper's observation that at most ``1/eps`` points can have
        ``pi_i(q) > eps``.
        """
        return self.estimate_batch([q])[0]

    def estimate_vector(self, q: Point) -> List[float]:
        """Dense estimate vector of length ``n``."""
        return self.estimate_matrix([q])[0].tolist()

    def space_cost(self) -> int:
        """Stored sites across all rounds (``s * n``, Theorem 4.3 space)."""
        return self.rounds * len(self.points)
