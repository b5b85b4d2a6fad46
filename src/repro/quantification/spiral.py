"""The spiral-search estimator (Section 4.3, Theorem 4.7).

For discrete distributions whose location probabilities have bounded
spread ``rho = max w / min w`` (Eq. 9), the ``m(rho, eps)`` sites nearest
to the query already pin every quantification probability down to additive
error ``eps``:

    m(rho, eps) = ceil(rho * k * ln(1/eps)) + k - 1        (Section 4.3)

(Theorem 4.7's statement writes the query bound with ``log(rho/eps)``; the
construction in the text uses ``ln(1/eps)``, which its Lemma 4.6 proof
supports, so that is what we implement — the benchmark validates the error
guarantee empirically.)

The estimator retrieves the ``m`` nearest sites from one global kd-tree
(standing in for the [AC09] k-NN structure, see "Reproduction notes" in
README.md) and runs the
truncated Eq. (2) sweep on them; Lemma 4.6 gives
``pi_hat_i(q) in [pi_i(q) - eps, pi_i(q)]``... more precisely
``pi_hat_i <= pi_i <= pi_hat_i + eps`` — a one-sided guarantee the tests
check exactly.

The module also ships the paper's Remark (i) adversarial example
(:func:`remark_small_weights_example`), showing why sites with tiny weights
cannot simply be dropped.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..geometry.primitives import Point, dist
from ..spatial.kdtree import KDTree
from ..uncertain.discrete import DiscreteUncertainPoint
from .exact_discrete import sweep_quantification, sweep_site_probabilities

__all__ = [
    "SpiralSearchQuantifier",
    "m_bound",
    "remark_small_weights_example",
    "remark_eta_comparison",
]


def m_bound(rho: float, k: int, epsilon: float) -> int:
    """``m(rho, eps) = ceil(rho k ln(1/eps)) + k - 1`` (Section 4.3)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if rho < 1 or k < 1:
        raise ValueError("need rho >= 1 and k >= 1")
    return math.ceil(rho * k * math.log(1.0 / epsilon)) + k - 1


class SpiralSearchQuantifier:
    """Theorem 4.7's structure: one kd-tree over all ``N = nk`` sites.

    Preprocessing is ``O(N log N)``; a query retrieves
    ``min(m(rho, eps), N)`` sites by incremental best-first search and
    sweeps them in ``O(m log m)``.
    """

    def __init__(self, points: Sequence[DiscreteUncertainPoint]) -> None:
        if not points:
            raise ValueError("need at least one uncertain point")
        self.points = list(points)
        sites: List[Point] = []
        self._owners: List[int] = []
        self._site_weights: List[float] = []
        weights_flat: List[float] = []
        for i, p in enumerate(self.points):
            for site, w in p.sites_with_weights():
                sites.append(site)
                self._owners.append(i)
                self._site_weights.append(w)
                weights_flat.append(w)
        self._tree = KDTree(sites)
        self.k_max = max(p.k for p in self.points)
        self.rho = max(weights_flat) / min(weights_flat)
        self.total_sites = len(sites)

    # ------------------------------------------------------------------
    def m_for(self, epsilon: float) -> int:
        """Sites to retrieve for additive error *epsilon* (capped at N)."""
        return min(self.total_sites, m_bound(self.rho, self.k_max, epsilon))

    def estimate(self, q: Point, epsilon: float) -> Dict[int, float]:
        """Sparse ``{i: pi_hat_i(q)}`` with ``pi_hat <= pi <= pi_hat + eps``.

        Indices whose distributions contribute no retrieved site are
        implicitly zero, as in the paper ("sets the estimate to 0 for the
        rest of the points").
        """
        m = self.m_for(epsilon)
        retrieved = self._tree.k_nearest(q, m)
        sweep = [(d, self._owners[idx], self._site_weights[idx])
                 for idx, d in retrieved]
        totals = [p.k for p in self.points]
        vector = sweep_quantification(sweep, totals)
        return {i: v for i, v in enumerate(vector) if v > 0.0}

    def estimate_vector(self, q: Point, epsilon: float) -> List[float]:
        """Dense estimate vector of length ``n``."""
        out = [0.0] * len(self.points)
        for i, v in self.estimate(q, epsilon).items():
            out[i] = v
        return out

    def retrieved_count(self, epsilon: float) -> int:
        """How many sites a query at this epsilon touches (for benches)."""
        return self.m_for(epsilon)


def remark_small_weights_example(
        epsilon: float = 0.01,
        n_mid: int = 50) -> Tuple[List[DiscreteUncertainPoint], Point]:
    """The adversarial instance from Section 4.3, Remark (i).

    Query at the origin.  ``p_1`` (weight ``3 eps``) is closest; then
    ``n_mid`` sites of weight ``2/n`` each from distinct uncertain points;
    then ``p_2`` (weight ``5 eps``).  Dropping the tiny middle weights
    makes ``p_2`` look more likely than ``p_1`` even though the true
    probabilities order the other way — the estimator must keep them.

    Each uncertain point gets a far-away second site carrying the rest of
    its mass (the paper leaves the remainder implicit; any placement
    farther than all listed sites works).  Returns ``(points, query)``.
    """
    n = 2 * n_mid  # the paper's n, with mid sites = n/2
    far_y = 1_000.0
    points: List[DiscreteUncertainPoint] = []
    # P_1: nearest site p_1 with weight 3*eps at distance 1.
    points.append(DiscreteUncertainPoint(
        [(1.0, 0.0), (0.0, far_y)], [3.0 * epsilon, 1.0 - 3.0 * epsilon],
        normalize=False))
    # Middle points P_3 ... : one site each at increasing distances with
    # weight 2/n.
    for t in range(n_mid):
        d = 2.0 + t * 0.01
        points.append(DiscreteUncertainPoint(
            [(d, 0.0), (0.0, far_y + t + 1)], [2.0 / n, 1.0 - 2.0 / n],
            normalize=False))
    # P_2: site p_2 with weight 5*eps, farther than all middle sites.
    points.insert(1, DiscreteUncertainPoint(
        [(3.0, 0.0), (0.0, far_y - 1.0)], [5.0 * epsilon, 1.0 - 5.0 * epsilon],
        normalize=False))
    return points, (0.0, 0.0)


def remark_eta_comparison(epsilon: float = 0.01,
                          n_mid: int = 50) -> Dict[str, float]:
    """Quantities of the Remark (i) argument, computed on the instance above.

    Returns a dict with:

    * ``eta_p1`` — probability that the closest site ``p_1`` is the NN
      (the paper: exactly ``3 eps``);
    * ``eta_p2_true`` — probability that ``p_2`` is the NN with the
      small-weight middle sites kept (paper: ``< 2 eps``);
    * ``eta_p2_dropped`` — the *wrong* value obtained by discarding sites
      of weight ``<< eps/k`` (paper: ``> 4 eps``).

    The ranking flip (``eta_p1 > eta_p2_true`` but
    ``eta_p1 < eta_p2_dropped``) is the remark's point: the spiral-search
    truncation must be by *distance*, not by weight.
    """
    points, q = remark_small_weights_example(epsilon, n_mid)
    totals = [p.k for p in points]

    def near_sites(drop_middle: bool):
        sweep = []
        site_of_interest = {}
        for i, p in enumerate(points):
            for j, (site, w) in enumerate(p.sites_with_weights()):
                if drop_middle and i >= 2 and j == 0:
                    continue  # the middle points' near sites
                sid = len(sweep)
                sweep.append((dist(q, site), i, w))
                if i in (0, 1) and j == 0:
                    site_of_interest[i] = sid
        return sweep, site_of_interest

    sweep_full, ids_full = near_sites(drop_middle=False)
    etas_full = sweep_site_probabilities(sweep_full, totals)
    sweep_drop, ids_drop = near_sites(drop_middle=True)
    etas_drop = sweep_site_probabilities(sweep_drop, totals)
    return {
        "eta_p1": etas_full[ids_full[0]],
        "eta_p2_true": etas_full[ids_full[1]],
        "eta_p2_dropped": etas_drop[ids_drop[1]],
    }
