"""The [CKP04] branch-and-prune baseline for NN!=0 queries.

Section 1.2: "[CKP04] designed a branch-and-prune solution based on the
R-tree ... These methods do not provide any nontrivial performance
guarantees."  This module implements that baseline faithfully so the
reproduction can *compare* against it (experiment E18: ``run_e18`` and
``benchmarks/bench_e18_baseline_comparison.py``):

1. each uncertain point's support is wrapped in its bounding rectangle and
   the rectangles are packed into an R-tree;
2. a query first derives the pruning bound
   ``B = min_i max_dist(rect_i, q)`` by a best-first descent;
3. a second traversal reports every rectangle with ``min_dist < B``;
4. surviving candidates are refined with the models' exact distances
   (rectangle bounds are looser than support-disk bounds, so the
   refinement is what restores exactness).

The answers are identical to :class:`repro.core.index.PNNIndex`; the
difference the benchmark exposes is the amount of work: rectangle bounds
are weaker than the paper's structures, exactly the gap the paper's
guarantees formalize.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..geometry.disks import nonzero_nn_indices
from ..geometry.primitives import Point
from ..spatial.rtree import Rect, RTree, rect_max_dist
from ..uncertain.base import UncertainPoint

__all__ = ["BranchAndPruneIndex"]


class BranchAndPruneIndex:
    """R-tree branch-and-prune NN!=0 queries ([CKP04]-style baseline)."""

    def __init__(self, points: Sequence[UncertainPoint]) -> None:
        if not points:
            raise ValueError("need at least one uncertain point")
        self.points: List[UncertainPoint] = list(points)
        self._rects: List[Rect] = [self._bounding_rect(p) for p in self.points]
        self._tree = RTree(self._rects)
        self.last_visited = 0  # nodes touched by the most recent query

    @staticmethod
    def _bounding_rect(point: UncertainPoint) -> Rect:
        disk = point.support_disk()
        return (disk.cx - disk.r, disk.cy - disk.r,
                disk.cx + disk.r, disk.cy + disk.r)

    # ------------------------------------------------------------------
    def nonzero_nn(self, q: Point) -> List[int]:
        """``NN!=0(q)`` by branch-and-prune with exact refinement.

        The R-tree bound ``B`` upper-bounds the true ``Delta(q)`` (a
        rectangle's farthest corner is at least the support's farthest
        point), so the candidate set is a superset; exact per-model
        distances then decide membership via the Lemma 2.1 predicate
        restricted to candidates.
        """
        bound = self._tree.min_max_dist_bound(q)
        candidates, visited = self._tree.candidates_within(
            q, bound, strict=False)
        self.last_visited = visited
        # Exact refinement on the candidate set.  The candidate set always
        # contains every index of the true answer *and* every Delta-argmin
        # (their rect min_dist <= Delta_i(q) <= B), so evaluating the
        # Lemma 2.1 predicate within it is exact.
        mins = {i: self.points[i].min_dist(q) for i in candidates}
        maxs = {i: self.points[i].max_dist(q) for i in candidates}
        ordered = sorted(candidates)
        picked = nonzero_nn_indices([mins[i] for i in ordered],
                                    [maxs[i] for i in ordered])
        out = [ordered[t] for t in picked]
        # Zero-extent edge case: the unique Delta-argmin may owe its
        # membership to the *subset* second-minimum, while the true
        # second-minimum attainer was pruned.  Re-verify exactly (rare:
        # only reachable when delta_i = Delta_i, i.e. certain points).
        if out:
            min1 = min(maxs[i] for i in candidates)
            argmins = [i for i in candidates if maxs[i] == min1]
            if len(argmins) == 1 and argmins[0] in out \
                    and mins[argmins[0]] >= min1:
                i_star = argmins[0]
                true_second = min(self.points[j].max_dist(q)
                                  for j in range(len(self.points))
                                  if j != i_star)
                if mins[i_star] >= true_second:
                    out.remove(i_star)
        return out

    def pruning_stats(self, q: Point) -> Tuple[int, int]:
        """``(candidates, nodes visited)`` for one query — benchmark fodder."""
        bound = self._tree.min_max_dist_bound(q)
        candidates, visited = self._tree.candidates_within(
            q, bound, strict=False)
        return len(candidates), visited