"""A kd-tree with the augmentations the paper's query structures need.

The paper's NN!=0 query (Section 3) runs in two stages:

1. compute ``Delta(q) = min_i (d(q, c_i) + r_i)`` — point location in the
   additively-weighted Voronoi diagram **M** of the disk centers;
2. report ``{i : d(q, c_i) - r_i < Delta(q)}`` — all disks intersecting the
   disk of radius ``Delta(q)`` around ``q`` (the structure of [KMR+16]).

Neither structure has a practical published implementation, so (see
"Reproduction notes" in README.md) both stages are served by one kd-tree whose nodes carry, besides
the bounding box, the *minimum* and *maximum* additive weight in their
subtree:

* stage 1 is a best-first search with lower bound
  ``dist(q, bbox) + min_weight(subtree)``;
* stage 2 prunes subtrees with ``dist(q, bbox) - max_weight(subtree) >= R``.

Both produce exactly the sets the theorems describe; the benchmark for
Theorem 3.1/3.2 measures their empirical query-time growth.

The same tree provides classic NN / k-NN / radius queries and a lazy
``iter_nearest`` generator (best-first traversal), which is how the spiral
search of Theorem 4.7 retrieves the ``m(rho, eps)`` nearest sites.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from ..geometry.primitives import Point

__all__ = ["KDTree"]

_LEAF_SIZE = 12


class _Node:
    __slots__ = ("lo", "hi", "left", "right", "indices",
                 "min_w", "max_w", "axis", "split")

    def __init__(self) -> None:
        self.lo = (0.0, 0.0)
        self.hi = (0.0, 0.0)
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.indices: Optional[List[int]] = None  # leaves only
        self.min_w = 0.0
        self.max_w = 0.0
        self.axis = 0
        self.split = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None


def _box_dist_l2(lo: Point, hi: Point, q: Point) -> float:
    """L2 distance from *q* to the axis-aligned box ``[lo, hi]`` (0 inside)."""
    dx = max(lo[0] - q[0], 0.0, q[0] - hi[0])
    dy = max(lo[1] - q[1], 0.0, q[1] - hi[1])
    return math.sqrt(dx * dx + dy * dy)


def _box_dist_linf(lo: Point, hi: Point, q: Point) -> float:
    """Chebyshev distance from *q* to the box (0 inside)."""
    dx = max(lo[0] - q[0], 0.0, q[0] - hi[0])
    dy = max(lo[1] - q[1], 0.0, q[1] - hi[1])
    return max(dx, dy)


def _dist_l2(p: Point, q: Point) -> float:
    # sqrt-of-squares, matching geometry.primitives.dist (see its docstring
    # for why hypot is avoided).
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def _dist_linf(p: Point, q: Point) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


_METRICS = {
    "l2": (_dist_l2, _box_dist_l2),
    "linf": (_dist_linf, _box_dist_linf),
}


class KDTree:
    """Static planar kd-tree over points with optional additive weights.

    Parameters
    ----------
    points:
        The site coordinates.
    weights:
        Optional per-site additive weight ``w_i`` (the disk radius ``r_i``
        in the continuous NN!=0 structures).  Defaults to all zeros, which
        reduces the weighted queries to their unweighted counterparts.
    metric:
        ``"l2"`` (default) or ``"linf"``.  The L-infinity variant serves
        the paper's Remark (ii) after Theorem 3.1 (square uncertainty
        regions under the Chebyshev metric); all queries — including the
        weighted ones — honour the chosen metric.
    """

    def __init__(self, points: Sequence[Point],
                 weights: Optional[Sequence[float]] = None,
                 metric: str = "l2") -> None:
        if not points:
            raise ValueError("kd-tree needs at least one point")
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; use 'l2' or 'linf'")
        self.metric = metric
        self._dist, self._box_dist = _METRICS[metric]
        self.points: List[Point] = [tuple(p) for p in points]
        if weights is None:
            self.weights: List[float] = [0.0] * len(self.points)
        else:
            if len(weights) != len(points):
                raise ValueError("weights length must match points length")
            self.weights = [float(w) for w in weights]
        self.root = self._build(list(range(len(self.points))), 0)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def _build(self, idxs: List[int], depth: int) -> _Node:
        node = _Node()
        xs = [self.points[i][0] for i in idxs]
        ys = [self.points[i][1] for i in idxs]
        node.lo = (min(xs), min(ys))
        node.hi = (max(xs), max(ys))
        node.min_w = min(self.weights[i] for i in idxs)
        node.max_w = max(self.weights[i] for i in idxs)
        if len(idxs) <= _LEAF_SIZE:
            node.indices = idxs
            return node
        # Split the longer box side at the median.
        axis = 0 if (node.hi[0] - node.lo[0]) >= (node.hi[1] - node.lo[1]) else 1
        idxs.sort(key=lambda i: self.points[i][axis])
        mid = len(idxs) // 2
        node.axis = axis
        node.split = self.points[idxs[mid]][axis]
        node.left = self._build(idxs[:mid], depth + 1)
        node.right = self._build(idxs[mid:], depth + 1)
        return node

    def __len__(self) -> int:
        return len(self.points)

    # ------------------------------------------------------------------
    # Classic queries.
    # ------------------------------------------------------------------
    def nearest(self, q: Point) -> Tuple[int, float]:
        """Index and distance of the nearest site to *q*."""
        for idx, d in self.iter_nearest(q):
            return idx, d
        raise AssertionError("unreachable: tree is non-empty")

    def k_nearest(self, q: Point, k: int) -> List[Tuple[int, float]]:
        """The *k* nearest sites, closest first (fewer if the tree is small)."""
        if k <= 0:
            return []
        return list(itertools.islice(self.iter_nearest(q), k))

    def iter_nearest(self, q: Point) -> Iterator[Tuple[int, float]]:
        """Yield ``(index, distance)`` pairs in non-decreasing distance.

        Lazy best-first traversal over a heap of nodes and sites; pulling
        ``m`` results costs ``O((m + log n) log n)`` in practice.  This is
        the retrieval primitive behind the spiral-search estimator
        (Theorem 4.7), replacing the [AC09] structure (README.md, "Reproduction notes").
        """
        counter = itertools.count()  # tie-breaker: heap entries never compare nodes
        heap: List[Tuple[float, int, Optional[_Node], int]] = []
        heapq.heappush(heap, (self._box_dist(self.root.lo, self.root.hi, q),
                              next(counter), self.root, -1))
        while heap:
            d, _, node, idx = heapq.heappop(heap)
            if node is None:
                yield idx, d
                continue
            if node.is_leaf:
                assert node.indices is not None
                for i in node.indices:
                    heapq.heappush(heap, (self._dist(self.points[i], q),
                                          next(counter), None, i))
            else:
                for child in (node.left, node.right):
                    assert child is not None
                    heapq.heappush(heap, (self._box_dist(child.lo, child.hi, q),
                                          next(counter), child, -1))

    def within_radius(self, q: Point, radius: float,
                      strict: bool = False) -> List[int]:
        """Indices of sites with ``d(q, p_i) <= radius`` (or ``<`` if strict)."""
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if self._box_dist(node.lo, node.hi, q) > radius:
                continue
            if node.is_leaf:
                assert node.indices is not None
                for i in node.indices:
                    d = self._dist(self.points[i], q)
                    if d < radius or (not strict and d <= radius):
                        out.append(i)
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        return out

    # ------------------------------------------------------------------
    # Additively-weighted queries (the paper's stage 1 and stage 2).
    # ------------------------------------------------------------------
    def weighted_min(self, q: Point) -> Tuple[int, float]:
        """``argmin_i / min_i  d(q, p_i) + w_i`` — the envelope value Delta(q).

        Best-first search with the subtree lower bound
        ``dist(q, bbox) + min_w``; equivalent to point location in the
        additively-weighted Voronoi diagram of the sites (the diagram
        **M** of Section 2.1).
        """
        best_idx = -1
        best_val = math.inf
        heap: List[Tuple[float, int]] = []
        nodes: List[_Node] = [self.root]
        heapq.heappush(heap, (self._box_dist(self.root.lo, self.root.hi, q)
                              + self.root.min_w, 0))
        while heap:
            bound, node_id = heapq.heappop(heap)
            if bound >= best_val:
                break
            node = nodes[node_id]
            if node.is_leaf:
                assert node.indices is not None
                for i in node.indices:
                    val = self._dist(self.points[i], q) + self.weights[i]
                    if val < best_val:
                        best_val = val
                        best_idx = i
            else:
                for child in (node.left, node.right):
                    assert child is not None
                    b = self._box_dist(child.lo, child.hi, q) + child.min_w
                    if b < best_val:
                        nodes.append(child)
                        heapq.heappush(heap, (b, len(nodes) - 1))
        return best_idx, best_val

    def weighted_two_min(self, q: Point) -> Tuple[Tuple[int, float],
                                                  Tuple[int, float]]:
        """The two smallest values of ``d(q, p_i) + w_i`` with their indices.

        Needed by the exact NN!=0 semantics: for a unique minimizer of
        ``Delta`` the comparison threshold is the *second* smallest
        ``Delta_j`` (Lemma 2.1 ranges over ``j != i``).  Returns
        ``((-1, inf), (-1, inf))`` entries when fewer than two sites exist.
        """
        best = (-1, math.inf)
        second = (-1, math.inf)
        heap: List[Tuple[float, int]] = []
        nodes: List[_Node] = [self.root]
        heapq.heappush(heap, (self._box_dist(self.root.lo, self.root.hi, q)
                              + self.root.min_w, 0))
        while heap:
            bound, node_id = heapq.heappop(heap)
            if bound >= second[1]:
                break
            node = nodes[node_id]
            if node.is_leaf:
                assert node.indices is not None
                for i in node.indices:
                    val = self._dist(self.points[i], q) + self.weights[i]
                    if val < best[1]:
                        second = best
                        best = (i, val)
                    elif val < second[1]:
                        second = (i, val)
            else:
                for child in (node.left, node.right):
                    assert child is not None
                    b = self._box_dist(child.lo, child.hi, q) + child.min_w
                    if b < second[1]:
                        nodes.append(child)
                        heapq.heappush(heap, (b, len(nodes) - 1))
        return best, second

    def weighted_report(self, q: Point, threshold: float,
                        strict: bool = True) -> List[int]:
        """Indices with ``d(q, p_i) - w_i < threshold`` (``<=`` if not strict).

        With ``w_i = r_i`` and ``threshold = Delta(q)`` this reports exactly
        ``NN!=0(q)`` by Lemma 2.1: the disks whose minimum distance to ``q``
        is below the smallest maximum distance.  Pruning uses the subtree
        upper bound ``dist(q, bbox) - max_w``.
        """
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            lower = self._box_dist(node.lo, node.hi, q) - node.max_w
            if lower > threshold or (strict and lower >= threshold):
                continue
            if node.is_leaf:
                assert node.indices is not None
                for i in node.indices:
                    val = self._dist(self.points[i], q) - self.weights[i]
                    if val < threshold or (not strict and val <= threshold):
                        out.append(i)
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        return out
