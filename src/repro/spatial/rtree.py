"""A packed R-tree over rectangles — substrate for the [CKP04] baseline.

The paper's "Previous work" (Section 1.2) describes the practical systems
it improves on: "[CKP04] designed a branch-and-prune solution based on the
R-tree" and "[ZCM+13] proposed to combine the nonzero Voronoi diagram with
R-tree-like bounding rectangles ... These methods do not provide any
nontrivial performance guarantees."  To compare against that prior art we
implement the classic Sort-Tile-Recursive (STR) bulk-loaded R-tree and the
branch-and-prune ``NN!=0`` query on top of it
(:class:`repro.core.baseline.BranchAndPruneIndex`).

Leaves store rectangle ids; internal nodes store the minimum bounding
rectangles (MBRs) of their children.  Distances follow the same min/max
convention as the rest of the library: ``min_dist`` is the smallest L2
distance from a query to the rectangle, ``max_dist`` the largest (attained
at a corner).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..geometry.primitives import Point

__all__ = ["Rect", "RTree"]

#: ``(xmin, ymin, xmax, ymax)``
Rect = Tuple[float, float, float, float]

_FANOUT = 8


def rect_min_dist(r: Rect, q: Point) -> float:
    """Smallest L2 distance from *q* to rectangle *r* (0 inside)."""
    dx = max(r[0] - q[0], 0.0, q[0] - r[2])
    dy = max(r[1] - q[1], 0.0, q[1] - r[3])
    return math.hypot(dx, dy)


def rect_max_dist(r: Rect, q: Point) -> float:
    """Largest L2 distance from *q* to rectangle *r* (a corner)."""
    dx = max(abs(q[0] - r[0]), abs(q[0] - r[2]))
    dy = max(abs(q[1] - r[1]), abs(q[1] - r[3]))
    return math.hypot(dx, dy)


def _mbr(rects: Sequence[Rect]) -> Rect:
    return (min(r[0] for r in rects), min(r[1] for r in rects),
            max(r[2] for r in rects), max(r[3] for r in rects))


class _RNode:
    __slots__ = ("mbr", "children", "entries")

    def __init__(self, mbr: Rect, children: Sequence["_RNode"] = (),
                 entries: Sequence[int] = ()) -> None:
        self.mbr = mbr
        self.children = list(children)  # internal nodes only
        self.entries = list(entries)  # leaves only

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RTree:
    """STR bulk-loaded R-tree over a static rectangle collection.

    Sort-Tile-Recursive packing: rectangles are sorted by center x,
    sliced into vertical strips, each strip sorted by center y and cut
    into nodes of ``_FANOUT`` entries; the process repeats one level up
    until a single root remains.  This is the standard bulk-loading used
    by the systems the paper cites.
    """

    def __init__(self, rects: Sequence[Rect]) -> None:
        if not rects:
            raise ValueError("R-tree needs at least one rectangle")
        self.rects: List[Rect] = list(rects)
        leaves = self._pack_leaves()
        self.root = self._pack_upward(leaves)
        self.height = self._measure_height()

    # ------------------------------------------------------------------
    def _pack_leaves(self) -> List[_RNode]:
        ids = sorted(range(len(self.rects)),
                     key=lambda i: (self.rects[i][0] + self.rects[i][2]))
        strip_count = max(1, math.ceil(math.sqrt(len(ids) / _FANOUT)))
        per_strip = math.ceil(len(ids) / strip_count)
        leaves: List[_RNode] = []
        for s in range(0, len(ids), per_strip):
            strip = sorted(ids[s:s + per_strip],
                           key=lambda i: (self.rects[i][1] + self.rects[i][3]))
            for t in range(0, len(strip), _FANOUT):
                chunk = strip[t:t + _FANOUT]
                leaves.append(_RNode(_mbr([self.rects[i] for i in chunk]),
                                     entries=chunk))
        return leaves

    def _pack_upward(self, nodes: List[_RNode]) -> _RNode:
        while len(nodes) > 1:
            nodes.sort(key=lambda nd: (nd.mbr[0] + nd.mbr[2]))
            strip_count = max(1, math.ceil(math.sqrt(len(nodes) / _FANOUT)))
            per_strip = math.ceil(len(nodes) / strip_count)
            parents: List[_RNode] = []
            for s in range(0, len(nodes), per_strip):
                strip = sorted(nodes[s:s + per_strip],
                               key=lambda nd: (nd.mbr[1] + nd.mbr[3]))
                for t in range(0, len(strip), _FANOUT):
                    chunk = strip[t:t + _FANOUT]
                    parents.append(_RNode(_mbr([c.mbr for c in chunk]),
                                          children=chunk))
            nodes = parents
        return nodes[0]

    def _measure_height(self) -> int:
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    # ------------------------------------------------------------------
    def candidates_within(self, q: Point, threshold: float,
                          strict: bool = True) -> Tuple[List[int], int]:
        """Rectangle ids with ``min_dist < threshold`` plus nodes visited.

        The branch-and-prune primitive: subtrees whose MBR cannot come
        closer than *threshold* are pruned.  The visit count is returned so
        the baseline benchmark can report the work performed.
        """
        out: List[int] = []
        visited = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            visited += 1
            d = rect_min_dist(node.mbr, q)
            if d > threshold or (strict and d >= threshold):
                continue
            if node.is_leaf:
                for i in node.entries:
                    di = rect_min_dist(self.rects[i], q)
                    if di < threshold or (not strict and di <= threshold):
                        out.append(i)
            else:
                stack.extend(node.children)
        return out, visited

    def min_max_dist_bound(self, q: Point) -> float:
        """Best-first upper bound ``min_i max_dist(rect_i, q)``.

        Descends greedily by MBR max-distance, refining the bound with
        every leaf rectangle inspected — the pruning bound of the [CKP04]
        query ("the nearest rectangle's farthest corner").
        """
        import heapq

        best = math.inf
        heap: List[Tuple[float, int]] = []
        nodes: List[_RNode] = [self.root]
        heapq.heappush(heap, (rect_min_dist(self.root.mbr, q), 0))
        while heap:
            bound, node_id = heapq.heappop(heap)
            if bound >= best:
                break
            node = nodes[node_id]
            if node.is_leaf:
                for i in node.entries:
                    best = min(best, rect_max_dist(self.rects[i], q))
            else:
                for child in node.children:
                    b = rect_min_dist(child.mbr, q)
                    if b < best:
                        nodes.append(child)
                        heapq.heappush(heap, (b, len(nodes) - 1))
        return best