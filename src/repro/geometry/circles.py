"""Circumcircles and smallest enclosing disks.

Two roles in the reproduction:

* ``circumcenter`` — every vertex of the *discrete-case* nonzero Voronoi
  diagram (Theorem 2.14) is equidistant from three sites, i.e. is the
  circumcenter of a site triple.  The discrete diagram enumerates candidate
  triples and validates them, so this predicate is on the hot path.
* ``smallest_enclosing_disk`` (Welzl's randomized algorithm) — the support
  region of a discrete or histogram distribution, used as the uncertainty
  region for the continuous-case structures and for workload generation.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .disks import Disk
from .primitives import EPS, Point, dist

__all__ = [
    "circumcenter",
    "circle_through",
    "smallest_enclosing_disk",
]


def circumcenter(a: Point, b: Point, c: Point) -> Optional[Point]:
    """Center of the circle through three points, ``None`` if collinear.

    Solved from the two perpendicular-bisector equations; the determinant
    ``d`` is twice the signed triangle area, so near-collinear triples
    (degenerate circumcircles far away) return ``None`` under a relative
    tolerance.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    span = max(abs(ax - bx) + abs(ay - by), abs(ax - cx) + abs(ay - cy), 1.0)
    if abs(d) <= EPS * span * span:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return (ux, uy)


def _diametral_disk(a: Point, b: Point) -> Disk:
    """The disk with segment ``ab`` as a diameter."""
    cx, cy = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
    return Disk(cx, cy, dist((cx, cy), a))


def circle_through(points: Sequence[Point]) -> Optional[Disk]:
    """The circle through 0, 1, 2 or 3 boundary points (Welzl's base case).

    * 0 points: the degenerate empty disk at the origin with radius 0.
    * 1 point: radius-0 disk at the point.
    * 2 points: diametral disk.
    * 3 points: circumscribed disk (``None`` if collinear).
    """
    if len(points) == 0:
        return Disk(0.0, 0.0, 0.0)
    if len(points) == 1:
        return Disk(points[0][0], points[0][1], 0.0)
    if len(points) == 2:
        return _diametral_disk(points[0], points[1])
    if len(points) == 3:
        center = circumcenter(points[0], points[1], points[2])
        if center is None:
            return None
        return Disk(center[0], center[1], dist(center, points[0]))
    raise ValueError("circle_through supports at most 3 points")


def smallest_enclosing_disk(points: Sequence[Point],
                            seed: int = 0) -> Disk:
    """Smallest disk containing all *points* (Welzl, move-to-front variant).

    Expected linear time after the initial shuffle; the shuffle is seeded so
    results are reproducible.  A relative containment tolerance keeps the
    recursion stable for duplicated or nearly-cocircular inputs.
    """
    if not points:
        raise ValueError("smallest enclosing disk of empty set")
    pts: List[Point] = list(points)
    rng = random.Random(seed)
    rng.shuffle(pts)

    tol = EPS * max(1.0, max(abs(x) + abs(y) for x, y in pts))

    def contains(disk: Disk, p: Point) -> bool:
        return dist(disk.center, p) <= disk.r + tol

    disk = Disk(pts[0][0], pts[0][1], 0.0)
    for i in range(1, len(pts)):
        if contains(disk, pts[i]):
            continue
        disk = Disk(pts[i][0], pts[i][1], 0.0)
        for j in range(i):
            if contains(disk, pts[j]):
                continue
            disk = _diametral_disk(pts[i], pts[j])
            for k in range(j):
                if contains(disk, pts[k]):
                    continue
                candidate = circle_through([pts[i], pts[j], pts[k]])
                if candidate is None:
                    # Collinear support: fall back to the diametral disk of
                    # the two extreme points among the three.
                    trio = [pts[i], pts[j], pts[k]]
                    far: Tuple[Point, Point] = max(
                        ((p, q) for p in trio for q in trio),
                        key=lambda pq: dist(pq[0], pq[1]))
                    candidate = _diametral_disk(far[0], far[1])
                disk = candidate
    return disk
