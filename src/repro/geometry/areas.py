"""Exact intersection areas: circle–circle and circle–rectangle.

These areas are the analytic backbone of the distance distributions:

* For a *uniform-on-disk* uncertain point ``P_i`` (Figure 1 of the paper),
  the distance cdf is ``G_{q,i}(r) = area(D_i ∩ B(q, r)) / area(D_i)`` —
  a circle–circle lens area.
* For a *histogram* pdf (piecewise constant on grid cells), ``G`` needs the
  area of each rectangular cell inside ``B(q, r)`` — a circle–rectangle
  intersection.

Both are closed-form; the rectangle case is assembled from the quadrant
primitive ``area(disk ∩ {u <= x, v <= y})`` by inclusion–exclusion.
"""

from __future__ import annotations

import math
from typing import Tuple

from .primitives import Point

__all__ = ["lens_area", "circle_rect_area", "disk_area"]


def disk_area(r: float) -> float:
    """Area of a disk of radius *r*."""
    return math.pi * r * r


def lens_area(c1: Point, r1: float, c2: Point, r2: float) -> float:
    """Area of the intersection of two closed disks.

    Standard two-circular-segment formula with the usual containment and
    disjointness short-circuits.  Numerically safe: the ``acos`` arguments
    are clamped to ``[-1, 1]``.
    """
    if r1 < 0 or r2 < 0:
        raise ValueError("negative radius")
    d = math.hypot(c1[0] - c2[0], c1[1] - c2[1])
    if d >= r1 + r2:
        return 0.0
    # Near-concentric guard: center distances far below the radius scale
    # (including subnormals) are treated as exactly concentric, keeping the
    # acos denominators away from underflow.
    if d <= abs(r1 - r2) or d <= (r1 + r2) * 1e-12:
        rmin = min(r1, r2)
        return math.pi * rmin * rmin
    # Circular-segment decomposition.
    alpha = _clamped_acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    beta = _clamped_acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    return (r1 * r1 * (alpha - math.sin(alpha) * math.cos(alpha))
            + r2 * r2 * (beta - math.sin(beta) * math.cos(beta)))


def _clamped_acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def circle_rect_area(center: Point, r: float,
                     rect: Tuple[Point, Point]) -> float:
    """Area of ``disk(center, r)`` intersected with an axis-aligned rectangle.

    *rect* is ``((xmin, ymin), (xmax, ymax))``.  Assembled by
    inclusion–exclusion over the quadrant primitive
    :func:`_quadrant_area`, after translating the circle to the origin.
    """
    if r < 0:
        raise ValueError("negative radius")
    if r == 0:
        return 0.0
    (xmin, ymin), (xmax, ymax) = rect
    if xmin > xmax or ymin > ymax:
        raise ValueError("malformed rectangle")
    x0 = xmin - center[0]
    x1 = xmax - center[0]
    y0 = ymin - center[1]
    y1 = ymax - center[1]
    area = (_quadrant_area(x1, y1, r) - _quadrant_area(x0, y1, r)
            - _quadrant_area(x1, y0, r) + _quadrant_area(x0, y0, r))
    # Inclusion-exclusion cancels digits: clamp to the bounds the exact
    # intersection obeys (a rectangle holding the whole disk read one
    # part in 10**9 above the disk's own area).
    return min(max(area, 0.0), disk_area(r), (xmax - xmin) * (ymax - ymin))


def _quadrant_area(x: float, y: float, r: float) -> float:
    """Area of ``{u^2 + v^2 <= r^2, u <= x, v <= y}``.

    Computed as ``integral over v in [-r, min(y, r)]`` of the chord width
    ``len{u : u <= x, |u| <= w(v)}`` with ``w(v) = sqrt(r^2 - v^2)``:

    * ``x >= w(v)``: full chord, width ``2 w(v)``;
    * ``-w(v) < x < w(v)``: partial chord, width ``x + w(v)``;
    * ``x <= -w(v)``: empty.

    The split points in ``v`` are ``±sqrt(r^2 - x^2)``; each piece has a
    closed-form antiderivative (``_int_w`` below is the integral of ``w``).
    """
    yc = min(y, r)
    if yc <= -r:
        return 0.0
    if x <= -r:
        return 0.0
    if x >= r:
        # Full chords throughout.
        return _int_2w(-r, yc, r)
    # |x| < r: chord type changes at v = ±vstar.
    vstar = math.sqrt(max(r * r - x * x, 0.0))
    total = 0.0
    if x >= 0:
        # Full chord for |v| >= vstar, partial for |v| < vstar.
        lo = -r
        hi = min(yc, -vstar)
        if hi > lo:
            total += _int_2w(lo, hi, r)
        lo = -vstar
        hi = min(yc, vstar)
        if hi > lo:
            total += x * (hi - lo) + _int_w(lo, hi, r)
        lo = vstar
        hi = yc
        if hi > lo:
            total += _int_2w(lo, hi, r)
    else:
        # x < 0: empty for |v| >= vstar, partial for |v| < vstar.
        lo = -vstar
        hi = min(yc, vstar)
        if hi > lo:
            total += x * (hi - lo) + _int_w(lo, hi, r)
    return total


def _int_w(lo: float, hi: float, r: float) -> float:
    """Integral of ``sqrt(r^2 - v^2)`` over ``[lo, hi]``."""
    return _anti_w(hi, r) - _anti_w(lo, r)


def _int_2w(lo: float, hi: float, r: float) -> float:
    """Integral of ``2*sqrt(r^2 - v^2)`` over ``[lo, hi]``."""
    return 2.0 * _int_w(lo, hi, r)


def _anti_w(v: float, r: float) -> float:
    v = min(r, max(-r, v))
    return 0.5 * (v * math.sqrt(max(r * r - v * v, 0.0))
                  + r * r * math.asin(v / r))
