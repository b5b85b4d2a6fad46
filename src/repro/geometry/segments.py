"""Segment and line intersection predicates — scalar and batched.

Substrate for the segment-arrangement module (used by the probabilistic
Voronoi diagram ``V_Pr`` of Theorem 4.2, whose edges are pieces of bisector
lines clipped to a bounding box).

The batched kernels (:func:`segment_intersections_batch`,
:func:`line_box_clip_batch`) evaluate the *same* IEEE-754 expression
sequences as their scalar counterparts — element-wise over NumPy arrays,
or row-scalar in the compiled native provider, both served through
:mod:`repro.spatial.kernels` — with identical tolerance comparisons.
That makes their outputs **bitwise identical** to a scalar loop — the
property the vectorized arrangement build relies on to reproduce the
scalar arrangement's combinatorics exactly (same convention as the batch
query engines; see ``repro.geometry.primitives.dist``).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .primitives import EPS, Point, cross, sub

__all__ = [
    "segment_intersection",
    "segment_intersections_batch",
    "line_box_clip",
    "line_box_clip_batch",
    "bisector_line",
    "point_on_segment",
]


def point_on_segment(p: Point, a: Point, b: Point, tol: float = 1e-9) -> bool:
    """Whether *p* lies on segment ``ab`` (within tolerance)."""
    ab = sub(b, a)
    ap = sub(p, a)
    span = max(1.0, abs(ab[0]) + abs(ab[1]))
    if abs(cross(ab, ap)) > tol * span * span:
        return False
    t = (ap[0] * ab[0] + ap[1] * ab[1])
    return -tol * span * span <= t <= ab[0] * ab[0] + ab[1] * ab[1] + tol * span * span


def segment_intersection(a: Point, b: Point, c: Point, d: Point,
                         tol: float = EPS) -> Optional[Point]:
    """The single proper or touching intersection of segments ``ab``, ``cd``.

    Returns ``None`` when the segments miss each other or are parallel
    (collinear overlap is treated as degenerate and reported as ``None``;
    the arrangement code never feeds overlapping collinear segments —
    duplicate bisectors are deduplicated upstream).
    """
    r = sub(b, a)
    s = sub(d, c)
    denom = cross(r, s)
    span = max(1.0, abs(r[0]) + abs(r[1]), abs(s[0]) + abs(s[1]))
    if abs(denom) <= tol * span * span:
        return None
    qp = sub(c, a)
    t = cross(qp, s) / denom
    u = cross(qp, r) / denom
    slack = 1e-12
    if -slack <= t <= 1.0 + slack and -slack <= u <= 1.0 + slack:
        return (a[0] + t * r[0], a[1] + t * r[1])
    return None


def segment_intersections_batch(ax, ay, bx, by, I, J, tol: float = EPS):
    """Batched :func:`segment_intersection` for segment pairs ``(I[p], J[p])``.

    ``ax/ay/bx/by`` are the ``(S,)`` endpoint coordinate arrays of a segment
    set; ``I``/``J`` index the pairs to intersect.  Returns ``(px, py, hit)``
    where ``hit[p]`` is true exactly when the scalar call would return a
    point, and ``(px[p], py[p])`` is that point bit-for-bit (the provider
    expressions and tolerance comparisons mirror the scalar code line by
    line; entries with ``hit == False`` are unspecified).
    """
    # Imported lazily: repro.spatial pulls in the arrangement module,
    # which imports this one back.
    from ..spatial.kernels import get_provider

    return get_provider().segment_intersections(
        ax, ay, bx, by, I, J, tol)


def bisector_line(p: Point, q: Point) -> Tuple[float, float, float]:
    """Coefficients ``(a, b, c)`` of the perpendicular bisector ``ax+by=c``.

    The bisector of distinct points ``p`` and ``q``; these are exactly the
    lines whose arrangement refines the probabilistic Voronoi diagram
    ``V_Pr`` in Lemma 4.1 (each pair of possible site locations contributes
    one bisector).
    """
    if p == q:
        raise ValueError("bisector of identical points is undefined")
    a = 2.0 * (q[0] - p[0])
    b = 2.0 * (q[1] - p[1])
    # x*x rather than x**2: one correctly-rounded multiply, which the
    # batched bisector construction reproduces bitwise (C pow(x, 2.0) is
    # not guaranteed to equal x*x on every libm).
    c = (q[0] * q[0] + q[1] * q[1]) - (p[0] * p[0] + p[1] * p[1])
    return (a, b, c)


def line_box_clip(a: float, b: float, c: float,
                  box: Tuple[Point, Point]) -> Optional[Tuple[Point, Point]]:
    """Clip the line ``a*x + b*y = c`` to an axis-aligned box.

    Returns the clipped segment endpoints or ``None`` if the line misses
    the box.  Uses a parametric (Liang–Barsky style) clip of a long segment
    aligned with the line direction.
    """
    (xmin, ymin), (xmax, ymax) = box
    # sqrt(a*a + b*b) rather than math.hypot: the batched clip kernel
    # evaluates the same correctly-rounded form, which keeps the two paths
    # bitwise identical (hypot rounds differently on ~1% of inputs).
    norm = math.sqrt(a * a + b * b)
    if norm <= EPS:
        raise ValueError("degenerate line coefficients")
    # Point on the line closest to the box center, and the line direction.
    cx = 0.5 * (xmin + xmax)
    cy = 0.5 * (ymin + ymax)
    offset = (a * cx + b * cy - c) / (norm * norm)
    px = cx - offset * a
    py = cy - offset * b
    dx = -b / norm
    dy = a / norm
    # Parametric clipping of p + t*d against the four box walls.
    t0 = -math.inf
    t1 = math.inf
    for coord, d, lo, hi in ((px, dx, xmin, xmax), (py, dy, ymin, ymax)):
        if abs(d) <= EPS:
            if coord < lo - EPS or coord > hi + EPS:
                return None
            continue
        ta = (lo - coord) / d
        tb = (hi - coord) / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
    if t0 >= t1:
        return None
    return ((px + t0 * dx, py + t0 * dy), (px + t1 * dx, py + t1 * dy))


def line_box_clip_batch(A, B, C, box: Tuple[Point, Point]):
    """Batched :func:`line_box_clip` over coefficient arrays ``A, B, C``.

    Returns ``(segs, valid)`` where ``segs`` is a ``(k, 4)`` array of
    ``(x1, y1, x2, y2)`` rows and ``valid[i]`` is true exactly when the
    scalar clip would return a segment; valid rows are bit-for-bit the
    scalar endpoints (same expression sequence, same wall order, same
    comparison tolerances).  Raises on degenerate coefficient rows, as the
    scalar kernel does.
    """
    from ..spatial.kernels import get_provider

    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    shape = A.shape
    segs, valid = get_provider().line_box_clip(
        A.ravel(), B.ravel(), C.ravel(), box, EPS)
    return segs.reshape(shape + (4,)), valid.reshape(shape)
