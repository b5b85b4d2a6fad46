"""Flat-array codec for uncertain-point sets (the shared-memory wire format).

The serving layer's process backends ship every worker its own read-only
replica of the index.  Pickling the model objects works, but each worker
then receives its own copy of the whole object graph through a pipe.  This
module flattens a point set into a handful of **plain float64/int64 NumPy
arrays** — a representation that can live in one
:mod:`multiprocessing.shared_memory` segment which every worker maps
instead of receiving a private pickled stream
(:class:`~repro.serving.executors.shm.SharedMemoryBackend`), and that also
makes a compact persistence format.

Round-tripping is **bitwise faithful**: decoding reproduces each model's
stored floats exactly (no re-normalization — a decoded
:class:`~repro.uncertain.histogram.HistogramUncertainPoint` carries the
original normalized cell weights, not weights divided by their ≈1.0 sum a
second time), so every query answered by a decoded replica returns the
same bits as the original index.  Derived structures (cumulative tables,
convex hulls, fan triangulations) are rebuilt from those identical floats
by the same arithmetic, hence land on identical values.

Layout (``n`` points, ``T`` total variable-length rows)::

    types    (n,)   int64    model tag (_CODE_* below)
    scalars  (n, 4) float64  per-model scalar params (centers, radii, ...)
    aux      (n,)   int64    integer param (Gaussian quadrature order)
    offsets  (n+1,) int64    row range [offsets[i], offsets[i+1]) in ``rows``
    rows     (T, 3) float64  per-model rows: discrete sites ``(x, y, w)``,
                             histogram cells ``(i, j, w)``, polygon
                             vertices ``(x, y, 0)``; disk-family models
                             have empty ranges

Only the built-in model classes are encodable — and only *exactly* those
classes: a subclass may override behaviour the arrays cannot carry, so it
raises :class:`CodecUnsupported` (the same exact-type convention the batch
kernels use).  Callers that must handle arbitrary models catch it and fall
back to pickling.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..uncertain.annulus import AnnulusUniformPoint
from ..uncertain.base import UncertainPoint
from ..uncertain.discrete import DiscreteUncertainPoint
from ..uncertain.disk_uniform import DiskUniformPoint
from ..uncertain.gaussian import TruncatedGaussianPoint
from ..uncertain.histogram import HistogramUncertainPoint
from ..uncertain.polygon import ConvexPolygonUniformPoint

__all__ = ["CodecUnsupported", "points_to_arrays", "points_from_arrays",
           "ARRAY_KEYS", "PLANE_ARRAY_KEYS", "PLANE_KEY_PREFIX",
           "check_plane_arrays", "plane_to_arrays", "plane_from_arrays"]

#: The arrays every encoded point set consists of, in a fixed order (the
#: shared-memory backend packs them into one segment in this order).
ARRAY_KEYS = ("types", "scalars", "aux", "offsets", "rows")

#: The arrays of an encoded V_Pr plane (``plane_to_arrays``), in a fixed
#: order.  ``meta`` is ``(version, leaf_base, n_points, n_slabs,
#: n_vertices, n_entries, n_faces)``; the rest are the persistent
#: locator's flat arrays plus the face quantification matrix and the
#: query window — everything a worker needs to serve ``quantify_vpr``
#: without rebuilding the diagram.
PLANE_ARRAY_KEYS = ("meta", "xs", "offs", "ent_u", "ent_v", "ent_row",
                    "vx", "vy", "faces", "box")

#: Manifest-key prefix under which the plane arrays ride in the same
#: shared-memory segment as the index arrays (``executors/shm.py``).
PLANE_KEY_PREFIX = "plane:"

#: Expected dtype per plane array (shape checks are in
#: ``check_plane_arrays``).
_PLANE_DTYPES = {
    "meta": np.int64, "xs": np.float64, "offs": np.int64,
    "ent_u": np.int64, "ent_v": np.int64, "ent_row": np.int64,
    "vx": np.float64, "vy": np.float64, "faces": np.float64,
    "box": np.float64,
}

_CODE_DISK = 0
_CODE_GAUSSIAN = 1
_CODE_ANNULUS = 2
_CODE_DISCRETE = 3
_CODE_HISTOGRAM = 4
_CODE_POLYGON = 5


class CodecUnsupported(TypeError):
    """The point set contains a model the array codec cannot carry."""


def points_to_arrays(points: Sequence[UncertainPoint]
                     ) -> Dict[str, np.ndarray]:
    """Encode *points* into the flat-array form (see module docstring)."""
    if not points:
        raise ValueError("cannot encode an empty point set")
    n = len(points)
    types = np.zeros(n, dtype=np.int64)
    scalars = np.zeros((n, 4), dtype=np.float64)
    aux = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    row_chunks: List[np.ndarray] = []
    total = 0
    for i, p in enumerate(points):
        # Exact type checks: subclasses may override behaviour that the
        # arrays cannot represent (same convention as the batch kernels).
        cls = type(p)
        if cls is DiskUniformPoint:
            types[i] = _CODE_DISK
            scalars[i, :3] = (p.center[0], p.center[1], p.radius)
        elif cls is TruncatedGaussianPoint:
            types[i] = _CODE_GAUSSIAN
            scalars[i] = (p.center[0], p.center[1], p.sigma,
                          p.support_radius)
            aux[i] = p._order
        elif cls is AnnulusUniformPoint:
            types[i] = _CODE_ANNULUS
            scalars[i] = (p.center[0], p.center[1], p.r_inner, p.r_outer)
        elif cls is DiscreteUncertainPoint:
            types[i] = _CODE_DISCRETE
            chunk = np.empty((p.k, 3), dtype=np.float64)
            chunk[:, :2] = p.points
            chunk[:, 2] = p.weights
            row_chunks.append(chunk)
            total += p.k
        elif cls is HistogramUncertainPoint:
            types[i] = _CODE_HISTOGRAM
            scalars[i] = (p.origin[0], p.origin[1], p.cell_width,
                          p.cell_height)
            chunk = np.empty((len(p._cells), 3), dtype=np.float64)
            chunk[:, :2] = p._cells
            chunk[:, 2] = p._weights
            row_chunks.append(chunk)
            total += len(p._cells)
        elif cls is ConvexPolygonUniformPoint:
            types[i] = _CODE_POLYGON
            chunk = np.zeros((len(p.vertices), 3), dtype=np.float64)
            chunk[:, :2] = p.vertices
            row_chunks.append(chunk)
            total += len(p.vertices)
        else:
            raise CodecUnsupported(
                f"point {i} has un-encodable type {cls.__name__}; the "
                "array codec carries exactly the built-in model classes")
        offsets[i + 1] = total
    rows = (np.concatenate(row_chunks, axis=0) if row_chunks
            else np.empty((0, 3), dtype=np.float64))
    return {"types": types, "scalars": scalars, "aux": aux,
            "offsets": offsets, "rows": rows}


def points_from_arrays(arrays: Dict[str, np.ndarray]
                       ) -> List[UncertainPoint]:
    """Decode the flat-array form back into model objects (bitwise)."""
    types = arrays["types"]
    scalars = arrays["scalars"]
    aux = arrays["aux"]
    offsets = arrays["offsets"]
    rows = arrays["rows"]
    out: List[UncertainPoint] = []
    for i, code in enumerate(types.tolist()):
        s = scalars[i]
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        if code == _CODE_DISK:
            out.append(DiskUniformPoint((s[0], s[1]), s[2]))
        elif code == _CODE_GAUSSIAN:
            out.append(TruncatedGaussianPoint(
                (s[0], s[1]), s[2], s[3], quadrature_order=int(aux[i])))
        elif code == _CODE_ANNULUS:
            out.append(AnnulusUniformPoint((s[0], s[1]), s[2], s[3]))
        elif code == _CODE_DISCRETE:
            chunk = rows[lo:hi]
            # The stored weights are already normalized; normalize=False
            # keeps them bitwise (a second w / sum(w) pass would not).
            out.append(DiscreteUncertainPoint(
                [(x, y) for x, y, _ in chunk.tolist()],
                chunk[:, 2].tolist(), normalize=False))
        elif code == _CODE_HISTOGRAM:
            chunk = rows[lo:hi]
            # normalize=False keeps the stored normalized weights bitwise
            # (a second w / sum(w) pass would not).
            out.append(HistogramUncertainPoint.from_cells(
                (s[0], s[1]), s[2], s[3],
                [(int(i), int(j)) for i, j in chunk[:, :2].tolist()],
                chunk[:, 2].tolist(), normalize=False))
        elif code == _CODE_POLYGON:
            out.append(ConvexPolygonUniformPoint(
                [(x, y) for x, y, _ in rows[lo:hi].tolist()]))
        else:
            raise ValueError(f"unknown model tag {code} at point {i}")
    return out


# ----------------------------------------------------------------------
# The V_Pr shared-plane extension: the *built* diagram — persistent
# locator arrays plus face quantification vectors — as the same kind of
# flat float64/int64 arrays, so it can ride in the shared-memory
# segment (or a pickled payload) next to the encoded index and be
# served by workers that never pay the Theta(N^4) build.
# ----------------------------------------------------------------------

def check_plane_arrays(arrays: Dict[str, np.ndarray]) -> None:
    """Validate a plane-array dict's keys, dtypes, and cross shapes.

    Raises ``ValueError`` on a malformed dict.  Decoding is otherwise
    zero-copy, so this is the only guard between a (possibly truncated
    or reordered) segment and out-of-bounds gathers at query time.
    """
    for key in PLANE_ARRAY_KEYS:
        if key not in arrays:
            raise ValueError(f"plane arrays missing {key!r}")
        a = arrays[key]
        if a.dtype != _PLANE_DTYPES[key]:
            raise ValueError(f"plane array {key!r} has dtype {a.dtype}, "
                             f"expected {_PLANE_DTYPES[key].__name__}")
    meta = arrays["meta"]
    if meta.shape != (7,):
        raise ValueError(f"plane meta has shape {meta.shape}, expected (7,)")
    _, leaf_base, _, n_slabs, n_vertices, n_entries, n_faces = \
        (int(v) for v in meta)
    if leaf_base < 1 or (leaf_base & (leaf_base - 1)) != 0:
        raise ValueError(f"plane leaf_base {leaf_base} is not a power of 2")
    if leaf_base < n_slabs:
        raise ValueError(f"plane leaf_base {leaf_base} < {n_slabs} slabs")
    checks = (
        ("xs", (n_slabs + 1,) if n_slabs else (len(arrays["xs"]),)),
        ("offs", (2 * leaf_base + 1,)),
        ("ent_u", (n_entries,)), ("ent_v", (n_entries,)),
        ("ent_row", (n_entries,)),
        ("vx", (n_vertices,)), ("vy", (n_vertices,)),
        ("box", (2, 2)),
    )
    for key, shape in checks:
        if arrays[key].shape != shape:
            raise ValueError(f"plane array {key!r} has shape "
                             f"{arrays[key].shape}, expected {shape}")
    faces = arrays["faces"]
    if faces.ndim != 2 or faces.shape[0] != n_faces:
        raise ValueError(f"plane faces has shape {faces.shape}, "
                         f"expected ({n_faces}, n)")
    if n_entries:
        offs = arrays["offs"]
        if int(offs[0]) != 0 or int(offs[-1]) > n_entries or \
                np.any(np.diff(offs) < 0):
            raise ValueError("plane offs is not a monotone prefix-sum "
                             "within the entry range")
        for key in ("ent_u", "ent_v"):
            a = arrays[key]
            if int(a.min()) < 0 or int(a.max()) >= n_vertices:
                raise ValueError(f"plane {key!r} indexes outside the "
                                 "vertex arrays")
        er = arrays["ent_row"]
        if int(er.min()) < -1 or int(er.max()) >= max(n_faces, 1):
            raise ValueError("plane ent_row indexes outside the face matrix")


def plane_to_arrays(vpr) -> Dict[str, np.ndarray]:
    """Encode a built diagram's plane (validated); see ``to_plane_arrays``.

    Raises :class:`CodecUnsupported` for diagrams the plane layout
    cannot carry (non-discrete site models).
    """
    arrays = vpr.to_plane_arrays()
    check_plane_arrays(arrays)
    return arrays


def plane_from_arrays(arrays: Dict[str, np.ndarray], points,
                      kernel: str = "auto"):
    """Decode plane arrays into a served diagram (zero-copy attach).

    Returns a :class:`~repro.voronoi.vpr.SharedPlaneDiagram` over
    *points* (the worker's own decoded replica of the uncertain points)
    whose answers are bitwise the building diagram's.
    """
    from ..voronoi.vpr import SharedPlaneDiagram

    return SharedPlaneDiagram(points, arrays, kernel=kernel)
