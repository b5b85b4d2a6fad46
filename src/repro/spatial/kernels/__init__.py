"""``repro.spatial.kernels`` — the compute kernels of the hot loops.

One protocol (:class:`KernelProvider`), two implementations:

========== ==========================================================
``native``  a single C file compiled on demand with the system
            compiler and loaded through :mod:`ctypes` (no new
            dependency; same IEEE-754 operation order, so outputs are
            bitwise identical to ``numpy``)
``numpy``   the vectorized NumPy passes: the provider of hosts that
            cannot build the C file, and the bitwise oracle every test
            pins ``native`` to
========== ==========================================================

Entry points cover the library's measured single-core hot loops: the
pairwise distance matrix, the fused Eq. (2) prefix sweep, the batched
segment intersection / line-box clip kernels of the ``V_Pr`` build,
the merged-slab tree descent (``plane_locate``) of the point locator
behind ``quantify_vpr``, and the JSON writer of bulk ``quantify*``
replies (``emit_sparse_rows``).

Which provider runs is a fact about the host, not a setting: the
engines call :func:`get_provider` with no name and get ``native`` when
``_kernels.c`` builds here, else ``numpy``.  The build is attempted once
per process and its outcome cached (forked pool workers inherit it).
The compiler and cache paths are deployment settings of
:mod:`.build` (``REPRO_KERNEL_CC``, ``REPRO_KERNEL_CACHE``).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Protocol, Tuple

import numpy as np

from .build import BuildError, compile_info
from .numpy_provider import NumpyProvider

__all__ = [
    "KernelProvider",
    "get_provider",
    "kernel_status",
    "native_available",
    "native_error",
    "provider_status",
]


class KernelProvider(Protocol):
    """The flat-array entry points every provider implements.

    All providers return bitwise-identical outputs on the lanes each
    contract specifies.  Chunk planning stays with the calling engines;
    everything inside a chunk's Eq. (2) prefix — selection, ordering,
    gathers, the step loop and the prefix widening — is one
    ``sweep_eq2`` call, so the native provider runs it without NumPy
    glue.
    """

    name: str

    def distance_matrix(self, qx: np.ndarray, qy: np.ndarray,
                        px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """``(m, n)`` pairwise ``sqrt(dx*dx + dy*dy)`` distances."""

    def sweep_eq2(self, d: np.ndarray, parent: np.ndarray,
                  weight: np.ndarray, totals: np.ndarray, n: int,
                  tie_tol: float, width: int) -> Tuple[np.ndarray, int]:
        """The fused Eq. (2) prefix of one chunk.

        For each of the ``(r, N)`` unordered distance rows: select the
        ``width`` smallest (distance, flat site index) keys, order them,
        gather ``parent`` / ``weight``, sweep; re-sweep a row still live
        at the prefix end ``4x`` wider, the last pass (``width >= N``)
        being the full sort.  Returns the ``(r, n)`` quantification rows
        and the number of row re-sweeps."""

    def emit_sparse_rows(self, mat: np.ndarray, positive: bool) -> bytes:
        """The JSON fragment of the ``{j: v}`` rows of an ``(m, n)``
        answer matrix over the entries ``> 0.0`` (*positive*) or ``!= 0``
        — byte for byte ``json.dumps(sparse_rows(...))[1:-1]``, ``NaN``
        and ``Infinity`` spelled as ``json`` spells them."""

    def segment_intersections(self, ax, ay, bx, by, I, J, tol: float):
        """Batched segment-pair intersection ``(px, py, hit)``."""

    def line_box_clip(self, A, B, C, box, eps: float):
        """Batched Liang–Barsky line-box clip ``(segs, valid)``."""

    def plane_locate(self, qx, qy, xs, offs, ent_u, ent_v, vx, vy,
                     leaf_base):
        """Merged-slab tree descent ``(best, found)`` for the point
        locator (:mod:`repro.spatial.planelocate`)."""


_lock = threading.Lock()
_numpy: Optional[NumpyProvider] = None
#: Cached native provider, or the BuildError that prevented one.
_native: object = None


def _numpy_provider() -> NumpyProvider:
    global _numpy
    with _lock:
        if _numpy is None:
            _numpy = NumpyProvider()
        return _numpy


def _native_provider():
    """The native provider instance or the cached :class:`BuildError`."""
    global _native
    with _lock:
        if _native is None:
            from .native_provider import NativeProvider

            try:
                _native = NativeProvider()
            except (BuildError, OSError) as exc:
                _native = exc if isinstance(exc, BuildError) \
                    else BuildError(f"native kernel load failed: {exc}")
        return _native


def native_available() -> bool:
    """Whether this host can build and load the native library."""
    return not isinstance(_native_provider(), BuildError)


def native_error() -> Optional[str]:
    """Why the native provider is unavailable (``None`` when it works)."""
    native = _native_provider()
    return str(native) if isinstance(native, BuildError) else None


def get_provider(name: str = "auto") -> KernelProvider:
    """This host's provider, or (by name) one provider for parity tests.

    ``"auto"`` — what every engine asks for — is ``native`` when the
    host builds the library, else ``numpy``.  ``"numpy"`` and
    ``"native"`` fetch that provider directly; ``"native"`` raises
    :class:`~repro.spatial.kernels.build.BuildError` on a host that
    cannot build it.
    """
    if name == "numpy":
        return _numpy_provider()
    if name not in ("auto", "native"):
        raise ValueError(f"unknown kernel provider {name!r}; expected "
                         f"'auto', 'native' or 'numpy'")
    native = _native_provider()
    if not isinstance(native, BuildError):
        return native
    if name == "native":
        raise BuildError(str(native))
    return _numpy_provider()


def provider_status() -> Dict[str, object]:
    """The provider this process resolved, for ``/healthz`` (read from
    the cached lookup: no compiler probe, no source hash)."""
    return {"resolved": get_provider().name,
            "native_available": native_available(),
            "native_error": native_error()}


def kernel_status() -> Dict[str, object]:
    """:func:`provider_status` plus compiler discovery and the library
    path: the report of ``python -m repro kernels``."""
    status = provider_status()
    status.update(compile_info())
    return status


def _reset_for_tests() -> None:
    """Drop cached providers so the next lookup re-resolves under the
    current ``REPRO_KERNEL_CC`` / ``REPRO_KERNEL_CACHE`` (test hook)."""
    global _numpy, _native
    with _lock:
        _numpy = None
        _native = None
