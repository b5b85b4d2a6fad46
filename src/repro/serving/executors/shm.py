"""The shared-memory executor backend (workers map one replica segment).

The process backend ships every worker its own pickled copy of the point
set through a pipe — at ``n`` points and ``w`` workers that is ``w``
serializations, ``w`` pipe transfers, and ``w`` private heap copies of
the same read-only data.  This backend moves the data once: the point set
is flattened by the array codec (:mod:`repro.spatial.codec`) into a few
contiguous NumPy arrays, the arrays are packed into **one**
:mod:`multiprocessing.shared_memory` segment, and each worker process
maps that segment zero-copy (the only thing pickled per worker is the
segment name plus a tiny array manifest) and decodes its replica from
the mapped views.

Execution is byte-for-byte the process backend's: the same worker entry
point answers the same chunk tasks against an
:class:`~repro.serving.executors.base.IndexReplica`, so results stay
bitwise identical to every other backend.  Only the *transport* of the
replica data differs.  That includes tracing: traced 4-tuple tasks flow
through the shared ``_run_chunk`` -> ``run_task`` path, so worker-side
compute spans ship back from shm workers exactly as from process ones.

The codec carries exactly the built-in model classes; an index holding a
user-defined model raises
:class:`~repro.serving.executors.base.BackendUnavailable` here and the
factory falls back to the pickled process backend.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ...spatial.codec import PLANE_KEY_PREFIX, CodecUnsupported, \
    points_from_arrays, points_to_arrays
from ...uncertain.base import UncertainPoint
from .base import BackendUnavailable, ExecutorBackend, IndexReplica
from .process import PoolWorkersMixin, _set_replica, start_pool

__all__ = ["SharedMemoryBackend"]

#: ``(key, dtype str, shape, byte offset)`` per array in the segment.
Manifest = Tuple[Tuple[str, str, Tuple[int, ...], int], ...]

_ALIGN = 16

# Worker-process global: the mapped segment kept alive for the lifetime
# of a plane-serving worker — the attached SharedPlaneDiagram answers
# from zero-copy views into it, so the mapping must outlive every query.
_PLANE_SEGMENT = None


def pack_arrays(arrays: Dict[str, np.ndarray]
                ) -> Tuple[shared_memory.SharedMemory, Manifest]:
    """Copy *arrays* into one new shared-memory segment; return a manifest."""
    entries = []
    offset = 0
    for key, arr in arrays.items():
        offset = -(-offset // _ALIGN) * _ALIGN  # round up to alignment
        entries.append((key, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    except (OSError, ValueError) as exc:
        raise BackendUnavailable(f"cannot create shared memory: {exc}")
    for (key, dtype, shape, off), arr in zip(entries, arrays.values()):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = arr
        del view  # release the buffer reference before any close()
    return shm, tuple(entries)


def unpack_arrays(buf, manifest: Manifest) -> Dict[str, np.ndarray]:
    """Rebuild the array dict as zero-copy views over a mapped segment."""
    return {key: np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
            for key, dtype, shape, off in manifest}


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership of it.

    The parent owns the segment's lifetime; an attaching worker must not
    let *its* resource tracker register the segment — a forked worker
    shares the parent's tracker (so a later unregister would steal the
    parent's registration), and a spawned worker's private tracker would
    unlink the segment when the worker exits.  Python 3.13+ has
    ``track=False`` for exactly this; earlier versions get the bpo-38119
    workaround of suppressing registration around the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(res_name, rtype):
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _init_shm_worker(name: str, manifest: Manifest,
                     kernel: str = "auto") -> None:
    """Pool initializer: decode this worker's replica from the segment.

    The decoded models own their data (the codec materializes Python
    lists and fresh arrays), so for a plain replica the mapping is
    released again right after decoding — workers keep no handle on the
    segment.  When the manifest carries V_Pr plane arrays
    (:data:`~repro.spatial.codec.PLANE_KEY_PREFIX`-prefixed keys), the
    attached :class:`~repro.voronoi.vpr.SharedPlaneDiagram` answers from
    **zero-copy views** into the segment, so the worker keeps the
    mapping open for its lifetime instead (:data:`_PLANE_SEGMENT`) — the
    shared-plane transport ships the face vectors and locator arrays to
    every worker without a single per-worker copy.  *kernel* names the
    compute provider the replica resolves in this process (see
    :mod:`repro.spatial.kernels`).
    """
    global _PLANE_SEGMENT
    shm = _attach(name)
    keep_mapped = False
    try:
        arrays = unpack_arrays(shm.buf, manifest)
        plane = {key[len(PLANE_KEY_PREFIX):]: arr
                 for key, arr in arrays.items()
                 if key.startswith(PLANE_KEY_PREFIX)}
        points = points_from_arrays(
            {key: arr for key, arr in arrays.items()
             if not key.startswith(PLANE_KEY_PREFIX)})
        keep_mapped = bool(plane)
        if keep_mapped:
            _PLANE_SEGMENT = shm
        _set_replica(IndexReplica(points, kernel=kernel,
                                  plane=plane or None))
    finally:
        if not keep_mapped:
            shm.close()


class SharedMemoryBackend(PoolWorkersMixin, ExecutorBackend):
    """Worker processes decoding replicas from one shared segment."""

    mode = "shm"

    def __init__(self, points: Sequence[UncertainPoint],
                 workers: int,
                 kernel: str = "auto",
                 plane: Optional[Dict[str, np.ndarray]] = None) -> None:
        super().__init__()
        # Both resource slots exist before anything can fail, so the
        # teardown path (close(), or __del__ after a half-built
        # constructor) never trips on a missing attribute.
        self._shm = None
        self._pool = None
        self.workers = int(workers)
        self._kernel = kernel
        self.serves_plane = plane is not None
        try:
            arrays = points_to_arrays(points)
        except CodecUnsupported as exc:
            raise BackendUnavailable(str(exc))
        if plane is not None:
            # The plane arrays share the point segment under prefixed
            # manifest keys: one pack, one mapping, and every worker's
            # SharedPlaneDiagram reads the locator + face vectors as
            # zero-copy views — the build-once plane is never copied.
            for key, arr in plane.items():
                arrays[PLANE_KEY_PREFIX + key] = arr
        self._shm, self._manifest = pack_arrays(arrays)
        self.segment_bytes = self._shm.size
        try:
            self._pool, self.start_method = self._start_pool()
        except BackendUnavailable:
            self._release_segment()
            raise
        self._snapshot_workers()

    def _start_pool(self):
        # Rebuild reuses the live segment: the replica data is read-only
        # and outlives any worker, so a healed pool re-maps the same
        # bytes — no re-encode, no second copy.
        return start_pool(self.workers, self.start_method, _init_shm_worker,
                          (self._shm.name, self._manifest, self._kernel))

    def _release_segment(self) -> None:
        # Claim the handle *before* touching the kernel object: close()
        # and __del__ can both land here, and the segment must be
        # unlinked exactly once — a second unlink of a name the OS may
        # have re-issued would destroy someone else's segment.  close()
        # and unlink() are attempted independently so a failing munmap
        # can never leak the named segment behind it.
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except (OSError, ValueError):  # pragma: no cover — already gone
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
        self._shm = None

    def _close_impl(self) -> None:
        # The segment is released in a finally so it cannot leak even
        # when pool teardown is interrupted (an HTTP server killed
        # mid-request delivers KeyboardInterrupt into join()); on that
        # interrupted path the pool is terminated rather than joined so
        # shutdown never blocks on a worker mid-chunk.
        pool, self._pool = self._pool, None
        try:
            if pool is not None:
                try:
                    pool.close()
                    pool.join()
                except BaseException:
                    pool.terminate()
                    raise
        finally:
            self._release_segment()
