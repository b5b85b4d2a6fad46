"""The multiprocessing-pool executor backend (pickled worker replicas).

The original ``ShardExecutor`` execution engine, refactored onto the
:class:`~repro.serving.executors.base.ExecutorBackend` protocol: a
:mod:`multiprocessing` pool whose initializer builds, once per worker,
a private :class:`~repro.serving.executors.base.IndexReplica` from the
pickled uncertain points.  ``Pool.map`` preserves submission order, so
per-chunk answers come back already in query order.

Replicas are built from the same points with the same seeds, so every
worker computes exactly the parent's numbers — sharded output is bitwise
identical to the unsharded batch call.

The worker-process globals here (:data:`_REPLICA`, :func:`_run_chunk`,
:func:`_set_replica`) are shared with the shared-memory backend, which
swaps only the *transport* (a mapped segment instead of a pickle stream)
and reuses the same execution entry point.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import pickle
import threading
from typing import List, Optional, Sequence, Tuple

from ...uncertain.base import UncertainPoint
from .base import BackendUnavailable, ExecutorBackend, IndexReplica, \
    PendingChunk, Task

__all__ = ["ProcessBackend"]

# Worker-process global: the replica built once by the pool initializer.
_REPLICA: Optional[IndexReplica] = None


def _set_replica(replica: IndexReplica) -> None:
    """Install this worker process's replica (shared with the shm backend)."""
    global _REPLICA
    _REPLICA = replica


def _init_worker(payload: bytes, kernel: str = "auto",
                 plane=None) -> None:
    """Pool initializer: build this worker's replica from pickled points.

    *kernel* names the compute provider the replica resolves in this
    process (the compiled native library, when selected, loads once per
    worker via the build cache) — providers are bitwise-identical, so a
    worker degrading to NumPy still answers the exact same bytes.

    *plane* is an optional dict of flat V_Pr plane arrays
    (:func:`repro.spatial.codec.plane_to_arrays`): when present the
    replica attaches a :class:`~repro.voronoi.vpr.SharedPlaneDiagram`
    over them and forbids any lazy diagram build, so ``quantify_vpr``
    chunks are answered from the parent's build-once plane.
    """
    _set_replica(IndexReplica(pickle.loads(payload), kernel=kernel,
                              plane=plane))


def _run_chunk(task) -> object:
    """Top-level (picklable) worker entry: answer one chunk.

    Routes through :meth:`IndexReplica.run_task`, so traced 4-tuple
    tasks come back as ``(result, worker_span_dict)`` pairs — the span
    dict (plain picklable types only) rides the normal pool result pipe.
    """
    assert _REPLICA is not None, "worker initializer did not run"
    return _REPLICA.run_task(task)


def start_pool(workers: int, preferred: Optional[str],
               initializer, initargs) -> Tuple[object, str]:
    """Start a worker pool, trying start methods in preference order.

    *preferred* (the method a rebuilt pool started with last time) goes
    first; then ``fork`` (cheapest), ``forkserver`` and ``spawn``.  An
    unavailable or failing method falls through to the next.  Raises :class:`BackendUnavailable` when none starts — shared
    by the process and shared-memory backends.
    """
    tried = [preferred] if preferred else []
    tried += [m for m in ("fork", "forkserver", "spawn") if m not in tried]
    available = multiprocessing.get_all_start_methods()
    errors: List[str] = []
    for method in tried:
        if method not in available:
            continue
        try:
            ctx = multiprocessing.get_context(method)
            pool = ctx.Pool(workers, initializer=initializer,
                            initargs=initargs)
        except (OSError, ValueError, ImportError, RuntimeError) as exc:
            errors.append(f"{method}: {exc}")
            continue
        return pool, method
    raise BackendUnavailable(
        "no multiprocessing start method could start a pool"
        + (f" ({'; '.join(errors)})" if errors else ""))


class _PoolPending(PendingChunk):
    """A chunk in flight on a :mod:`multiprocessing` pool.

    Wraps the ``AsyncResult`` of ``apply_async``.  If the worker holding
    the chunk dies, the result never becomes ready — by design the
    handle stays pending forever and the caller's broken-pool detection
    (:meth:`PoolWorkersMixin.broken`) decides to abandon it.
    """

    __slots__ = ("_res",)

    def __init__(self, res) -> None:
        self._res = res

    def ready(self) -> bool:
        return self._res.ready()

    def result(self) -> object:
        return self._res.get(0)

    def wait(self, timeout: float) -> bool:
        self._res.wait(timeout)
        return self._res.ready()


def _dispose(pool, timeout: float = 2.0) -> bool:
    """Tear *pool* down without ever wedging the caller.

    A worker killed at an arbitrary point can die holding either of the
    pool's worker-side queue locks: ``inqueue._rlock`` (blocked reading
    the next task) or ``outqueue._wlock`` (mid-write of a result).  A
    plain ``Pool.terminate`` then deadlocks — ``_help_stuff_finish``
    acquiring the orphaned read lock, or the sentinel ``put(None)``
    acquiring the orphaned write lock.  Nothing dispatched to this pool
    is wanted any more (rebuild and abort both re-dispatch elsewhere),
    so:

    1. stop the pool's respawner, kill whatever workers remain, reap
       them, and force-release any lock a corpse still holds;
    2. run ``terminate()`` on a daemon thread with a bounded wait — a
       worker killed *mid-frame* can additionally wedge the result
       handler on a truncated pipe message, which no lock repair can
       fix; an abandoned teardown leaks only daemonic handler threads.

    Returns ``True`` when the teardown completed within *timeout*.
    """
    try:  # stop _handle_workers respawning what we are about to kill
        pool._worker_handler._state = multiprocessing.pool.TERMINATE
    except Exception:  # pragma: no cover — private API drifted
        pass
    procs = list(getattr(pool, "_pool", None) or ())
    for p in procs:
        try:
            if p.exitcode is None:
                p.kill()
        except Exception:  # pragma: no cover — already reaped
            pass
    for p in procs:
        try:
            p.join(1.0)
        except Exception:  # pragma: no cover — already reaped
            pass
    for lock in (getattr(getattr(pool, "_inqueue", None), "_rlock", None),
                 getattr(getattr(pool, "_outqueue", None), "_wlock", None)):
        if lock is None:  # pragma: no cover — platform variation
            continue
        try:
            # Workers are dead, so an unacquirable lock can only be an
            # orphaned hold by a corpse: release() repairs it.  (When it
            # was free, the acquire-release pair is a no-op.)
            lock.acquire(block=False)
            lock.release()
        except Exception:  # pragma: no cover — semaphore torn down
            pass
    done = threading.Event()

    def _terminate() -> None:
        try:
            pool.terminate()
        except Exception:  # pragma: no cover — already torn down
            pass
        done.set()

    threading.Thread(target=_terminate, daemon=True,
                     name="repro-pool-reaper").start()
    return done.wait(timeout)


class PoolWorkersMixin:
    """Dispatch + self-healing shared by the process and shm backends.

    Expects the concrete class to keep the live pool in ``self._pool``
    and to implement :meth:`_start_pool` (build a fresh pool from the
    retained initializer state).  Worker death is detected by pid-set
    churn: a snapshot of the pool's live worker pids is kept, and any
    pid *vanishing* from it means chunks dispatched to that worker are
    lost (``multiprocessing.Pool`` respawns the worker but the in-flight
    task's result never arrives).
    """

    def _worker_pids(self) -> frozenset:
        pool = self._pool
        if pool is None:
            return frozenset()
        try:
            procs = list(pool._pool)  # noqa: SLF001 — no public worker list
        except (AttributeError, TypeError):  # pragma: no cover
            return frozenset()
        return frozenset(p.pid for p in procs if p.exitcode is None)

    def _snapshot_workers(self) -> None:
        self._pids = self._worker_pids()

    def dispatch(self, task: Task) -> PendingChunk:
        return _PoolPending(self._pool.apply_async(_run_chunk, (task,)))

    def broken(self) -> bool:
        current = self._worker_pids()
        vanished = self._pids - current
        self._pids = current
        # New pids without vanished ones are the pool's own respawns
        # after a death we already reported — not a fresh failure.
        return bool(vanished)

    def abort(self) -> None:
        # Dispose first (bounded) so the graceful close()/join() inside
        # _close_impl cannot block behind a wedged or dead worker.
        pool, self._pool = self._pool, None
        if pool is not None:
            _dispose(pool)
        self.close()

    def rebuild(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # The old pool may hold wedged or half-dead workers; a
            # graceful close() could block forever behind them — and a
            # worker that died holding a queue lock would wedge even
            # terminate() (see _dispose).
            _dispose(pool)
        self._pool, self.start_method = self._start_pool()
        self._snapshot_workers()


class ProcessBackend(PoolWorkersMixin, ExecutorBackend):
    """Execute chunk tasks on a pool of pickled-replica worker processes."""

    mode = "process"

    def __init__(self, points: Sequence[UncertainPoint],
                 workers: int,
                 kernel: str = "auto",
                 plane=None) -> None:
        super().__init__()
        self.workers = int(workers)
        self._payload = pickle.dumps(list(points))
        self._kernel = kernel
        # The plane arrays ride the initializer args (pickled once per
        # worker, like the point payload); pool rebuilds re-ship them.
        self._plane = plane
        self.serves_plane = plane is not None
        self._pool, self.start_method = self._start_pool()
        self._snapshot_workers()

    def _start_pool(self):
        return start_pool(self.workers, self.start_method, _init_worker,
                          (self._payload, self._kernel, self._plane))

    def map(self, tasks: List[Task]) -> List[object]:
        return self._pool.map(_run_chunk, tasks)

    def _close_impl(self) -> None:
        # Same interrupted-teardown contract as the shm backend: a
        # KeyboardInterrupt landing in join() (server killed mid-request)
        # terminates the pool instead of blocking on a worker mid-chunk.
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.close()
            pool.join()
        except BaseException:
            pool.terminate()
            raise
