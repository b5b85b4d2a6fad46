"""The multiprocessing-pool executor backend (one replica per worker).

A :mod:`multiprocessing` pool whose initializer builds, once per worker,
a private :class:`~repro.serving.executors.base.IndexReplica` from the
served index's pickled uncertain points.  Chunks are
dispatched one ``apply_async`` each; the collection loop of
:class:`~repro.serving.shard.ShardExecutor` puts them back in order.

Replicas are built from the same points with the same seeds, so every
worker computes exactly the parent's numbers — sharded output is bitwise
identical to the unsharded batch call.

The pool's initargs (the point payload and the optional ``V_Pr`` plane
arrays) reach the workers without pickling under the ``fork`` start
method, which :func:`start_pool` tries first: the children inherit them
copy-on-write, so a 50 MB plane is shared by every worker rather than
copied into each.  Each chunk result carries the worker's engine/kernel
counter increments home (:func:`~repro.obs.metrics.count_shipped`); the
parent merges them as it takes the result.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import pickle
import threading
from typing import List, Optional, Tuple

from ...obs.metrics import count_shipped, merge_shipped
from .base import BackendUnavailable, ExecutorBackend, IndexReplica, \
    PendingChunk, Task

__all__ = ["ProcessBackend"]

# Worker-process global: the replica built once by the pool initializer.
_REPLICA: Optional[IndexReplica] = None


def _init_worker(payload: bytes, plane=None) -> None:
    """Pool initializer: build this worker's replica from pickled points.

    The worker computes on the host's kernel provider
    (:func:`repro.spatial.kernels.get_provider`), the parent's: inherited
    under ``fork`` when the parent has already resolved it, else resolved
    again from the same build cache.

    *plane* is an optional dict of flat V_Pr plane arrays
    (:func:`repro.spatial.codec.plane_to_arrays`): when present the
    replica attaches a :class:`~repro.voronoi.vpr.SharedPlaneDiagram`
    over them and forbids any lazy diagram build, so ``quantify_vpr``
    chunks are answered from the parent's build-once plane.
    """
    global _REPLICA
    _REPLICA = IndexReplica(pickle.loads(payload), plane=plane)


def _run_chunk(task) -> object:
    """Top-level (picklable) worker entry: answer one chunk.

    Routes through :meth:`IndexReplica.run_task`, so the answer is a
    ``(result, worker_span_dict)`` pair — the span dict (plain picklable
    types only) rides the normal pool result pipe.
    The whole answer is paired with the chunk's counter increments,
    which :func:`~repro.obs.metrics.merge_shipped` unpacks parent-side.
    """
    if _REPLICA is None:
        raise RuntimeError("worker initializer did not run")
    return count_shipped(_REPLICA.run_task, task)


def start_pool(workers: int, preferred: Optional[str],
               initializer, initargs) -> Tuple[object, str]:
    """Start a worker pool, trying start methods in preference order.

    *preferred* (the method a rebuilt pool started with last time) goes
    first; then ``fork`` (cheapest), ``forkserver`` and ``spawn``.  An
    unavailable or failing method falls through to the next.  Raises
    :class:`BackendUnavailable` when none starts.
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
    (:meth:`ProcessBackend.broken`) decides to abandon it.
    """

    __slots__ = ("_res",)

    def __init__(self, res) -> None:
        self._res = res

    def ready(self) -> bool:
        return self._res.ready()

    def result(self) -> object:
        return merge_shipped(self._res.get(0))

    def wait(self, timeout: float) -> bool:
        self._res.wait(timeout)
        return self._res.ready()


#: Seconds :func:`_dispose` waits on a pool queue lock before treating
#: it as orphaned by a dead worker and force-releasing it.
_LOCK_GRACE = 1.0


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
       them, and force-release any lock a corpse still holds — one
       still unacquirable after :data:`_LOCK_GRACE` seconds.  A live
       parent thread may hold the same lock briefly (the pool's task
       handler sends its exit sentinel under ``outqueue._wlock``);
       releasing it from under that thread would make the holder's own
       ``release()`` raise;
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
            # Free, or briefly held by a live thread: a no-op pair.
            # Still held after the grace: a dead worker's hold, repaired.
            lock.acquire(timeout=_LOCK_GRACE)
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


class ProcessBackend(ExecutorBackend):
    """Execute chunk tasks on a pool of replica worker processes.

    Worker death is detected by pid-set churn: a snapshot of the pool's
    live worker pids is kept, and any pid *vanishing* from it means
    chunks dispatched to that worker are lost (``multiprocessing.Pool``
    respawns the worker but the in-flight task's result never arrives).
    """

    mode = "process"

    def __init__(self, index, workers: int, plane=None) -> None:
        super().__init__()
        self.workers = int(workers)
        # The plane arrays ride the initializer args with the point
        # payload: inherited under fork, pickled once per worker under
        # forkserver/spawn.  Pool rebuilds re-ship them.
        self._initargs = (pickle.dumps(list(index.points)), plane)
        self.serves_plane = plane is not None
        # Guards the pool swap of rebuild() against concurrent dispatch,
        # so no chunk is ever submitted to a pool being disposed.
        self._lock = threading.Lock()
        self._pool, self.start_method = self._start_pool()
        self._pids = self._worker_pids()

    def _start_pool(self):
        return start_pool(self.workers, self.start_method, _init_worker,
                          self._initargs)

    def _worker_pids(self) -> frozenset:
        pool = self._pool
        if pool is None:
            return frozenset()
        try:
            procs = list(pool._pool)  # noqa: SLF001 — no public worker list
        except (AttributeError, TypeError):  # pragma: no cover
            return frozenset()
        return frozenset(p.pid for p in procs if p.exitcode is None)

    def dispatch(self, task: Task) -> PendingChunk:
        with self._lock:
            return _PoolPending(self._pool.apply_async(_run_chunk, (task,)))

    def broken(self) -> bool:
        with self._lock:
            current = self._worker_pids()
            vanished = self._pids - current
            self._pids = current
        # New pids without vanished ones are the pool's own respawns
        # after a death we already reported — not a fresh failure.
        return bool(vanished)

    def abort(self) -> None:
        # Dispose first (bounded) so the graceful close()/join() inside
        # _close_impl cannot block behind a wedged or dead worker.
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            _dispose(pool)
        self.close()

    def rebuild(self) -> None:
        # Start the fresh pool first: a failed start raises
        # BackendUnavailable with the old pool still installed, for the
        # caller's degradation to abort.  Then swap, and only then
        # dispose the old pool — it may hold wedged or half-dead
        # workers, so a graceful close() could block forever, and a
        # worker that died holding a queue lock would wedge even
        # terminate() (see _dispose).
        pool, start_method = self._start_pool()
        with self._lock:
            old, self._pool = self._pool, pool
            self.start_method = start_method
            self.generation += 1
            self._pids = self._worker_pids()
        if old is not None:
            _dispose(old)

    def _close_impl(self) -> None:
        # A KeyboardInterrupt landing in join() (server killed
        # mid-request) terminates the pool instead of blocking on a
        # worker mid-chunk.
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.close()
            pool.join()
        except BaseException:
            pool.terminate()
            raise
