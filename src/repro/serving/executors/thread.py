"""The thread-pool executor backend (one shared index, GIL-released NumPy).

Every hot loop in the batch engines is a NumPy kernel, and NumPy releases
the GIL inside its ufunc and reduction inner loops — so a thread pool
over **one shared index** genuinely overlaps chunk work on multi-core
hosts, with zero replica builds, zero pickling, and zero extra memory.
This is the cheapest backend to stand up (no processes to fork, nothing
a sandbox can forbid) and the natural choice when the index carries
heavyweight lazy artifacts (``V_Pr`` for the ``quantify_vpr`` kind):
threads share one diagram where process workers would each build their
own.

Sharing one index is safe because the engines are read-only after
construction and allocate per-call scratch; the one hazard is *lazy
construction itself* (the batch engine, the Monte-Carlo tensor, ``V_Pr``
all build on first use).  Racing threads would at worst build such a
structure twice — wasteful, never wrong (every build is deterministic),
but for the expensive ones genuinely wasteful — so :meth:`dispatch` runs
the first chunk of each method synchronously to warm every lazy
structure it needs, then fans later chunks out.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Set

from .base import ExecutorBackend, IndexReplica, PendingChunk, Task

__all__ = ["ThreadBackend"]


class _FuturePending(PendingChunk):
    """A chunk in flight on a :class:`ThreadPoolExecutor`."""

    __slots__ = ("_fut",)

    def __init__(self, fut) -> None:
        self._fut = fut

    def ready(self) -> bool:
        return self._fut.done()

    def result(self) -> object:
        return self._fut.result(timeout=0)


class _DonePending(PendingChunk):
    """An already-computed chunk (the synchronous warm-up dispatch)."""

    __slots__ = ("_result", "_exc")

    def __init__(self, result=None, exc=None) -> None:
        self._result = result
        self._exc = exc

    def ready(self) -> bool:
        return True

    def result(self) -> object:
        if self._exc is not None:
            raise self._exc
        return self._result


class ThreadBackend(ExecutorBackend):
    """Execute chunk tasks on a thread pool over the served index."""

    mode = "thread"

    def __init__(self, index, workers: int) -> None:
        super().__init__()
        self.workers = int(workers)
        self._replica = IndexReplica.of_index(index)
        self._warm: Set[str] = set()
        # Guards the pool swap of rebuild() against concurrent submits.
        self._lock = threading.Lock()
        self._pool = self._new_pool()

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-shard")

    def dispatch(self, task: Task) -> PendingChunk:
        # The first chunk of a never-seen method runs synchronously so
        # lazy structures build once instead of racing across threads.
        if task[0] not in self._warm:
            self._warm.add(task[0])
            try:
                return _DonePending(result=self._replica.run_task(task))
            except Exception as exc:  # noqa: BLE001 — delivered via result()
                return _DonePending(exc=exc)
        with self._lock:
            return _FuturePending(self._pool.submit(self._replica.run_task,
                                                    task))

    def rebuild(self) -> None:
        # Threads cannot be killed, but a rebuild still quarantines a
        # pool whose threads are wedged behind a hung chunk: swap in a
        # fresh one and abandon the old (without blocking on it).
        with self._lock:
            old, self._pool = self._pool, self._new_pool()
            self.generation += 1
        old.shutdown(wait=False)

    def abort(self) -> None:
        # Threads cannot be joined if wedged on an in-flight chunk;
        # release them without waiting (they die with their work).
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=False)

    def _close_impl(self) -> None:
        self._pool.shutdown(wait=True)
