"""``repro.serving.executors`` — pluggable execution backends for sharding.

One protocol (:class:`~repro.serving.executors.base.ExecutorBackend`),
three implementations, one factory, one degradation ladder.  The
:class:`~repro.serving.shard.ShardExecutor` plans chunks and reassembles
answers; a backend from this package, built over the served index,
runs the chunk tasks it is handed through ``dispatch``:

========== ===========================================================
``process`` multiprocessing pool, one replica per worker
``thread``  thread pool over the served index (NumPy releases the GIL)
``inline``  serial in-process execution (the floor of the ladder)
========== ===========================================================

:data:`LADDER` orders them.  Which rung runs is a fact about the host,
decided in one place (:func:`create_backend`), not a setting: every
backend returns bitwise-identical results, so a choice would change no
answer.  A runtime failure demotes a live executor one rung down the
same ladder (:func:`start_below`).
"""

from __future__ import annotations

from .base import (
    SHARD_METHODS,
    BackendUnavailable,
    ExecutorBackend,
    IndexReplica,
    PendingChunk,
    reassemble,
)
from .inline import InlineBackend
from .process import ProcessBackend
from .thread import ThreadBackend

__all__ = [
    "BackendUnavailable",
    "ExecutorBackend",
    "IndexReplica",
    "InlineBackend",
    "LADDER",
    "PendingChunk",
    "ProcessBackend",
    "SHARD_METHODS",
    "ThreadBackend",
    "create_backend",
    "reassemble",
    "start_below",
]

#: The one degradation ladder, fastest first: where a backend cannot
#: start (or, at runtime, keeps failing) the next rung takes over.
#: Inline cannot fail, so every walk ends with a working backend.
LADDER = ("process", "thread", "inline")


def create_backend(index, workers: int, plane=None) -> ExecutorBackend:
    """The backend this host runs *index* on with *workers* workers.

    ``inline`` when ``workers < 2``; otherwise ``process``, or ``thread``
    where no process pool starts (:class:`BackendUnavailable`).
    Construction always succeeds and always returns bitwise-correct
    answers — parallelism is best-effort, never correctness.

    Process workers build replicas from the index's points and compute
    on the host's kernel provider, as the parent does
    (:func:`repro.spatial.kernels.get_provider`).

    *plane* is an optional dict of flat V_Pr plane arrays
    (:func:`repro.spatial.codec.plane_to_arrays`).  The process backend
    ships it to its workers in the pool initargs (inherited copy-on-write
    under ``fork``) and reports ``serves_plane=True``; thread and inline
    backends ignore it — they share *index*, which already holds the
    built diagram.
    """
    if workers < 2:
        return InlineBackend(index)
    return start_below(None, index, workers, plane)


def start_below(mode, index, workers: int, plane=None) -> ExecutorBackend:
    """Start the first rung of :data:`LADDER` below *mode* (from the
    top when ``None``) that this host can start; inline always starts."""
    first = 0 if mode is None else LADDER.index(mode) + 1
    for rung in LADDER[first:]:
        try:
            if rung == "process":
                return ProcessBackend(index, workers, plane=plane)
            if rung == "thread":
                return ThreadBackend(index, workers)
        except BackendUnavailable:
            continue
    return InlineBackend(index)
