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

:data:`LADDER` orders them.  :func:`create_backend` starts at the
requested rung and walks down until a backend starts, and a runtime
failure demotes a live executor one rung down the same ladder.  Every
backend returns bitwise-identical results, so the choice is purely an
operational one (see the README's backend-selection guide).
"""

from __future__ import annotations

import os

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
    "BACKENDS",
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
]

#: Backend names accepted by the factory (and ``ServiceConfig.backend``).
BACKENDS = ("auto", "process", "thread", "inline")

#: The one degradation ladder, fastest first: where a backend cannot
#: start (or, at runtime, keeps failing) the next rung takes over.
#: Inline cannot fail, so every walk ends with a working backend.
LADDER = ("process", "thread", "inline")

#: Env knob consulted by the ``"auto"`` policy only: operators (and the
#: CI backend matrix) can steer every auto-configured service onto one
#: backend without touching code.  Explicit names always win.
BACKEND_ENV = "REPRO_SERVING_BACKEND"


def create_backend(name: str, index, workers: int,
                   plane=None) -> ExecutorBackend:
    """Build the requested backend over *index*, degrading instead of
    crashing.

    Construction always succeeds and always returns bitwise-correct
    answers — parallelism is best-effort, never correctness.  ``"auto"``
    means ``"process"``; a concrete name starts at its rung of
    :data:`LADDER` and walks down until a backend starts: a host
    without process pools lands on ``thread``, and ``workers < 2``
    always selects ``inline``.

    The :data:`BACKEND_ENV` environment variable overrides the
    ``"auto"`` resolution (explicit names are never overridden).

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
    if name not in BACKENDS:
        raise ValueError(f"unknown executor backend {name!r}; "
                         f"expected one of {BACKENDS}")
    if name == "auto":
        forced = os.environ.get(BACKEND_ENV, "").strip().lower() or "auto"
        if forced not in BACKENDS:
            raise ValueError(
                f"{BACKEND_ENV}={forced!r} is not one of {BACKENDS}")
        name = "process" if forced == "auto" else forced
    if workers < 2:
        name = "inline"
    for rung in LADDER[LADDER.index(name):]:
        try:
            if rung == "process":
                return ProcessBackend(index, workers, plane=plane)
            if rung == "thread":
                return ThreadBackend(index, workers)
        except BackendUnavailable:
            continue
    return InlineBackend(index)
