"""``repro.serving.executors`` — pluggable execution backends for sharding.

One protocol (:class:`~repro.serving.executors.base.ExecutorBackend`),
four implementations, one factory.  The
:class:`~repro.serving.shard.ShardExecutor` plans chunks and reassembles
answers; a backend from this package executes the chunk tasks:

========== ===========================================================
``process`` multiprocessing pool, one pickled replica per worker
``thread``  thread pool over one shared index (NumPy releases the GIL)
``shm``     worker processes mapping one shared-memory replica segment
``inline``  serial in-process execution (the degradation floor)
========== ===========================================================

Selection is by name or by the ``"auto"`` policy of
:func:`create_backend`; every backend returns bitwise-identical results,
so the choice is purely an operational one (see the README's
backend-selection guide).
"""

from __future__ import annotations

import os
from typing import Sequence

from ...uncertain.base import UncertainPoint
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
from .shm import SharedMemoryBackend
from .thread import ThreadBackend

__all__ = [
    "BACKENDS",
    "BackendUnavailable",
    "ExecutorBackend",
    "IndexReplica",
    "InlineBackend",
    "PendingChunk",
    "ProcessBackend",
    "SHARD_METHODS",
    "SharedMemoryBackend",
    "ThreadBackend",
    "create_backend",
    "reassemble",
]

#: Backend names accepted by the factory (and ``ServiceConfig.backend``).
BACKENDS = ("auto", "shm", "process", "thread", "inline")

#: Env knob consulted by the ``"auto"`` policy only: operators (and the
#: CI backend matrix) can steer every auto-configured service onto one
#: backend without touching code.  Explicit names always win.
BACKEND_ENV = "REPRO_SERVING_BACKEND"


def create_backend(name: str, points: Sequence[UncertainPoint],
                   workers: int,
                   index=None, kernel: str = "auto",
                   plane=None) -> ExecutorBackend:
    """Build the requested backend, degrading instead of crashing.

    Construction always succeeds and always returns bitwise-correct
    answers — parallelism is best-effort, never correctness.  Each name
    has its own degradation chain, ending at inline:

    * ``"auto"`` — ``shm`` (when the point set is codec-encodable and
      the host supports it) -> ``process`` -> ``thread`` -> ``inline``;
    * ``"shm"`` — ``shm`` -> ``process`` -> ``inline``;
    * ``"process"`` — ``process`` -> ``inline`` (an explicit process
      request never silently becomes threads);
    * ``"thread"`` — always available, so it only degrades via the
      ``workers < 2`` short-circuit to inline.

    The :data:`BACKEND_ENV` environment variable overrides the
    ``"auto"`` resolution (explicit names are never overridden).

    *kernel* names the compute provider
    (:mod:`repro.spatial.kernels`) worker replicas resolve: backends
    that build their own replicas (process, shm, and thread/inline
    without a shared *index*) construct them with this name, so every
    worker process resolves its own provider — a worker that cannot
    build the native library degrades to NumPy on its own, and parity
    keeps the answers identical either way.

    *plane* is an optional dict of flat V_Pr plane arrays
    (:func:`repro.spatial.codec.plane_to_arrays`).  Process and shm
    backends ship it to their workers (pickled initargs / prefixed keys
    in the shared segment) and report ``serves_plane=True``; thread and
    inline backends ignore it — they share the caller's *index*, which
    already holds the built diagram.
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown executor backend {name!r}; "
                         f"expected one of {BACKENDS}")
    if name == "auto":
        forced = os.environ.get(BACKEND_ENV, "").strip().lower()
        if forced and forced != "auto":
            if forced not in BACKENDS:
                raise ValueError(
                    f"{BACKEND_ENV}={forced!r} is not one of {BACKENDS}")
            name = forced
    if workers < 2 or name == "inline":
        return InlineBackend(points, index=index, kernel=kernel)
    chain = {"auto": ("shm", "process", "thread"),
             "shm": ("shm", "process"),
             "process": ("process",),
             "thread": ("thread",)}[name]
    for kind in chain:
        try:
            if kind == "shm":
                return SharedMemoryBackend(points, workers, kernel=kernel,
                                           plane=plane)
            if kind == "process":
                return ProcessBackend(points, workers, kernel=kernel,
                                      plane=plane)
            return ThreadBackend(points, workers, index=index,
                                 kernel=kernel)
        except BackendUnavailable:
            continue
    return InlineBackend(points, index=index, kernel=kernel)
