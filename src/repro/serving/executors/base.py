"""The executor-backend protocol: how sharded query chunks get executed.

:class:`~repro.serving.shard.ShardExecutor` owns the *dispatch plan* —
validating the method, splitting an ``(m, 2)`` query array into chunks,
and reassembling per-chunk answers in query order.  *How* a chunk task
is executed is the backend's job, behind one small protocol: every
backend is built over the served index and answers chunk tasks through
:meth:`ExecutorBackend.dispatch`.

* :class:`ProcessBackend <repro.serving.executors.process.ProcessBackend>`
  — a :mod:`multiprocessing` pool; each worker unpickles the index's
  uncertain points once and holds a private :class:`IndexReplica` (with
  the parent's ``V_Pr`` plane attached when one is shipped);
* :class:`ThreadBackend <repro.serving.executors.thread.ThreadBackend>`
  — a :class:`~concurrent.futures.ThreadPoolExecutor` over **the served
  index itself**: the batch engines release the GIL inside their NumPy
  kernels, so chunks genuinely overlap without any replica build at all;
* :class:`InlineBackend <repro.serving.executors.inline.InlineBackend>`
  — the degradation floor: the same chunk walk, serially, in-process.

Every backend answers every chunk through the index's own
``batch_<method>`` front doors (via :class:`IndexReplica`), and every
reduction in those engines is per query row — so any backend, at any
worker count and any chunking, returns **bitwise-identical** results to
the unsharded call, pinned by ``tests/test_executors.py`` across the
full method × backend × worker grid.

A backend that cannot start on this host raises
:class:`BackendUnavailable` from its constructor; the factory
(:func:`repro.serving.executors.create_backend`) then walks down the
one degradation ladder instead of crashing the service.
"""

from __future__ import annotations

import abc
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...uncertain.base import UncertainPoint
from ..faults import FaultPlan
from ..wire import encode_batch

__all__ = ["SHARD_METHODS", "BackendUnavailable", "ExecutorBackend",
           "IndexReplica", "PendingChunk", "Task", "reassemble"]

#: Every query kind the sharding layer can route — each one is an index
#: ``batch_<method>`` front door, so growing this tuple automatically
#: routes through every backend with no per-method dispatch to maintain.
SHARD_METHODS = ("delta", "nonzero_nn", "quantify", "quantify_exact",
                 "quantify_vpr", "top_k", "threshold_nn")

#: One unit of backend work: ``(method, query_chunk, params, meta)``.
#: *meta* is a small plain dict carrying the chunk ordinal and dispatch
#: attempt, an optional fault-injection plan (``"faults"``/``"ppid"``,
#: see :mod:`repro.serving.faults`) and an optional ``"encode": True``
#: asking for the answer as a JSON fragment (:func:`~repro.serving.wire.
#: encode_batch`; a task field, not a param, because params are
#: canonical and key the cache).
Task = Tuple[str, np.ndarray, Dict, Dict]


class BackendUnavailable(RuntimeError):
    """This backend cannot run on this host (no process pools, ...)."""


class IndexReplica:
    """A read-only copy of the index, answering by chunk.

    Wraps a :class:`~repro.core.index.PNNIndex` so every sharded method
    runs the *same* code path as the unsharded batch call — the
    bitwise-identity guarantee falls out of reusing the implementation
    rather than re-deriving it.  Process workers build one from the
    transferred point data; thread and inline backends wrap the served
    index itself (:meth:`of_index`) so nothing is rebuilt at all.
    """

    def __init__(self, points: Sequence[UncertainPoint],
                 plane: Optional[Dict] = None) -> None:
        from ...core.index import PNNIndex

        self.index = PNNIndex(points)
        if plane is not None:
            # Shared-plane worker: adopt the parent's already-built V_Pr
            # (face vectors + locator arrays) instead of ever building
            # one.  The forbid flag is set *before* the attach so any
            # attach failure surfaces as a loud initializer error rather
            # than a silent Theta(N^4) per-worker rebuild on first query.
            from ...voronoi.vpr import SharedPlaneDiagram

            self.index.vpr_build_forbidden = True
            self.index.use_vpr(SharedPlaneDiagram(self.index.points, plane))

    @classmethod
    def of_index(cls, index) -> "IndexReplica":
        """A replica *view* over an existing index (no copy, no build)."""
        replica = cls.__new__(cls)
        replica.index = index
        return replica

    def run(self, method: str, chunk: np.ndarray, params: Dict,
            encode: bool = False) -> object:
        """Answer one query chunk: method-native, or with *encode* the
        JSON fragment of the rows (:func:`~repro.serving.wire.
        encode_batch`)."""
        if method not in SHARD_METHODS:
            raise ValueError(f"unknown shardable method {method!r}")
        if encode:
            return encode_batch(self.index, method, chunk, params)
        return getattr(self.index, f"batch_{method}")(chunk, **params)

    def run_task(self, task: Task) -> Tuple[object, Dict]:
        """The one task entry point every backend routes through.

        Returns ``(result, span_spec)``: the chunk result plus a
        plain-dict ``worker.compute`` span (wall-clock start,
        perf_counter duration, pid/tid, attrs) that ships back over the
        pool pipe and, when the request is traced, is re-parented into
        the live trace by :meth:`repro.obs.trace.Tracer.record_remote`.
        With ``meta["encode"]`` the result is encoded here, after the
        engine call and inside the span: it ships home as the chunk's
        JSON fragment (bytes).
        """
        method, chunk, params, meta = task
        fault_doc = meta.get("faults")
        if fault_doc is not None:
            # Chaos hook: the plan rides the task as a plain dict, so
            # every backend's workers (separate processes included)
            # perturb identically with no initializer or global state.
            plan = FaultPlan.from_dict(fault_doc)
            if plan is not None:
                plan.perturb(method, chunk=meta.get("chunk", 0),
                             attempt=meta.get("attempt", 0),
                             parent_pid=meta.get("ppid"))
        start = time.time()
        t0 = time.perf_counter()
        result = self.run(method, chunk, params, bool(meta.get("encode")))
        duration = time.perf_counter() - t0
        attrs = {"method": method, "rows": int(len(chunk)),
                 "chunk": meta.get("chunk", 0),
                 "attempt": meta.get("attempt", 0)}
        return result, {"name": "worker.compute", "start": start,
                        "duration": duration, "pid": os.getpid(),
                        "tid": threading.get_ident(), "attrs": attrs}


def reassemble(method: str, parts: List[object],
               encoded: bool = False) -> object:
    """Concatenate per-chunk results back into query order.

    *encoded* parts are JSON fragments: joined with ``b", "``, empty
    ones skipped, they are the fragment of the whole batch.
    """
    if encoded:
        return b", ".join(p for p in parts if p)  # type: ignore[misc]
    if method == "delta":
        arrays = [p for p in parts if len(p)]  # type: ignore[arg-type]
        if not arrays:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(arrays)
    out: List[object] = []
    for part in parts:
        out.extend(part)  # type: ignore[arg-type]
    return out


class PendingChunk(abc.ABC):
    """A single dispatched chunk whose result may not be ready yet.

    The resilient collection loop in
    :class:`~repro.serving.shard.ShardExecutor` polls these instead of
    blocking in ``Pool.map``, which is what makes deadlines, hang
    detection, and selective re-dispatch possible: an expired or lost
    chunk is simply abandoned and (when retryable) dispatched again,
    while every other chunk's progress is untouched.
    """

    __slots__ = ()

    @abc.abstractmethod
    def ready(self) -> bool:
        """Whether :meth:`result` would return (or raise) immediately."""

    @abc.abstractmethod
    def result(self) -> object:
        """The chunk's result; re-raises the worker-side exception."""

    def wait(self, timeout: float) -> bool:
        """Block up to *timeout* seconds; return :meth:`ready`."""
        deadline = time.monotonic() + max(0.0, timeout)
        while not self.ready():
            if time.monotonic() >= deadline:
                return False
            time.sleep(min(0.005, timeout))
        return True


class ExecutorBackend(abc.ABC):
    """The execution half of the sharding layer (see module docstring).

    Concrete backends set :attr:`mode` (the resolved execution mode, one
    of ``"process"``, ``"thread"``, ``"inline"``),
    :attr:`workers` (parallel lanes actually available), and
    :attr:`start_method` (the :mod:`multiprocessing` start method for
    process-based modes, ``None`` otherwise).
    """

    mode: str = "inline"
    workers: int = 1
    start_method: Optional[str] = None
    #: Whether this backend's workers hold an attached
    #: :class:`~repro.voronoi.vpr.SharedPlaneDiagram` built once by the
    #: parent and shipped in the pool initargs.  Thread and inline
    #: backends answer through the served index itself, so
    #: ``quantify_vpr`` fans out over them or over a plane-serving
    #: process backend — never over process replicas that would each
    #: rebuild the Theta(N^4) diagram.
    serves_plane: bool = False
    #: Bumped by every :meth:`rebuild`.  A chunk dispatched under an
    #: older generation sits on a pool that is gone, so the collection
    #: loop dispatches it again instead of waiting on it forever.
    generation: int = 0

    def __init__(self) -> None:
        self._closed = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def dispatch(self, task: Task) -> PendingChunk:
        """Start *task* asynchronously and return its pending handle.

        Dispatch never blocks on the task itself (the inline backend
        defers execution into the handle), so the caller can submit a
        whole batch and then drive the deadline-aware collection loop.
        """

    def broken(self) -> bool:
        """Whether the backend has lost workers since the last check.

        Process-based backends compare the live worker pid set against
        the last snapshot; a vanished pid means any chunk dispatched to
        it may never complete and still-pending work must be
        re-dispatched (after :meth:`rebuild`).  Thread/inline backends
        cannot lose workers this way and always return ``False``.
        """
        return False

    def rebuild(self) -> None:
        """Recreate the worker pool after :meth:`broken`; default no-op.

        Raises :class:`BackendUnavailable` if the pool cannot be
        restarted, which the caller treats as a degradation trigger.
        """

    def _close_impl(self) -> None:
        """Release backend resources (worker pools); default no-op."""

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear down worker pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._close_impl()

    def abort(self) -> None:
        """Tear down *without waiting* on in-flight chunks.

        The degradation path discards backends whose workers may be
        wedged or dead; a graceful :meth:`close` could block behind
        them.  Default is plain close (safe for inline).
        """
        self.close()

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter-shutdown noise
            pass
