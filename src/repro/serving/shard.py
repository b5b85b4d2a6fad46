"""Multi-core sharding of batch queries: the dispatch/reassembly plan.

The batch engine is single-threaded NumPy; one process tops out at one
core.  :class:`ShardExecutor` scales the same work across parallel
workers: large ``(m, 2)`` query arrays are split into shard-sized
chunks, chunks are dispatched to a pluggable **executor backend**
(:mod:`repro.serving.executors` — a multiprocessing pool of worker
replicas, a thread pool over one shared index, or serial inline
execution), and the per-chunk answers are reassembled in query order.

Determinism is structural, not coincidental: every reduction in the
batch engines is per query row, so chunk boundaries never change an
answer, and every backend answers chunks through the index's own
``batch_<method>`` front doors over identical point data.  Sharded
output is therefore **bitwise identical** to the unsharded batch call on
every backend at every worker count — the property
``tests/test_executors.py`` asserts.

Which backend runs is a fact about the host
(:func:`~repro.serving.executors.create_backend`): a process pool, or
threads where no pool can start — sandboxed CI without POSIX
semaphores, restricted seccomp profiles, interpreters without
``fork``/``spawn`` — and inline below two workers.  A backend that
keeps failing at runtime is demoted down the one degradation ladder
(:data:`~repro.serving.executors.LADDER`: process, thread, inline).
Same answers, less parallelism, no crash.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from ..obs.metrics import Counter, Registry
from ..obs.trace import NULL_SPAN, current_span
from .executors import (
    LADDER,
    SHARD_METHODS,
    ExecutorBackend,
    IndexReplica,
    create_backend,
    reassemble,
    start_below,
)
from .faults import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
    WorkerFailure,
    resilience_counters,
)

__all__ = ["IndexReplica", "ShardExecutor", "SHARD_METHODS"]

_LOG = logging.getLogger("repro.serving.shard")


class ShardExecutor:
    """Dispatch batch queries over an executor backend, in query order.

    Parameters
    ----------
    index:
        The served :class:`~repro.core.index.PNNIndex`.  Thread and
        inline backends answer through it directly — sharing its lazy
        artifacts (engines, ``V_Pr``); process workers build replicas
        from its points.
    workers:
        Parallel worker count.  Defaults to ``min(4, cpu_count)``; any
        value below 2 selects inline mode.
    chunk_size:
        Query rows per dispatched task.  ``None`` sizes chunks so each
        worker receives about :data:`_TASKS_PER_WORKER` tasks — small
        enough to balance load, large enough to amortize dispatch.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When the ambient
        span of a :meth:`run` call is sampled, the dispatch and
        reassembly phases get spans, and the per-chunk
        ``worker.compute`` spans every task ships back are re-parented
        under the dispatch span.  ``None`` (or an unsampled context)
        records none of them.
    policy:
        The :class:`~repro.serving.faults.RetryPolicy` governing the
        collection loop (re-dispatch rounds, backoff, the per-chunk
        hang watchdog, poll cadence).  ``None`` uses the defaults.
    faults:
        Optional fault-injection plan (anything
        :meth:`FaultPlan.coerce` accepts); ``None`` disables injection.
    resilience:
        Optional shared resilience counters
        (:func:`~repro.serving.faults.resilience_counters`; the service
        passes its own so ``/metrics`` sees executor counters); ``None``
        makes private ones.
    breaker:
        Optional shared :class:`~repro.serving.faults.CircuitBreaker`
        gating the runtime degradation ladder; ``None`` makes one with
        the default threshold.
    plane:
        Optional dict of flat ``V_Pr`` plane arrays
        (:func:`repro.spatial.codec.plane_to_arrays`).  The process
        backend ships the build-once plane to its workers — which
        then answer ``quantify_vpr`` chunks in parallel with **zero**
        per-worker diagram builds — and the plane survives pool rebuilds
        and degradations down the ladder (thread/inline rungs ignore it
        and serve the index's diagram instead).
    """

    _TASKS_PER_WORKER = 4
    _MIN_CHUNK = 256

    def __init__(self, index, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 tracer=None,
                 policy: Optional[RetryPolicy] = None,
                 faults=None,
                 resilience: Optional[Dict[str, Counter]] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 plane=None) -> None:
        self.tracer = tracer
        cpus = os.cpu_count() or 1
        self.workers = min(4, cpus) if workers is None else int(workers)
        self.chunk_size = chunk_size
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = FaultPlan.coerce(faults)
        self.resilience = (resilience if resilience is not None
                           else resilience_counters(Registry()))
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._index = index
        self._plane = plane
        self._degrade_lock = threading.Lock()
        self._heal_lock = threading.Lock()
        self._closed = False
        self.impl: ExecutorBackend = create_backend(
            index, self.workers, plane=plane)
        self.workers = self.impl.workers
        self._initial_mode = self.impl.mode

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The live execution mode (``process``/``thread``/``inline``)."""
        return self.impl.mode

    @property
    def start_method(self) -> Optional[str]:
        return self.impl.start_method

    @property
    def degraded(self) -> bool:
        """Whether a runtime failure demoted the backend below the mode
        it started in (build-time degradation does not count)."""
        return self.impl.mode != self._initial_mode

    def health(self) -> Dict[str, object]:
        """Operational snapshot for ``/healthz`` and ``service.stats()``."""
        return {"mode": self.impl.mode,
                "initial_mode": self._initial_mode,
                "degraded": self.degraded,
                "workers": self.workers,
                "serves_plane": self.impl.serves_plane,
                "breaker": self.breaker.snapshot(),
                "resilience": {name: counter.get() for name, counter
                               in self.resilience.items()}}

    # ------------------------------------------------------------------
    def _chunks(self, q: np.ndarray) -> List[np.ndarray]:
        m = len(q)
        if self.chunk_size:
            step = max(1, int(self.chunk_size))
        else:
            step = max(self._MIN_CHUNK,
                       math.ceil(m / (self.workers * self._TASKS_PER_WORKER)))
        return [q[s:s + step] for s in range(0, m, step)]

    def run(self, method: str, queries, params: Optional[Dict] = None,
            *, deadline=None, encode: bool = False) -> object:
        """Answer *queries* for *method*; results in query order.

        ``delta`` returns a float array; the other methods return lists
        (of index lists, estimate dicts, ranked pairs, or
        :class:`~repro.quantification.threshold.ThresholdResult`).  With
        *encode* every worker encodes its chunk
        (:func:`~repro.serving.wire.encode_batch`) and the call returns
        the JSON fragment of the whole batch as bytes.

        *deadline* (``None`` | seconds | :class:`Deadline`) bounds the
        whole call: expiry raises
        :class:`~repro.serving.faults.DeadlineExceeded` within about one
        :attr:`RetryPolicy.poll_interval`, abandoning (not blocking on)
        any chunks still in flight.  Chunk failures — injected faults,
        dead pool workers, watchdog-detected hangs — are retried per
        :attr:`policy`, healing the pool and walking the degradation
        ladder as needed; answers stay bitwise identical to the
        fault-free path because retried chunks recompute through the
        same per-row engines.
        """
        from ..spatial.batch import as_query_array

        if self._closed:
            raise RuntimeError("ShardExecutor is closed")
        if method not in SHARD_METHODS:
            raise ValueError(f"unknown shardable method {method!r}")
        deadline = Deadline.coerce(deadline)
        params = dict(params or {})
        q = as_query_array(queries)
        if len(q) == 0:
            return reassemble(method, [], encode)
        chunks = self._chunks(q)
        tracer = self.tracer
        parent = current_span() if (tracer is not None
                                    and tracer.enabled) else NULL_SPAN
        if not parent.sampled:
            return reassemble(method, self._collect(
                method, chunks, params, deadline, None, encode), encode)
        # Traced dispatch: every worker times its chunk
        # (IndexReplica.run_task) and ships the span spec back with the
        # result; the specs are grafted into the live trace under the
        # dispatch span.
        dspan = tracer.start_span(
            "shard.dispatch", parent=parent, method=method,
            backend=self.impl.mode, workers=self.workers,
            chunks=len(chunks), rows=int(len(q)))
        with dspan:
            parts = self._collect(method, chunks, params, deadline, dspan,
                                  encode)
        with tracer.start_span("shard.reassemble", parent=parent,
                               method=method, chunks=len(parts)):
            return reassemble(method, parts, encode)

    # ------------------------------------------------------------------
    # The resilient collection loop.
    # ------------------------------------------------------------------
    def _collect(self, method: str, chunks: List[np.ndarray], params: Dict,
                 deadline, dspan, encode: bool) -> List[object]:
        """Dispatch every chunk and collect results, surviving faults.

        Chunks are dispatched asynchronously
        (:meth:`ExecutorBackend.dispatch`) and polled: between polls the
        loop enforces the request deadline, runs the per-chunk hang
        watchdog, sweeps for dead pool workers (pid churn), and
        re-dispatches failed chunks with exponential backoff — at most
        ``retries + 1`` dispatch attempts each.  A circuit-breaker trip
        (or a failed pool rebuild) demotes the backend one rung down
        :data:`~repro.serving.executors.LADDER`; the chunks then restart
        on the new backend with a fresh attempt budget.

        Each pending handle is tagged with the backend and pool
        generation it was dispatched to.  A rebuild or degradation —
        this request's or a concurrent one's — leaves handles on a pool
        that is gone; such a stale handle is dispatched again, its
        attempt given back because the chunk itself never failed.
        Results are admitted first-wins per ordinal, so a duplicate
        answer from an abandoned attempt is harmless (every attempt
        computes identical bytes).
        """
        policy = self.policy
        plan_doc = self.faults.to_dict() if self.faults is not None else None
        ppid = os.getpid()
        n = len(chunks)
        results: List[object] = [None] * n
        done = [False] * n
        remaining = n
        attempts = [0] * n        # dispatch attempts used per chunk
        not_before = [0.0] * n    # backoff gate for re-dispatch
        # ordinal -> (handle, dispatched_at, backend, pool generation)
        pending: Dict[int, tuple] = {}

        def build_task(i: int) -> tuple:
            meta: Dict[str, object] = {"chunk": i, "attempt": attempts[i],
                                       "encode": encode}
            if plan_doc is not None:
                meta["faults"] = plan_doc
                meta["ppid"] = ppid
            return method, chunks[i], params, meta

        def admit(value: object, i: int) -> None:
            nonlocal remaining
            if done[i]:
                return  # duplicate from an abandoned attempt; bitwise equal
            value, spec = value
            if dspan is not None:
                self.tracer.record_remote(dspan, spec)
            results[i] = value
            done[i] = True
            remaining -= 1

        def reset_after_degrade() -> None:
            # The old backend (and every handle on it) is gone; chunks
            # restart on the new backend with a fresh attempt budget.
            pending.clear()
            for j in range(n):
                if not done[j]:
                    attempts[j] = 0
                    not_before[j] = 0.0

        def trip_check(why: str) -> bool:
            """Record one backend-level failure event on the breaker;
            degrade (and reset chunk state) when it trips."""
            if not self.breaker.record_failure():
                return False
            self.resilience["breaker_trips"].inc()
            if self._degrade(why):
                reset_after_degrade()
                return True
            return False

        def fail(i: int, why: str, breaker_event: bool = True) -> None:
            """One chunk attempt failed: retry, degrade, or give up."""
            self.resilience["worker_failures"].inc()
            if breaker_event and trip_check(why):
                return
            if attempts[i] > policy.retries:
                raise WorkerFailure(
                    f"{method} chunk {i} failed after {attempts[i]} "
                    f"dispatch attempts: {why}")
            not_before[i] = (time.monotonic()
                             + policy.backoff_for(max(attempts[i] - 1, 0)))

        while remaining:
            if deadline is not None and deadline.expired:
                self.resilience["deadline_exceeded"].inc()
                raise DeadlineExceeded(
                    f"deadline of {deadline.timeout * 1e3:.0f} ms exceeded "
                    f"({method}: {remaining}/{n} chunks unanswered)")
            now = time.monotonic()
            # Dispatch (and re-dispatch) every runnable chunk.
            for i in range(n):
                if done[i] or i in pending or now < not_before[i]:
                    continue
                if attempts[i] > policy.retries:
                    continue  # exhausted; its fail() already raised
                impl = self.impl
                generation = impl.generation
                try:
                    handle = impl.dispatch(build_task(i))
                except Exception:  # noqa: BLE001 — aborted under us?
                    if impl is self.impl:
                        raise
                    continue  # degraded meanwhile: next round dispatches
                if attempts[i] > 0:
                    self.resilience["retries"].inc()
                attempts[i] += 1
                pending[i] = (handle, now, impl, generation)
            # Poll in-flight chunks; admit results, retry failures.
            for i, (handle, started, impl, generation) in list(
                    pending.items()):
                if i not in pending:  # evicted by a degrade mid-sweep
                    continue
                if deadline is not None and deadline.expired:
                    break  # outer loop raises; don't compute more inline
                if handle.ready():
                    del pending[i]
                    try:
                        value = handle.result()
                    except Exception as exc:  # noqa: BLE001 — worker-side
                        if isinstance(exc, FaultInjected):
                            self.resilience["faults_injected"].inc()
                        fail(i, repr(exc))
                    else:
                        admit(value, i)
                        self.breaker.record_success()
                elif impl is not self.impl or generation != impl.generation:
                    # Stranded on a rebuilt pool or a demoted backend.
                    del pending[i]
                    attempts[i] -= 1
                elif (policy.chunk_timeout is not None
                      and now - started > policy.chunk_timeout):
                    # Hung, not dead: the worker holding it is wedged,
                    # so quarantine the whole pool and re-dispatch.
                    del pending[i]
                    if self._heal(f"chunk {i} of {method} hung past "
                                  f"{policy.chunk_timeout:g}s watchdog",
                                  impl, generation):
                        reset_after_degrade()
                    fail(i, "chunk watchdog timeout (worker hung)")
            # Dead-worker sweep: a vanished pool pid means chunks
            # dispatched to it will never answer.
            impl = self.impl
            generation = impl.generation
            if pending and impl.broken():
                lost = sorted(pending)
                pending.clear()
                degraded = self._heal(
                    f"worker death detected ({len(lost)} chunks in flight)",
                    impl, generation)
                degraded = trip_check("worker process died") or degraded
                if degraded:
                    reset_after_degrade()
                else:
                    for i in lost:
                        fail(i, "worker process died mid-chunk",
                             breaker_event=False)
            if not remaining:
                break
            # Block on one pending handle — any completion, failure, or
            # timeout wakes the loop within a poll interval.
            timeout = policy.poll_interval
            if deadline is not None:
                timeout = min(timeout, max(deadline.remaining(), 1e-4))
            if pending:
                next(iter(pending.values()))[0].wait(timeout)
            else:
                time.sleep(min(timeout, 0.005))  # waiting out a backoff
        return results

    # ------------------------------------------------------------------
    def _heal(self, reason: str, impl: ExecutorBackend,
               generation: int) -> bool:
        """Rebuild the worker pool the caller saw fail: *impl* at pool
        *generation*.  Returns ``True`` when the rebuild itself failed
        and forced a degradation instead.

        Concurrent requests wedged on one pool all see it fail; once one
        of them has rebuilt or demoted it, the others' calls are no-ops
        (their stranded chunks re-dispatch to the new pool).
        """
        with self._heal_lock:
            if impl is not self.impl or impl.generation != generation:
                return False
            self.resilience["rebuilds"].inc()
            _LOG.warning("rebuilding %s executor pool: %s", impl.mode,
                         reason)
            try:
                impl.rebuild()
                return False
            except Exception as exc:  # noqa: BLE001 — any rebuild failure
                return self._degrade(f"pool rebuild failed ({exc!r}) "
                                     f"after {reason}")

    def _degrade(self, reason: str) -> bool:
        """Demote the backend one rung down
        :data:`~repro.serving.executors.LADDER`.

        Returns ``True`` when a new backend was installed (``False`` at
        the inline floor).  The old backend is aborted — torn down
        without waiting on wedged or dead workers.
        """
        with self._degrade_lock:
            old = self.impl
            rung = LADDER.index(old.mode) + 1
            if rung == len(LADDER):
                return False
            self.resilience["degradations"].inc()
            _LOG.error("degrading executor backend %s -> %s: %s",
                       old.mode, LADDER[rung], reason)
            self.impl = start_below(old.mode, self._index, self.workers,
                                    plane=self._plane)
            self.workers = self.impl.workers
            try:
                old.abort()
            except Exception:  # noqa: BLE001 — already half-dead
                pass
            return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the backend's workers and release its resources.

        Idempotent, and also invoked from ``__del__`` so an executor
        dropped without a context manager still tears its pool down (no
        leaked processes or semaphores).
        """
        if self._closed:
            return
        self._closed = True
        self.impl.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter-shutdown noise
            pass
