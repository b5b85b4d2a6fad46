"""The query service: one front door for service-shaped PNN traffic.

:class:`QueryService` wraps a :class:`~repro.core.index.PNNIndex` behind
the three mechanisms bursty multi-client traffic needs:

* an exact-keyed LRU :class:`~repro.serving.cache.ResultCache` answering
  repeat queries without touching the engine (``pi(q)`` and ``NN!=0(q)``
  are piecewise-constant across Voronoi cells, so real workloads repeat);
* a :class:`~repro.serving.coalesce.MicroBatcher` that group-commits
  concurrent scalar :meth:`query` calls into vectorized batches;
* a :class:`~repro.serving.shard.ShardExecutor` that fans large batches
  out over an executor backend (:mod:`repro.serving.executors`:
  ``process`` worker replicas, or a ``thread`` pool over the shared
  index where the host cannot start a process pool) with ordered
  reassembly and bitwise-identical answers.

Seven query kinds share one dispatch spine: ``delta``, ``nonzero_nn``,
``quantify``, ``quantify_exact``, ``quantify_vpr``, ``top_k``,
``threshold_nn`` — each asked through one scalar front door,
:meth:`query` (cache -> coalescer -> engine), and one bulk front door,
:meth:`batch` / :meth:`batch_encoded` (engine, sharded when large).
Per-kind request/hit/miss/latency families, and every
other family the service exports, live in its one metrics
:class:`~repro.obs.metrics.Registry` (:attr:`QueryService.registry`,
the ``/metrics`` body); :meth:`stats` snapshots them.

``quantify_vpr`` serves exact quantification out of the probabilistic
Voronoi diagram (Theorem 4.2): batches point-locate into precomputed
face vectors (:meth:`~repro.spatial.planelocate.PersistentPlaneLocator.
locate_batch`) behind the same result cache, falling back to the direct
Eq. (2) sweep outside the diagram's window.  The diagram builds lazily
on first use, or pass a prebuilt one via ``index.serve(vpr=...)``.

Construct via :meth:`PNNIndex.serve`::

    service = index.serve(workers=4, cache_capacity=8192)
    with service:
        pi = service.query("quantify", (1.0, 2.0))
        deltas = service.batch("delta", queries)   # sharded when large
        print(service.stats())
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import ENGINE, KERNEL, Counter, Registry
from ..obs.trace import NULL_SPAN, Tracer, current_span, use_span
from ..quantification.batch_exact import check_tie_tol
from ..spatial.batch import as_query_array, check_query_domain
from ..spatial.codec import CodecUnsupported, plane_to_arrays
from ..spatial.kernels import get_provider, native_available
from .cache import ResultCache
from .coalesce import MicroBatcher
from .executors import LADDER
from .faults import (CircuitBreaker, Deadline, DeadlineExceeded, FaultPlan,
                     RetryPolicy, resilience_counters)
from .shard import SHARD_METHODS, ShardExecutor
from .wire import check_finite, encode_batch

__all__ = ["ESTIMATORS", "ServiceConfig", "QueryService"]

#: The estimator names the ``method`` parameter of ``quantify``,
#: ``top_k`` and ``threshold_nn`` accepts (``spiral`` on an all-discrete
#: index only).
ESTIMATORS = ("auto", "exact", "monte_carlo", "spiral")


def _int_param(name: str, value: object, minimum: Optional[int] = None
               ) -> int:
    """*value* as a plain int; ``ValueError`` for a bool, a non-integer
    or a value below *minimum*."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        need = "an int" if minimum is None else f"an int >= {minimum}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return int(value)


def _unit_param(name: str, value: object) -> float:
    """*value* as a float inside ``(0, 1)``; ``ValueError`` for a bool,
    a non-number, a non-finite value or one outside the interval."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < 1.0):
        raise ValueError(f"{name} must be a number in (0, 1), "
                         f"got {value!r}")
    return float(value)


def _hit_rate(hits: int, misses: int) -> float:
    return round(hits / (hits + misses) if hits + misses else 0.0, 4)


@dataclass
class ServiceConfig:
    """Tunables of one :class:`QueryService` instance.

    Validated eagerly: non-positive sizes and inert fields other than
    ``"auto"`` raise :class:`ValueError` at construction.

    Attributes
    ----------
    workers:
        Shard workers.  ``0``/``1`` disables sharding entirely (every
        batch runs in-process); ``>= 2`` starts a
        :class:`~repro.serving.shard.ShardExecutor` on the rung this
        host runs (:func:`repro.serving.executors.create_backend`).
    backend:
        Accepts only ``"auto"`` and does nothing: the executor runs on
        the host's rung of the degradation ladder, and every rung
        returns bitwise-identical answers.  Like ``kernel``, ``locator``
        and ``flush_window``, the field remains so that the HTTP
        benchmark launcher, which passes it, keeps working.  Any other
        value raises :class:`ValueError`.
    kernel:
        Accepts only ``"auto"`` and does nothing: the service and its
        workers compute on the host's kernel provider
        (:mod:`repro.spatial.kernels`).  Kept for the benchmark
        launcher, as ``backend`` is.  Any other value raises
        :class:`ValueError`.
    locator:
        Accepts only ``"auto"`` and does nothing.  ``V_Pr`` diagrams have
        one point locator (the merged-slab tree of
        :mod:`repro.spatial.planelocate`); the field remains so that
        callers that still pass ``locator="auto"`` — the HTTP benchmark
        launcher does — keep working.  Any other value raises
        :class:`ValueError`.
    shard_min_batch:
        Smallest batch worth paying dispatch overhead for; smaller
        batches run in-process even when workers are available.
    shard_chunk:
        Fixed rows per shard task (``None`` = auto-sized).
    max_batch:
        Most rows one coalesced flush carries.  A
        :meth:`QueryService.query` whose group is idle runs inline;
        requests arriving while a flush of their ``(method, params)``
        group runs wait for it and are answered by the next flush, up
        to ``max_batch`` rows at a time, run by one of them.
    flush_window:
        Accepted and ignored (it must still be positive).  The coalescer
        has no timer: a group flushes as soon as no flush of it is
        running.  The field remains so that callers that still pass it
        — the HTTP benchmark launcher does — keep working, until it is
        deleted together with ``locator``.
    cache_capacity:
        LRU entries (``0`` disables caching).  Keys are exact query
        coordinates, so a hit is bit-for-bit the engine's answer.
    default_timeout:
        End-to-end deadline in *seconds* applied to every request that
        does not carry its own (HTTP ``timeout_ms`` / header, or the
        ``timeout=`` keyword of :meth:`QueryService.query` and
        ``batch``).  ``None`` (default) = no implicit deadline.
    retries:
        Re-dispatch rounds allowed per failed shard chunk (see
        :class:`~repro.serving.faults.RetryPolicy`, whose default
        backoff spaces the rounds).
    chunk_timeout:
        Per-chunk hang watchdog in seconds (``None`` disables): a
        dispatched chunk unanswered this long has its pool rebuilt and
        is re-dispatched.
    faults:
        Fault-injection plan for chaos testing — anything
        :meth:`~repro.serving.faults.FaultPlan.coerce` accepts (a
        :class:`~repro.serving.faults.FaultPlan` or its compact string).
        ``None`` (default) turns injection fully off; no environment
        variable turns it on.  Faults apply to sharded execution only
        (``workers >= 2``).
    trace:
        Request tracing (:mod:`repro.obs`): ``None``/``False`` off
        (default, near-zero cost — every instrumentation point is one
        attribute check), ``True`` record every request, a float in
        ``(0, 1]`` the sample rate, or a full
        :class:`~repro.obs.trace.TraceConfig` (sample rate, span-store
        bound, slow-query threshold).  Sampled requests produce span
        trees covering cache lookup, coalescing, shard dispatch, and
        per-worker chunk compute, exported via
        :meth:`QueryService.tracer` (JSONL / Chrome trace-event) and the
        HTTP ``/debug/traces`` endpoint.
    """

    workers: int = 0
    backend: str = "auto"
    kernel: str = "auto"
    locator: str = "auto"
    shard_min_batch: int = 4096
    shard_chunk: Optional[int] = None
    max_batch: int = 256
    flush_window: float = 0.005
    cache_capacity: int = 4096
    default_timeout: Optional[float] = None
    retries: int = 2
    chunk_timeout: Optional[float] = None
    faults: object = None
    trace: object = None

    def __post_init__(self) -> None:
        from ..obs.trace import TraceConfig

        # Coerce eagerly so an invalid trace spec fails at construction
        # (idempotent: a TraceConfig passes through unchanged).
        self.trace = TraceConfig.coerce(self.trace)
        # Same eager policy for fault plans.
        self.faults = FaultPlan.coerce(self.faults)
        if self.default_timeout is not None and not self.default_timeout > 0:
            raise ValueError(f"default_timeout must be positive (or None), "
                             f"got {self.default_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise ValueError(f"chunk_timeout must be positive (or None), "
                             f"got {self.chunk_timeout}")
        if self.backend != "auto":
            raise ValueError(f"backend must be 'auto' (the host decides "
                             f"the executor rung), got {self.backend!r}")
        if self.kernel != "auto":
            raise ValueError(f"kernel must be 'auto' (the host has one "
                             f"kernel provider), got {self.kernel!r}")
        if self.locator != "auto":
            raise ValueError(f"locator must be 'auto' (V_Pr has one point "
                             f"locator), got {self.locator!r}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        for field in ("shard_min_batch", "max_batch"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if self.shard_chunk is not None and self.shard_chunk < 1:
            raise ValueError(
                f"shard_chunk must be >= 1 (or None), got {self.shard_chunk}")
        if self.flush_window <= 0:
            raise ValueError(
                f"flush_window must be positive, got {self.flush_window}")
        if self.cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0 (0 disables), "
                             f"got {self.cache_capacity}")


class QueryService:
    """Serve scalar / coalesced / sharded queries over one shared index."""

    def __init__(self, index, config: Optional[ServiceConfig] = None,
                 vpr=None) -> None:
        self.index = index
        self.config = config or ServiceConfig()
        cfg = self.config
        if vpr is not None:
            index.use_vpr(vpr)
        # Encode the already-built V_Pr (adopted above, or prebuilt on
        # the index) into flat plane arrays once: process executor
        # workers attach the build-once plane instead of each rebuilding
        # the Theta(N^4) diagram.  Planes exist only for discrete
        # diagrams; anything else serves V_Pr from the parent index.
        self.plane = None
        if cfg.workers >= 2 and index._vpr is not None:
            try:
                self.plane = plane_to_arrays(index._vpr)
            except CodecUnsupported:
                self.plane = None
        self.registry = Registry()
        # The live QueryGateway whose families are in the registry.
        self.gateway = None
        self.tracer = Tracer(cfg.trace, self.registry)
        self._register_families()
        self.resilience = resilience_counters(self.registry)
        # The breaker's default threshold (3 consecutive failures) demotes
        # the executor one rung down process -> thread -> inline.
        self.breaker = CircuitBreaker()
        self.cache: Optional[ResultCache] = (
            ResultCache(cfg.cache_capacity)
            if cfg.cache_capacity > 0 else None)
        if self.cache is not None:
            self.cache.register(self.registry)
        self.executor: Optional[ShardExecutor] = None
        if cfg.workers >= 2:
            self.executor = ShardExecutor(
                index, workers=cfg.workers, chunk_size=cfg.shard_chunk,
                tracer=self.tracer,
                policy=RetryPolicy(retries=cfg.retries,
                                   chunk_timeout=cfg.chunk_timeout),
                faults=cfg.faults, resilience=self.resilience,
                breaker=self.breaker, plane=self.plane)
        self.batcher = MicroBatcher(self._flush_group,
                                    max_batch=cfg.max_batch)
        self._closed = False

    def _register_families(self) -> None:
        """The per-kind families, and the backend, kernel and V_Pr state
        read at scrape time (the process-wide ENGINE/KERNEL included)."""
        reg = self.registry
        self.requests, self.cache_hits, self.cache_misses, self.failures = (
            reg.counter(f"repro_service_{name}_total", help_text, ("kind",))
            for name, help_text in (
                ("requests", "Query rows answered by the service per kind "
                             "(HTTP and in-process callers)."),
                ("cache_hits", "Result-cache hits per kind."),
                ("cache_misses", "Result-cache misses per kind."),
                ("failures", "Engine/executor invocations ending in an "
                             "exception per kind (deadline expiry, "
                             "exhausted retries).")))
        self.latency = reg.summary("repro_service_latency_seconds",
                                   "Engine batch execution time per kind.",
                                   ("kind",))
        # Reported by stats() only: the exported family set is fixed.
        self.sharded = Counter("repro_service_sharded_calls_total",
                               "Batch calls routed through the executor.",
                               ("kind",))
        for family in (self.requests, self.cache_hits, self.cache_misses,
                       self.failures, self.latency, self.sharded):
            family.declare(*SHARD_METHODS)
        reg.gauge("repro_backend_state",
                  "Executor backend currently serving this process "
                  "(1 = active; moves down the ladder on degradation).",
                  ("backend",), fn=lambda: None if self.executor is None
                  else {mode: int(self.executor.mode == mode)
                        for mode in LADDER})
        reg.gauge("repro_backend_degraded",
                  "1 when the executor has left the rung it started on.",
                  fn=lambda: None if self.executor is None
                  else int(self.executor.degraded))
        reg.gauge("repro_kernel_provider",
                  "Compute-kernel provider this host resolved (1 = in use; "
                  "worker processes resolve the same one).", ("provider",),
                  fn=lambda: {p: int(get_provider().name == p)
                              for p in ("native", "numpy")})
        reg.gauge("repro_kernel_native_available",
                  "1 when the compiled native kernel library is usable here.",
                  fn=lambda: int(native_available()))
        reg.register(ENGINE)
        reg.register(KERNEL)

        def locator_kind():
            kind = self._vpr_value("locator_stats.kind")
            return None if kind is None else {kind: 1}

        reg.gauge("repro_vpr_plane_locator",
                  "1 when the built V_Pr diagram's point locator (the "
                  "merged-slab tree) is resident.", ("kind",),
                  fn=locator_kind)
        for name, path, help_text in (
                ("built", "built",
                 "1 when this process holds a built V_Pr diagram."),
                ("plane_resident", "plane_served",
                 "1 when the built V_Pr plane is encoded and served to "
                 "executor workers (they attach it: zero per-worker "
                 "diagram rebuilds)."),
                ("build_seconds", "build_seconds",
                 "Wall time of the full V_Pr diagram build."),
                ("plane_bytes", "plane_bytes",
                 "Total bytes of the encoded shared-plane arrays."),
                ("plane_locator_bytes", "locator_stats.nbytes",
                 "Point-locator size in bytes (O(E log S) entries)."),
                ("plane_locator_entries", "locator_stats.entries",
                 "Entries held by the point locator."),
                ("plane_locator_build_seconds", "locator_stats.build_seconds",
                 "Wall time of the point-locator build.")):
            reg.gauge(f"repro_vpr_{name}", help_text,
                      fn=functools.partial(self._vpr_value, path))

    def _vpr_value(self, path: str) -> object:
        """One :meth:`vpr_info` field (``locator_stats.nbytes``), a bool
        as 0/1 and a missing one as ``None``."""
        value: object = self.vpr_info()
        for part in path.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        return int(value) if isinstance(value, bool) else value

    # ------------------------------------------------------------------
    # Parameter canonicalization — one stable signature per method, so
    # cache keys and coalescing groups agree on equality.
    # ------------------------------------------------------------------
    def canonicalize(self, method: str, overrides: Dict) -> Dict:
        """Validate *method*/*overrides* into the canonical params dict.

        The one validation gate for every front door — :meth:`query`,
        :meth:`batch`, and the HTTP layer
        (:mod:`repro.serving.http`) all funnel through here, so an
        invalid method or parameter fails identically (``ValueError`` /
        ``TypeError``) no matter how the request arrived.  Idempotent:
        feeding a canonical dict back in returns it unchanged, which lets
        a front door validate early and pass the result along.
        """
        if method not in SHARD_METHODS:
            raise ValueError(f"unknown query method {method!r}; "
                             f"expected one of {SHARD_METHODS}")
        # The Eq. (2) sweep and V_Pr serve discrete points only.  Checked
        # before admission: in the shard workers the engine's error would
        # walk the retry ladder and demote the backend.
        if (method in ("quantify_exact", "quantify_vpr")
                and not self.index.all_discrete()):
            raise ValueError(f"{method} requires an index of discrete "
                             f"uncertain points")
        if method in ("delta", "nonzero_nn", "quantify_vpr"):
            if overrides:
                raise TypeError(f"{method} takes no parameters, "
                                f"got {sorted(overrides)}")
            return {}
        if method == "quantify_exact":
            params = {"tie_tol": 0.0}
            unknown = set(overrides) - set(params)
            if unknown:
                raise TypeError(f"{method} got unknown parameters "
                                f"{sorted(unknown)}")
            params.update(overrides)
            params["tie_tol"] = check_tie_tol(params["tie_tol"])
            return params
        params = {"method": "auto", "epsilon": 0.05, "delta": 0.05,
                  "seed": 0}
        if method == "top_k":
            params["k"] = 1
        if method == "threshold_nn":
            params["tau"] = 0.5
            params["epsilon"] = None
        unknown = set(overrides) - set(params)
        if unknown:
            raise TypeError(f"{method} got unknown parameters "
                            f"{sorted(unknown)}")
        params.update(overrides)
        # Integers only: a float k or seed would fail deep in an engine
        # (a 500) or, as NaN, key a cache entry no lookup can ever hit.
        params["seed"] = _int_param("seed", params["seed"])
        if method == "top_k":
            params["k"] = _int_param("k", params["k"], minimum=1)
        # Probabilities in (0, 1), checked before admission: a bad one
        # would otherwise fail inside an engine, after coalescing, or key
        # a cache entry for a request no estimator can serve.
        if method == "threshold_nn":
            params["tau"] = _unit_param("tau", params["tau"])
            if params["epsilon"] is None:
                params["epsilon"] = params["tau"] / 4.0
        params["epsilon"] = _unit_param("epsilon", params["epsilon"])
        params["delta"] = _unit_param("delta", params["delta"])
        if method == "threshold_nn" and not params["epsilon"] < params["tau"]:
            raise ValueError(f"epsilon must be below tau={params['tau']!r}, "
                             f"got {params['epsilon']!r}")
        # The estimator, checked before admission: an unknown name would
        # otherwise fail in every shard worker, where a deterministic
        # error walks the retry ladder and demotes the backend.
        estimator = params["method"]
        if not isinstance(estimator, str) or estimator not in ESTIMATORS:
            raise ValueError(f"method must be one of {ESTIMATORS}, "
                             f"got {estimator!r}")
        # Spiral search needs discrete points; exact quadrature over
        # continuous models is a library reference (seconds per row, its
        # sum short of 1 far from the sites), not served.
        if (estimator in ("spiral", "exact")
                and not self.index.all_discrete()):
            raise ValueError(f"method {estimator!r} requires an index of "
                             f"discrete uncertain points")
        # Resolve "auto" once: the choice depends only on the index, and a
        # resolved name keeps cache keys stable across call styles.
        if estimator == "auto":
            params["method"] = ("spiral" if self.index.all_discrete()
                                else "monte_carlo")
        return params

    @staticmethod
    def _params_key(params: Dict) -> Tuple:
        return tuple(sorted(params.items()))

    # ------------------------------------------------------------------
    # Tracing plumbing.
    # ------------------------------------------------------------------
    def _request_span(self, name: str, method: str):
        """The span of one front-door request: a child of the ambient
        span (an HTTP gateway root, or a caller's ``tracer.root`` block),
        a fresh sampled-if-lucky root when there is no ambient context,
        and :data:`~repro.obs.trace.NULL_SPAN` whenever tracing is off or
        the surrounding trace was not sampled — the one-check fast path
        every front door takes before touching any other tracing code.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return NULL_SPAN
        parent = current_span()
        if parent is NULL_SPAN:
            return tracer.start_trace(name, kind=method)
        return tracer.start_span(name, parent=parent, kind=method)

    # ------------------------------------------------------------------
    # The execution spine (shared by coalesced and batch paths).
    # ------------------------------------------------------------------
    def _deadline(self, timeout) -> Optional[Deadline]:
        """Resolve a per-request ``timeout=`` into an optional deadline.

        ``None`` falls back to :attr:`ServiceConfig.default_timeout`; an
        already-armed :class:`Deadline` (the HTTP gateway starts the
        clock at request parse, so queue time counts) passes through.
        """
        if timeout is None:
            timeout = self.config.default_timeout
        return Deadline.coerce(timeout)

    def _run_batch(self, method: str, q: np.ndarray, params: Dict,
                   deadline: Optional[Deadline] = None,
                   encode: bool = False) -> object:
        """One engine/executor invocation over a validated query array;
        with *encode* the answer is the rows' JSON fragment (bytes),
        encoded by the shard workers when the batch shards."""
        if self._closed:
            raise RuntimeError("QueryService is closed")
        if deadline is not None and deadline.expired:
            # Expired while queued (cache walk, coalesce wait): don't
            # start an engine call whose answer nobody is waiting for.
            self.resilience["deadline_exceeded"].inc()
            self.failures.inc(method)
            raise DeadlineExceeded(
                f"deadline of {deadline.timeout * 1e3:.0f} ms exceeded "
                f"before {method} execution started")
        cfg = self.config
        # quantify_vpr only fans out over backends that share this
        # service's index (thread, inline) or hold an attached copy of
        # its built plane (serves_plane) — a plain process worker
        # replica would otherwise lazily rebuild its own Theta(N^4)
        # diagram (once per worker, default window) and silently ignore
        # an adopted prebuilt V_Pr.
        fan_out = (method != "quantify_vpr"
                   or (self.executor is not None
                       and (self.executor.impl.mode != "process"
                            or self.executor.impl.serves_plane)))
        # An inline-mode executor adds chunking overhead for no
        # parallelism, so plain traffic takes the direct engine call —
        # *unless* the request carries a deadline (the chunked loop is
        # what enforces it mid-batch) or a fault plan is active (chaos
        # runs must exercise the resilient path on every backend).
        resilient = (deadline is not None
                     or (self.executor is not None
                         and self.executor.faults is not None))
        sharded = (self.executor is not None
                   and (self.executor.mode != "inline" or resilient)
                   and fan_out
                   and len(q) >= cfg.shard_min_batch)
        tracer = self.tracer
        espan = (tracer.start_span("service.execute", method=method,
                                   rows=int(len(q)), sharded=sharded)
                 if tracer.enabled else NULL_SPAN)
        start = time.perf_counter()

        def execute() -> object:
            if sharded:
                return self.executor.run(method, q, params,
                                         deadline=deadline, encode=encode)
            # Same mapping the shard replicas use: every query kind is an
            # index batch_<method> front door (method already validated).
            # An in-process engine call cannot be preempted mid-kernel,
            # so only sharded execution enforces the deadline *during*
            # compute.
            if encode:
                return encode_batch(self.index, method, q, params)
            return getattr(self.index, f"batch_{method}")(q, **params)

        try:
            if espan is NULL_SPAN:
                result = execute()
            else:
                # Ambient for the duration so ShardExecutor.run parents
                # its dispatch/reassembly spans (and the re-adopted
                # worker chunk spans) under this execution.
                with use_span(espan), espan:
                    result = execute()
        except Exception:
            self.failures.inc(method)
            raise
        self.latency.observe(method, time.perf_counter() - start)
        self.requests.inc(method, len(q))
        if sharded:
            self.sharded.inc(method)
        return result

    @staticmethod
    def _rows(method: str, result: object) -> List[object]:
        """The per-row view of a method-native batch result."""
        if method == "delta":
            return list(result)  # type: ignore[call-overload]
        return result  # type: ignore[return-value]

    def _compute_rows(self, method: str, queries: Sequence[Tuple[float,
                                                                 float]],
                      params: Dict,
                      deadline: Optional[Deadline] = None) -> List[object]:
        """Answer rows for a list of scalar queries, filling the cache."""
        q = np.asarray(queries, dtype=np.float64).reshape(len(queries), 2)
        rows = self._rows(method, self._run_batch(method, q, params,
                                                  deadline))
        if self.cache is not None:
            pkey = self._params_key(params)
            for point, row in zip(queries, rows):
                self.cache.put(self.cache.key(method, point, pkey), row)
        return rows

    def _flush_group(self, method: str,
                     queries: List[Tuple[float, float]],
                     params_key: Tuple, spans: Sequence,
                     deadline: Optional[Deadline]) -> List[object]:
        """MicroBatcher callback: answer one coalesced group.

        *spans* are the ``coalesce.wait`` spans of the sampled requests
        in the group (empty when none is traced).  When any exist, the
        flush itself becomes one ``coalesce.flush`` span in the first
        waiter's trace; every waiter links to it and learns the batch
        size it coalesced into — the many-requests-to-one-execution
        join the access log and trace viewers reconstruct.

        *deadline* is the group-wide (laxest-member) deadline the
        batcher merged — expiry fails every request of the group with
        :class:`DeadlineExceeded`.
        """
        if not spans:
            return self._compute_rows(method, queries, dict(params_key),
                                      deadline)
        fspan = self.tracer.start_span(
            "coalesce.flush", parent=spans[0], method=method,
            batch_size=len(queries))
        for span in spans:
            span.link(fspan)
            span.set(batch_size=len(queries))
        try:
            with use_span(fspan), fspan:
                return self._compute_rows(method, queries,
                                          dict(params_key), deadline)
        finally:
            # The wait spans opened in query() close here — whether the
            # engine answered or raised — so no span leaks open.
            for span in spans:
                span.finish()

    def _cache_lookup(self, method: str, q: Tuple[float, float],
                      params: Dict) -> Tuple[bool, object]:
        """One accounted cache consultation for a scalar request.

        The first step of :meth:`query`, the one scalar front door
        (in-process callers and the HTTP gateway alike).  ``(False,
        None)`` when there is no cache.
        """
        if self.cache is None:
            return False, None
        cspan = (self.tracer.start_span("service.cache", method=method)
                 if self.tracer.enabled else NULL_SPAN)
        with cspan:
            hit, value = self.cache.get(
                self.cache.key(method, q, self._params_key(params)))
            cspan.set(hit=hit)
        if hit:
            self.cache_hits.inc(method)
            self.requests.inc(method)
        else:
            self.cache_misses.inc(method)
        return hit, value

    # ------------------------------------------------------------------
    # Scalar front door.
    # ------------------------------------------------------------------
    def query(self, method: str, q: Tuple[float, float], /, *,
              timeout=None, **overrides) -> object:
        """Answer one query: the cache, else the coalescer.

        ``method`` and ``q`` are positional-only so estimator overrides
        (which also use the name ``method``) pass through ``overrides``.
        A cache hit returns at once, and so does a miss whose group is
        idle: it runs inline as a one-row flush.  A miss arriving while
        a flush of its group runs waits for that flush, then for the
        next one, which carries it.  *timeout* (seconds, or a prepared
        :class:`Deadline`) bounds the request end to end, coalescing
        wait included; ``None`` uses the config default.  A *q* outside
        the index's query domain raises :class:`ValueError` here, before
        it can join (and fail) a shared coalesced batch.
        """
        params = self.canonicalize(method, overrides)
        check_query_domain(q, self.index.query_window)
        deadline = self._deadline(timeout)
        span = self._request_span("service.query", method)
        if span is NULL_SPAN:
            return self._query(method, q, params, NULL_SPAN, deadline)
        with use_span(span), span:
            return self._query(method, q, params, span, deadline)

    def _query(self, method: str, q: Tuple[float, float], params: Dict,
               span, deadline: Optional[Deadline]) -> object:
        """The :meth:`query` body, with *span* already ambient (or
        NULL_SPAN)."""
        hit, value = self._cache_lookup(method, q, params)
        span.set(cache_hit=hit)
        if hit:
            return value
        if span is NULL_SPAN:
            return self.batcher.submit(method, q, self._params_key(params),
                                       deadline=deadline)
        # The wait span is closed by the flush that carries the request
        # (see _flush_group), so its duration is the time the request
        # spent coalescing and computing.
        wspan = self.tracer.start_span("coalesce.wait", parent=span,
                                       method=method)
        try:
            return self.batcher.submit(
                method, q, self._params_key(params),
                span=wspan if wspan.sampled else None,
                deadline=deadline)
        except BaseException:
            wspan.finish()
            raise

    # ------------------------------------------------------------------
    # Batch front door.
    # ------------------------------------------------------------------
    def batch(self, method: str, queries, /, *, timeout=None,
              **overrides) -> object:
        """Answer an ``(m, 2)`` array of queries in one engine call.

        Large batches shard across workers when available; batches do
        not consult the result cache.  ``delta`` returns a float array,
        the other methods lists — exactly the containers the underlying
        ``PNNIndex.batch_*`` calls produce.  *timeout* (seconds or a
        :class:`Deadline`) bounds the call; sharded execution enforces
        it mid-flight, in-process execution at the engine boundary.
        """
        return self._batch(method, queries, timeout, overrides, False)

    def batch_encoded(self, method: str, queries, /, *, timeout=None,
                      **overrides) -> bytes:
        """:meth:`batch`, answered as JSON bytes for a reply body.

        Returns the fragment of the rows (the encoded rows joined by
        ``", "``, the inside of a bulk reply's ``results`` array).  A
        sharded batch is encoded by the shard workers and only joined
        here; an unsharded one (inline backend, small arrays) is encoded
        in-process by the same function, :func:`~repro.serving.wire.
        encode_batch`.  A non-finite answer raises
        :class:`~repro.serving.wire.NonFiniteAnswer`, checked here in
        the parent so that it never reaches the retry ladder.
        """
        fragment = self._batch(method, queries, timeout, overrides, True)
        check_finite(method, fragment)
        return fragment

    def _batch(self, method: str, queries, timeout, overrides: Dict,
               encode: bool) -> object:
        """The body of :meth:`batch` / :meth:`batch_encoded`."""
        params = self.canonicalize(method, overrides)
        deadline = self._deadline(timeout)
        q = as_query_array(queries, self.index.query_window)
        m = len(q)
        if m == 0:
            if encode:
                return b""
            return (np.empty(0, dtype=np.float64) if method == "delta"
                    else [])
        span = self._request_span("service.batch", method)
        if span is NULL_SPAN:
            return self._run_batch(method, q, params, deadline, encode)
        with use_span(span), span:
            span.set(rows=m)
            return self._run_batch(method, q, params, deadline, encode)

    # ------------------------------------------------------------------
    # Introspection and lifecycle.
    # ------------------------------------------------------------------
    def vpr_info(self) -> Dict[str, object]:
        """The ``V_Pr`` serving posture: diagram, locator, plane residency.

        One document for ``/healthz`` and ``service.stats()``: whether a
        diagram is built, its locator stats (kind, entries, bytes, build
        seconds), whether a shared plane was encoded for the executor,
        and whether the live backend serves it.
        """
        info: Dict[str, object] = {
            "built": self.index._vpr is not None,
            "plane_encoded": self.plane is not None,
            "plane_served": (self.executor is not None
                             and self.executor.impl.serves_plane),
        }
        if self.plane is not None:
            info["plane_bytes"] = int(
                sum(a.nbytes for a in self.plane.values()))
        vpr = self.index._vpr
        if vpr is not None:
            info["faces"] = vpr.num_faces
            info["build_seconds"] = getattr(vpr, "build_seconds", None)
            try:
                info["locator_stats"] = vpr.locator_stats()
            except Exception:  # noqa: BLE001 — introspection must not fail
                pass
        return info

    def method_stats(self, method: str) -> Dict[str, object]:
        """One kind's counters, hit rate and engine-latency summary."""
        hits = self.cache_hits.get(method)
        misses = self.cache_misses.get(method)
        latency = self.latency.snapshot(method)
        out: Dict[str, object] = {
            "requests": self.requests.get(method),
            "batch_calls": latency["count"],
            "sharded_calls": self.sharded.get(method),
            "failures": self.failures.get(method),
            "cache_hits": hits,
            "cache_misses": misses,
            "hit_rate": _hit_rate(hits, misses),
        }
        out.update(latency)
        return out

    def stats(self) -> Dict[str, object]:
        """A point-in-time snapshot of every counter the service keeps."""
        snap: Dict[str, object] = {
            "methods": {kind: self.method_stats(kind)
                        for kind in sorted(SHARD_METHODS)},
            "total_requests": self.requests.total(),
        }
        if self.tracer.enabled:
            snap["trace"] = self.tracer.snapshot()
        if self.cache is not None:
            hits, misses = self.cache_hits.total(), self.cache_misses.total()
            snap["cache"] = dict(self.cache.snapshot(), hits=hits,
                                 misses=misses,
                                 hit_rate=_hit_rate(hits, misses))
        snap["resilience"] = {name: counter.get() for name, counter
                              in self.resilience.items()}
        if self.executor is not None:
            health = self.executor.health()
            del health["resilience"]  # reported above
            snap["executor"] = dict(health,
                                    start_method=self.executor.start_method)
        snap["vpr"] = self.vpr_info()
        snap["coalescer"] = {
            "submitted": self.batcher.submitted,
            "flushes": self.batcher.flushes,
            "largest_batch": self.batcher.largest_batch,
            "pending": self.batcher.pending,
        }
        return snap

    def close(self) -> None:
        """Drain the coalescer and stop the worker pool (idempotent)."""
        if self._closed:
            return
        self.batcher.close()   # waits out every running flush first
        self._closed = True
        if self.executor is not None:
            self.executor.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # A service dropped without a context manager must still tear
        # down its worker pool — no leaked processes or semaphores.
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter-shutdown noise
            pass
