"""``repro.serving`` — the service layer over the batch-query engine.

Turns the library's batch primitives into a query *service* able to
sustain bursty multi-client traffic against one shared
:class:`~repro.core.index.PNNIndex`:

* :class:`QueryService` — the front door (scalar, coalesced-async, and
  batch calls for all seven query kinds, ``quantify_vpr`` included),
  built via ``PNNIndex.serve()``;
* :class:`MicroBatcher` — request coalescing into vectorized batches;
* :class:`ShardExecutor` — the dispatch/reassembly plan over a pluggable
  :class:`ExecutorBackend` (:mod:`repro.serving.executors`): ``process``
  worker replicas, a ``thread`` pool over the shared index, or
  ``inline`` serial execution — all with ordered, bitwise-identical
  reassembly;
* :class:`ResultCache` — exact-keyed LRU over the piecewise-stable
  answer fields, with hit/miss/eviction accounting;
* :class:`QueryGateway` / :class:`ServerThread` (:mod:`repro.serving.http`)
  — the async HTTP front door: REST endpoints for all seven kinds with
  admission control (bounded pending queue, 429 shedding), ``/healthz``
  readiness, and Prometheus ``/metrics``;
* :mod:`repro.serving.faults` — the resilience layer: end-to-end
  :class:`Deadline` propagation (504 on expiry), :class:`RetryPolicy`
  chunk re-dispatch with pool self-healing, a :class:`CircuitBreaker`
  gating the runtime degradation ladder, and the deterministic
  :class:`FaultPlan` chaos-injection harness.

``perfbench/`` measures the served throughput, latency and memory end
to end over HTTP; ``python -m repro serve-demo``
exercises the in-process stack and ``python -m repro serve-http`` boots
the network front door.
"""

from .cache import ResultCache
from .coalesce import MicroBatcher
from .http import HttpConfig, QueryGateway, ServerThread, create_asgi_app
from .executors import (
    BACKENDS,
    BackendUnavailable,
    ExecutorBackend,
    IndexReplica,
    InlineBackend,
    ProcessBackend,
    SHARD_METHODS,
    ThreadBackend,
    create_backend,
)
from .faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    WorkerFailure,
)
from .service import QueryService, ServiceConfig
from .shard import ShardExecutor

__all__ = [
    "BACKENDS",
    "BackendUnavailable",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "ExecutorBackend",
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "HttpConfig",
    "IndexReplica",
    "InlineBackend",
    "MicroBatcher",
    "ProcessBackend",
    "QueryGateway",
    "QueryService",
    "ResultCache",
    "RetryPolicy",
    "SHARD_METHODS",
    "ServerThread",
    "ServiceConfig",
    "ShardExecutor",
    "ThreadBackend",
    "WorkerFailure",
    "create_asgi_app",
    "create_backend",
]
