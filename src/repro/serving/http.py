"""The async HTTP front door: REST serving with admission control.

Everything below :class:`~repro.serving.service.QueryService` is an
in-process API; this module is what actually takes traffic.  It exposes
all seven query kinds (``delta``, ``nonzero_nn``, ``quantify``,
``quantify_exact``, ``quantify_vpr``, ``top_k``, ``threshold_nn``) over
HTTP, single-point and bulk, and feeds them into the *existing* serving
spine — singles go through :meth:`QueryService.submit` (so concurrent
HTTP clients coalesce into vectorized micro-batches), bulks through
:meth:`QueryService.batch_encoded` (so large arrays shard across the
executor backend).  No request handling is forked: validation, caching,
and dispatch are the service's own (:meth:`QueryService.canonicalize`,
``_cache_lookup``, ``_run_batch``), identical to the in-process callers.

Reply bytes come from the wire codec (:mod:`repro.serving.wire`, whose
``encode_result``/``decode_result`` this module re-exports) and are
byte-identical to ``json.dumps(doc, allow_nan=False)``.  A bulk reply is
encoded where it is computed — by the shard workers when the batch
shards — and framed on the gateway's pool thread inside the
``http.request`` span; the event loop parses requests and writes bytes,
and does no per-row work.  A non-finite answer fails closed as a 500.

Endpoints
---------
``POST /v1/query/<kind>``
    Body ``{"q": [x, y], "params": {...}}`` for one point, or
    ``{"queries": [[x, y], ...], "params": {...}}`` for an ``(m, 2)``
    bulk array.  ``params`` takes the same overrides as the python API
    (``k``, ``tau``, ``epsilon``, ``method``, ``seed``, ``tie_tol``).
``GET /healthz``
    Readiness probe: ``503`` until the backend warm-up queries have run,
    ``200`` after (load balancers gate traffic on it).
``GET /metrics``
    Prometheus text format: the service's metrics registry
    (:class:`~repro.obs.metrics.Registry`) rendered, with the gateway's
    own families — per-kind request/shed counters, in-flight and pending
    gauges, HTTP wall-time summaries — registered beside the service's.
``GET /``
    A JSON index of the endpoints and served kinds.

Admission control
-----------------
The gateway holds a configurable in-flight cap (``max_inflight`` engine
threads actually executing) and a bounded pending queue
(``max_pending`` admitted requests waiting for a slot).  A request
arriving with every slot busy and the queue full is **shed immediately
with 429** (plus ``Retry-After``) — the server degrades by refusing
early rather than by building an unbounded backlog whose every entry
times out.  ``/metrics`` exports the shed count per kind.

Transports
----------
Two adapters share one transport-agnostic core (:class:`QueryGateway`):

* a **pure-stdlib asyncio HTTP/1.1 server** (:func:`handle_connection` /
  :class:`ServerThread` / :func:`serve_forever`) — zero dependencies, the
  tier-1 path;
* a **thin ASGI app** (:func:`create_asgi_app`) with lifespan support,
  mountable under uvicorn/hypercorn/FastAPI-style stacks when one is
  installed (none is required).

``python -m repro serve-http`` boots the stdlib server; ``python -m repro
smoke`` (:mod:`repro.serving.smoke`) drives it end to end.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.logging import RequestLog
from ..spatial.kernels import kernel_status
from ..obs.trace import (NULL_SPAN, call_with_span, current_span,
                         format_traceparent, to_chrome, to_jsonl, use_span)
from ..spatial.batch import check_query_domain
from .faults import Deadline, DeadlineExceeded
from .shard import SHARD_METHODS
from .wire import (NonFiniteAnswer, bulk_reply, decode_result, dumps,
                   encode_result)

_LOG = logging.getLogger("repro.serving.http")

__all__ = [
    "HttpConfig",
    "QueryGateway",
    "ServerThread",
    "create_asgi_app",
    "decode_result",
    "encode_result",
    "handle_connection",
    "serve_forever",
]

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 499: "Client Closed Request",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: Request header carrying a whole-request deadline in milliseconds
#: (the JSON body's ``timeout_ms`` field takes precedence when both are
#: present).  Matched case-insensitively like every other header.
DEADLINE_HEADER = "x-request-deadline-ms"

#: Sentinel distinguishing "request was shed" from any engine result.
_SHED = object()

#: Serializes the one-live-gateway-per-service claim.
_CLAIM_LOCK = threading.Lock()


@dataclass
class HttpConfig:
    """Tunables of the HTTP front door (validated eagerly).

    Attributes
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests, smoke).
    max_inflight:
        Engine executions running concurrently — also the size of the
        thread pool that carries blocking service calls off the event
        loop.  This cap is what keeps a traffic spike from turning into
        unbounded thread/memory growth.
    max_pending:
        Admitted requests allowed to wait for an execution slot; one
        more and the server sheds with 429 instead of queueing.
    max_bulk_rows:
        Largest accepted bulk array (413 beyond it).
    max_body_bytes:
        Largest accepted request body (413 beyond it).
    keep_alive_timeout:
        Seconds an idle keep-alive connection may hold its socket.
    warm_kinds:
        Query kinds run once at startup to spin up the executor backend
        and lazy engines; ``/healthz`` reports 503 until they finish.
    access_log:
        Structured-JSON access log sink: a file path, ``"-"`` for
        stderr, or ``None`` (default) for none.  The slow-query ring
        behind ``GET /debug/slow`` fills either way.
    log_level:
        Access-log threshold: ``"INFO"`` writes one record per request,
        ``"WARNING"`` only the slow ones (>= the tracer's ``slow_ms``).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 4
    max_pending: int = 64
    max_bulk_rows: int = 100_000
    max_body_bytes: int = 8 << 20
    keep_alive_timeout: float = 10.0
    warm_kinds: Tuple[str, ...] = ("delta",)
    access_log: Optional[str] = None
    log_level: str = "INFO"

    def __post_init__(self) -> None:
        for name, floor in (("max_inflight", 1), ("max_bulk_rows", 1),
                            ("max_body_bytes", 1)):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, "
                                 f"got {getattr(self, name)}")
        if self.max_pending < 0:
            raise ValueError(f"max_pending must be >= 0 (0 sheds whenever "
                             f"all slots are busy), got {self.max_pending}")
        if self.keep_alive_timeout <= 0:
            raise ValueError(f"keep_alive_timeout must be positive, "
                             f"got {self.keep_alive_timeout}")
        unknown = set(self.warm_kinds) - set(SHARD_METHODS)
        if unknown:
            raise ValueError(f"unknown warm_kinds {sorted(unknown)}; "
                             f"expected a subset of {SHARD_METHODS}")


def _parse_point(value: object, window=None) -> Tuple[float, float]:
    """One ``[x, y]`` JSON pair as floats.

    With a *window* (the single-point path) the point must also lie in
    the index's query domain — json.loads accepts the NaN / Infinity
    literals — so a bad point is rejected here, before it can join (and
    fail) a shared coalesced flush.  Bulk rows are checked afterwards in
    one vectorized pass by :meth:`QueryService.batch`.
    """
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       for c in value)):
        raise ValueError("a query point must be a [x, y] number pair")
    try:
        x, y = float(value[0]), float(value[1])
    except OverflowError:
        raise ValueError("a query point must have finite coordinates") \
            from None
    if window is not None:
        check_query_domain((x, y), window)
    return x, y


def _json_path(node: object, target: object, path: str = ""
               ) -> Optional[str]:
    """Where *target* sits in a parsed JSON document (``queries[1][0]``)."""
    if node is target:
        return path or "top level"
    if isinstance(node, dict):
        items = ((f"{path}.{k}".lstrip("."), v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{j}]", v) for j, v in enumerate(node))
    else:
        return None
    for where, value in items:
        found = _json_path(value, target, where)
        if found is not None:
            return found
    return None


def _loads_strict(body: bytes) -> object:
    """Parse a request body as standard JSON: ``json.loads`` accepts
    ``NaN``/``Infinity``/``-Infinity``, which are not JSON, so a body
    carrying one raises ``ValueError`` naming where it sits."""
    constant, seen = object(), []
    doc = json.loads(body.decode("utf-8"),
                     parse_constant=lambda name: seen.append(name) or constant)
    if seen:
        raise ValueError(f"{seen[0]} at {_json_path(doc, constant)}: "
                         f"non-finite numbers are not JSON")
    return doc


# ----------------------------------------------------------------------
# The transport-agnostic core.
# ----------------------------------------------------------------------
class QueryGateway:
    """Routing + admission control between HTTP transports and a service.

    The admission state (pending and in-flight counts) is touched only
    on the event-loop thread, so it needs no locks; the blocking service
    calls run on a bounded thread pool whose size *is* the in-flight
    cap.  The gateway's metric families live in the service's registry,
    so a service has one live gateway at a time: constructing a second
    raises ``RuntimeError`` until the first one's :meth:`shutdown`.
    """

    def __init__(self, service, config: Optional[HttpConfig] = None) -> None:
        from concurrent.futures import ThreadPoolExecutor

        with _CLAIM_LOCK:
            if service.gateway is not None:
                raise RuntimeError(
                    "this service already has a live gateway; shut it "
                    "down before starting another (both would scrape "
                    "one set of HTTP families)")
            service.gateway = self
        self.service = service
        self.config = config or HttpConfig()
        cfg = self.config
        # Observability: the service owns the tracer (ServiceConfig
        # trace=...); the gateway owns the access log / slow-query ring,
        # threshold-matched to the tracer's slow_ms.
        self.tracer = service.tracer
        self.request_log = RequestLog(
            path=cfg.access_log, level=cfg.log_level,
            slow_ms=self.tracer.config.slow_ms)
        self._pool = ThreadPoolExecutor(max_workers=cfg.max_inflight,
                                        thread_name_prefix="repro-http")
        self._slots: Optional[asyncio.Semaphore] = None
        self._warm_task: Optional[asyncio.Task] = None
        self._pending = 0
        self._inflight = 0
        # Completion timestamps of recent engine executions: the drain
        # rate behind the dynamic Retry-After estimate on 429s.
        self._completions: deque = deque(maxlen=128)
        self.ready = False
        self.warm_error: Optional[BaseException] = None
        reg = service.registry
        reg.gauge("repro_ready",
                  "1 once backend warm-up finished (healthz readiness).",
                  fn=lambda: int(self.ready))
        reg.gauge("repro_http_inflight",
                  "Requests currently executing on the engine pool.",
                  fn=lambda: self._inflight)
        reg.gauge("repro_http_pending",
                  "Admitted requests waiting for an execution slot.",
                  fn=lambda: self._pending)
        self.requests_total = reg.counter(
            "repro_http_requests_total",
            "HTTP query requests by kind and response code.",
            ("kind", "code"))
        self.shed_total = reg.counter(
            "repro_http_shed_total",
            "Requests shed with 429 by the admission controller.", ("kind",))
        self.disconnects_total = reg.counter(
            "repro_http_client_disconnects_total",
            "Requests abandoned by a client disconnect mid-flight (499).")
        self.latency = reg.summary(
            "repro_http_request_latency_seconds",
            "HTTP request wall time per kind (queueing included).",
            ("kind",))
        reg.counter("repro_slow_requests_total",
                    "Requests at or above the slow-query threshold.",
                    fn=lambda: self.request_log.slow_total)
        # Every kind is listed from the first scrape, hit or not.
        self.shed_total.declare(*SHARD_METHODS)
        self.latency.declare(*SHARD_METHODS)

    # -------------------------------------------------- lifecycle
    async def startup(self) -> None:
        """Bind loop primitives and kick off the (async) backend warm-up.

        Returns immediately — the server can accept connections while the
        warm-up queries run; ``/healthz`` answers 503 until they finish.
        """
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._warm_task = asyncio.get_running_loop().create_task(
            self._warm_async())

    async def _warm_async(self) -> None:
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._pool, self._warm)
        except Exception as exc:  # noqa: BLE001 — surfaced via /healthz
            self.warm_error = exc
        else:
            self.ready = True

    def _warm(self) -> None:
        # One tiny batch per warm kind: spins up the executor backend's
        # pools and builds the lazy batch engines, so the first real
        # request doesn't pay the cold-start.  Runs on a pool thread.
        for kind in self.config.warm_kinds:
            self.service.batch(kind, [(0.0, 0.0)])

    async def shutdown(self) -> None:
        """Stop accepting work and release the execution pool.

        The pool drain is bounded: a worker thread wedged inside an
        engine call (hung backend, fault injection) must not hang the
        whole server teardown silently.  After 30 seconds the drain
        thread is abandoned (daemonized, so it cannot pin the process)
        and a ``RuntimeError`` surfaces the leak to the caller.
        """
        if self._warm_task is not None and not self._warm_task.done():
            self._warm_task.cancel()
            try:
                await self._warm_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self.ready = False
        drained = threading.Event()

        def _drain() -> None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            drained.set()

        threading.Thread(target=_drain, name="repro-http-drain",
                         daemon=True).start()
        deadline = time.monotonic() + 30.0
        try:
            while not drained.is_set():
                if time.monotonic() > deadline:
                    _LOG.error(
                        "gateway execution pool failed to drain within "
                        "30 s (inflight=%d, pending=%d); a worker thread "
                        "is wedged — abandoning the drain",
                        self._inflight, self._pending)
                    raise RuntimeError(
                        "gateway execution pool failed to drain within "
                        "30 s; a worker thread is wedged")
                await asyncio.sleep(0.05)
        finally:
            self.request_log.close()
            with _CLAIM_LOCK:
                if self.service.gateway is self:
                    self.service.gateway = None

    # -------------------------------------------------- execution
    def _run_single(self, kind: str, point: Tuple[float, float],
                    params: Dict, deadline: Optional[Deadline]) -> object:
        """Blocking single-point execution (runs on a pool thread).

        Goes through :meth:`QueryService.submit` so concurrent HTTP
        singles coalesce into one vectorized micro-batch — the same
        cache -> coalescer -> engine path as in-process async callers.
        """
        return self.service.submit(kind, point, timeout=deadline,
                                   **params).result()

    def _run_bulk(self, kind: str, rows: List[Tuple[float, float]],
                  params: Dict, deadline: Optional[Deadline]) -> bytes:
        """Blocking bulk execution, answered as the finished reply body.

        The service's encoded batch front door (row-wise cache for small
        arrays, executor sharding for large) returns the JSON fragment of
        the rows — encoded by the shard workers when the batch shards —
        and the framing happens here, on the pool thread and under the
        request span, so the event loop only writes bytes.
        """
        fragment = self.service.batch_encoded(kind, rows, timeout=deadline,
                                              **params)
        return bulk_reply(kind, len(rows), fragment)

    async def _admit_and_run(self, kind: str, fn: Callable[[], object]
                             ) -> object:
        """Run *fn* under the in-flight cap, or shed (returns _SHED).

        All counter arithmetic happens between awaits on the loop thread,
        so the pending gauge and the shed decision are race-free.

        The pool execution is wrapped in :func:`asyncio.shield` with the
        slot released by a done-callback rather than a ``finally``: when
        the awaiting handler task is *cancelled* (client disconnect), the
        blocking service call cannot be interrupted — it keeps a pool
        thread busy until it returns — so releasing the semaphore at
        cancellation time would over-admit past ``max_inflight``.  The
        callback frees the slot (and records the drain event feeding the
        Retry-After estimate) exactly when the thread actually finishes.
        """
        sem = self._slots
        if sem is None:
            raise RuntimeError("gateway.startup() was not awaited")
        parent = current_span()
        if sem.locked():  # every slot busy -> this request must queue
            if self._pending >= self.config.max_pending:
                self.shed_total.inc(kind)
                return _SHED
            self._pending += 1
            try:
                with self.tracer.start_span("http.queue", parent=parent,
                                            kind=kind):
                    await sem.acquire()
            finally:
                # Runs on the loop thread even when the awaiting task is
                # cancelled mid-queue (client gone): the queue slot is
                # returned before the cancellation propagates.
                self._pending -= 1
        else:
            await sem.acquire()
        self._inflight += 1
        loop = asyncio.get_running_loop()
        if parent.sampled:
            # run_in_executor does not copy contextvars to the pool
            # thread; carry the request span across explicitly.
            work = loop.run_in_executor(
                self._pool, lambda: call_with_span(parent, fn))
        else:
            work = loop.run_in_executor(self._pool, fn)

        def _done(fut: "asyncio.Future") -> None:
            # Loop-thread callback: fires when the pool thread returns,
            # whether or not anyone is still awaiting the result.
            self._inflight -= 1
            sem.release()
            self._completions.append(time.monotonic())
            if not fut.cancelled():
                fut.exception()  # mark retrieved: the awaiter may be gone

        work.add_done_callback(_done)
        return await asyncio.shield(work)

    def _retry_after(self) -> int:
        """Seconds a shed client should wait, from queue depth and the
        recent drain rate; clamped to ``[1, 30]``.

        ``depth / rate`` estimates when the backlog ahead of a retry
        will have drained.  With no recent completions to rate from
        (cold server, stalled engine) the depth itself — seconds if the
        engine manages one execution per second — is the fallback.
        """
        now = time.monotonic()
        depth = self._pending + self._inflight
        recent = [t for t in self._completions if now - t <= 30.0]
        if len(recent) >= 2 and now > recent[0]:
            rate = len(recent) / max(now - recent[0], 1e-3)
            estimate = depth / rate if rate > 0 else 30.0
        else:
            estimate = float(max(depth, 1))
        return max(1, min(30, math.ceil(estimate)))

    def note_client_disconnect(self, path: str) -> None:
        """Account one mid-request client disconnect (nginx's 499)."""
        self.disconnects_total.inc()
        route = path.partition("?")[0]
        if route.startswith("/v1/query/"):
            kind = route[len("/v1/query/"):]
            if kind in SHARD_METHODS:
                self.requests_total.inc((kind, 499))

    # -------------------------------------------------- routing
    async def handle(self, http_method: str, path: str, body: bytes,
                     headers: Optional[Dict[str, str]] = None
                     ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Answer one HTTP request: ``(status, headers, payload)``.

        The single routing table shared by the stdlib server and the
        ASGI adapter, so both transports behave identically.  *path*
        may carry a query string (``/debug/traces?format=jsonl``);
        *headers* (lowercase names) feed trace-context propagation
        (``traceparent``).
        """
        path, _, query = path.partition("?")
        if path == "/healthz":
            if http_method != "GET":
                return self._json(405, {"error": "use GET"})
            return self._healthz()
        if path == "/metrics":
            if http_method != "GET":
                return self._json(405, {"error": "use GET"})
            return 200, [("Content-Type", _PROM)], \
                self.service.registry.render().encode("utf-8")
        if path == "/debug/traces":
            if http_method != "GET":
                return self._json(405, {"error": "use GET"})
            return self._debug_traces(query)
        if path == "/debug/slow":
            if http_method != "GET":
                return self._json(405, {"error": "use GET"})
            return self._json(200, {
                "slow_ms": self.request_log.slow_ms,
                "total": self.request_log.slow_total,
                "requests": self.request_log.slow_snapshot(),
            })
        if path in ("", "/"):
            if http_method != "GET":
                return self._json(405, {"error": "use GET"})
            return self._json(200, {
                "service": "repro probabilistic nearest-neighbor queries",
                "kinds": list(SHARD_METHODS),
                "endpoints": {
                    "query": "POST /v1/query/<kind> "
                             '{"q": [x, y]} or {"queries": [[x, y], ...]}',
                    "health": "GET /healthz",
                    "metrics": "GET /metrics",
                },
            })
        if path.startswith("/v1/query/"):
            kind = path[len("/v1/query/"):]
            if kind not in SHARD_METHODS:
                return self._json(404, {"error": f"unknown kind {kind!r}",
                                        "kinds": list(SHARD_METHODS)})
            if http_method != "POST":
                return self._json(405, {"error": "use POST"})
            return await self._handle_query(kind, body, headers or {})
        return self._json(404, {"error": f"no route for {path!r}"})

    def _debug_traces(self, query: str
                      ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """The trace-store exporters: ``?format=chrome`` (default; the
        Chrome trace-event JSON Perfetto loads as-is) or
        ``?format=jsonl`` (one span record per line); ``?trace_id=``
        restricts the dump to one trace."""
        params = dict(
            pair.partition("=")[::2] for pair in query.split("&") if pair)
        fmt = params.get("format", "chrome")
        trace_id = params.get("trace_id") or None
        records = self.tracer.spans(trace_id)
        if fmt == "jsonl":
            return 200, [("Content-Type",
                          "application/x-ndjson; charset=utf-8")], \
                to_jsonl(records).encode("utf-8")
        if fmt != "chrome":
            return self._json(400, {"error": f"unknown format {fmt!r}; "
                                             "use chrome or jsonl"})
        doc = to_chrome(records)
        doc["metadata"] = {"spans": len(records),
                           "tracer": self.tracer.snapshot()}
        return self._json(200, doc)

    async def _handle_query(self, kind: str, body: bytes,
                            headers: Dict[str, str]
                            ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        start = time.perf_counter()
        span = self.tracer.start_trace(
            "http.request", traceparent=headers.get("traceparent"),
            kind=kind)
        if span is NULL_SPAN:
            status, payload = await self._query_response(kind, body, headers)
        else:
            # The contextvar set survives awaits inside this task, so
            # everything the request touches on the loop thread sees the
            # root span; pool threads get it via call_with_span.
            with use_span(span):
                status, payload = await self._query_response(kind, body,
                                                             headers)
            span.set(status=status)
        duration = time.perf_counter() - start
        self.latency.observe(kind, duration)
        self.requests_total.inc((kind, status))
        extra: List[Tuple[str, str]] = [("Content-Type", _JSON)]
        if status == 429:
            extra.append(("Retry-After", str(self._retry_after())))
        if span is not NULL_SPAN:
            # Close the root first so the access-log record can fold the
            # whole finished trace into its per-stage breakdown.
            span.finish()
            extra.append(("X-Request-Id", span.trace_id))
            extra.append(("traceparent", format_traceparent(
                span.trace_id, span.span_id, span.sampled)))
        self.request_log.record(kind, status, duration,
                                tracer=self.tracer, span=span)
        if not isinstance(payload, bytes):
            payload = self._dump(payload)
        return status, extra, payload

    @staticmethod
    def _parse_deadline(doc: Dict, headers: Dict[str, str]
                        ) -> Optional[Deadline]:
        """The request's deadline, armed at parse time.

        The JSON body's ``timeout_ms`` takes precedence over the
        ``X-Request-Deadline-Ms`` header; absent both, ``None`` lets
        :meth:`QueryService._deadline` fall back to the service's
        ``default_timeout``.  Arming here (not at dispatch) makes queue
        time count against the budget — a request that waited out its
        whole deadline in the pending queue 504s without touching the
        engine.  Raises ``ValueError`` on a malformed value.
        """
        raw: object = doc.get("timeout_ms")
        if raw is None:
            raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"timeout_ms must be a positive number of "
                             f"milliseconds, got {raw!r}") from None
        if isinstance(raw, bool) or not math.isfinite(ms) or ms <= 0:
            raise ValueError(f"timeout_ms must be a positive number of "
                             f"milliseconds, got {raw!r}")
        return Deadline.from_timeout_ms(ms)

    async def _query_response(self, kind: str, body: bytes,
                              headers: Dict[str, str]
                              ) -> Tuple[int, object]:
        """``(status, payload)``: a 200's payload is the finished body
        bytes, an error's the document :meth:`_dump` writes."""
        try:
            doc = _loads_strict(body) if body else {}
        except ValueError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(doc, dict):
            return 400, {"error": "body must be a JSON object"}
        overrides = doc.get("params", {})
        if not isinstance(overrides, dict):
            return 400, {"error": '"params" must be a JSON object'}
        if ("q" in doc) == ("queries" in doc):
            return 400, {"error": 'pass exactly one of "q" (single point) '
                                  'or "queries" (bulk array)'}
        # Validate method parameters on the loop thread, through the one
        # validation gate every front door shares.
        try:
            params = self.service.canonicalize(kind, dict(overrides))
            deadline = self._parse_deadline(doc, headers)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        try:
            if "q" in doc:
                point = _parse_point(doc["q"],
                                     self.service.index.query_window)
                result = await self._admit_and_run(
                    kind, lambda: self._run_single(kind, point, params,
                                                   deadline))
                if result is _SHED:
                    return 429, self._shed_doc()
                return 200, dumps({"kind": kind,
                                   "result": encode_result(kind, result)})
            rows_doc = doc["queries"]
            if not isinstance(rows_doc, list):
                return 400, {"error": '"queries" must be a list of '
                                      '[x, y] pairs'}
            if len(rows_doc) > self.config.max_bulk_rows:
                return 413, {"error": f"bulk arrays are capped at "
                                      f"{self.config.max_bulk_rows} rows, "
                                      f"got {len(rows_doc)}"}
            rows = []
            for j, r in enumerate(rows_doc):
                try:
                    rows.append(_parse_point(r))
                except ValueError as exc:
                    raise ValueError(f"queries[{j}]: {exc}") from None
            reply = await self._admit_and_run(
                kind, lambda: self._run_bulk(kind, rows, params, deadline))
            if reply is _SHED:
                return 429, self._shed_doc()
            return 200, reply
        except DeadlineExceeded as exc:
            return 504, {"error": str(exc), "deadline_exceeded": True}
        except NonFiniteAnswer as exc:
            # A fault of the answer, never of the request: fail closed
            # with a 500 naming the value, and keep the connection.
            return 500, {"error": f"non-finite answer: {exc}"}
        except ValueError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — engine failure -> 500
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _shed_doc(self) -> Dict:
        return {"error": "server saturated: all "
                         f"{self.config.max_inflight} execution slots busy "
                         f"and {self.config.max_pending} pending requests "
                         "queued; retry with backoff",
                "shed": True}

    def _healthz(self) -> Tuple[int, List[Tuple[str, str]], bytes]:
        doc = {
            "status": "ok" if self.ready else "warming",
            "inflight": self._inflight,
            "pending": self._pending,
            "kinds": list(SHARD_METHODS),
        }
        executor = getattr(self.service, "executor", None)
        if executor is not None:
            health = executor.health()
            doc["executor"] = health
            # Still serving (200) on a fallback backend, but loudly: load
            # balancers keep routing, operators see the degraded rung.
            if self.ready and health.get("degraded"):
                doc["status"] = "degraded"
        status = kernel_status()
        requested = getattr(self.service.index, "kernel", "auto")
        doc["kernel"] = {
            "requested": requested,
            # What this process actually computes with: the requested
            # name resolved through the provider registry ("auto" shows
            # its env-steered / compiler-probed resolution).
            "resolved": (status["selected"] if requested == "auto"
                         else requested),
            "native_available": status["native_available"],
            "native_error": status["native_error"],
        }
        vpr_info = getattr(self.service, "vpr_info", None)
        if vpr_info is not None:
            # The V_Pr serving posture: locator kind, whether a diagram
            # is built, whether its plane is encoded and actually served
            # by the live backend's workers (zero per-worker rebuilds).
            doc["vpr"] = vpr_info()
        if self.warm_error is not None:
            doc["status"] = "warmup-failed"
            doc["error"] = str(self.warm_error)
        return self._json(200 if self.ready else 503, doc)

    # -------------------------------------------------- helpers
    _dump = staticmethod(dumps)

    def _json(self, status: int, doc: Dict
              ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        return status, [("Content-Type", _JSON)], self._dump(doc)


# ----------------------------------------------------------------------
# Transport 1: the pure-stdlib asyncio HTTP/1.1 server.
# ----------------------------------------------------------------------
async def _watch_disconnect(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            poll: float = 0.05) -> None:
    """Return once the client side of this connection is gone.

    A queued request whose client already hung up would otherwise hold
    its pending-queue slot (and eventually an execution slot) to compute
    an answer nobody reads; :func:`handle_connection` races this watcher
    against the handler and cancels the loser.
    """
    while not (reader.at_eof() or reader.exception() is not None
               or writer.is_closing()):
        await asyncio.sleep(poll)


async def handle_connection(gateway: QueryGateway,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one client connection (HTTP/1.1, keep-alive) until it closes."""
    cfg = gateway.config
    try:
        while True:
            try:
                request_line = await asyncio.wait_for(
                    reader.readline(), timeout=cfg.keep_alive_timeout)
            except asyncio.TimeoutError:
                break
            if not request_line:
                break
            try:
                http_method, target, version = \
                    request_line.decode("latin-1").split()
            except ValueError:
                await _write_response(
                    writer, 400, [("Content-Type", _JSON)],
                    b'{"error": "malformed request line"}', close=True)
                break
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length > cfg.max_body_bytes:
                await _write_response(
                    writer, 413, [("Content-Type", _JSON)],
                    json.dumps({"error": f"bodies are capped at "
                                f"{cfg.max_body_bytes} bytes"}
                               ).encode(), close=True)
                break
            body = await reader.readexactly(length) if length else b""
            handler = asyncio.ensure_future(gateway.handle(
                http_method, target, body, headers))
            watcher = asyncio.ensure_future(
                _watch_disconnect(reader, writer))
            try:
                await asyncio.wait({handler, watcher},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                watcher.cancel()
                try:
                    await watcher
                except asyncio.CancelledError:
                    pass
            if not handler.done():
                # Client hung up mid-request: cancel the handler — a
                # request still queued gives its pending slot straight
                # back; one already executing is shielded and frees its
                # execution slot when the pool thread returns — and
                # account the abandoned request as a 499.
                handler.cancel()
                try:
                    await handler
                except asyncio.CancelledError:
                    pass
                gateway.note_client_disconnect(target)
                break
            status, extra, payload = handler.result()
            close = (headers.get("connection", "").lower() == "close"
                     or version.upper() != "HTTP/1.1")
            await _write_response(writer, status, extra, payload,
                                  close=close)
            if close:
                break
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
            ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-request; nothing to answer
    except asyncio.CancelledError:
        # Loop teardown cancelled this connection task mid-read; finish
        # normally (the socket closes below) instead of propagating —
        # stdlib streams retrieves task.exception() in a callback and
        # would log the cancellation as an unhandled error.
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          headers: List[Tuple[str, str]], payload: bytes,
                          close: bool = False) -> None:
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    head += [f"{k}: {v}" for k, v in headers]
    head.append(f"Content-Length: {len(payload)}")
    head.append(f"Connection: {'close' if close else 'keep-alive'}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(payload)
    await writer.drain()


# ----------------------------------------------------------------------
# Transport 2: the thin ASGI layer (FastAPI/uvicorn-style mounting).
# ----------------------------------------------------------------------
def create_asgi_app(gateway: QueryGateway):
    """A minimal ASGI 3 application over *gateway*.

    Handles the ``lifespan`` protocol (startup/shutdown map onto the
    gateway's) and ``http`` scopes; mount it under any ASGI server —
    none is required by this package, the stdlib transport serves the
    same routes.
    """

    async def app(scope, receive, send):
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await gateway.startup()
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await gateway.shutdown()
                    await send({"type": "lifespan.shutdown.complete"})
                    return
        if scope["type"] != "http":
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        body = b""
        while True:
            message = await receive()
            if message["type"] != "http.request":
                break
            body += message.get("body", b"")
            if not message.get("more_body", False):
                break
        # Test scopes are minimal dicts; headers/query_string are
        # optional per the spirit of ASGI's "may be empty" fields.
        req_headers = {k.decode("latin-1").lower(): v.decode("latin-1")
                       for k, v in scope.get("headers") or []}
        path = scope["path"]
        query_string = scope.get("query_string") or b""
        if query_string:
            path = f"{path}?{query_string.decode('latin-1')}"
        status, headers, payload = await gateway.handle(
            scope["method"], path, body, req_headers)
        await send({"type": "http.response.start", "status": status,
                    "headers": [(k.lower().encode("latin-1"),
                                 v.encode("latin-1"))
                                for k, v in headers]
                    + [(b"content-length", str(len(payload)).encode())]})
        await send({"type": "http.response.body", "body": payload})

    return app


# ----------------------------------------------------------------------
# Server lifecycles: blocking runner and background thread.
# ----------------------------------------------------------------------
async def _serve_async(gateway: QueryGateway, host: str, port: int,
                       started: Optional[Callable[[int], None]] = None,
                       stop: Optional[asyncio.Event] = None) -> None:
    await gateway.startup()
    try:
        server = await asyncio.start_server(
            lambda r, w: handle_connection(gateway, r, w), host, port)
        bound = server.sockets[0].getsockname()[1]
        if started is not None:
            started(bound)
        async with server:
            if stop is None:
                await server.serve_forever()
            else:
                await stop.wait()
    finally:
        await gateway.shutdown()


def serve_forever(service, config: Optional[HttpConfig] = None,
                  announce: Optional[Callable[[str], None]] = print) -> None:
    """Run the stdlib HTTP server on *service* until interrupted."""
    gateway = QueryGateway(service, config)
    cfg = gateway.config

    def _started(port: int) -> None:
        if announce is not None:
            announce(f"serving {len(SHARD_METHODS)} query kinds on "
                     f"http://{cfg.host}:{port} "
                     f"(max_inflight={cfg.max_inflight}, "
                     f"max_pending={cfg.max_pending}); "
                     f"POST /v1/query/<kind>, GET /healthz, GET /metrics")

    try:
        asyncio.run(_serve_async(gateway, cfg.host, cfg.port,
                                 started=_started))
    except KeyboardInterrupt:
        if announce is not None:
            announce("interrupted; shutting down")


class ServerThread:
    """The HTTP front door on a background event-loop thread.

    The process-internal harness used by tests and the smoke driver:
    start() returns once the socket is bound (the bound port is in
    :attr:`port`), stop() shuts the loop down and joins.
    The gateway stays reachable for white-box assertions.
    """

    def __init__(self, service, config: Optional[HttpConfig] = None) -> None:
        self.gateway = QueryGateway(service, config)
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-http-server",
                                        daemon=True)

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("HTTP server failed to start in time")
        if self.error is not None:
            raise RuntimeError("HTTP server failed to start") \
                from self.error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        cfg = self.gateway.config

        def _started(port: int) -> None:
            self.port = port
            self._ready.set()

        try:
            await _serve_async(self.gateway, cfg.host, cfg.port,
                               started=_started, stop=self._stop)
        except BaseException as exc:  # noqa: BLE001 — surfaced by start()
            self.error = exc
            self._ready.set()

    def stop(self) -> None:
        """Shut the server loop down and join its thread.

        A hung join is an error, not a shrug: a server thread still
        alive after 30 seconds means a wedged teardown (stuck engine
        call, unjoinable pool), and silently leaking it would let tests
        and operators believe the port was released.
        """
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            _LOG.error(
                "http server thread %r did not stop within 30 s "
                "(port=%s, gateway inflight=%d, pending=%d); "
                "the thread is leaked",
                self._thread.name, self.port,
                self.gateway._inflight, self.gateway._pending)
            raise RuntimeError(
                "HTTP server thread failed to stop within 30 s")
        if self.error is not None and self.port is not None:
            # An error raised *after* a successful start (teardown
            # failures included) would otherwise vanish with the thread.
            raise RuntimeError("HTTP server terminated with an error") \
                from self.error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
