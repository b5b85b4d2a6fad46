"""The serving stack's end-to-end self-test: ``python -m repro smoke``.

One driver, :func:`run`, boots the real HTTP server over one small
discrete fleet and walks every scenario that applies to the executor
rung this host runs (:func:`repro.serving.executors.create_backend`),
checking each answer against the in-process index:

``http``
    Parity for all seven kinds, single point and bulk; the 404/400
    validation edges; a forced 429 under saturated admission control;
    W3C traceparent propagation, ``/debug/traces`` and ``/debug/slow``;
    the ``/metrics`` families.  The server runs fully traced, so parity
    also proves that tracing does not perturb answers.
``chaos``
    Deterministic fault plans: recovery from a crashed worker (process)
    or an in-compute fault (thread), bitwise-equal to the unsharded
    answers; a hung chunk against a 300 ms deadline (504, no leaked
    admission slots); a persistent fault walking the circuit breaker
    down the ladder to inline; and nonzero resilience counters.
``plane``
    Shared-plane ``V_Pr`` serving (``process`` only): the parent builds
    the diagram once, workers attach the exported plane, ``quantify_vpr``
    fans out bitwise-equal, and no worker rebuilds.

Every check lands in one ledger; the driver logs each failure as it
happens and ends with one summary line carrying the check count.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..core.index import PNNIndex
from ..core.workloads import random_discrete_points
from ..obs.metrics import ENGINE
from ..obs.trace import TraceConfig, parse_traceparent
from .faults import FaultPlan
from .http import HttpConfig, ServerThread, encode_result
from .shard import SHARD_METHODS

__all__ = ["SCENARIOS", "run"]


def _http_json(port: int, method: str, path: str,
               doc: Optional[Dict] = None, timeout: float = 30.0,
               headers: Optional[Dict[str, str]] = None
               ) -> Tuple[int, object, str, Dict[str, str]]:
    """One HTTP request against localhost;
    ``(status, parsed, raw, response_headers)``."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(doc) if doc is not None else None
        send = {"Content-Type": "application/json"} if body else {}
        if headers:
            send.update(headers)
        conn.request(method, path, body=body, headers=send)
        resp = conn.getresponse()
        raw = resp.read().decode("utf-8")
        parsed: object = None
        if resp.headers.get_content_type() == "application/json":
            parsed = json.loads(raw)
        return resp.status, parsed, raw, \
            {k.lower(): v for k, v in resp.getheaders()}
    finally:
        conn.close()


class _SmokeChecks:
    """The check ledger all scenarios share.

    Calling it with ``(cond, what)`` records one check and logs a
    ``FAIL`` line for a failed one; :meth:`exit_code` logs the one
    summary line and returns the process exit code.
    """

    def __init__(self, log: Callable[[str], None]) -> None:
        self.log = log
        self.count = 0
        self.failed = 0

    def __call__(self, cond: bool, what: str) -> None:
        self.count += 1
        if not cond:
            self.failed += 1
            self.log(f"FAIL {what}")

    def exit_code(self, label: str) -> int:
        if not self.failed:
            self.log(f"{label}: {self.count} checks, all passed")
            return 0
        self.log(f"{label}: {self.failed} of {self.count} checks FAILED")
        return 1


@contextlib.contextmanager
def _booted(service, config: HttpConfig, check: _SmokeChecks):
    """Serve *service* on a :class:`ServerThread` and wait (up to 30 s)
    for ``/healthz`` to report ready; yields the running server."""
    executor = service.executor
    check.log(f"executor: {executor.mode}, {executor.workers} workers")
    with service, ServerThread(service, config) as server:
        if server.port is None:
            raise RuntimeError("the smoke server started without a port")
        deadline = time.monotonic() + 30
        status = 0
        while time.monotonic() < deadline:
            status, _, _, _ = _http_json(server.port, "GET", "/healthz")
            if status == 200:
                break
            time.sleep(0.05)
        check(status == 200, f"healthz became ready ({status})")
        yield server


def _encoded(kind: str, rows) -> List[object]:
    """In-process answers in the wire form: JSON floats round-trip
    bitwise, so comparing encoded rows is exact parity."""
    return [encode_result(kind, row) for row in
            (list(rows) if kind == "delta" else rows)]


def _reply(kind: str, encoded: List[object]) -> str:
    """The exact bulk reply body for *encoded* rows: replies are
    byte-identical to this ``json.dumps`` wherever they were encoded."""
    return json.dumps({"kind": kind, "count": len(encoded),
                       "results": encoded}, allow_nan=False)


def _queries(seed: int, m: int) -> List[Tuple[float, float]]:
    rng = random.Random(seed)
    return [(rng.uniform(-2.0, 16.0), rng.uniform(-2.0, 16.0))
            for _ in range(m)]


def _bulk(queries) -> Dict:
    return {"queries": [list(q) for q in queries]}


def _scrape(port: int, check: _SmokeChecks, scenario: str,
            out: Optional[str], log: Callable[[str], None]
            ) -> Dict[str, float]:
    """GET ``/metrics``, save it as ``<out>/<scenario>-metrics.txt`` and
    parse it into ``{series: value}`` (``series`` is the sample name with
    its label set, exactly as exposed)."""
    status, _, raw, _ = _http_json(port, "GET", "/metrics")
    check(status == 200, f"/metrics returned {status}")
    if out:
        path = os.path.join(out, f"{scenario}-metrics.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw)
        log(f"metrics scrape saved to {path}")
    series: Dict[str, float] = {}
    for line in raw.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


def _family(series: Dict[str, float], name: str) -> float:
    """Sum of every series of metric family *name* (0 when absent)."""
    return sum(v for k, v in series.items() if k.partition("{")[0] == name)


# ----------------------------------------------------------------------
# Scenarios: each takes the shared fleet, the ledger, the output
# directory and the log sink, and serves with two workers on the
# host's rung.
# ----------------------------------------------------------------------
def _http_scenario(index: PNNIndex, check: _SmokeChecks,
                   out: Optional[str], log: Callable[[str], None]) -> None:
    service = index.serve(workers=2, max_batch=64, cache_capacity=4096,
                          shard_min_batch=32,
                          trace=TraceConfig(enabled=True, sample=1.0,
                                            slow_ms=0.0))
    config = HttpConfig(port=0, max_inflight=2, max_pending=2,
                        warm_kinds=("delta", "nonzero_nn"))
    # Above shard_min_batch a bulk shards: the workers encode the reply.
    queries = _queries(99, 1100)
    with _booted(service, config, check) as server:
        port = server.port
        answers = {}
        for kind in SHARD_METHODS:
            rows = answers[kind] = _encoded(kind,
                                            service.batch(kind, queries))
            status, doc, _, hdrs = _http_json(
                port, "POST", f"/v1/query/{kind}", {"q": list(queries[0])})
            check(status == 200, f"{kind} single returned {status}")
            if status == 200:
                check(doc["result"] == rows[0],
                      f"{kind} single result differs from service.batch")
            check(len(hdrs.get("x-request-id", "")) == 32,
                  f"{kind} single response is missing X-Request-Id")
            status, _, raw, _ = _http_json(
                port, "POST", f"/v1/query/{kind}", _bulk(queries))
            check(status == 200, f"{kind} bulk returned {status}")
            if status == 200:
                check(raw == _reply(kind, rows),
                      f"{kind} bulk reply bytes differ from service.batch")
        sharded = sum(service.sharded.get(kind) for kind in SHARD_METHODS)
        check(sharded >= len(SHARD_METHODS),
              f"only {sharded} bulk calls sharded on "
              f"{service.executor.mode}")
        log(f"all {len(SHARD_METHODS)} kinds: single + bulk parity checked "
            f"(bulk reply bytes)")
        # The paper's invariants on the served rows: NN!=0(q) is never
        # empty (Lemma 2.1) and the Eq. (2) probabilities sum to 1.
        check(all(answers["nonzero_nn"]), "an NN!=0 answer is empty")
        sums = [sum(row.values()) for row in answers["quantify_exact"]]
        check(all(abs(s - 1.0) <= 1e-9 for s in sums),
              f"quantify_exact rows sum to {sums}, not 1")

        # Validation behavior: unknown kind 404, bad params 400.
        status, _, _, _ = _http_json(port, "POST", "/v1/query/nope",
                                     {"q": [0, 0]})
        check(status == 404, f"unknown kind returned {status}, wanted 404")
        status, _, _, _ = _http_json(port, "POST", "/v1/query/delta",
                                     {"q": [0, 0], "params": {"bogus": 1}})
        check(status == 400, f"bad params returned {status}, wanted 400")
        # Queries outside the index's domain fail closed, single and bulk.
        far = [0.0, 1e16]
        status, doc, _, _ = _http_json(port, "POST", "/v1/query/nonzero_nn",
                                       {"q": far})
        check(status == 400 and "domain" in doc["error"],
              f"out-of-domain single returned {status}, wanted 400")
        status, doc, _, _ = _http_json(port, "POST",
                                       "/v1/query/quantify_exact",
                                       {"queries": [[0.0, 0.0], far]})
        check(status == 400 and "queries[1]" in doc["error"],
              f"out-of-domain bulk returned {status}, wanted 400 naming "
              f"queries[1]")

        # Saturate admission control: block the engine behind an event,
        # fill every slot and the whole pending queue, then probe.
        gate = threading.Event()
        original = server.gateway._run_bulk

        def held(kind, rows_, params, deadline=None):
            gate.wait(timeout=30)
            return original(kind, rows_, params, deadline)

        server.gateway._run_bulk = held
        blocked = []

        def fire():
            blocked.append(_http_json(port, "POST", "/v1/query/delta",
                                      {"queries": [[0.0, 0.0]]}))

        threads = [threading.Thread(target=fire) for _ in
                   range(config.max_inflight + config.max_pending)]
        for t in threads:
            t.start()
        saturated = False
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if (server.gateway._inflight >= config.max_inflight
                    and server.gateway._pending >= config.max_pending):
                saturated = True
                break
            time.sleep(0.01)
        check(saturated, "admission gauges never reached saturation")
        status, _, _, _ = _http_json(port, "POST", "/v1/query/delta",
                                     {"queries": [[0.0, 0.0]]})
        check(status == 429, f"saturated server returned {status}, "
                             f"wanted 429")
        gate.set()
        for t in threads:
            t.join(timeout=30)
        server.gateway._run_bulk = original
        check(all(s == 200 for s, _, _, _ in blocked),
              f"held requests finished {[s for s, _, _, _ in blocked]}, "
              f"wanted all 200")
        log("admission control: 429 under saturation, queued requests "
            "completed after release")

        # Upstream context propagation: a request carrying a W3C
        # traceparent must join that trace (X-Request-Id == its trace id)
        # and answer with a well-formed traceparent of its own.
        upstream_trace = "a" * 32
        status, _, _, hdrs = _http_json(
            port, "POST", "/v1/query/delta",
            {"queries": [[float(i), 0.5] for i in range(80)]},
            headers={"traceparent": f"00-{upstream_trace}-{'b' * 16}-01"})
        check(status == 200, f"traced bulk returned {status}")
        check(hdrs.get("x-request-id") == upstream_trace,
              "upstream traceparent was not honored")
        parsed_tp = parse_traceparent(hdrs.get("traceparent", ""))
        check(parsed_tp is not None and parsed_tp[0] == upstream_trace,
              "response traceparent is malformed or re-rooted")

        status, doc, _, _ = _http_json(
            port, "GET", f"/debug/traces?trace_id={upstream_trace}")
        check(status == 200 and bool(doc.get("traceEvents")),
              "/debug/traces has no spans for the propagated trace")
        names = {e["name"] for e in doc.get("traceEvents", [])}
        wanted = {"http.request", "service.batch", "shard.dispatch",
                  "worker.compute", "shard.reassemble"}
        check(wanted <= names,
              f"trace is missing stages {sorted(wanted - names)}")
        status, full, _, _ = _http_json(port, "GET", "/debug/traces")
        check(status == 200 and len(full["traceEvents"]) >= 1,
              "/debug/traces full dump is empty")
        if out:
            path = os.path.join(out, "http-trace.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(full, fh)
            log(f"chrome trace export saved to {path}")

        status, sdoc, _, _ = _http_json(port, "GET", "/debug/slow")
        check(status == 200 and sdoc["total"] > 0
              and bool(sdoc["requests"]),
              "slow-query log is empty (slow_ms=0 marks every request)")
        log(f"tracing: {len(full['traceEvents'])} spans stored, "
            f"{sdoc['total']} slow-log records, trace context propagated")

        series = _scrape(port, check, "http", out, log)
        check(_family(series, "repro_http_requests_total") > 0
              and _family(series, "repro_http_shed_total") > 0
              and any('quantile="0.99"' in k for k in series),
              "/metrics lacks request/shed counts or p99 quantiles")
        check(any(k.startswith("repro_stage_duration_seconds")
                  for k in series)
              and _family(series, "repro_trace_spans_total") > 0
              and _family(series, "repro_slow_requests_total") > 0,
              "/metrics lacks the tracing families")


def _chaos_scenario(index: PNNIndex, check: _SmokeChecks,
                    out: Optional[str], log: Callable[[str], None]) -> None:
    queries = _queries(41, 48)
    oracle = {"delta": _encoded("delta", index.batch_delta(queries)),
              "nonzero_nn": _encoded("nonzero_nn",
                                     index.batch_nonzero_nn(queries))}
    service = index.serve(workers=2, shard_min_batch=8, shard_chunk=8,
                          cache_capacity=0, retries=2)
    config = HttpConfig(port=0, max_inflight=2, max_pending=4,
                        warm_kinds=("delta",))
    with _booted(service, config, check) as server:
        port = server.port
        executor = service.executor
        rung = executor.mode
        # Only a process worker can die without taking the caller along.
        crashy = rung == "process"
        phase1 = ("crash_worker:chunk=0" if crashy
                  else "raise_in_compute:chunk=0")
        executor.faults = FaultPlan.coerce(phase1)

        # Phase 1: recovery.
        t0 = time.perf_counter()
        status, _, raw, _ = _http_json(port, "POST", "/v1/query/delta",
                                       _bulk(queries))
        recovery_ms = (time.perf_counter() - t0) * 1e3
        check(status == 200,
              f"{phase1}: request survived the fault ({status})")
        check(status == 200 and raw == _reply("delta", oracle["delta"]),
              "recovered answers differ from the unsharded oracle")
        snap = service.stats()["resilience"]
        check(snap["retries"] >= 1 and snap["worker_failures"] >= 1,
              f"failed chunk was not retried (retries={snap['retries']}, "
              f"worker_failures={snap['worker_failures']})")
        if crashy:
            # A crashed worker takes its counter bump with it (os._exit
            # fires worker-side); the rebuild is the parent-side proof.
            check(snap["rebuilds"] >= 1, "dead pool was not rebuilt "
                  f"(rebuilds={snap['rebuilds']})")
        else:
            check(snap["faults_injected"] >= 1, "fault never fired "
                  f"(faults_injected={snap['faults_injected']})")
        log(f"phase 1: recovered in {recovery_ms:.0f} ms on {rung}")

        # Phase 2: a hung chunk against a deadline.
        executor.faults = FaultPlan.coerce(
            "slow_chunk:chunk=0,delay=2,attempts=any")
        t0 = time.perf_counter()
        status, doc, _, _ = _http_json(
            port, "POST", "/v1/query/delta",
            dict(_bulk(queries), timeout_ms=300))
        elapsed = time.perf_counter() - t0
        check(status == 504 and doc.get("deadline_exceeded") is True,
              f"hung chunk against timeout_ms=300 answered {status}")
        # A process pool abandons the hung chunk at the deadline; the
        # thread warm-up path cannot preempt a chunk already running on
        # the caller, so allow one chunk delay.
        check(elapsed < 5.0, f"504 took {elapsed * 1e3:.0f} ms")
        gw = server.gateway
        time.sleep(0.1)
        check(gw._inflight == 0 and gw._pending == 0,
              f"admission slots leaked (inflight={gw._inflight}, "
              f"pending={gw._pending})")
        check(service.resilience["deadline_exceeded"].get() >= 1,
              "deadline_exceeded counter did not move")
        log("phase 2: hung chunk answered 504 at its deadline")

        # Phase 3: degradation.  Every chunk of the faulted kind fails,
        # so the breaker sees consecutive failures (successes from
        # healthy sibling chunks would reset its count — by design) and
        # walks the ladder.
        executor.faults = FaultPlan.coerce(
            "raise_in_compute:method=delta,attempts=any")
        status, _, _, _ = _http_json(port, "POST", "/v1/query/delta",
                                     _bulk(queries))
        check(status == 500, "persistently faulted kind did not fail "
                             f"loudly ({status})")
        check(service.resilience["breaker_trips"].get() >= 1,
              "circuit breaker never tripped")
        health = executor.health()
        check(bool(health["degraded"]) and health["mode"] == "inline",
              f"breaker did not walk the ladder to inline "
              f"(mode={health['mode']}, degradations="
              f"{service.resilience['degradations'].get()})")
        status, _, raw, _ = _http_json(port, "POST", "/v1/query/nonzero_nn",
                                       _bulk(queries))
        check(status == 200
              and raw == _reply("nonzero_nn", oracle["nonzero_nn"]),
              "unfaulted kinds answer wrongly while degraded")
        status, hdoc, _, _ = _http_json(port, "GET", "/healthz")
        check(status == 200 and hdoc["status"] == "degraded",
              f"healthz reports {hdoc['status']}, wanted degraded")
        log(f"phase 3: breaker walked {rung} -> {health['mode']}")

        series = _scrape(port, check, "chaos", out, log)
        want_nonzero = ["repro_retries_total", "repro_worker_failures_total",
                        "repro_deadline_exceeded_total",
                        "repro_faults_injected_total",
                        "repro_breaker_trips_total",
                        "repro_degradations_total",
                        "repro_backend_degraded"]
        if crashy:
            want_nonzero.append("repro_rebuilds_total")
        for family in want_nonzero:
            value = _family(series, family)
            check(value > 0, f"{family} is zero ({value:g})")
        check(_family(series, "repro_backend_state") == 1,
              "not exactly one backend_state gauge is set")


def _plane_scenario(index: PNNIndex, check: _SmokeChecks,
                    out: Optional[str], log: Callable[[str], None]) -> None:
    builds_before = ENGINE.get("vpr.builds")
    vpr = index.build_vpr()
    index.use_vpr(vpr)
    kind = vpr.locator_stats()["kind"]
    check(kind == "persistent", f"diagram built with locator {kind!r}")
    queries = _queries(53, 64)
    oracle = _encoded("quantify_vpr", index.batch_quantify_vpr(queries))

    service = index.serve(workers=2, shard_min_batch=8, shard_chunk=8,
                          cache_capacity=0)
    if service.executor.mode != "process":
        # Threads share the parent's index: no plane ships anywhere.
        log(f"plane: skipped on {service.executor.mode} (only process "
            f"workers attach the plane)")
        service.close()
        return
    config = HttpConfig(port=0, max_inflight=2, max_pending=4,
                        warm_kinds=("delta",))
    with _booted(service, config, check) as server:
        port = server.port
        info = service.vpr_info()
        check(info["plane_encoded"] is True,
              "the built plane was not encoded for the executor")
        check(info["plane_served"] is True,
              "the live backend does not serve the shared plane")

        status, _, raw, _ = _http_json(
            port, "POST", "/v1/query/quantify_vpr", _bulk(queries))
        check(status == 200, f"bulk quantify_vpr answered {status}")
        check(status == 200 and raw == _reply("quantify_vpr", oracle),
              "fan-out answers differ from the parent oracle")
        sharded = service.stats()["methods"].get(
            "quantify_vpr", {}).get("sharded_calls", 0)
        check(sharded >= 1, f"quantify_vpr did not fan out over process "
                            f"workers (sharded_calls={sharded})")
        builds = ENGINE.get("vpr.builds") - builds_before
        check(builds == 1, f"vpr.builds moved by {builds}, wanted exactly "
                           f"the one parent build")

        status, hdoc, _, _ = _http_json(port, "GET", "/healthz")
        hvpr = (hdoc or {}).get("vpr", {})
        check(status == 200 and hvpr.get("plane_served") is True,
              "healthz does not report the plane resident")
        check(hvpr.get("locator_stats", {}).get("kind") == "persistent",
              "healthz does not report the persistent locator")
        log("plane: one parent build, quantify_vpr fanned out over "
            "process workers")

        series = _scrape(port, check, "plane", out, log)
        check(series.get("repro_vpr_plane_resident") == 1,
              "/metrics lacks repro_vpr_plane_resident 1")
        check(series.get('repro_vpr_plane_locator{kind="persistent"}') == 1,
              "/metrics lacks the persistent locator gauge")
        check(series.get('repro_engine_events_total{event="vpr.builds"}')
              == builds_before + 1,
              "/metrics does not show exactly one new vpr.builds event")
        check(_family(series, "repro_vpr_plane_bytes") > 0
              and _family(series, "repro_vpr_plane_locator_bytes") > 0,
              "/metrics lacks the plane/locator size gauges")


#: ``(name, scenario)`` in running order.
SCENARIOS = (
    ("http", _http_scenario),
    ("chaos", _chaos_scenario),
    ("plane", _plane_scenario),
)


def run(out: Optional[str] = None,
        log: Callable[[str], None] = print) -> int:
    """Run every scenario on the host's executor rung; ``0`` when every
    check passed, else ``1``.

    *out*, when given, is a directory (created if missing) that receives
    ``<scenario>-metrics.txt`` scrapes and the ``http-trace.json``
    Chrome trace-event export.
    """
    if out:
        os.makedirs(out, exist_ok=True)
    # Small discrete fleet: every kind answerable, and the lazy V_Pr
    # build (arrangement size grows ~quartically in instance count)
    # stays sub-second.
    index = PNNIndex(random_discrete_points(12, 2, seed=7, spread=2.0))
    check = _SmokeChecks(log)
    for name, scenario in SCENARIOS:
        log(f"{name}: running")
        scenario(index, check, out, log)
    return check.exit_code("smoke")
