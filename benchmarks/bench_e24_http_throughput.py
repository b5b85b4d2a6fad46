"""E24 — HTTP front-door throughput: concurrent clients over loopback.

The acceptance workload of the async HTTP front door.  Headline
assertions:

* **parity over the wire** — bulk answers fetched through
  ``POST /v1/query/<kind>`` decode to exactly the in-process
  ``QueryService.batch`` output (floats survive the JSON round-trip
  bitwise), and every request in the measured stream answers 200 —
  the generous admission limits here mean a shed would signal a
  lifecycle bug, not load;
* **the gateway accounts for what it served** — after the run the
  ``/metrics`` scrape's per-kind request counters equal the client-side
  tally.

Measured rows: keep-alive single-point streams from ``E24_CLIENTS``
concurrent clients (exercising submit-side coalescing under the
admission semaphore) and one large bulk array per kind, each against the
direct in-process call.  HTTP numbers include JSON codec + loopback
cost, so the interesting figure is the overhead ratio, not absolute qps;
an optional smoke bound (``E24_MAX_BULK_OVERHEAD``, ``<= 0`` disables)
keeps the bulk path from silently regressing to pathological.

Env knobs: ``E24_N``, ``E24_M_BULK``, ``E24_CLIENTS``,
``E24_REQUESTS``, ``E24_MAX_BULK_OVERHEAD``, ``E24_JSON``.
"""

import json
import math
import random
import threading

from _common import best_of, cores, env_float, env_int, write_json
from repro.core.index import PNNIndex
from repro.core.workloads import random_disks
from repro.serving.http import HttpConfig, ServerThread, encode_result
from repro.uncertain.disk_uniform import DiskUniformPoint

N = env_int("E24_N", 2000)
M_BULK = env_int("E24_M_BULK", 20000)
CLIENTS = env_int("E24_CLIENTS", 4)
REQUESTS = env_int("E24_REQUESTS", 150)  # single-point requests/client
MAX_BULK_OVERHEAD = env_float("E24_MAX_BULK_OVERHEAD", 50.0)

#: The cheap fully-vectorized kinds carry the throughput measurement;
#: all-seven-kind parity over HTTP is pinned by tests/test_http.py (the
#: estimator-per-row kinds cost ~ms/query and would time, not stress).
KINDS = ("delta", "nonzero_nn")

EXTENT = math.sqrt(N) * 2.0
_DISKS = random_disks(N, seed=2424, extent=EXTENT, r_min=0.1, r_max=0.4)
INDEX = PNNIndex([DiskUniformPoint(d.center, d.r) for d in _DISKS])
RNG = random.Random(71)
BULK = [(RNG.uniform(0, EXTENT), RNG.uniform(0, EXTENT))
        for _ in range(M_BULK)]
HOT = BULK[:64]  # the single-point streams draw from a shared hot set


def _post(port, kind, doc, conn=None):
    import http.client

    owned = conn is None
    if owned:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("POST", f"/v1/query/{kind}", body=json.dumps(doc),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    if owned:
        conn.close()
    return resp.status, payload


def test_e24_http_front_door_throughput():
    import http.client
    import time

    service = INDEX.serve(workers=0, coalesce=True, max_batch=64,
                          flush_window=0.002, cache_capacity=8192)
    config = HttpConfig(port=0, max_inflight=max(2, min(8, cores())),
                        max_pending=4096, warm_kinds=("delta",))
    rows = []
    with service, ServerThread(service, config) as server:
        port = server.port
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not server.gateway.ready:
            time.sleep(0.02)
        assert server.gateway.ready, "gateway never finished warm-up"

        client_tally = {}
        for kind in KINDS:
            expected = service.batch(kind, BULK)
            encoded = [encode_result(kind, r) for r in
                       (list(expected) if kind == "delta" else expected)]

            # Row 1: one large bulk array through the wire.
            direct_t, _ = best_of(lambda k=kind: service.batch(k, BULK))
            bulk_doc = {"queries": [list(q) for q in BULK]}

            def bulk_call(k=kind, d=bulk_doc):
                status, payload = _post(port, k, d)
                assert status == 200, f"bulk {k} answered {status}"
                return payload

            bulk_t, payload = best_of(bulk_call)
            assert payload["results"] == encoded, \
                f"bulk {kind} over HTTP differs from service.batch"
            client_tally[kind] = client_tally.get(kind, 0) + 2  # best_of
            overhead = bulk_t / direct_t
            rows.append({"kind": kind, "path": "bulk", "m": M_BULK,
                         "direct_qps": int(M_BULK / direct_t),
                         "http_qps": int(M_BULK / bulk_t),
                         "overhead": round(overhead, 3)})
            if MAX_BULK_OVERHEAD > 0:
                assert overhead < MAX_BULK_OVERHEAD, \
                    f"bulk {kind} over HTTP is {overhead:.1f}x the " \
                    f"direct call (bound {MAX_BULK_OVERHEAD}x; relax " \
                    f"via E24_MAX_BULK_OVERHEAD)"

            # Row 2: concurrent keep-alive single-point streams.
            errors = []

            def stream(tid, k=kind):
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                rng = random.Random(tid)
                try:
                    for _ in range(REQUESTS):
                        q = HOT[rng.randrange(len(HOT))]
                        status, _ = _post(port, k, {"q": list(q)},
                                          conn=conn)
                        if status != 200:
                            errors.append((tid, status))
                            return
                finally:
                    conn.close()

            threads = [threading.Thread(target=stream, args=(t,))
                       for t in range(CLIENTS)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            assert not errors, f"single-point stream failed: {errors[:3]}"
            total = CLIENTS * REQUESTS
            client_tally[kind] += total
            rows.append({"kind": kind, "path": "single",
                         "clients": CLIENTS, "m": total,
                         "http_qps": int(total / elapsed)})

        # The gateway's own books agree with the client-side tally.
        for kind in KINDS:
            served = server.gateway.requests_total.get((kind, 200), 0)
            assert served == client_tally[kind], \
                f"{kind}: gateway counted {served} oks, clients sent " \
                f"{client_tally[kind]}"
        assert server.gateway.shed_total.total() == 0, \
            "requests were shed under generous admission limits"

    payload = {
        "experiment": "E24",
        "n": N, "m_bulk": M_BULK, "clients": CLIENTS,
        "requests_per_client": REQUESTS, "cores": cores(),
        "max_inflight": config.max_inflight,
        "rows": rows,
    }
    write_json("E24_JSON", payload)
