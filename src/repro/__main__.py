"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``
    Run a compact end-to-end demonstration (index build, NN!=0 queries,
    quantification with all three estimators).
``serve-demo``
    Stand up the serving layer (cache + coalescer + shard executor) and
    drive a bursty synthetic workload through it, printing per-method
    throughput, hit rates, and latency percentiles.
``serve-http [--host H] [--port P] [--workers W] ...``
    Boot the asyncio HTTP front door over a synthetic discrete index:
    ``POST /v1/query/<kind>`` for all seven query kinds (single point or
    bulk array), ``GET /healthz`` readiness, ``GET /metrics`` Prometheus
    text.  ``--trace-sample R`` samples request traces (``GET
    /debug/traces`` exports them), ``--access-log`` writes structured
    JSON request records.  ``--request-timeout S`` applies a default
    end-to-end deadline (504 past it); ``--faults PLAN`` injects
    deterministic faults for chaos drills.
``smoke [--out DIR]``
    The serving stack's end-to-end self-test over live HTTP, one
    scenario after another on the executor rung this host runs:
    seven-kind parity, shedding, tracing and /metrics (``http``); crash
    recovery, deadline 504s and the breaker ladder (``chaos``); and, on
    process, the build-once shared V_Pr plane (``plane``).  ``--out`` saves each
    scenario's /metrics scrape and the Chrome trace export.
``trace-dump [--host H] [--port P] [--format chrome|jsonl]``
    Fetch the trace store of a running ``serve-http`` instance and
    print or save it (``--out``); the chrome format loads directly in
    chrome://tracing and ui.perfetto.dev.
``vpr-info [--n N] [--seed S]``
    Build a small V_Pr diagram and print its locator build/size
    figures: faces, entries, slabs, bytes, build seconds, the analytic
    slab-table row count the merged-slab locator replaces (memory
    ratio), and the shared-plane export size.
``kernels``
    Report the compute-kernel tier: the provider this host resolves,
    compiler discovery and the native build status.
``info``
    Print the library version and the module inventory.
``experiments [--quick] [ids...]``
    Forwarded to :mod:`repro.experiments` (regenerates EXPERIMENTS.md).
"""

from __future__ import annotations

import sys


def _demo() -> int:
    import random
    import time

    from .core.index import PNNIndex
    from .core.workloads import mobile_object_tracks

    print("repro demo: probabilistic NN over 12 moving objects")
    fleet = mobile_object_tracks(12, seed=3)
    index = PNNIndex(fleet)
    rng = random.Random(1)
    q = (rng.uniform(10, 40), rng.uniform(10, 40))
    print(f"query: ({q[0]:.1f}, {q[1]:.1f})")
    print(f"possible NNs: {index.nonzero_nn(q)}")
    for method in ("exact", "spiral", "monte_carlo"):
        est = index.quantify(q, method, epsilon=0.05)
        pretty = {i: round(v, 3) for i, v in sorted(est.items()) if v > 0.004}
        print(f"{method:>12}: {pretty}")
    top = index.top_k_nn(q, 3, method="exact")
    print(f"top-3 by probability: {[(i, round(p, 3)) for i, p in top]}")
    # The batch front door: a whole query workload in one vectorized call.
    batch = [(rng.uniform(10, 40), rng.uniform(10, 40)) for _ in range(2000)]
    index.batch_nonzero_nn(batch[:4])  # build the engine outside the timer
    start = time.perf_counter()
    answers = index.batch_nonzero_nn(batch)
    elapsed = time.perf_counter() - start
    distinct = sorted({tuple(a) for a in answers})
    print(f"batch: {len(batch)} queries in {elapsed * 1e3:.1f} ms "
          f"({len(batch) / elapsed:,.0f} queries/s), "
          f"{len(distinct)} distinct NN!=0 sets")
    return 0


def _serve_demo() -> int:
    import math
    import random
    import time
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from .core.index import PNNIndex
    from .core.workloads import random_disks
    from .uncertain.disk_uniform import DiskUniformPoint

    n, m = 5000, 20000
    extent = math.sqrt(n) * 2.0
    disks = random_disks(n, seed=11, extent=extent, r_min=0.1, r_max=0.4)
    index = PNNIndex([DiskUniformPoint(d.center, d.r) for d in disks])
    print(f"serve-demo: QueryService over {n} uncertain disks")
    # The host picks the executor: process worker replicas, or threads
    # where it cannot start a process pool.
    with index.serve(workers=2, cache_capacity=4096,
                     max_batch=128, shard_min_batch=4096) as service:
        ex = service.executor
        print(f"shard executor: mode={ex.mode}, workers={ex.workers}, "
              f"start method={ex.start_method}")
        rng = random.Random(13)

        # Burst 1: eight concurrent scalar clients.  A request that
        # arrives while its group is flushing joins the next flush, so
        # concurrent misses coalesce into micro-batches.
        hot = [(rng.uniform(0, extent), rng.uniform(0, extent))
               for _ in range(300)]
        picks = [hot[rng.randrange(len(hot))] for _ in range(3000)]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as clients:
            answers = list(clients.map(
                lambda q: service.query("nonzero_nn", q), picks))
        elapsed = time.perf_counter() - start
        co = service.stats()["coalescer"]
        print(f"coalesced stream: 3000 scalar requests from 8 clients in "
              f"{elapsed * 1e3:.0f} ms ({3000 / elapsed:,.0f} req/s), "
              f"{len({tuple(a) for a in answers})} distinct NN!=0 sets, "
              f"{co['submitted'] / max(co['flushes'], 1):.2f} rows per "
              f"flush")

        # Burst 2: one large batch, sharded across the worker pool.
        batch = np.array([(rng.uniform(0, extent), rng.uniform(0, extent))
                          for _ in range(m)])
        service.batch("delta", batch[:16])  # warm engine + replicas
        start = time.perf_counter()
        deltas = service.batch("delta", batch)
        elapsed = time.perf_counter() - start
        print(f"sharded batch: {m} delta queries in {elapsed * 1e3:.0f} ms "
              f"({m / elapsed:,.0f} queries/s), "
              f"Delta range [{deltas.min():.2f}, {deltas.max():.2f}]")

        # Burst 3: repeat traffic against the cache.
        start = time.perf_counter()
        for _ in range(3000):
            service.query("quantify", hot[rng.randrange(60)],
                          epsilon=0.25)
        elapsed = time.perf_counter() - start
        print(f"cached repeats: 3000 quantify requests in "
              f"{elapsed * 1e3:.0f} ms ({3000 / elapsed:,.0f} req/s)")

        print("\nper-method service stats:")
        for name, snap in service.stats()["methods"].items():
            failed = (f", {snap['failures']} failed"
                      if snap["failures"] else "")
            print(f"  {name:>13}: {snap['requests']:>7} req in "
                  f"{snap['batch_calls']} batches "
                  f"({snap['sharded_calls']} sharded{failed}), hit rate "
                  f"{snap['hit_rate']:.0%}, p50 {snap['p50_ms']:.2f} ms, "
                  f"p99 {snap['p99_ms']:.2f} ms")
        cache = service.stats()["cache"]
        print(f"cache: {cache['entries']}/{cache['capacity']} entries, "
              f"hit rate {cache['hit_rate']:.0%}, "
              f"{cache['evictions']} evictions")
        co = service.stats()["coalescer"]
        print(f"coalescer: {co['submitted']} submitted in {co['flushes']} "
              f"batches (largest {co['largest_batch']})")

    # Burst 4: exact quantification over a discrete fleet — the
    # vectorized Eq. (2) sweep answers misses, and beacons polled at
    # fixed positions hit their exact-keyed cache entries.
    from .core.workloads import random_discrete_points

    fleet = random_discrete_points(400, 5, seed=17, spread=2.0)
    discrete_index = PNNIndex(fleet)
    d_extent = math.sqrt(400) * 2.2
    with discrete_index.serve(workers=0, cache_capacity=8192) as service:
        rng = random.Random(29)
        batch = np.array([(rng.uniform(0, d_extent),
                           rng.uniform(0, d_extent))
                          for _ in range(4000)])
        service.batch("quantify_exact", batch[:4])  # warm the sweep engine
        start = time.perf_counter()
        exact = service.batch("quantify_exact", batch)
        elapsed = time.perf_counter() - start
        print(f"\nexact quantification: {len(batch)} Eq. (2) vectors in "
              f"{elapsed * 1e3:.0f} ms ({len(batch) / elapsed:,.0f} "
              f"queries/s), max support size "
              f"{max(len(e) for e in exact)}")
        beacons = [(rng.uniform(0, d_extent), rng.uniform(0, d_extent))
                   for _ in range(50)]
        start = time.perf_counter()
        for _ in range(2000):
            service.query("quantify_exact",
                          beacons[rng.randrange(len(beacons))])
        elapsed = time.perf_counter() - start
        cache = service.stats()["cache"]
        print(f"beacon repeats: 2000 quantify_exact requests in "
              f"{elapsed * 1e3:.0f} ms ({2000 / elapsed:,.0f} req/s), "
              f"hit rate {cache['hit_rate']:.0%} with exact keys")

    # Burst 5: the seventh query kind — exact quantification served out
    # of the probabilistic Voronoi diagram (point location into
    # precomputed face vectors; the Eq. (2) sweep only outside the box).
    small = PNNIndex(random_discrete_points(10, 2, seed=23, spread=2.0))
    with small.serve(workers=0, cache_capacity=2048) as service:
        vqs = np.array([(rng.uniform(-1, 8), rng.uniform(-1, 8))
                        for _ in range(4000)])
        service.batch("quantify_vpr", vqs[:4])  # build V_Pr + locator
        vpr = small.cached_vpr()
        start = time.perf_counter()
        answers = service.batch("quantify_vpr", vqs)
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        sweep = small.batch_quantify_exact(vqs)
        sweep_t = time.perf_counter() - start
        print(f"\nquantify_vpr: {len(vqs)} exact vectors via point "
              f"location over {vpr.num_faces} V_Pr cells in "
              f"{elapsed * 1e3:.0f} ms ({len(vqs) / elapsed:,.0f} "
              f"queries/s, sweep {len(vqs) / sweep_t:,.0f}); "
              f"row-for-row equal: {answers == sweep}")
    return 0


def _serve_http(argv: list) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-http",
        description="Serve probabilistic NN queries over HTTP (asyncio, "
                    "stdlib-only): POST /v1/query/<kind>, GET /healthz, "
                    "GET /metrics.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=2,
                        help="executor worker count (0 forces inline)")
    parser.add_argument("--n", type=int, default=12,
                        help="synthetic discrete index size (points; 2 "
                             "instances each).  Kept small by default "
                             "because quantify_vpr's first request "
                             "lazily builds the Theta(N^4) V_Pr "
                             "diagram — at the default N=24 instances "
                             "that is sub-second, at N=36 it is already "
                             "minutes.  Raise it for throughput demos "
                             "of the other six kinds.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="concurrent engine executions (thread pool "
                             "size)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="admitted requests allowed to queue before "
                             "429 shedding")
    parser.add_argument("--request-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="default end-to-end deadline applied to "
                             "every query that does not carry its own "
                             "timeout_ms / X-Request-Deadline-Ms; "
                             "requests exceeding it answer 504 "
                             "(default: no deadline)")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault-injection plan for chaos drills, "
                             "e.g. 'crash_worker:chunk=0' or "
                             "'slow_chunk:delay=1,attempts=any;seed:3'")
    parser.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="RATE",
                        help="trace this fraction of requests (0 disables "
                             "tracing entirely — the default; 1.0 traces "
                             "everything).  Sampled traces land in the "
                             "bounded in-memory store behind GET "
                             "/debug/traces and feed the per-stage "
                             "latency families on /metrics.")
    parser.add_argument("--slow-ms", type=float, default=250.0,
                        help="requests at least this slow land in the "
                             "slow-query ring (GET /debug/slow) and are "
                             "logged at WARNING")
    parser.add_argument("--access-log", default=None, metavar="PATH",
                        help="structured JSON access log: a file path, "
                             "or '-' for stderr (default: no log; the "
                             "slow-query ring fills regardless)")
    parser.add_argument("--log-level", default="INFO",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="access-log threshold: INFO writes every "
                             "request record, WARNING only the slow ones")
    args = parser.parse_args(argv)

    from .core.index import PNNIndex
    from .core.workloads import random_discrete_points
    from .obs.trace import TraceConfig
    from .serving.http import HttpConfig, serve_forever

    # A discrete fleet keeps all seven kinds answerable (quantify_exact
    # and quantify_vpr require discrete instances); k=2 instances per
    # point keeps the quantify_vpr lazy build inside serving reality.
    index = PNNIndex(random_discrete_points(args.n, 2, seed=args.seed,
                                            spread=2.0))
    from .spatial.kernels import get_provider

    print(f"serve-http: {args.n} uncertain discrete points "
          f"(2 instances each), workers={args.workers}, "
          f"kernel={get_provider().name}")
    if args.n > 16:
        print(f"note: quantify_vpr's first request builds V_Pr lazily — "
              f"Theta(N^4) in the {2 * args.n} instances; the other six "
              f"kinds are unaffected")
    if args.trace_sample > 0:
        print(f"tracing {args.trace_sample:.0%} of requests "
              f"(GET /debug/traces exports them; slow-query threshold "
              f"{args.slow_ms:g} ms on GET /debug/slow)")
    config = HttpConfig(host=args.host, port=args.port,
                        max_inflight=args.max_inflight,
                        max_pending=args.max_pending,
                        access_log=args.access_log,
                        log_level=args.log_level)
    trace = TraceConfig(enabled=args.trace_sample > 0,
                        sample=args.trace_sample,
                        slow_ms=args.slow_ms)
    if args.request_timeout is not None:
        print(f"end-to-end deadline: {args.request_timeout:g} s default "
              f"(per-request timeout_ms / X-Request-Deadline-Ms override)")
    if args.faults:
        print(f"chaos: fault plan active — {args.faults!r}")
    with index.serve(workers=args.workers,
                     cache_capacity=8192, max_batch=128,
                     trace=trace, default_timeout=args.request_timeout,
                     faults=args.faults) as service:
        serve_forever(service, config)
    return 0


def _smoke(argv: list) -> int:
    import argparse

    from .serving.smoke import run

    parser = argparse.ArgumentParser(
        prog="python -m repro smoke",
        description="End-to-end self-test of the serving stack over live "
                    "HTTP: every scenario that applies to the host's "
                    "executor rung (http, chaos, and plane on process).")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write <scenario>-metrics.txt scrapes and "
                             "http-trace.json into this directory")
    args = parser.parse_args(argv)
    return run(out=args.out)


def _vpr_info(argv: list) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro vpr-info",
        description="Build a small probabilistic Voronoi diagram and "
                    "print locator build/size figures: merged-slab tree "
                    "entries versus the analytic slab-table row count, "
                    "bytes, build seconds, and the shared-plane export "
                    "size.")
    parser.add_argument("--n", type=int, default=10,
                        help="discrete points (2 instances each); the "
                             "V_Pr build is Theta(N^4) in the 2n "
                             "instances, so keep this modest")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    import time

    from .core.index import PNNIndex
    from .core.workloads import random_discrete_points
    from .spatial.codec import CodecUnsupported, plane_to_arrays
    from .spatial.planelocate import slab_table_rows

    index = PNNIndex(random_discrete_points(args.n, 2, seed=args.seed,
                                            spread=2.0))
    print(f"vpr-info: {args.n} discrete points (2 instances each)")
    t0 = time.perf_counter()
    vpr = index.build_vpr()
    build = time.perf_counter() - t0
    stats = vpr.locator_stats()
    arr = vpr.arrangement
    print(f"  diagram:      {vpr.num_faces} bounded faces, "
          f"{arr.num_vertices} vertices, {arr.num_edges} edges, "
          f"built in {build:.3f} s")
    print(f"  locator:      {stats['kind']}, "
          f"{stats['slabs']} slabs, built in "
          f"{stats['build_seconds']:.3f} s")
    rows = slab_table_rows(arr)
    print(f"  storage:      {stats['entries']} tree entries "
          f"({stats['nbytes'] / 1e6:.2f} MB) vs {rows} analytic "
          f"slab-table rows — "
          f"{rows / max(stats['entries'], 1):.1f}x fewer entries")
    try:
        plane = plane_to_arrays(vpr)
        nbytes = sum(a.nbytes for a in plane.values())
        print(f"  shared plane: {len(plane)} arrays, "
              f"{nbytes / 1e6:.2f} MB — process workers attach "
              f"zero-rebuild")
    except CodecUnsupported as exc:
        print(f"  shared plane: not exportable ({exc})")
    return 0


def _trace_dump(argv: list) -> int:
    import argparse
    import json
    import urllib.error
    import urllib.request

    parser = argparse.ArgumentParser(
        prog="python -m repro trace-dump",
        description="Fetch the trace store of a running serve-http "
                    "instance (GET /debug/traces) and print or save it.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--format", default="chrome",
                        choices=("chrome", "jsonl"),
                        help="chrome: trace-event JSON for "
                             "chrome://tracing / ui.perfetto.dev; "
                             "jsonl: one span record per line")
    parser.add_argument("--trace-id", default=None,
                        help="restrict the dump to one trace")
    parser.add_argument("--out", default=None,
                        help="write to this file instead of stdout")
    args = parser.parse_args(argv)

    url = (f"http://{args.host}:{args.port}/debug/traces"
           f"?format={args.format}")
    if args.trace_id:
        url += f"&trace_id={args.trace_id}"
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            payload = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        print(f"trace-dump: cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        if args.format == "chrome":
            spans = len(json.loads(payload).get("traceEvents", []))
        else:
            spans = sum(1 for line in payload.splitlines() if line)
        print(f"wrote {spans} spans to {args.out} ({args.format})")
    else:
        print(payload)
    return 0


def _kernels() -> int:
    from .spatial.kernels import kernel_status

    status = kernel_status()
    print("kernel tier status")
    print(f"  selected:         {status['resolved']}")
    print(f"  compiler:         {status['compiler'] or '(none found)'}")
    if status["compiler"]:
        print(f"  cflags:           {' '.join(status['cflags'])}")
    print(f"  native available: {status['native_available']}")
    if status["native_error"]:
        print(f"  native error:     {status['native_error']}")
    if status.get("library"):
        cached = " (cached)" if status.get("cached") else ""
        print(f"  library:          {status['library']}{cached}")
    return 0


def _info() -> int:
    from . import __version__

    print(f"repro {__version__} — reproduction of "
          "'Nearest-Neighbor Searching Under Uncertainty II' (PODS 2013)")
    print("subpackages: core, geometry, spatial, uncertain, voronoi, "
          "quantification, serving, experiments, viz")
    print("docs: README.md, PAPER.md")
    print("experiments: python -m repro.experiments [--quick] [ids] "
          "(writes the paper-vs-measured table)")
    return 0


def main(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command = argv[0]
    if command == "demo":
        return _demo()
    if command == "serve-demo":
        return _serve_demo()
    if command == "serve-http":
        return _serve_http(argv[1:])
    if command == "smoke":
        return _smoke(argv[1:])
    if command == "vpr-info":
        return _vpr_info(argv[1:])
    if command == "trace-dump":
        return _trace_dump(argv[1:])
    if command == "kernels":
        return _kernels()
    if command == "info":
        return _info()
    if command == "experiments":
        from .experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    print(f"unknown command {command!r}; try: demo, serve-demo, "
          "serve-http, smoke, vpr-info, "
          "trace-dump, kernels, info, experiments")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))