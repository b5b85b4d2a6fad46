"""The PNN service benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk_exact --seed 1 --seconds 30 --trace 0

It launches the real HTTP server (``launcher.py``) in its own process,
drives it over loopback in a closed loop for ``--seconds``, checks every
reply against the in-process ``PNNIndex.batch_*`` oracle, and prints as
its last stdout line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the
time between an untraced and a traced phase and reports the per-layer
table.  Each run also writes a record (commit, host, seed, knobs,
metrics) under ``perfbench/records/``.  See ``perfbench/README.md``.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RECORDS = os.path.join(HERE, "records")
#: Set-up-only launches per run, half before and half after the timed
#: phase; with the serving launch, ``setup_s`` is the median of three.
SETUP_LAUNCHES = 2
#: Timed requests a phase needs so that ten lie beyond its p90.
P90_REQUESTS = 100

#: (name, unit) of every end-to-end metric.
END_TO_END = (("setup_s", "s"), ("rows_per_s", "rows/s"),
              ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"),
              ("server_pss_mb", "MB"))


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """One workload run: inputs, launches, phases and the oracle check."""

    def __init__(self, workload, seed: int) -> None:
        import numpy as np
        from repro.spatial.codec import points_to_arrays
        from workloads import Inputs

        self.workload = workload
        self.inputs = Inputs(workload, seed)
        self.dir = os.path.join(BUILD, "perfbench",
                                f"{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        # The server receives the generated point set, never the seed.
        self.points = os.path.join(self.dir, "points.npz")
        np.savez(self.points, **points_to_arrays(self.inputs.points))
        self.env = dict(os.environ)
        self.launches = []
        self.attempted = self.failed = 0
        self.posture = None

    def launch(self, trace: bool = False, vpr: bool = None):
        from client import Server

        server = Server(self.points, os.path.join(self.dir, "server.log"),
                        self.env, trace=trace,
                        vpr=self.workload.vpr if vpr is None else vpr)
        try:
            health = server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server, health

    def warm_launch(self) -> None:
        """An untimed launch without V_Pr: it fills the page cache and
        compiles the native kernels on a checkout's first run."""
        server, _ = self.launch(vpr=False)
        server.stop()

    def setup_launch(self) -> None:
        """A launch that only sets up: timed to healthz, then stopped."""
        server, _ = self.launch()
        server.stop()
        self.launches.append(server)

    def phase(self, seconds: float, trace: bool = False) -> dict:
        """Launch, warm up, drive the timed closed loop for *seconds*,
        read memory and health, stop; then check every timed reply
        against the oracle."""
        from client import check_health, closed_loop, get_json
        from workloads import check_replies

        w = self.workload
        server, health = self.launch(trace)
        try:
            self.posture = check_health(health, need_plane=w.vpr)
            streams = [[r.raw for r in s] for s in self.inputs.streams]
            gc.collect()
            gc.disable()
            try:
                replies, first_s, wall = closed_loop(
                    server.port, streams, seconds, warmup=w.warmup)
            finally:
                gc.enable()
            pss_mb = server.pss_mb()
            _, after = get_json(server.port, "/healthz")
            self.posture = check_health(after, need_plane=w.vpr)
            retries = after["executor"]["resilience"]["retries"]
            plane_bytes = (after.get("vpr") or {}).get("plane_bytes", 0)
            records = []
            if trace:
                _, raw = get_json(server.port,
                                  "/debug/traces?format=jsonl", timeout=120)
                records = [json.loads(line) for line in raw.splitlines()
                           if line.strip()]
        finally:
            server.stop()
        self.launches.append(server)
        failed = rows = 0
        latencies, timed = [], []
        for stream, got in zip(self.inputs.streams, replies):
            pool = stream[w.warmup:]
            if not w.rows and len(got) > len(pool):
                log(f"{w.name}: {len(got)} requests cycled through "
                    f"{len(pool)} distinct inputs; raise distinct")
            sent = [pool[j % len(pool)] for j in range(len(got))]
            ok = check_replies(self.inputs.index, sent, got)
            failed += ok.count(False)
            for req, good, (_, headers, body, elapsed) in zip(sent, ok, got):
                latencies.append(elapsed)
                timed.append((headers.get("x-request-id", ""), elapsed,
                              len(body)))
                rows += len(req.rows) * good
        self.attempted += len(latencies)
        self.failed += failed
        if retries:
            # Answers survive a retry, but the run measured recovery,
            # not the program under test.
            self.failed += 1
            log(f"executor retried {retries} chunks")
        if len(latencies) < P90_REQUESTS:
            log(f"{w.name}: {len(latencies)} timed requests; p90 has "
                f"fewer than 10 samples beyond it")
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        return {"requests": len(latencies), "rows_per_s": rows / wall,
                "latency_ms_p50": statistics.median(latencies) * 1e3,
                "latency_ms_p90": deciles[8] * 1e3,
                "server_pss_mb": pss_mb, "first_request_ms": first_s * 1e3,
                "retries": retries, "plane_bytes": plane_bytes,
                "wall_s": wall, "records": records, "timed": timed}

    def end_to_end(self, seconds: float) -> dict:
        # Set-up launches sit on both sides of the timed phase, so that
        # a stretch of host contention rarely covers most of them.
        self.warm_launch()
        for _ in range(SETUP_LAUNCHES // 2):
            self.setup_launch()
        p = self.phase(seconds)
        while len(self.launches) < SETUP_LAUNCHES + 1:
            self.setup_launch()
        values = {"setup_s": statistics.median(s.setup_s
                                               for s in self.launches),
                  **{k: p[k] for k in ("rows_per_s", "latency_ms_p50",
                                       "latency_ms_p90", "server_pss_mb")}}
        return {"metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in END_TO_END},
                "phase": {k: p[k] for k in ("requests", "wall_s")},
                "launches": self.launch_records()}

    def launch_records(self) -> list:
        return [{"setup_s": s.setup_s, "warm_s": s.warm_s, **s.setup}
                for s in self.launches]

    def per_layer(self, seconds: float) -> dict:
        from layers import (PER_LAYER, engine_layers, median, span_layers,
                            vpr_layers)

        w = self.workload
        self.warm_launch()
        plain = self.phase(seconds / 2)
        traced = self.phase(seconds / 2, trace=True)
        values = span_layers(traced["records"], traced["timed"])
        values["executor.retries"] = float(plain["retries"]
                                           + traced["retries"])
        values["trace.overhead_ratio"] = (traced["latency_ms_p50"]
                                          / plain["latency_ms_p50"])
        request = next(r for r in self.inputs.streams[0][w.warmup:]
                       if "quantify" in r.kind)
        reps = 5 if len(request.rows) > 1 else 200
        values.update(engine_layers(self.inputs.index, request.rows, reps))
        values.update({"vpr.quantify_ms": 0.0, "planelocate.locate_ms": 0.0,
                       "vpr.in_window_share": 0.0})
        if self.inputs.vpr is not None:
            values.update(vpr_layers(self.inputs.vpr, request.rows, reps))
        values["vpr.plane_mb"] = plain["plane_bytes"] / 1e6
        for key in ("import_s", "index_s", "vpr_build_s", "plane_encode_s",
                    "serve_s"):
            values[f"setup.{key}"] = median(s.setup[key]
                                            for s in self.launches)
        values["setup.warm_s"] = median(s.warm_s for s in self.launches)
        values["setup.first_request_ms"] = plain["first_request_ms"]
        return {"metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in PER_LAYER},
                "requests": plain["requests"] + traced["requests"],
                "launches": self.launch_records()}


def _first_line(cmd) -> object:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return out.splitlines()[0] if out else None


def write_record(args, run: Run, result: dict) -> str:
    import numpy as np

    from launcher import HTTP_KNOBS, SERVICE_KNOBS

    record = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # None when the checkout is not a git repository.
        "commit": (_first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
                   if os.path.isdir(os.path.join(ROOT, ".git")) else None),
        "host": {"nproc": os.cpu_count(),
                 "cc": _first_line(["cc", "--version"]),
                 "numpy": np.__version__,
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "workload": run.workload.__dict__,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "knobs": {"service": SERVICE_KNOBS, "http": HTTP_KNOBS,
                  "resolved": run.posture},
        "result": result,
    }
    os.makedirs(RECORDS, exist_ok=True)
    path = os.path.join(RECORDS, f"{record['recorded']}-{run.workload.name}"
                                 f"-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log("no program sources under src/repro; run from the root of a "
            "checkout")
        return 2
    # The native kernel compiles into the checkout, not the home cache.
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD, "repro-kernels")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    t0 = time.perf_counter()
    run = Run(WORKLOADS[args.workload], args.seed)
    inputs_s = time.perf_counter() - t0
    report = (run.per_layer(args.seconds) if args.trace
              else run.end_to_end(args.seconds))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": report.pop("metrics")}
    path = write_record(args, run, {**result, **report, "inputs_s": inputs_s,
                                    "run_s": time.perf_counter() - t0})
    log(f"record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
