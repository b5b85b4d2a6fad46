"""Server process of the benchmark: the real HTTP server over generated inputs.

Run by ``run.py`` as its own process::

    python3 perfbench/launcher.py --points RUN_DIR/points.npz [--vpr] [--trace]

It decodes the generated point set (``points_to_arrays`` format), builds
the index, optionally builds and adopts ``V_Pr``, and serves it with
``serve_forever`` under the settings ``python -m repro serve-http`` gives
its service.  Once the socket is bound it prints one JSON line on stdout:
the port and the ``setup.*`` timings of the public calls it made.  SIGINT
stops it cleanly (the executor's workers and shared memory are released).
"""

import argparse
import json
import os
import re
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import repro.serving.service as service_module  # noqa: E402
from repro.core.index import PNNIndex  # noqa: E402
from repro.obs.trace import TraceConfig  # noqa: E402
from repro.serving.http import HttpConfig, serve_forever  # noqa: E402
from repro.spatial.codec import points_from_arrays  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

#: The service settings of ``python -m repro serve-http`` (its defaults).
SERVICE_KNOBS = {"workers": 2, "backend": "auto", "kernel": "auto",
                 "locator": "auto", "cache_capacity": 8192,
                 "max_batch": 128, "flush_window": 0.002}
#: ``HttpConfig`` defaults, bound to an ephemeral loopback port.
HTTP_KNOBS = {"host": "127.0.0.1", "port": 0}
#: Traced runs keep every span of a run in the store.
TRACE_MAX_SPANS = 400_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", required=True,
                        help="npz file of the encoded point set")
    parser.add_argument("--vpr", action="store_true",
                        help="build V_Pr and adopt it before serving")
    parser.add_argument("--trace", action="store_true",
                        help="trace every request (sample 1.0)")
    args = parser.parse_args(argv)
    setup = {"import_s": IMPORT_S, "vpr_build_s": 0.0,
             "plane_encode_s": 0.0}

    t0 = time.perf_counter()
    with np.load(args.points) as npz:
        arrays = {key: npz[key] for key in npz.files}
    index = PNNIndex(points_from_arrays(arrays), kernel="auto")
    setup["index_s"] = time.perf_counter() - t0

    vpr = None
    if args.vpr:
        t0 = time.perf_counter()
        vpr = index.build_vpr()
        setup["vpr_build_s"] = time.perf_counter() - t0

    # The service encodes an adopted V_Pr into plane arrays inside its
    # constructor; time that call where the service looks it up.
    encode = service_module.plane_to_arrays

    def timed_encode(diagram):
        t = time.perf_counter()
        try:
            return encode(diagram)
        finally:
            setup["plane_encode_s"] += time.perf_counter() - t

    service_module.plane_to_arrays = timed_encode
    trace = (TraceConfig(enabled=True, sample=1.0, max_spans=TRACE_MAX_SPANS)
             if args.trace else TraceConfig(enabled=False, sample=0.0))
    t0 = time.perf_counter()
    service = index.serve(vpr=vpr, trace=trace, **SERVICE_KNOBS)
    setup["serve_s"] = time.perf_counter() - t0
    service_module.plane_to_arrays = encode

    out = sys.stdout

    def announce(message: str) -> None:
        match = re.search(r"http://[^:/]+:(\d+)", message)
        if match is None:
            return
        out.write(json.dumps({"port": int(match.group(1)),
                              "pid": os.getpid(), "setup": setup}) + "\n")
        out.flush()

    # Anything else the server prints goes to the log, never the pipe.
    sys.stdout = sys.stderr
    with service:
        serve_forever(service, HttpConfig(**HTTP_KNOBS), announce=announce)
    return 0


if __name__ == "__main__":
    sys.exit(main())
