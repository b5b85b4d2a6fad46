"""E23 — executor-backend throughput: process vs thread vs V_Pr.

The acceptance workload of the pluggable-backend refactor.  Two headline
assertions:

* **bitwise identity** — every backend (``process``, ``thread``)
  returns, for every probed query kind, exactly the unsharded
  ``PNNIndex.batch_*`` output (the full property grid lives in
  ``tests/test_executors.py``; this benchmark re-checks it on the
  measured workload so the timing rows are guaranteed comparable);
* **scaling bars are host-aware** — per-backend speedup over the
  single-process batch path is recorded always but enforced only on
  >= 4-core hosts (``E23_MIN_SPEEDUP``, the E20/E22 convention: a
  1-core container runs parity only).

A companion block measures the ``quantify_vpr`` serving kind: exact
quantification answered by point location into precomputed ``V_Pr`` face
vectors versus re-running the Eq. (2) sweep per batch, with row-for-row
equality asserted on the way.

Env knobs: ``E23_N``, ``E23_M``, ``E23_WORKERS``, ``E23_MIN_SPEEDUP``,
``E23_VPR_N``, ``E23_JSON`` (write a machine-readable summary for CI
artifacts).
"""

import math
import random

import numpy as np

from _common import best_of, cores, env_float, env_int, gated_speedup, \
    write_json
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points, random_disks
from repro.serving import ShardExecutor
from repro.uncertain.disk_uniform import DiskUniformPoint

N = env_int("E23_N", 20000)
M = env_int("E23_M", 100000)
WORKERS = env_int("E23_WORKERS", 4)
VPR_N = env_int("E23_VPR_N", 10)
_CORES = cores()
MIN_SPEEDUP = gated_speedup("E23_MIN_SPEEDUP", 1.5, workers=WORKERS)
# Smoke bound on the vpr-vs-sweep ratio (not a scaling bar); <= 0
# disables it on pathologically noisy runners, per the file convention.
VPR_MAX_RATIO = env_float("E23_VPR_MAX_RATIO", 25.0)

BACKENDS = ("process", "thread")

EXTENT = math.sqrt(N) * 2.0
_DISKS = random_disks(N, seed=2323, extent=EXTENT, r_min=0.1, r_max=0.4)
INDEX = PNNIndex([DiskUniformPoint(d.center, d.r) for d in _DISKS])
RNG = random.Random(61)
QUERIES = np.array([(RNG.uniform(0, EXTENT), RNG.uniform(0, EXTENT))
                    for _ in range(M)])


def test_e23_backend_parity_and_throughput():
    INDEX.batch_delta(QUERIES[:16])  # engine build outside all timers
    single_t, base = best_of(lambda: INDEX.batch_delta(QUERIES))
    rows = [{"backend": "single", "mode": "-", "start_method": "-",
             "qps": int(M / single_t), "speedup": 1.0, "identical": True}]
    enforced_failures = []
    for backend in BACKENDS:
        with ShardExecutor(INDEX.points, workers=WORKERS,
                           backend=backend, index=INDEX) as executor:
            executor.run("delta", QUERIES[:16])  # replicas/pools warm
            shard_t, sharded = best_of(
                lambda e=executor: e.run("delta", QUERIES))
            identical = bool(np.array_equal(base, sharded))
            assert identical, \
                f"{backend} backend delta differs from single-process output"
            # One non-delta kind per backend keeps the parity claim broad
            # without re-running the whole grid inside the timed bench.
            sub = QUERIES[:400]
            assert executor.run("nonzero_nn", sub) == \
                INDEX.batch_nonzero_nn(sub), \
                f"{backend} backend nonzero_nn differs"
            speedup = single_t / shard_t
            rows.append({"backend": backend, "mode": executor.mode,
                         "start_method": executor.start_method or "-",
                         "qps": int(M / shard_t),
                         "speedup": round(speedup, 3),
                         "identical": identical})
            if MIN_SPEEDUP > 0 and executor.mode == backend \
                    and speedup < MIN_SPEEDUP:
                enforced_failures.append(
                    f"{backend}: {speedup:.2f}x < {MIN_SPEEDUP}x")
    payload = {
        "experiment": "E23",
        "n": N, "m": M, "workers": WORKERS, "cores": _CORES,
        "min_speedup": MIN_SPEEDUP,
        "rows": rows,
    }
    write_json("E23_JSON", payload)
    assert not enforced_failures, \
        f"backend scaling bars missed at n={N}, m={M}, " \
        f"workers={WORKERS}: {'; '.join(enforced_failures)}"


def test_e23_quantify_vpr_serving_throughput():
    pts = random_discrete_points(VPR_N, 2, seed=2324, spread=2.0)
    index = PNNIndex(pts)
    extent = math.sqrt(VPR_N) * 2.2
    rng = random.Random(67)
    qs = np.array([(rng.uniform(-1, extent + 1),
                    rng.uniform(-1, extent + 1)) for _ in range(4000)])
    sweep_t, sweep = best_of(lambda: index.batch_quantify_exact(qs))
    index.batch_quantify_vpr(qs[:4])  # diagram + locator outside timers
    vpr_t, served = best_of(lambda: index.batch_quantify_vpr(qs))
    # Row-for-row equality of the served dicts against the direct sweep.
    assert served == sweep, \
        "quantify_vpr disagrees with batch_quantify_exact"
    in_box = int((index.cached_vpr().locator.locate_batch(qs) >= 0).sum())
    payload = {
        "experiment": "E23-vpr",
        "n": VPR_N, "m": len(qs), "in_box": in_box,
        "faces": index.cached_vpr().num_faces,
        "sweep_qps": int(len(qs) / sweep_t),
        "vpr_qps": int(len(qs) / vpr_t),
        "speedup": round(sweep_t / vpr_t, 3),
        "identical": True,
    }
    write_json("E23_VPR_JSON", payload)
    # Point location is the asymptotic win; on tiny instances it must at
    # least stay in the sweep's ballpark (smoke bound, not a bar).
    if VPR_MAX_RATIO > 0:
        assert vpr_t < sweep_t * VPR_MAX_RATIO, \
            f"quantify_vpr {vpr_t / sweep_t:.1f}x slower than the sweep " \
            f"(bound {VPR_MAX_RATIO}x; relax via E23_VPR_MAX_RATIO)"
