"""E26 — fault recovery: resilience must be fast to heal and free at rest.

The acceptance workload of the robustness layer (:mod:`repro.serving.faults`).
Three claims, two of them barred:

* **bitwise identity through failure** — a run that loses a worker to a
  crash (``process``), survives an in-compute raise (``thread``/
  ``inline``), or rides out a pool rebuild still returns exactly the
  unsharded ``PNNIndex.batch_delta`` output.  Never gated.
* **steady-state overhead bar** — with faults disabled, the resilient
  dispatch loop (chunk bookkeeping, deadline checks, breaker accounting,
  health polling) on the inline backend stays within
  ``E26_MAX_OVERHEAD`` (default 3%) of the raw engine call.  Resilience
  you are not using must cost (almost) nothing.
* **recovery-latency bar** — the wall-clock penalty of one injected
  failure (detect + rebuild/retry + re-dispatch) stays under
  ``E26_MAX_RECOVERY_S`` (default 10 s, generous: it is a smoke bound
  against wedged teardown, not a scaling bar).  Reported per backend as
  ``recovery_ms`` next to the clean-run time so regressions are visible
  long before the bar trips.

A companion block measures deadline promptness: a 300 ms deadline over a
hung chunk must abort within the deadline plus one poll interval (plus
margin), the executor's ``deadline_exceeded`` counter moving in step.

Env knobs: ``E26_N``, ``E26_M``, ``E26_MAX_OVERHEAD`` (``<= 0``
disables the bar), ``E26_MAX_RECOVERY_S`` (``<= 0`` disables),
``E26_JSON`` (machine-readable summary for CI artifacts).
"""

import math
import random
import time

import numpy as np

from _common import best_of, env_float, env_int, write_json
from repro.core.index import PNNIndex
from repro.core.workloads import random_disks
from repro.serving import ShardExecutor
from repro.serving.faults import Deadline, DeadlineExceeded
from repro.uncertain.disk_uniform import DiskUniformPoint

N = env_int("E26_N", 4000)
M = env_int("E26_M", 16000)
MAX_OVERHEAD = env_float("E26_MAX_OVERHEAD", 0.03)
MAX_RECOVERY_S = env_float("E26_MAX_RECOVERY_S", 10.0)

EXTENT = math.sqrt(N) * 2.0
_DISKS = random_disks(N, seed=2626, extent=EXTENT, r_min=0.1, r_max=0.4)
INDEX = PNNIndex([DiskUniformPoint(d.center, d.r) for d in _DISKS])
RNG = random.Random(73)
QUERIES = np.array([(RNG.uniform(0, EXTENT), RNG.uniform(0, EXTENT))
                    for _ in range(M)])

#: (backend, fault injected for the recovery measurement).  Pool-backed
#: backends take a real worker crash; thread/inline, which have no
#: process to kill, take an in-compute raise — the same retry path.
RECOVERY_GRID = (
    ("process", "crash_worker:chunk=0"),
    ("thread", "raise_in_compute:chunk=0"),
    ("inline", "raise_in_compute:chunk=0"),
)


def test_e26_steady_state_overhead():
    """Faults disabled: the resilient loop must price in at ~0."""
    INDEX.batch_delta(QUERIES[:16])  # engine build outside all timers
    direct_t, base = best_of(lambda: INDEX.batch_delta(QUERIES), reps=3)
    # Single chunk on the inline backend: identical compute, so the
    # ratio isolates the dispatch/poll/deadline scaffolding itself.
    with ShardExecutor(INDEX.points, workers=1, backend="inline",
                       chunk_size=M, index=INDEX) as executor:
        executor.run("delta", QUERIES[:16])
        loop_t, out = best_of(lambda: executor.run("delta", QUERIES),
                              reps=3)
    assert np.array_equal(base, out), \
        "resilient inline dispatch perturbed delta answers"
    ratio = loop_t / direct_t
    if MAX_OVERHEAD > 0:
        assert ratio <= 1.0 + MAX_OVERHEAD, \
            f"fault-disabled dispatch loop is {(ratio - 1) * 100:.1f}% " \
            f"over the direct engine call (bar {MAX_OVERHEAD * 100:.0f}%; " \
            f"relax via E26_MAX_OVERHEAD)"
    write_json("E26_OVERHEAD_JSON", {
        "experiment": "E26/overhead", "n": N, "m": M,
        "direct_qps": int(M / direct_t), "loop_qps": int(M / loop_t),
        "ratio": round(ratio, 4), "bar": MAX_OVERHEAD,
    })


def test_e26_recovery_latency():
    """One injected failure per backend: parity plus a bounded penalty."""
    INDEX.batch_delta(QUERIES[:16])
    base = INDEX.batch_delta(QUERIES)
    chunk = max(1, M // 8)
    rows = []
    for backend, fault in RECOVERY_GRID:
        with ShardExecutor(INDEX.points, workers=2, backend=backend,
                           chunk_size=chunk, index=INDEX) as executor:
            executor.run("delta", QUERIES[:16])  # pools warm
            clean_t, _ = best_of(lambda: executor.run("delta", QUERIES),
                                 reps=2)
            from repro.serving.faults import FaultPlan
            executor.faults = FaultPlan.coerce(fault)
            start = time.perf_counter()
            healed = executor.run("delta", QUERIES)
            faulted_t = time.perf_counter() - start
            executor.faults = None
            assert np.array_equal(base, healed), \
                f"{backend}: output after injected failure is not " \
                f"bitwise-identical to the unsharded oracle"
            snap = executor.health()["resilience"]
            assert snap["worker_failures"] >= 1, \
                f"{backend}: fault did not register as a worker failure"
            assert snap["retries"] >= 1 or snap["rebuilds"] >= 1, \
                f"{backend}: no retry or rebuild recorded for the fault"
            assert not executor.degraded, \
                f"{backend}: a single fault should heal, not degrade"
            recovery = max(0.0, faulted_t - clean_t)
            if MAX_RECOVERY_S > 0:
                assert faulted_t < clean_t + MAX_RECOVERY_S, \
                    f"{backend}: faulted run took {faulted_t:.2f}s vs " \
                    f"{clean_t:.2f}s clean (bar +{MAX_RECOVERY_S:g}s; " \
                    f"relax via E26_MAX_RECOVERY_S)"
            rows.append({
                "backend": backend, "mode": executor.mode, "fault": fault,
                "clean_ms": round(clean_t * 1e3, 1),
                "faulted_ms": round(faulted_t * 1e3, 1),
                "recovery_ms": round(recovery * 1e3, 1),
                "rebuilds": snap["rebuilds"], "retries": snap["retries"],
            })
    write_json("E26_JSON", {
        "experiment": "E26", "n": N, "m": M,
        "recovery_bar_s": MAX_RECOVERY_S, "rows": rows,
    })


def test_e26_deadline_promptness():
    """A hung chunk cannot hold a deadlined request past its budget."""
    INDEX.batch_delta(QUERIES[:16])
    chunk = max(1, M // 8)
    # chunk=1: the thread backend's first dispatch of an unseen method
    # runs synchronously (structure warm-up) and cannot be preempted.
    with ShardExecutor(INDEX.points, workers=2, backend="process",
                       chunk_size=chunk, index=INDEX,
                       faults="hang_chunk:chunk=1,delay=5,attempts=any"
                       ) as executor:
        start = time.perf_counter()
        try:
            executor.run("delta", QUERIES,
                         deadline=Deadline.from_timeout_ms(300))
            raise AssertionError("hung run returned before its deadline")
        except DeadlineExceeded:
            elapsed = time.perf_counter() - start
        assert elapsed < 1.5, \
            f"deadline expiry took {elapsed:.2f}s against a 300 ms budget"
        assert executor.resilience["deadline_exceeded"].get() == 1
