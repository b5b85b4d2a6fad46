"""E28 — output-sensitive point location: merged-slab tree vs. slab table.

The acceptance workload of the persistent plane locator
(:mod:`repro.spatial.planelocate`), at the E22 serving scale the slab
table could never reach: ``N = 36`` uncertain instances (18 discrete
points x 2), whose bisector arrangement carries ~170k vertices and
~170k slabs.  At that size the slab table's ``Theta(V * S)`` rows are
~10^8 — tens of gigabytes — which is exactly the memory wall the
merged-slab structure removes; its row count is therefore computed
**analytically** (:func:`repro.spatial.planelocate.slab_table_rows`, no
table is built) while the persistent locator is actually built and
measured.

Gates (each with an env knob; correctness is never gated):

* **build-memory reduction** — the analytic slab-table bytes over the
  built persistent locator's bytes must be at least
  ``E28_MIN_MEM_RATIO`` (default 5x; measured ~35x at the default
  scale).
* **batch-locate throughput** — the native ``plane_locate`` kernel
  must beat the NumPy lane by ``E28_MIN_SPEEDUP`` (default 2x) on the
  full query batch, skipped without a compiler (the tier degrades to
  NumPy by design).
* **bitwise parity** — NumPy and native lanes must agree exactly at
  full scale; and at a reduced scale where the slab table *is*
  buildable (its projected bytes under ``E28_SLAB_BUDGET_MB``,
  default 256), the persistent locator must agree **bitwise** with the
  built slab oracle (:class:`repro.testing.oracles.SlabPointLocator`)
  on every query, and the head-to-head build/locate
  timings are recorded in the JSON (ungated: per-query the slab
  table's single wide bisection is legitimately competitive — the
  tree wins on build cost and memory, which is what the gates hold).

Env knobs: ``E28_POINTS``, ``E28_QUERIES``, ``E28_SUB_POINTS``,
``E28_MIN_MEM_RATIO``, ``E28_MIN_SPEEDUP``, ``E28_SLAB_BUDGET_MB``,
``E28_JSON`` (machine-readable summary for CI artifacts; also folded
into the repo-root ``BENCH_SUMMARY.json``).
"""

import numpy as np

from _common import best_of, cores, env_float, env_int, write_json
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.spatial.kernels import native_available, native_error
from repro.spatial.planelocate import PersistentPlaneLocator
from repro.testing.oracles import SlabPointLocator

POINTS = env_int("E28_POINTS", 18)       # discrete points (x2 instances)
QUERIES = env_int("E28_QUERIES", 20000)  # batch-locate query count
SUB_POINTS = env_int("E28_SUB_POINTS", 8)  # slab-buildable subscale
MIN_MEM_RATIO = env_float("E28_MIN_MEM_RATIO", 5.0)
MIN_SPEEDUP = env_float("E28_MIN_SPEEDUP", 2.0)
SLAB_BUDGET_MB = env_float("E28_SLAB_BUDGET_MB", 256.0)

#: Slab-table bytes per row: row_u + row_v (int64) + row_hid_rev (intp).
_SLAB_ROW_BYTES = 24

RNG = np.random.default_rng(2028)
_PAYLOAD = {"experiment": "E28", "points": POINTS, "queries": QUERIES,
            "sub_points": SUB_POINTS, "cores": cores(),
            "min_mem_ratio": MIN_MEM_RATIO, "min_speedup": MIN_SPEEDUP,
            "slab_budget_mb": SLAB_BUDGET_MB,
            "native_available": native_available(),
            "native_error": native_error()}


def _build_vpr(points: int, seed: int):
    index = PNNIndex(random_discrete_points(points, 2, seed=seed,
                                            spread=2.0))
    return index.build_vpr()


def _slab_bytes(arrangement) -> tuple:
    """Analytic (rows, bytes) of a slab table over *arrangement*."""
    rows = SlabPointLocator.table_rows(arrangement)
    slabs = max(len(np.unique(arrangement._vx)) - 1, 0)
    return rows, rows * _SLAB_ROW_BYTES + 2 * (slabs + 1) * 8


def _queries(arrangement, m: int) -> np.ndarray:
    xmin, xmax = arrangement._vx.min(), arrangement._vx.max()
    ymin, ymax = arrangement._vy.min(), arrangement._vy.max()
    pad_x, pad_y = 0.05 * (xmax - xmin), 0.05 * (ymax - ymin)
    return np.column_stack([
        RNG.uniform(xmin - pad_x, xmax + pad_x, m),
        RNG.uniform(ymin - pad_y, ymax + pad_y, m)])


def test_e28_memory_and_throughput():
    """Full E22 scale: memory gate, kernel-speedup gate, lane parity."""
    vpr = _build_vpr(POINTS, seed=2028)
    arr = vpr.arrangement
    stats = vpr.locator_stats()
    rows, slab_bytes = _slab_bytes(arr)
    mem_ratio = slab_bytes / stats["nbytes"]
    _PAYLOAD["full"] = {
        "vertices": arr.num_vertices, "edges": arr.num_edges,
        "faces": vpr.num_faces, "slabs": stats["slabs"],
        "entries": stats["entries"],
        "persistent_bytes": stats["nbytes"],
        "persistent_build_s": stats["build_seconds"],
        "slab_rows_analytic": rows, "slab_bytes_analytic": slab_bytes,
        "mem_ratio": round(mem_ratio, 2)}
    write_json("E28_JSON", _PAYLOAD)
    assert mem_ratio >= MIN_MEM_RATIO, \
        f"persistent locator saves only {mem_ratio:.1f}x " \
        f"(< {MIN_MEM_RATIO}x) over the analytic slab table"

    q = _queries(arr, QUERIES)
    loc_numpy = PersistentPlaneLocator(arr, kernel="numpy")
    loc_numpy.locate_batch(q[:8])  # warm
    numpy_t, faces_numpy = best_of(lambda: loc_numpy.locate_batch(q))
    _PAYLOAD["full"]["numpy_ms"] = round(numpy_t * 1e3, 3)
    assert int((faces_numpy >= 0).sum()) > QUERIES // 2, \
        "degenerate workload: most queries fell in the unbounded face"
    if not native_available():
        _PAYLOAD["full"]["speedup"] = None
        write_json("E28_JSON", _PAYLOAD)
        return  # parity/speedup vacuous without the compiled provider
    loc_native = PersistentPlaneLocator(arr, kernel="native")
    loc_native.locate_batch(q[:8])
    native_t, faces_native = best_of(lambda: loc_native.locate_batch(q))
    speedup = numpy_t / native_t
    _PAYLOAD["full"]["native_ms"] = round(native_t * 1e3, 3)
    _PAYLOAD["full"]["speedup"] = round(speedup, 3)
    write_json("E28_JSON", _PAYLOAD)
    assert np.array_equal(faces_numpy, faces_native), \
        "native plane locate disagrees with the NumPy lane"
    assert speedup >= MIN_SPEEDUP, \
        f"native plane_locate {speedup:.2f}x < {MIN_SPEEDUP}x " \
        f"(numpy {numpy_t * 1e3:.1f} ms, native {native_t * 1e3:.1f} ms)"


def test_e28_slab_head_to_head():
    """Subscale where the slab table fits: bitwise parity + timings."""
    vpr = _build_vpr(SUB_POINTS, seed=2027)
    arr = vpr.arrangement
    rows, slab_bytes = _slab_bytes(arr)
    if slab_bytes > SLAB_BUDGET_MB * 1e6:
        import pytest
        pytest.skip(f"slab table would need {slab_bytes / 1e6:.0f} MB "
                    f"(> E28_SLAB_BUDGET_MB={SLAB_BUDGET_MB:g}); shrink "
                    f"E28_SUB_POINTS to run the head-to-head")
    q = _queries(arr, QUERIES)
    slab_build_t, slab = best_of(lambda: SlabPointLocator(arr), reps=1)
    tree_build_t, tree = best_of(lambda: PersistentPlaneLocator(arr),
                                 reps=1)
    slab.locate_batch(q[:8])
    tree.locate_batch(q[:8])
    slab_t, slab_faces = best_of(lambda: slab.locate_batch(q))
    tree_t, tree_faces = best_of(lambda: tree.locate_batch(q))
    assert np.array_equal(slab_faces, tree_faces), \
        "merged-slab locator is not bitwise-identical to the slab oracle"
    _PAYLOAD["subscale"] = {
        "vertices": arr.num_vertices, "slab_rows": rows,
        "slab_bytes": slab.stats()["nbytes"],
        "tree_bytes": tree.stats()["nbytes"],
        "slab_build_ms": round(slab_build_t * 1e3, 3),
        "tree_build_ms": round(tree_build_t * 1e3, 3),
        "slab_locate_ms": round(slab_t * 1e3, 3),
        "tree_locate_ms": round(tree_t * 1e3, 3),
        "build_ratio": round(slab_build_t / tree_build_t, 3),
        "bitwise_identical": True}
    write_json("E28_JSON", _PAYLOAD)
