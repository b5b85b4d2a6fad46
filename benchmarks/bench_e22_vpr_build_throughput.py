"""E22 — V_Pr construction throughput: the vectorized build pipeline.

Builds the exact probabilistic Voronoi diagram (Lemma 4.1 / Theorem 4.2)
at several instance sizes through the production pipeline and through the
pure-Python test oracle, and asserts two things:

* **bitwise parity** — the vectorized build must produce identical
  V/E/F counts and bit-for-bit equal face probability vectors to the
  scalar reference (:class:`repro.testing.oracles.ScalarVPRDiagram`), at
  every size, always;
* **single-core speedup** — at the largest instance the vectorized build
  must beat the scalar one by ``E22_MIN_SPEEDUP``x (default 5x).  Like
  E21's bar this is a pure vectorization gain — no processes, no threads
  — so it holds on a 1-core container; there are no shard/parallel bars
  to gate on core count here (the established E20/E21 convention still
  applies to the env knob: CI relaxes the bar on noisy shared runners).

The point-location structure is built lazily on first query, so
construction timings cover exactly what every complexity experiment pays:
bisectors, arrangement, and face labeling.  A companion
block measures the (shared, vectorized) locator build and batch query
throughput separately.

Env knobs: ``E22_SIZES`` (comma-separated ``n`` values, ``k = 2`` sites
each), ``E22_MIN_SPEEDUP``, ``E22_REPS``, ``E22_JSON`` (write a
machine-readable summary for CI artifacts).
"""

import os
import random

import numpy as np

from _common import best_of, cores, env_float, env_int, write_json
from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.quantification.exact_discrete import quantification_vector
from repro.testing.oracles import ScalarVPRDiagram

SIZES = [int(s) for s in os.environ.get("E22_SIZES", "8,12,18").split(",")]
MIN_SPEEDUP = env_float("E22_MIN_SPEEDUP", 5.0)
REPS = env_int("E22_REPS", 2)
_CORES = cores()


def test_e22_vectorized_build_parity_and_speedup():
    rows = []
    speedups = []
    for n in SIZES:
        pts = random_discrete_points(n, 2, seed=31, spread=2.0)
        index = PNNIndex(pts)
        scalar_t, scalar = best_of(lambda: ScalarVPRDiagram(pts), reps=REPS)
        vector_t, vector = best_of(index.build_vpr, reps=REPS)
        # Parity must hold everywhere: identical combinatorics, bitwise
        # face vectors (dict compare is elementwise float equality).
        assert (scalar.num_vertices, scalar.arrangement.num_edges,
                scalar.num_faces) == \
            (vector.num_vertices, vector.arrangement.num_edges,
             vector.num_faces), f"V/E/F diverge at n={n}"
        assert scalar._face_vectors == vector._face_vectors, \
            f"face probability vectors diverge at n={n}"
        assert np.array_equal(scalar._face_matrix, vector._face_matrix)
        speedup = scalar_t / vector_t
        speedups.append(speedup)
        rows.append({"n": n, "N": 2 * n, "V": vector.num_vertices,
                     "F": vector.num_faces,
                     "scalar_s": round(scalar_t, 3),
                     "vector_s": round(vector_t, 3),
                     "speedup": round(speedup, 2)})
    payload = {
        "experiment": "E22",
        "sizes": SIZES,
        "cores": _CORES,
        "rows": rows,
        "largest_speedup": round(speedups[-1], 3),
        "min_speedup": MIN_SPEEDUP,
        "identical": True,
    }
    write_json("E22_JSON", payload)
    if MIN_SPEEDUP > 0:
        assert speedups[-1] >= MIN_SPEEDUP, \
            f"vectorized V_Pr build {speedups[-1]:.2f}x < {MIN_SPEEDUP}x " \
            f"at n={SIZES[-1]} ({rows[-1]['scalar_s']}s scalar vs " \
            f"{rows[-1]['vector_s']}s vector)"


def test_e22_lazy_locator_and_batch_queries():
    """The locator is shared and lazy; batch queries match the scalar path."""
    n = SIZES[0]
    pts = random_discrete_points(n, 2, seed=31, spread=2.0)
    vpr = PNNIndex(pts).build_vpr()
    assert vpr._locator is None, "locator must not be built eagerly"
    loc_t, _ = best_of(lambda: vpr.locator, reps=1)
    rng = random.Random(17)
    qs = np.array([(rng.uniform(-1, 5), rng.uniform(-1, 5))
                   for _ in range(500)])
    batch_t, mat = best_of(lambda: vpr.query_batch(qs), reps=REPS)
    for j in (0, 250, 499):
        q = (float(qs[j][0]), float(qs[j][1]))
        assert list(mat[j]) == vpr.query(q)
        want = quantification_vector(pts, q)
        assert max(abs(a - b) for a, b in zip(mat[j], want)) < 1e-9
    assert len(mat) == len(qs)
    # Locator build + 500 exact queries should be far below one second
    # even on a busy shared runner; this is a smoke bound, not a bar.
    assert loc_t + batch_t < 30.0
