"""Quickstart: probabilistic nearest-neighbor queries in five minutes.

Three uncertain points with different distribution models, one query, and
every query primitive the library offers:

* which points could possibly be the nearest neighbor (``NN!=0``),
* the probability that each is (exact, Monte-Carlo, spiral-search),
* which points exceed a probability threshold,
* the batch API: a whole array of queries answered in one vectorized call,
* the serving layer: the same index behind a cache + coalescer + shard
  service for bursty multi-client traffic.

Run:  python examples/quickstart.py
"""

from concurrent.futures import ThreadPoolExecutor

from repro import (
    DiscreteUncertainPoint,
    DiskUniformPoint,
    PNNIndex,
    TruncatedGaussianPoint,
)


def main() -> None:
    # Three imprecisely-located objects:
    points = [
        # a sensor known to be somewhere in a disk of radius 1.5 around (0, 0)
        DiskUniformPoint((0.0, 0.0), 1.5),
        # a GPS fix at (4, 1): Gaussian noise, truncated at 3 sigma
        TruncatedGaussianPoint((4.0, 1.0), sigma=0.6, support_radius=1.8),
        # a tracked object last seen at two candidate spots
        DiscreteUncertainPoint([(1.5, 3.0), (2.5, 4.0)], [0.7, 0.3]),
    ]
    index = PNNIndex(points)
    q = (2.0, 1.0)

    print(f"query point: {q}")

    # 1. Nonzero nearest neighbors (Lemma 2.1 / Theorem 3.1).
    possible = index.nonzero_nn(q)
    print(f"\npoints with nonzero NN probability: {possible}")
    print(f"Delta(q) = {index.delta(q):.4f}  "
          "(every point whose region comes closer than this qualifies)")

    # 2. Quantification probabilities (Section 4), Monte-Carlo estimator:
    #    works for any mix of models, additive error eps w.h.p.
    estimates = index.quantify(q, method="monte_carlo",
                               epsilon=0.05, delta=0.05)
    print("\nPr[P_i is the nearest neighbor] (Monte-Carlo, +-0.05):")
    for i, prob in sorted(estimates.items()):
        print(f"  P_{i}: {prob:.3f}")

    # 3. Threshold query: who is the NN with probability > 0.25?
    result = index.threshold_nn(q, tau=0.25)
    print(f"\npi > 0.25 certainly: {result.certain}; "
          f"borderline candidates: {result.candidates}")

    # 4. Batch queries: hand over an (m, 2) array and get every answer in
    #    a few vectorized passes — identical results to the scalar calls,
    #    one to two orders of magnitude faster on large workloads.
    grid = [(0.5 * i, 0.5 * j) for i in range(9) for j in range(9)]
    answers = index.batch_nonzero_nn(grid)       # list of sorted index lists
    deltas = index.batch_delta(grid)             # ndarray of Delta(q)
    estimates = index.batch_quantify(grid, method="monte_carlo",
                                     epsilon=0.1)
    regions = {tuple(a) for a in answers}
    print(f"\nbatch over a 9x9 grid: {len(regions)} distinct NN!=0 sets, "
          f"Delta range [{deltas.min():.2f}, {deltas.max():.2f}]")
    favorite = max(range(len(grid)),
                   key=lambda j: estimates[j].get(2, 0.0))
    print(f"grid point most favorable to P_2: {grid[favorite]} "
          f"(pi_2 ~ {estimates[favorite].get(2, 0.0):.2f})")

    # 5. Service-shaped traffic: wrap the index in a QueryService.
    #    Concurrent scalar queries coalesce into vectorized micro-batches
    #    (a request arriving while its group flushes joins the next
    #    flush; a lone request runs at once), repeat queries hit
    #    an exact-keyed LRU cache, and large batches shard across the
    #    host's executor (with bitwise-identical answers): process
    #    worker replicas where the host can start a pool, else threads.
    #    `workers=0` keeps this quickstart single-process; try
    #    index.serve(workers=4) on a real machine.
    with index.serve(workers=0, cache_capacity=1024, max_batch=32) as svc, \
            ThreadPoolExecutor(max_workers=4) as clients:
        answers = list(clients.map(
            lambda g: svc.query("quantify", g, epsilon=0.1), grid))
        hottest = max(range(len(grid)),
                      key=lambda j: answers[j].get(2, 0.0))
        svc.query("quantify", grid[hottest], epsilon=0.1)  # from cache
        snap = svc.stats()
        co = snap["coalescer"]
        rows_per_flush = co["submitted"] / max(co["flushes"], 1)
        print(f"\nserving layer: {snap['total_requests']} requests from 4 "
              f"client threads, {rows_per_flush:.2f} rows per coalesced "
              f"flush, cache hit rate {snap['cache']['hit_rate']:.0%}")

    # 5b. Exact quantification in batch: for all-discrete indexes,
    #     batch_quantify_exact runs the paper's Eq. (2) sweep vectorized
    #     across the whole query array — bitwise-identical dicts to
    #     quantify(method="exact"), at 5-10x the scalar throughput.
    tracked = PNNIndex([
        DiscreteUncertainPoint([(0.0, 0.0), (1.0, 0.5)], [0.6, 0.4]),
        DiscreteUncertainPoint([(2.0, 2.0), (3.0, 1.0), (2.5, 0.0)],
                               [0.5, 0.3, 0.2]),
        DiscreteUncertainPoint([(4.0, 1.0)], [1.0]),
    ])
    exact = tracked.batch_quantify_exact(grid)
    assert exact[0] == tracked.quantify(grid[0], method="exact")
    certain = sum(1 for est in exact if max(est.values()) > 0.999)
    print(f"\nexact batch: {len(grid)} Eq. (2) vectors, "
          f"{certain} grid points with a certain nearest neighbor")

    # 5c. Exact-keyed caching: the service caches answers under the
    #     exact query coordinates, so beacons polled at fixed positions
    #     hit after their first request, and every hit is bit-for-bit
    #     the engine's answer.
    beacons = [(1.0 + 0.01 * (j - 3), 1.0 - 0.01 * (j - 3))
               for j in range(7)]
    with tracked.serve(workers=0, cache_capacity=512) as svc:
        for j in range(200):
            svc.query("quantify_exact", beacons[j % len(beacons)])
        assert svc.query("quantify_exact", beacons[0]) == \
            tracked.quantify(beacons[0], method="exact")
        cache = svc.stats()["cache"]
        print(f"exact-keyed cache: hit rate {cache['hit_rate']:.0%} on "
              f"{len(beacons)} polled beacons")

    # 6. The heavy artifact: the nonzero Voronoi diagram of the supports.
    diagram = index.build_nonzero_voronoi()
    print(f"\nV!=0 of the 3 support disks: {diagram.num_vertices} vertices, "
          f"{diagram.num_edges} edges, {diagram.num_faces} faces")
    print(f"cell containing q has label set {set(diagram.locate_cell(q))}")

    # 7. The exact probabilistic Voronoi diagram V_Pr (Theorem 4.2): for
    #    all-discrete indexes, build_vpr() runs the whole construction —
    #    bisectors, arrangement, and per-face Eq. (2) labeling — through
    #    the batched NumPy pipeline (~5x the pure-Python reference build,
    #    which tests keep as a bitwise oracle).
    #    Queries go through precomputed cells: query_batch answers a whole
    #    array, exactly, inside and outside the window.
    vpr = tracked.build_vpr()
    grid_vecs = vpr.query_batch(grid)
    assert vpr.query(grid[0]) == list(grid_vecs[0])
    print(f"\nV_Pr over {vpr.total_sites} sites: {vpr.num_faces} exact "
          f"cells, {vpr.distinct_vectors()} distinct probability vectors")
    print(f"pi at {grid[40]}: "
          f"{ {i: round(v, 3) for i, v in enumerate(grid_vecs[40].tolist()) if v} }")

    # 8. Serve the diagram: the quantify_vpr query kind answers exact
    #    quantification by point location into V_Pr's precomputed face
    #    vectors (cache-friendly, no per-query sweep), falling back to
    #    the Eq. (2) sweep outside the window — row-for-row equal to
    #    batch_quantify_exact on generic queries.  (The half-integer
    #    grid above is *degenerate*: many of its points sit exactly on
    #    bisectors, where the sweep's tie convention and a cell's
    #    interior vector legitimately differ — so this example jitters
    #    off the boundaries.)  A prebuilt diagram is adopted via
    #    serve(vpr=...); otherwise the first query builds it lazily.
    jittered = [(x + 0.013, y + 0.007) for x, y in grid]
    with tracked.serve(vpr=vpr, workers=0, cache_capacity=512) as svc:
        served = svc.batch("quantify_vpr", jittered)
        assert served == tracked.batch_quantify_exact(jittered)
        one = svc.query("quantify_vpr", jittered[40])
        print(f"\nquantify_vpr serves {len(served)} exact vectors from "
              f"{vpr.num_faces} precomputed cells; pi near {grid[40]}: "
              f"{ {i: round(v, 3) for i, v in sorted(one.items())} }")


if __name__ == "__main__":
    main()
