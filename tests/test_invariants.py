"""The paper's invariants, checked through every layer and every rung.

For any query ``q`` inside the index's domain the exact answers obey:

* ``Σ_i π_i(q) = 1`` (Eq. 2 distributes all the mass) — less the
  mass of exact distance ties between points, which the sweep's
  tie-group convention gives to no point (:func:`_tie_mass`);
* ``NN≠0(q)`` contains the support of ``π(q)`` and is non-empty
  (Lemma 2.1) — unless every outcome is such a tie, where no point is
  the unique nearest neighbor;
* ``top_k`` is the ``k`` largest entries of ``π(q)``;
* ``threshold_nn`` splits ``π(q)`` into ``certain`` (``π ≥ τ + ε``) and
  ``candidates`` (within ``ε`` of ``τ``), two disjoint subsets of the
  support;
* ``δ(q)`` (the ``delta`` kind) is finite, non-negative and equal to the
  brute-force ``min_i max_j d(q, p_ij)``;
* a cached answer equals a freshly computed one.

Hypothesis draws the queries — site coordinates and midpoints (exact
distance ties) among them — over degenerate and generic discrete sets.
Each set is answered by the plain :class:`PNNIndex` and by one
:class:`QueryService` per executor rung, reached the way a host reaches
it (:func:`repro.testing.rungs.on_rung`); the service's answers must
equal the index's and obey the same invariants.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.geometry.primitives import dist
from repro.serving.executors import LADDER
from repro.testing.rungs import on_rung, rung_of
from repro.uncertain.discrete import DiscreteUncertainPoint

TAU = 0.3
K = 2


def _point(sites, weights=None):
    return DiscreteUncertainPoint(sites, weights or [1.0] * len(sites))


#: Discrete sets the proofs' general-position assumption rules out, and
#: one generic set.
FAMILIES = {
    "single": lambda: [_point([(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)],
                              [1.0, 2.0, 3.0])],
    # Points sharing sites exactly, and one point with a doubled site.
    "coincident": lambda: [_point([(0.0, 0.0), (3.0, 0.0)]),
                           _point([(0.0, 0.0), (3.0, 0.0)], [2.0, 1.0]),
                           _point([(1.0, 2.0), (1.0, 2.0), (4.0, 4.0)])],
    "collinear": lambda: [_point([(float(i + 3 * j), 0.0) for j in range(2)],
                                 [1.0 + i, 2.0]) for i in range(4)],
    "generic": lambda: random_discrete_points(6, 3, seed=5, spread=2.0),
}


def _tie_mass(points, q):
    """``P(two or more points attain the nearest distance)``.

    Summed over the distinct site distances ``r``: with ``a_j = P(d_j =
    r)`` and ``b_j = P(d_j > r)``, the chance that every point is at
    ``r`` or beyond and at least two are at ``r`` is ``∏(a_j + b_j) −
    ∏ b_j − Σ_i a_i ∏_{j≠i} b_j``.  Zero in general position.
    """
    dists = [[(dist(q, s), w) for s, w in zip(p.points, p.weights)]
             for p in points]
    total = 0.0
    for r in sorted({d for ds in dists for d, _ in ds}):
        a = [sum(w for d, w in ds if d == r) for ds in dists]
        b = [sum(w for d, w in ds if d > r) for ds in dists]
        at_or_beyond, beyond, one = 1.0, 1.0, 0.0
        for j in range(len(dists)):
            others = 1.0
            for i in range(len(dists)):
                if i != j:
                    others *= b[i]
            one += a[j] * others
            at_or_beyond *= a[j] + b[j]
            beyond *= b[j]
        total += at_or_beyond - beyond - one
    return total


def _queries(index):
    sites = [s for p in index.points for s in p.points]
    xs, ys = [x for x, _ in sites], [y for _, y in sites]
    coord = st.tuples(st.floats(min(xs) - 3.0, max(xs) + 3.0),
                      st.floats(min(ys) - 3.0, max(ys) + 3.0))
    midpoint = st.tuples(st.sampled_from(sites), st.sampled_from(sites)).map(
        lambda ab: ((ab[0][0] + ab[1][0]) / 2, (ab[0][1] + ab[1][1]) / 2))
    return st.lists(st.one_of(coord, st.sampled_from(sites), midpoint),
                    min_size=1, max_size=6)


#: Every kind the invariants speak about, with its parameters.
KINDS = {"delta": {}, "quantify_exact": {}, "nonzero_nn": {},
         "top_k": {"k": K, "method": "exact"},
         "threshold_nn": {"tau": TAU, "method": "exact"}}


def _index_answers(index, queries):
    return {kind: list(getattr(index, f"batch_{kind}")(queries, **params))
            for kind, params in KINDS.items()}


def _batch_answers(service, queries):
    return {kind: list(service.batch(kind, queries, **params))
            for kind, params in KINDS.items()}


def _query_answers(service, queries):
    return {kind: [service.query(kind, q, **params) for q in queries]
            for kind, params in KINDS.items()}


def _check_invariants(points, queries, answers):
    for q, delta, pi, nn, top, thr in zip(
            queries, *(answers[kind] for kind in KINDS)):
        assert math.isfinite(delta) and delta >= 0.0, (q, delta)
        assert delta == min(max(dist(q, s) for s in p.points)
                            for p in points), (q, delta)
        tied = _tie_mass(points, q)
        assert abs(sum(pi.values()) + tied - 1.0) <= 1e-9, (q, pi)
        assert nn or abs(tied - 1.0) <= 1e-9, (q, nn)
        assert set(pi) <= set(nn), (q, pi, nn)
        assert top == sorted(pi.items(), key=lambda kv: (-kv[1], kv[0]))[:K]
        assert [v for _, v in top] == sorted(pi.values(), reverse=True)[:K]
        eps = thr.epsilon
        assert thr.certain == sorted(i for i, v in pi.items()
                                     if v >= TAU + eps)
        assert thr.candidates == sorted(i for i, v in pi.items()
                                        if TAU - eps < v < TAU + eps)
        assert not set(thr.certain) & set(thr.candidates)
        assert set(thr.possible()) <= set(pi)


@pytest.mark.parametrize("rung", LADDER)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_invariants_hold_on_every_layer(family, rung):
    index = PNNIndex(FAMILIES[family]())
    # Chunks of two rows: every batch fans out over the rung.
    with on_rung(rung) as workers:
        service = index.serve(workers=workers, shard_min_batch=2,
                              shard_chunk=2, cache_capacity=4096)

    @settings(max_examples=25, deadline=None)
    @given(queries=_queries(index))
    def check(queries):
        want = _index_answers(index, queries)
        _check_invariants(index.points, queries, want)
        assert _batch_answers(service, queries) == want
        # Single queries agree, and repeating them answers every row
        # from the cache.
        assert _query_answers(service, queries) == want
        hits = service.method_stats("quantify_exact")["cache_hits"]
        assert _query_answers(service, queries) == want
        assert service.method_stats("quantify_exact")["cache_hits"] == \
            hits + len(queries)

    with service:
        assert rung_of(service) == rung
        check()
