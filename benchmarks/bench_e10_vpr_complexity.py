"""E10 — Lemma 4.1 / Theorem 4.2: the exact probabilistic Voronoi diagram.

Times the V_Pr construction on the k = 2 lower-bound instance (n = 5,
N = 10 sites) and checks the quartic-regime shape on the full bisector
arrangement (the scalar oracle): its cell count exceeds n^4 / 2 and
distinct probability vectors abound (the lemma's Omega(n^4)
distinct-cells argument).  The served, Delta-clipped diagram holds the
same distinct vectors, and its queries remain exact.
"""

import random

from repro.quantification.exact_discrete import quantification_vector
from repro.testing.oracles import ScalarVPRDiagram
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.constructions import quartic_vpr_sites
from repro.voronoi.vpr import ProbabilisticVoronoiDiagram

N = 5
POINTS = [DiscreteUncertainPoint(s, w) for s, w in quartic_vpr_sites(N)]


def build():
    return ProbabilisticVoronoiDiagram(POINTS)


def test_e10_vpr_complexity(benchmark):
    vpr = benchmark.pedantic(build, rounds=1, iterations=1)
    full = ScalarVPRDiagram(POINTS)
    assert full.num_faces > N ** 4 // 2
    assert full.distinct_vectors() > N ** 2
    assert vpr.distinct_vectors() == full.distinct_vectors()
    rng = random.Random(3)
    for _ in range(25):
        q = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = vpr.query(q)
        want = quantification_vector(POINTS, q)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
