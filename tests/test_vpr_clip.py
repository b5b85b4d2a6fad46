"""Answer parity of the Delta-clipped ``V_Pr`` with the full arrangement.

Production builds only the bisector pieces the Eq. (2) prefix can see
(:func:`repro.voronoi.vpr.clipped_segments`), plus vertical connectors,
so its faces are unions of the full arrangement's faces, cut again by the
connectors.  Face ids and V/E/F counts therefore differ from the
:class:`~repro.testing.oracles.ScalarVPRDiagram` oracle, and the contract
is the answers:

* at the interior point of **every** oracle face, ``query_batch`` equals
  the oracle's face matrix bit for bit.  Random queries alone miss
  failures: a broken clip shows up as a few thin faces covering a
  thousandth of the box;
* at random in-box queries, ``query_batch`` equals the batched Eq. (2)
  sweep bit for bit, and ``quantify_batch`` equals
  :meth:`PNNIndex.batch_quantify_exact
  <repro.core.index.PNNIndex.batch_quantify_exact>`.

The property covers ``N = n * k <= 18`` with ``k <= 4``: generic sites
(on a ``1e-3`` grid), sites on a small integer lattice (coincident,
collinear and axis-aligned), and near-zero weights (the model requires
positive weights; ``1e-18`` vanishes against the others in every sum).
Distinct sites are at least ``1e-3`` apart.  Much closer sites (``1e-6``
at unit scale) leave full-arrangement faces so thin that
double-precision distances tie at their interior points, and there the
two diagrams can disagree; ROADMAP direction 1 tracks that.  Fixed
cases cover the ``bulk_vpr`` benchmark's data set and a ``(10, 4)``
instance, whose full arrangements are too large for the scalar oracle's
pure-Python build; there the oracle's arrangement is built by the
vectorized :class:`~repro.geometry.seg_arrangement.SegmentArrangement`
and labeled by the batched sweep, both bitwise equal to the scalar
versions (``tests/test_vectorized_kernels.py``).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.geometry.seg_arrangement import SegmentArrangement
from repro.quantification.batch_exact import BatchExactQuantifier
from repro.testing.oracles import ScalarVPRDiagram, scalar_bisector_segments
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.vpr import ProbabilisticVoronoiDiagram, box_boundary


class FullVPRDiagram(ScalarVPRDiagram):
    """The oracle's full arrangement, arranged and labeled vectorized."""

    def _build_arrangement(self, sites, box):
        return SegmentArrangement(scalar_bisector_segments(sites, box)
                                  + box_boundary(box))

    _label_faces = ProbabilisticVoronoiDiagram._label_faces


def bitwise_equal(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_answer_parity(pts, oracle_cls=ScalarVPRDiagram, queries=2000,
                         seed=0):
    oracle = oracle_cls(pts)
    vpr = ProbabilisticVoronoiDiagram(pts)
    assert vpr.box == oracle.box
    got = vpr.query_batch(oracle._interior)
    bad = np.flatnonzero(np.any(
        got.view(np.uint64) != oracle._face_matrix.view(np.uint64), axis=1))
    assert len(bad) == 0, (
        f"{len(bad)} of {len(got)} oracle faces answered differently, "
        f"first at {oracle._interior[bad[0]].tolist()}")
    (x0, y0), (x1, y1) = vpr.box
    rng = np.random.default_rng(seed)
    q = np.column_stack((rng.uniform(x0, x1, queries),
                         rng.uniform(y0, y1, queries)))
    assert bitwise_equal(vpr.query_batch(q),
                         BatchExactQuantifier(pts).matrix(q))
    assert vpr.quantify_batch(q) == PNNIndex(pts).batch_quantify_exact(q)
    return oracle, vpr


@st.composite
def instances(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2 if k == 1 else 1, 18 // k))
    lattice = draw(st.booleans())
    if lattice:
        coord = st.integers(0, 4).map(float)
    else:
        coord = st.integers(0, 6000).map(lambda v: v / 1e3)
    site = st.tuples(coord, coord)
    weight = st.one_of(st.floats(0.5, 2.0), st.just(1e-18))
    return [(draw(st.lists(site, min_size=k, max_size=k)),
             draw(st.lists(weight, min_size=k, max_size=k).filter(
                 lambda ws: max(ws) > 1e-18)))
            for _ in range(n)]


class TestClippedAnswerParity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=instances())
    def test_every_oracle_face_and_random_queries(self, spec):
        assert_answer_parity([DiscreteUncertainPoint(s, w) for s, w in spec],
                             queries=500)

    @pytest.mark.parametrize("name,pts", [
        ("collinear", [DiscreteUncertainPoint(
            [(float(i), 0.0), (i + 0.5, 0.0)], [0.5, 0.5])
            for i in range(5)]),
        ("grid", [DiscreteUncertainPoint([(x, y), (x + 1, y)], [0.5, 0.5])
                  for x in range(0, 6, 2) for y in range(3)]),
        ("shared", [DiscreteUncertainPoint([(0, 0), (1, 1)], [0.5, 0.5]),
                    DiscreteUncertainPoint([(0, 0), (2, 2)], [0.5, 0.5]),
                    DiscreteUncertainPoint([(1, 1), (1, 1)], [0.3, 0.7])]),
        ("one point", [DiscreteUncertainPoint([(0, 0), (1, 2)], [1, 3])]),
    ])
    def test_degenerate_inputs(self, name, pts):
        assert_answer_parity(pts)

    @pytest.mark.parametrize("n,k,seed", [(16, 2, 7), (10, 4, 3)])
    def test_benchmark_scale(self, n, k, seed):
        """``(16, 2, seed 7)`` is the ``bulk_vpr`` data set."""
        pts = random_discrete_points(n, k, seed=seed, spread=2.0)
        oracle, vpr = assert_answer_parity(pts, oracle_cls=FullVPRDiagram,
                                           queries=20000, seed=seed)
        assert vpr.num_faces < oracle.num_faces


class TestClippedStructure:
    def test_faces_are_simple_and_connected(self):
        """Connectors leave no dangling piece: every vertex has degree
        at least two, and the frame reaches the whole graph."""
        pts = random_discrete_points(8, 3, seed=2, spread=2.0)
        arr = ProbabilisticVoronoiDiagram(pts).arrangement
        degree = np.bincount(arr._earr.ravel(), minlength=arr.num_vertices)
        assert degree.min() >= 2
        assert arr.num_components == 1

    def test_pieces_lie_on_bisectors_or_are_vertical(self):
        rng = random.Random(9)
        pts = [DiscreteUncertainPoint(
            [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(2)],
            [1, 1]) for _ in range(4)]
        vpr = ProbabilisticVoronoiDiagram(pts)
        lines = scalar_bisector_segments(
            [s for p in pts for s, _ in p.sites_with_weights()], vpr.box)

        def on_some_line(x, y):
            for (ax, ay), (bx, by) in lines:
                cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
                if abs(cross) <= 1e-9 * ((bx - ax) ** 2 + (by - ay) ** 2):
                    return True
            return False

        arr = vpr.arrangement
        (x0, y0), (x1, y1) = vpr.box
        for u, v in arr.edges:
            ux, uy, vx, vy = arr._vx[u], arr._vy[u], arr._vx[v], arr._vy[v]
            mx, my = 0.5 * (ux + vx), 0.5 * (uy + vy)
            framed = min(abs(mx - x0), abs(mx - x1), abs(my - y0),
                         abs(my - y1)) < 1e-9
            assert abs(ux - vx) < 1e-9 or framed or on_some_line(mx, my)
