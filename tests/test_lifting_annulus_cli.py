"""Tests for the lifting machinery (Lemmas 2.12/2.13), the annulus model,
and the CLI entry point."""

import math
import random

import pytest

from repro.core.index import PNNIndex
from repro.uncertain.annulus import AnnulusUniformPoint
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.lifting import LiftedSurfaces, lift, unlift


def random_points(n, k, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0, 10), rng.uniform(0, 10)
        sites = [(cx + rng.uniform(-1, 1), cy + rng.uniform(-1, 1))
                 for _ in range(k)]
        out.append(DiscreteUncertainPoint(sites, [1.0] * k))
    return out


class TestLifting:
    def test_lift_formula(self):
        # f(x, p) = d^2 - |x|^2.
        x, p = (1.0, 2.0), (4.0, 6.0)
        d2 = (4 - 1) ** 2 + (6 - 2) ** 2
        assert lift(x, p) == pytest.approx(d2 - (1 + 4))

    def test_unlift_inverts(self):
        x, p = (3.0, -1.0), (0.5, 2.5)
        assert unlift(lift(x, p), x) == pytest.approx(math.dist(x, p))

    def test_lemma_212_delta(self):
        """delta_i(q) = r iff phi_i(q) = r^2 - |q|^2."""
        pts = random_points(5, 3, seed=1)
        surfaces = LiftedSurfaces(pts)
        rng = random.Random(2)
        for _ in range(40):
            q = (rng.uniform(0, 10), rng.uniform(0, 10))
            for i, p in enumerate(pts):
                r = p.min_dist(q)
                assert surfaces.phi(i, q) \
                    == pytest.approx(r * r - (q[0] ** 2 + q[1] ** 2))
                big_r = p.max_dist(q)
                assert surfaces.big_phi(i, q) \
                    == pytest.approx(big_r ** 2 - (q[0] ** 2 + q[1] ** 2))

    def test_delta_via_lifting(self):
        pts = random_points(6, 3, seed=3)
        surfaces = LiftedSurfaces(pts)
        rng = random.Random(4)
        for _ in range(30):
            q = (rng.uniform(0, 10), rng.uniform(0, 10))
            want = min(p.max_dist(q) for p in pts)
            assert surfaces.delta_via_lifting(q) == pytest.approx(want)

    def test_nonzero_nn_matches_unlifted(self):
        pts = random_points(8, 3, seed=5)
        surfaces = LiftedSurfaces(pts)
        index = PNNIndex(pts)
        rng = random.Random(6)
        for _ in range(60):
            q = (rng.uniform(-2, 12), rng.uniform(-2, 12))
            assert surfaces.nonzero_nn(q) == index.nonzero_nn(q)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LiftedSurfaces([])


class TestAnnulus:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnulusUniformPoint((0, 0), 2.0, 1.0)
        with pytest.raises(ValueError):
            AnnulusUniformPoint((0, 0), -1.0, 1.0)

    def test_min_dist_inside_hole(self):
        a = AnnulusUniformPoint((0, 0), 1.0, 2.0)
        assert a.min_dist((0, 0)) == pytest.approx(1.0)
        assert a.min_dist((0.5, 0)) == pytest.approx(0.5)
        assert a.min_dist((1.5, 0)) == 0.0
        assert a.min_dist((3, 0)) == pytest.approx(1.0)

    def test_samples_in_support(self):
        a = AnnulusUniformPoint((1, 2), 0.5, 1.5)
        rng = random.Random(1)
        for _ in range(500):
            p = a.sample(rng)
            d = math.dist(p, (1, 2))
            assert 0.5 - 1e-12 <= d <= 1.5 + 1e-12

    def test_cdf_matches_sampling(self):
        a = AnnulusUniformPoint((0, 0), 1.0, 2.0)
        q = (2.5, 0.0)
        rng = random.Random(2)
        r0 = 2.2
        hits = sum(1 for _ in range(30000)
                   if math.dist(a.sample(rng), q) <= r0)
        assert hits / 30000 == pytest.approx(a.distance_cdf(q, r0), abs=0.02)

    def test_cdf_limits(self):
        a = AnnulusUniformPoint((0, 0), 1.0, 2.0)
        q = (5, 0)
        assert a.distance_cdf(q, a.min_dist(q) - 1e-6) == 0.0
        assert a.distance_cdf(q, a.max_dist(q) + 1e-6) == pytest.approx(1.0)

    def test_degenerate_disk_case(self):
        """r_inner = 0 reduces to the uniform disk."""
        from repro.uncertain.disk_uniform import DiskUniformPoint

        a = AnnulusUniformPoint((0, 0), 0.0, 2.0)
        d = DiskUniformPoint((0, 0), 2.0)
        q = (3.0, 1.0)
        for r in (1.5, 2.5, 4.0):
            assert a.distance_cdf(q, r) == pytest.approx(d.distance_cdf(q, r))

    def test_works_in_index(self):
        pts = [AnnulusUniformPoint((0, 0), 0.5, 1.5),
               AnnulusUniformPoint((6, 0), 0.2, 1.0)]
        index = PNNIndex(pts)
        rng = random.Random(3)
        for _ in range(40):
            q = (rng.uniform(-2, 8), rng.uniform(-3, 3))
            assert index.nonzero_nn(q) == sorted(index.nonzero_nn_bruteforce(q))


class TestCli:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "PODS 2013" in out

    def test_info_names_only_docs_that_exist(self, capsys):
        import os

        from repro.__main__ import main

        main(["info"])
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("docs:")]
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        for name in line[len("docs:"):].split(","):
            assert os.path.isfile(os.path.join(root, name.strip())), name

    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "possible NNs" in out
        assert "top-3" in out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main

        assert main(["frobnicate"]) == 2

    def test_help(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        assert "demo" in capsys.readouterr().out
