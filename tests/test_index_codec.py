"""Tests for the flat-array codec (``repro.spatial.codec``).

The codec's correctness reduces to one property: a decoded replica is
**bitwise-faithful** — every stored float survives the round trip
exactly, so every query kind answers with identical bits.
These tests pin that per model class (including the normalization traps:
decoded weights must *not* be re-normalized) and the exact-type refusal
for user subclasses.
"""

import random

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import (
    random_discrete_points,
    random_disks,
    rfid_histogram_field,
)
from repro.spatial.codec import (
    ARRAY_KEYS,
    CodecUnsupported,
    points_from_arrays,
    points_to_arrays,
)
from repro.uncertain.annulus import AnnulusUniformPoint
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.uncertain.disk_uniform import DiskUniformPoint
from repro.uncertain.gaussian import TruncatedGaussianPoint
from repro.uncertain.histogram import HistogramUncertainPoint
from repro.uncertain.polygon import ConvexPolygonUniformPoint


def _mixed_fleet():
    rng = random.Random(5)
    fleet = [
        DiskUniformPoint((1.0, 2.0), 0.75),
        TruncatedGaussianPoint((4.0, 1.0), 0.5, 1.5, quadrature_order=32),
        AnnulusUniformPoint((2.5, 4.0), 0.3, 1.1),
        DiscreteUncertainPoint([(0.1, 0.2), (1.3, 0.4), (0.8, 1.9)],
                               [3.0, 1.0, 2.0]),  # normalized on build
        ConvexPolygonUniformPoint([(5.0, 5.0), (7.0, 5.5), (6.0, 7.0)]),
    ]
    fleet.extend(rfid_histogram_field(3, grid=3, seed=6))
    fleet.extend(random_discrete_points(4, 3, seed=9, spread=2.0))
    rng  # noqa: B018 — reserved for future jitter
    return fleet


class TestRoundTrip:
    def test_array_shapes_and_keys(self):
        fleet = _mixed_fleet()
        arrays = points_to_arrays(fleet)
        assert tuple(arrays) == ARRAY_KEYS
        n = len(fleet)
        assert arrays["types"].shape == (n,)
        assert arrays["scalars"].shape == (n, 4)
        assert arrays["offsets"].shape == (n + 1,)
        assert arrays["rows"].shape[1] == 3
        assert int(arrays["offsets"][-1]) == len(arrays["rows"])

    def test_mixed_fleet_fields_bitwise(self):
        fleet = _mixed_fleet()
        decoded = points_from_arrays(points_to_arrays(fleet))
        assert len(decoded) == len(fleet)
        for orig, copy in zip(fleet, decoded):
            assert type(copy) is type(orig)
            if isinstance(orig, DiscreteUncertainPoint):
                assert copy.points == orig.points
                assert copy.weights == orig.weights          # no re-norm
                assert copy._cumulative == orig._cumulative
            elif isinstance(orig, HistogramUncertainPoint):
                assert copy.origin == orig.origin
                assert copy.cell_width == orig.cell_width
                assert copy._cells == orig._cells
                assert copy._weights == orig._weights        # no re-norm
            elif isinstance(orig, ConvexPolygonUniformPoint):
                assert copy.vertices == orig.vertices
                assert copy.area == orig.area
                assert copy._tri_cum == orig._tri_cum
            elif isinstance(orig, AnnulusUniformPoint):
                assert (copy.center, copy.r_inner, copy.r_outer) == \
                    (orig.center, orig.r_inner, orig.r_outer)
            elif isinstance(orig, TruncatedGaussianPoint):
                assert (copy.center, copy.sigma, copy.support_radius,
                        copy._order, copy._mass) == \
                    (orig.center, orig.sigma, orig.support_radius,
                     orig._order, orig._mass)
            else:
                assert (copy.center, copy.radius) == \
                    (orig.center, orig.radius)

    def test_decoded_replica_answers_bitwise(self):
        fleet = _mixed_fleet()
        index = PNNIndex(fleet)
        replica = PNNIndex.from_arrays(index.to_arrays())
        rng = random.Random(31)
        qs = np.array([(rng.uniform(-1, 9), rng.uniform(-1, 9))
                       for _ in range(200)])
        assert np.array_equal(replica.batch_delta(qs),
                              index.batch_delta(qs))
        assert replica.batch_nonzero_nn(qs) == index.batch_nonzero_nn(qs)
        assert replica.batch_quantify(qs[:40], epsilon=0.3) == \
            index.batch_quantify(qs[:40], epsilon=0.3)

    def test_discrete_exact_quantification_bitwise(self):
        pts = random_discrete_points(20, 4, seed=41, spread=2.0)
        index = PNNIndex(pts)
        replica = PNNIndex.from_arrays(index.to_arrays())
        rng = random.Random(43)
        qs = np.array([(rng.uniform(0, 10), rng.uniform(0, 10))
                       for _ in range(100)])
        assert replica.batch_quantify_exact(qs) == \
            index.batch_quantify_exact(qs)
        # The V_Pr built by a decoded replica labels identical faces
        # (small instance: both sides pay a Theta(N^4) build).
        vpts = random_discrete_points(6, 2, seed=47, spread=2.0)
        small = PNNIndex(vpts)
        twin = PNNIndex.from_arrays(small.to_arrays())
        assert small.batch_quantify_vpr(qs[:40]) == \
            twin.batch_quantify_vpr(qs[:40])

    def test_histogram_cdf_bitwise(self):
        """The normalization trap: a re-normalized histogram would shift
        its cdf by an ulp; the decoded one must not."""
        hist = next(iter(rfid_histogram_field(1, grid=4, seed=11)))
        copy = points_from_arrays(points_to_arrays([hist]))[0]
        for q in [(0.3, 0.4), (1.7, 0.1), (5.0, 5.0)]:
            for r in (0.2, 0.9, 3.7):
                assert copy.distance_cdf(q, r) == hist.distance_cdf(q, r)
            assert copy.min_dist(q) == hist.min_dist(q)
            assert copy.max_dist(q) == hist.max_dist(q)


class TestRefusals:
    def test_subclass_refused(self):
        class Tweaked(DiskUniformPoint):
            def max_dist(self, q):  # a subclass may change semantics
                return super().max_dist(q) * 2.0

        with pytest.raises(CodecUnsupported, match="Tweaked"):
            points_to_arrays([Tweaked((0.0, 0.0), 1.0)])

    def test_empty_set_refused(self):
        with pytest.raises(ValueError):
            points_to_arrays([])

    def test_unknown_tag_refused(self):
        arrays = points_to_arrays([DiskUniformPoint((0.0, 0.0), 1.0)])
        arrays["types"] = arrays["types"].copy()
        arrays["types"][0] = 99
        with pytest.raises(ValueError, match="unknown model tag"):
            points_from_arrays(arrays)

    def test_zero_weight_site_refused(self):
        # A zero-weight site fails closed on decode, as on construction.
        arrays = points_to_arrays([DiscreteUncertainPoint(
            [(0.0, 0.0), (1.0, 0.0)], [0.5, 0.5])])
        arrays["rows"] = arrays["rows"].copy()
        arrays["rows"][1, 2] = 0.0
        with pytest.raises(ValueError, match="must be positive"):
            points_from_arrays(arrays)
