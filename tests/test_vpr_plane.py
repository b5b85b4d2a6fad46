"""Shared-plane V_Pr: codec round-trip, attach parity, serving guards.

The diagram is built once in the parent, exported as flat arrays
(:func:`repro.spatial.codec.plane_to_arrays`), and attached by worker
replicas (:class:`repro.voronoi.vpr.SharedPlaneDiagram`) — this suite
holds the contract at every hop: bitwise query parity through
encode/pickle/decode, loud rejection of malformed or mismatched
arrays, the worker-side rebuild guard, and the service-level plumbing
(plane fan-out with **zero** per-worker diagram builds).
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.index import PNNIndex
from repro.core.workloads import random_discrete_points
from repro.obs.metrics import ENGINE
from repro.serving.executors.base import IndexReplica
from repro.serving.service import ServiceConfig
from repro.spatial.codec import (CodecUnsupported, check_plane_arrays,
                                 plane_from_arrays, plane_to_arrays)
from repro.testing.oracles import SlabPointLocator
from repro.uncertain.discrete import DiscreteUncertainPoint
from repro.voronoi.vpr import ProbabilisticVoronoiDiagram, SharedPlaneDiagram


def build_vpr(n=6, k=2, seed=5):
    points = random_discrete_points(n, k, seed=seed, spread=2.0)
    return points, ProbabilisticVoronoiDiagram(points)


class DuckPoint:
    """Duck-typed site model: buildable, but not exportable as a plane."""

    def __init__(self, sites_with_weights):
        self._sw = list(sites_with_weights)
        self.k = len(self._sw)

    def sites_with_weights(self):
        return list(self._sw)


def duck_vpr(points):
    """A V_Pr over duck-typed copies of *points* (no plane export)."""
    return ProbabilisticVoronoiDiagram(
        [DuckPoint(p.sites_with_weights()) for p in points])


def query_grid(vpr, m=150, seed=31):
    (xmin, ymin), (xmax, ymax) = vpr.box
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(xmin - 0.5, xmax + 0.5, m),
        rng.uniform(ymin - 0.5, ymax + 0.5, m)])


class TestLocatorSelection:
    def test_locators_answer_identically(self):
        _, vpr = build_vpr()
        q = query_grid(vpr)
        got = vpr.locator.locate_batch(q)
        want = SlabPointLocator(vpr.arrangement).locate_batch(q)
        assert got.tobytes() == want.tobytes()


class TestPlaneCodecRoundTrip:
    def test_bitwise_through_pickle(self):
        points, vpr = build_vpr()
        arrays = plane_to_arrays(vpr)
        arrays = pickle.loads(pickle.dumps(arrays))  # the process hop
        shared = plane_from_arrays(arrays, points)
        q = query_grid(vpr)
        assert shared.query_batch(q).tobytes() == \
            vpr.query_batch(q).tobytes()
        for point in q[:40]:
            assert shared.query(tuple(point)) == vpr.query(tuple(point))
        assert shared.quantify_batch(q[:40]) == vpr.quantify_batch(q[:40])
        assert shared.num_faces == vpr.num_faces
        assert shared.locator_stats()["kind"] == "persistent"
        assert shared.locator_stats()["attach_seconds"] >= 0.0

    def test_degenerate_single_point(self):
        points = [DiscreteUncertainPoint([(0.0, 0.0)], [1.0])]
        vpr = ProbabilisticVoronoiDiagram(points)
        shared = plane_from_arrays(plane_to_arrays(vpr), points)
        assert shared.query((0.5, 0.5)) == [1.0]
        assert shared.query_batch([(0.5, 0.5), (100.0, 100.0)]) \
            .tolist() == [[1.0], [1.0]]

    def test_non_discrete_refused(self):
        vpr = duck_vpr([
            DiscreteUncertainPoint([(0.0, 0.0), (0.5, 0.5)], [0.5, 0.5]),
            DiscreteUncertainPoint([(3.0, 0.0), (3.5, 0.5)], [0.5, 0.5])])
        with pytest.raises(CodecUnsupported):
            plane_to_arrays(vpr)

    def test_attach_rejects_wrong_point_count(self):
        points, vpr = build_vpr()
        arrays = plane_to_arrays(vpr)
        with pytest.raises(ValueError, match="uncertain points"):
            SharedPlaneDiagram(points[:-1], arrays)

    def test_attach_rejects_wrong_version(self):
        points, vpr = build_vpr()
        arrays = plane_to_arrays(vpr)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] += 1
        with pytest.raises(ValueError, match="version"):
            SharedPlaneDiagram(points, arrays)


class TestMalformedArrays:
    """The oversized/truncated-segment error path: a manifest that does
    not match its arrays must be rejected before any gather runs."""

    def setup_method(self):
        self.points, vpr = build_vpr(n=4)
        self.arrays = plane_to_arrays(vpr)

    def test_missing_key(self):
        bad = dict(self.arrays)
        del bad["ent_row"]
        with pytest.raises(ValueError, match="missing"):
            check_plane_arrays(bad)

    def test_truncated_entries(self):
        bad = dict(self.arrays)
        bad["ent_u"] = bad["ent_u"][:-3]
        with pytest.raises(ValueError, match="shape"):
            check_plane_arrays(bad)

    def test_wrong_dtype(self):
        bad = dict(self.arrays)
        bad["xs"] = bad["xs"].astype(np.float32)
        with pytest.raises(ValueError, match="dtype"):
            check_plane_arrays(bad)

    def test_corrupt_leaf_base(self):
        bad = dict(self.arrays)
        bad["meta"] = bad["meta"].copy()
        bad["meta"][1] = 3  # not a power of two
        with pytest.raises(ValueError, match="power of 2"):
            check_plane_arrays(bad)

    def test_truncated_offs(self):
        bad = dict(self.arrays)
        bad["offs"] = bad["offs"][:-1]
        with pytest.raises(ValueError, match="shape"):
            check_plane_arrays(bad)


class TestWorkerGuards:
    def test_replica_attaches_without_building(self):
        points, vpr = build_vpr()
        arrays = plane_to_arrays(vpr)
        builds = ENGINE.get("vpr.builds")
        attaches = ENGINE.get("vpr.plane_attaches")
        replica = IndexReplica(points, plane=arrays)
        assert ENGINE.get("vpr.builds") == builds
        assert ENGINE.get("vpr.plane_attaches") == attaches + 1
        assert isinstance(replica.index._vpr, SharedPlaneDiagram)
        q = query_grid(vpr, m=60)
        got = replica.index.batch_quantify_vpr(q)
        want = [{i: v for i, v in enumerate(row) if v > 0.0}
                for row in vpr.query_batch(q)]
        assert got == want

    def test_forbidden_index_refuses_rebuild(self):
        index = PNNIndex(random_discrete_points(3, 2, seed=1, spread=2.0))
        index.vpr_build_forbidden = True
        with pytest.raises(RuntimeError, match="forbidden"):
            index.cached_vpr()


class TestServiceLocatorConfig:
    def test_validation(self):
        """``locator`` is a no-op field that accepts only ``"auto"``."""
        assert ServiceConfig().locator == "auto"
        assert ServiceConfig(locator="auto").locator == "auto"
        for retired in ("slab", "persistent", "bogus"):
            with pytest.raises(ValueError, match="locator"):
                ServiceConfig(locator=retired)


class TestSharedPlaneServing:
    def test_process_backend_zero_worker_builds(self):
        index = PNNIndex(random_discrete_points(5, 2, seed=11, spread=2.0))
        vpr = index.build_vpr()
        index.use_vpr(vpr)
        q = query_grid(vpr, m=64, seed=41)
        want = index.batch_quantify_vpr(q)
        builds = ENGINE.get("vpr.builds")
        with index.serve(workers=2, cache_capacity=0, shard_min_batch=8,
                         shard_chunk=8) as service:
            assert service.plane is not None
            info = service.vpr_info()
            assert info["plane_encoded"]
            if service.executor.mode == "process":
                assert info["plane_served"]
            got = service.batch("quantify_vpr", q)
            stats = service.stats()
            assert got == want
        # The parent built V_Pr exactly once, before serving; workers
        # attached the exported plane instead of rebuilding.
        assert ENGINE.get("vpr.builds") == builds
        if stats["executor"]["mode"] == "process":
            assert stats["executor"]["serves_plane"]
            assert stats["methods"]["quantify_vpr"]["sharded_calls"] >= 1

    def test_no_plane_no_fanout_still_correct(self):
        """A non-discrete diagram cannot export a plane: quantify_vpr
        must stay parent-side (no fan-out) and stay bitwise right."""
        points = random_discrete_points(4, 2, seed=13, spread=2.0)
        index = PNNIndex(points)
        vpr = duck_vpr(points)
        index.use_vpr(vpr)
        q = query_grid(vpr, m=40, seed=43)
        want = index.batch_quantify_vpr(q)
        assert want == PNNIndex(points).batch_quantify_vpr(q)
        with index.serve(workers=2, cache_capacity=0, shard_min_batch=8,
                         shard_chunk=8) as service:
            assert service.plane is None
            assert service.batch("quantify_vpr", q) == want
            stats = service.stats()
        assert stats["methods"]["quantify_vpr"]["sharded_calls"] == 0
