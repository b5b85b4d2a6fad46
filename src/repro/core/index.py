"""``PNNIndex`` — the library's front door for probabilistic NN queries.

Wraps a set of uncertain points (any mix of models) and exposes the
paper's two query primitives:

* :meth:`nonzero_nn` — all points with nonzero probability of being the
  nearest neighbor (Sections 2–3), answered by the two-stage query of
  Theorems 3.1/3.2: first ``Delta(q)``, then report
  ``{i : delta_i(q) < Delta(q)}``.  Both stages are *exact* for every
  model: the kd-tree over support disks provides candidate pruning, and
  each candidate is confirmed with the model's exact ``min_dist`` /
  ``max_dist``.
* :meth:`quantify` — the quantification probabilities ``pi_i(q)``
  (Section 4), exactly or to additive error ``eps`` via the Monte-Carlo or
  spiral-search estimators.

Every query primitive also has a *batch* front door — :meth:`batch_delta`,
:meth:`batch_nonzero_nn`, :meth:`batch_quantify`,
:meth:`batch_quantify_exact`, :meth:`batch_quantify_vpr`,
:meth:`batch_top_k`, :meth:`batch_threshold_nn` —
that accepts an ``(m, 2)`` array of queries and dispatches to the
NumPy-vectorized :class:`~repro.spatial.batch.BatchQueryEngine` (dense
matrix kernels for small ``n``, array-kd-tree bucketing for large ``n``)
or, for exact discrete quantification, to the vectorized Eq. (2) sweep of
:class:`~repro.quantification.batch_exact.BatchExactQuantifier`.
The batch paths preserve the exact Lemma 2.1 semantics of the scalar ones
(including the second-minimum threshold for a unique ``Delta`` argmin) and
are one to two orders of magnitude faster per query on thousand-query
workloads (``tests/test_speed_bars.py`` bars the speedup).

For service-shaped traffic (many clients, bursty scalar streams, very
large batches) :meth:`serve` wraps the index in a
:class:`~repro.serving.service.QueryService` adding request coalescing,
multi-core sharding, and result caching on top of the same primitives.

Heavier artifacts (the nonzero Voronoi diagram, the exact probabilistic
Voronoi diagram) are built on demand via :meth:`build_nonzero_voronoi` and
:meth:`build_vpr`.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.disks import Disk
from ..geometry.primitives import Point
from ..quantification.batch_exact import BatchExactQuantifier, check_tie_tol
from ..quantification.exact_continuous import quantification_continuous_vector
from ..quantification.exact_discrete import quantification_vector
from ..quantification.monte_carlo import MonteCarloQuantifier
from ..quantification.spiral import SpiralSearchQuantifier
from ..quantification.threshold import ThresholdResult, classify_threshold
from ..spatial.batch import (BatchQueryEngine, as_query_array,
                             check_query_domain, query_window)
from ..spatial.kdtree import KDTree
from ..spatial.kernels import KERNELS
from ..uncertain.base import UncertainPoint
from ..uncertain.discrete import DiscreteUncertainPoint
from ..voronoi.diagram import NonzeroVoronoiDiagram
from ..voronoi.vpr import ProbabilisticVoronoiDiagram


__all__ = ["PNNIndex"]


class PNNIndex:
    """Probabilistic nearest-neighbor index over uncertain points.

    Parameters
    ----------
    points:
        The uncertain points (at least one; models may be mixed).
    kernel:
        Compute-kernel provider for the batch engines: ``"auto"``
        (default), ``"native"``, or ``"numpy"`` — see
        :mod:`repro.spatial.kernels`.  All providers return
        bitwise-identical answers; the choice is operational (``"auto"``
        prefers the compiled native kernels when the host can build
        them, honoring the ``REPRO_KERNEL`` environment steer).

    Examples
    --------
    >>> from repro import PNNIndex, DiskUniformPoint
    >>> index = PNNIndex([DiskUniformPoint((0, 0), 1), DiskUniformPoint((4, 0), 1)])
    >>> index.nonzero_nn((1.0, 0.0))
    [0]
    >>> sorted(index.nonzero_nn((2.0, 0.0)))
    [0, 1]
    """

    def __init__(self, points: Sequence[UncertainPoint],
                 kernel: str = "auto") -> None:
        if not points:
            raise ValueError("PNNIndex needs at least one uncertain point")
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; "
                             f"expected one of {KERNELS}")
        self.kernel = kernel
        #: When ``True``, :meth:`cached_vpr` refuses to build a diagram
        #: lazily and raises instead.  Shared-plane executor workers set
        #: this before attaching the parent's plane, making a silent
        #: Theta(N^4) per-worker rebuild structurally impossible.
        self.vpr_build_forbidden = False
        self.points: List[UncertainPoint] = list(points)
        self._supports: List[Disk] = [p.support_disk() for p in self.points]
        #: ``(xmin, ymin, xmax, ymax)`` of the query domain: the support
        #: box grown by 2**30 extents
        #: (:func:`~repro.spatial.batch.query_window`).  Every front door
        #: rejects queries outside it with ``ValueError``.
        self.query_window = query_window(
            min(d.cx - d.r for d in self._supports),
            min(d.cy - d.r for d in self._supports),
            max(d.cx + d.r for d in self._supports),
            max(d.cy + d.r for d in self._supports))
        self._support_tree = KDTree(
            [d.center for d in self._supports],
            [d.r for d in self._supports])
        self._mc_cache: Dict[tuple, MonteCarloQuantifier] = {}
        self._spiral: Optional[SpiralSearchQuantifier] = None
        self._batch: Optional[BatchQueryEngine] = None
        self._batch_exact: Optional[BatchExactQuantifier] = None
        self._vpr: Optional[ProbabilisticVoronoiDiagram] = None
        # V_Pr is the one lazy artifact expensive enough that a benign
        # double-build (two threads racing first use) is worth a lock.
        self._vpr_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of uncertain points."""
        return len(self.points)

    def all_discrete(self) -> bool:
        """Whether every point has a discrete distribution."""
        return all(isinstance(p, DiscreteUncertainPoint) for p in self.points)

    def set_kernel(self, kernel: str) -> None:
        """Switch the kernel provider for subsequently built batch engines.

        Validates *kernel* (and fails fast on an explicit ``"native"``
        request the host cannot serve) and drops the cached batch engine
        and exact quantifier so the next batch call rebuilds them on the
        new provider.  A cached ``V_Pr`` is deliberately kept: rebuilding
        the ``Theta(N^4)`` diagram would be expensive and pointless —
        providers are bitwise-identical, so the stored face vectors are
        exactly what either provider would compute.
        """
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; "
                             f"expected one of {KERNELS}")
        from ..spatial.kernels import get_provider

        get_provider(kernel)  # explicit "native" must fail loudly here
        self.kernel = kernel
        self._batch = None
        self._batch_exact = None

    # ------------------------------------------------------------------
    # Stage 1: Delta(q).
    # ------------------------------------------------------------------
    def delta(self, q: Point) -> float:
        """``Delta(q) = min_i Delta_i(q)``, exactly.

        The support-disk kd-tree gives the upper bound
        ``min_i (d(q, c_i) + r_i)`` in one weighted-NN query; each
        candidate whose lower bound ``d(q, c_i) - r_i`` beats it is
        re-evaluated with the model's exact ``max_dist`` (for disk supports
        the bound is already exact).
        """
        check_query_domain(q, self.query_window)
        return self._delta_info(q)[0]

    def _delta_info(self, q: Point) -> tuple:
        """Exact ``(min Delta, second-min Delta, unique argmin or None)``.

        The second minimum and argmin uniqueness feed the exact Lemma 2.1
        semantics: for the unique minimizer of ``Delta`` the comparison
        threshold ranges over ``j != i`` and is the second minimum —
        which matters for zero-extent (certain) supports where
        ``delta_i = Delta_i``.
        """
        (_, v1_ub), (_, v2_ub) = self._support_tree.weighted_two_min(q)
        bound = v2_ub if math.isfinite(v2_ub) else v1_ub
        candidates = self._support_tree.weighted_report(q, bound, strict=False)
        exact = sorted((self.points[i].max_dist(q), i) for i in candidates)
        min1 = exact[0][0]
        attainers = [i for v, i in exact if v == min1]
        unique = attainers[0] if len(attainers) == 1 else None
        second = exact[1][0] if len(exact) > 1 else math.inf
        return min1, second, unique

    # ------------------------------------------------------------------
    # Stage 2: the nonzero NN report.
    # ------------------------------------------------------------------
    def nonzero_nn(self, q: Point) -> List[int]:
        """``NN!=0(q)``: indices with nonzero probability of being the NN.

        Exact two-stage query (Lemma 2.1 + Theorems 3.1/3.2): compute
        ``Delta(q)`` (and its second minimum, for the ``j != i``
        semantics), then report every point whose exact minimum distance
        beats its threshold.  The kd-tree prunes with the support-disk
        lower bound ``d(q, c_i) - r_i <= min_dist_i(q)``, so the candidate
        set is a superset of the answer and each candidate is confirmed
        exactly.
        """
        check_query_domain(q, self.query_window)
        if self.n == 1:
            return [0]
        min1, second, unique = self._delta_info(q)
        report_bound = second if unique is not None else min1
        if math.isfinite(report_bound):
            candidates = self._support_tree.weighted_report(
                q, report_bound, strict=False)
        else:
            candidates = range(self.n)
        out = []
        for i in candidates:
            threshold = second if i == unique else min1
            if self.points[i].min_dist(q) < threshold:
                out.append(i)
        return sorted(out)

    def nonzero_nn_bruteforce(self, q: Point) -> List[int]:
        """Reference O(n) implementation of the Lemma 2.1 predicate."""
        from ..geometry.disks import nonzero_nn_indices

        return nonzero_nn_indices([p.min_dist(q) for p in self.points],
                                  [p.max_dist(q) for p in self.points])

    def _mc_quantifier(self, epsilon: float, delta: float,
                       seed: int) -> MonteCarloQuantifier:
        """The cached Monte-Carlo structure shared by scalar and batch paths."""
        key = ("mc", epsilon, delta, seed)
        if key not in self._mc_cache:
            self._mc_cache[key] = MonteCarloQuantifier(
                self.points, epsilon=epsilon, delta=delta, seed=seed)
        return self._mc_cache[key]

    # ------------------------------------------------------------------
    # Batch queries: vectorized over an (m, 2) array of query points.
    # ------------------------------------------------------------------
    def batch_engine(self, backend: str = "auto") -> BatchQueryEngine:
        """The lazily-built vectorized backend (shared by all batch calls).

        ``backend`` other than ``"auto"`` forces a fresh engine with the
        requested strategy (``"dense"`` or ``"bucket"``) — useful for
        tests and benchmarks; the auto engine stays cached.
        """
        if backend != "auto":
            return BatchQueryEngine(self.points, backend=backend,
                                    kernel=self.kernel)
        if self._batch is None:
            self._batch = BatchQueryEngine(self.points, kernel=self.kernel)
        return self._batch

    def _queries(self, queries) -> np.ndarray:
        """*queries* as an ``(m, 2)`` array inside :attr:`query_window`."""
        return as_query_array(queries, self.query_window)

    def batch_delta(self, queries) -> np.ndarray:
        """``Delta(q)`` for every row of *queries*, as a float array.

        Vectorized equivalent of calling :meth:`delta` per row.
        """
        return self.batch_engine().delta(self._queries(queries))

    def batch_nonzero_nn(self, queries) -> List[List[int]]:
        """``NN!=0(q)`` for every row of *queries* (each list sorted).

        Vectorized equivalent of calling :meth:`nonzero_nn` per row: the
        same two-stage query with exact per-candidate confirmation, but
        answered for the whole batch in a few NumPy passes.
        """
        return self.batch_engine().nonzero_nn(self._queries(queries))

    def batch_quantify(self, queries, method: str = "auto",
                       epsilon: float = 0.05, delta: float = 0.05,
                       seed: int = 0) -> List[Dict[int, float]]:
        """:meth:`quantify` for every row of *queries*.

        The Monte-Carlo method is answered by one vectorized counting pass
        over the shared ``(s, n, 2)`` instantiation tensor (identical
        estimates to the scalar path, which uses the same structure); the
        exact and spiral methods fall back to a per-query loop.
        """
        q = self._queries(queries)
        if method == "auto":
            method = "spiral" if self.all_discrete() else "monte_carlo"
        if method == "monte_carlo":
            return self._mc_quantifier(epsilon, delta, seed).estimate_batch(q)
        if method == "exact" and self.all_discrete():
            return self.batch_quantify_exact(q)
        return [self.quantify((float(x), float(y)), method=method,
                              epsilon=epsilon, delta=delta, seed=seed)
                for x, y in q]

    def batch_quantify_exact(self, queries,
                             tie_tol: float = 0.0) -> List[Dict[int, float]]:
        """Exact Eq. (2) quantification for every row of *queries*.

        The vectorized sweep of
        :class:`~repro.quantification.batch_exact.BatchExactQuantifier`:
        bitwise-identical dicts to ``quantify(q, method="exact")`` per row
        (the documented tie-group convention on degenerate inputs), an
        order of magnitude faster on thousand-query workloads
        (``tests/test_speed_bars.py`` bars the speedup).  Discrete
        distributions only.
        """
        if not self.all_discrete():
            raise ValueError(
                "batch_quantify_exact requires discrete distributions; "
                "use batch_quantify(method='monte_carlo') for mixed models")
        tie_tol = check_tie_tol(tie_tol)
        q = self._queries(queries)
        if tie_tol != 0.0:
            return BatchExactQuantifier(
                self.points, tie_tol=tie_tol,  # type: ignore[arg-type]
                kernel=self.kernel).batch(q)
        if self._batch_exact is None:
            self._batch_exact = BatchExactQuantifier(
                self.points, kernel=self.kernel)  # type: ignore[arg-type]
        return self._batch_exact.batch(q)

    def batch_top_k(self, queries, k: int, method: str = "auto",
                    epsilon: float = 0.05, delta: float = 0.05,
                    seed: int = 0) -> List[List[tuple]]:
        """:meth:`top_k_nn` for every row of *queries*."""
        if k <= 0:
            return [[] for _ in range(len(self._queries(queries)))]
        batches = self.batch_quantify(queries, method=method, epsilon=epsilon,
                                      delta=delta, seed=seed)
        return [sorted(est.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
                for est in batches]

    def batch_threshold_nn(self, queries, tau: float,
                           epsilon: Optional[float] = None,
                           method: str = "auto", delta: float = 0.05,
                           seed: int = 0) -> List[ThresholdResult]:
        """:meth:`threshold_nn` for every row of *queries*.

        One vectorized quantification pass feeds the per-row ±epsilon
        classification, so the results (including the default
        ``epsilon = tau / 4`` margin) match the scalar calls exactly.
        """
        if epsilon is None:
            epsilon = tau / 4.0
        estimates = self.batch_quantify(queries, method=method,
                                        epsilon=epsilon, delta=delta,
                                        seed=seed)
        return [classify_threshold(est, tau, epsilon) for est in estimates]

    def cached_vpr(self) -> ProbabilisticVoronoiDiagram:
        """The lazily-built, shared ``V_Pr`` over the default window.

        Built once (vectorized pipeline, default box) on first use and
        reused by every subsequent :meth:`quantify_vpr` /
        :meth:`batch_quantify_vpr` call; thread-safe so the serving
        layer's thread backend shares one diagram instead of racing
        duplicate builds.  :meth:`use_vpr` installs a prebuilt diagram
        (e.g. with a custom window) instead.
        """
        if self._vpr is None:
            with self._vpr_lock:
                if self._vpr is None:
                    if self.vpr_build_forbidden:
                        raise RuntimeError(
                            "V_Pr build forbidden on this index (shared-"
                            "plane worker replica): the parent's plane "
                            "was not installed, refusing a per-worker "
                            "diagram rebuild")
                    self._vpr = self.build_vpr()
        return self._vpr

    def use_vpr(self, vpr: ProbabilisticVoronoiDiagram) -> None:
        """Adopt *vpr* as the diagram behind the ``quantify_vpr`` kind.

        The diagram must be over this index's points (same objects or an
        equal-length, equal-order set — answers are only meaningful when
        the point sets agree).
        """
        if len(vpr.points) != self.n:
            raise ValueError(
                f"prebuilt V_Pr covers {len(vpr.points)} points, "
                f"index has {self.n}")
        with self._vpr_lock:
            self._vpr = vpr

    def quantify_vpr(self, q: Point) -> Dict[int, float]:
        """Exact ``{i: pi_i(q)}`` via ``V_Pr`` point location.

        The Theorem 4.2 query path: locate the cell of *q* and return its
        precomputed probability vector (``O(log N + t)``), falling back
        to the direct Eq. (2) sweep outside the diagram's window — exact
        everywhere.  Discrete distributions only.
        """
        return self.batch_quantify_vpr([q])[0]

    def batch_quantify_vpr(self, queries) -> List[Dict[int, float]]:
        """:meth:`quantify_vpr` for every row of *queries*.

        One vectorized point-location pass
        (:meth:`~repro.spatial.planelocate.PersistentPlaneLocator.
        locate_batch`) gathers precomputed face vectors; out-of-window
        rows are answered by the batched Eq. (2) sweep.  Rows use the
        same sparse-dict container as :meth:`batch_quantify_exact` and
        agree with it row for row (bitwise on generic queries — inside a
        cell the sweep's comparisons replay identically at the cell's
        representative).
        """
        q = self._queries(queries)  # before any lazy Theta(N^4) build
        return self.cached_vpr().quantify_batch(q)

    # ------------------------------------------------------------------
    # The flat-array codec (compact persistence).
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Encode the point set into flat NumPy arrays.

        The :mod:`repro.spatial.codec` format; decoding
        (:meth:`from_arrays`) is bitwise-faithful, so a decoded replica
        answers every query with identical bits.  Raises
        :class:`~repro.spatial.codec.CodecUnsupported` when the set
        contains a model outside the built-in classes.
        """
        from ..spatial.codec import points_to_arrays

        return points_to_arrays(self.points)

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "PNNIndex":
        """Rebuild an index from :meth:`to_arrays` output (bitwise)."""
        from ..spatial.codec import points_from_arrays

        return cls(points_from_arrays(arrays))

    def serve(self, config: Optional["ServiceConfig"] = None,
              vpr: Optional[ProbabilisticVoronoiDiagram] = None,
              **overrides) -> "QueryService":
        """A :class:`~repro.serving.service.QueryService` over this index.

        Keyword overrides populate a fresh
        :class:`~repro.serving.service.ServiceConfig` — e.g.
        ``index.serve(workers=4, backend="thread", cache_capacity=8192)``.
        The service layers request coalescing, multi-core sharding over a
        pluggable executor backend, and exact-keyed result caching over
        the batch engine; close it (or use it as a context manager) to
        stop its worker pool and flusher thread.  A prebuilt *vpr* is
        adopted (:meth:`use_vpr`) for the ``quantify_vpr`` query kind;
        otherwise the first such query builds the diagram lazily.
        """
        from ..serving.service import QueryService, ServiceConfig

        if config is not None and overrides:
            raise TypeError("pass either a ServiceConfig or overrides, "
                            "not both")
        cfg = config if config is not None else ServiceConfig(**overrides)
        return QueryService(self, cfg, vpr=vpr)

    # ------------------------------------------------------------------
    # Quantification probabilities.
    # ------------------------------------------------------------------
    def quantify(self, q: Point, method: str = "auto",
                 epsilon: float = 0.05, delta: float = 0.05,
                 seed: int = 0) -> Dict[int, float]:
        """Quantification probabilities ``{i: pi_i(q)}`` (zeros omitted).

        ``method``:

        * ``"exact"`` — Eq. (2) sweep for discrete inputs, Eq. (1)
          quadrature for continuous ones (slow, reference quality);
        * ``"monte_carlo"`` — Theorem 4.3/4.5 estimator, ±epsilon with
          probability 1 - delta; works for every model;
        * ``"spiral"`` — Theorem 4.7 estimator (discrete only),
          one-sided: ``pi_hat <= pi <= pi_hat + eps``;
        * ``"auto"`` — ``"spiral"`` when all-discrete, else
          ``"monte_carlo"``.
        """
        check_query_domain(q, self.query_window)
        if method == "auto":
            method = "spiral" if self.all_discrete() else "monte_carlo"
        if method == "exact":
            if self.all_discrete():
                vec = quantification_vector(self.points, q)  # type: ignore[arg-type]
            else:
                vec = quantification_continuous_vector(self.points, q)
            return {i: v for i, v in enumerate(vec) if v > 0.0}
        if method == "monte_carlo":
            return self._mc_quantifier(epsilon, delta, seed).estimate(q)
        if method == "spiral":
            if not self.all_discrete():
                raise ValueError("spiral search requires discrete distributions")
            if self._spiral is None:
                self._spiral = SpiralSearchQuantifier(self.points)  # type: ignore[arg-type]
            return self._spiral.estimate(q, epsilon)
        raise ValueError(f"unknown method {method!r}")

    def top_k_nn(self, q: Point, k: int, method: str = "auto",
                 epsilon: float = 0.05, delta: float = 0.05,
                 seed: int = 0) -> List[tuple]:
        """The ``k`` most probable nearest neighbors, as ``(index, pi)`` pairs.

        The probabilistic k-NN variant the paper's Section 1.2 surveys
        ([BSI08]-style "top-k probable NNs", ranked by quantification
        probability).  With a ±epsilon estimator the returned order is
        correct for any pair separated by more than ``2 * epsilon``; ties
        within the noise band are broken by index for determinism.
        """
        if k <= 0:
            return []
        estimates = self.quantify(q, method=method, epsilon=epsilon,
                                  delta=delta, seed=seed)
        ranked = sorted(estimates.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def threshold_nn(self, q: Point, tau: float,
                     epsilon: Optional[float] = None,
                     method: str = "auto", delta: float = 0.05,
                     seed: int = 0) -> ThresholdResult:
        """Points with ``pi_i(q) > tau``, with a ±epsilon decision margin.

        Defaults to ``epsilon = tau / 4`` (well inside the ``eps < tau``
        requirement), so at most ``1/(tau - eps)`` candidates survive.
        """
        if epsilon is None:
            epsilon = tau / 4.0
        estimates = self.quantify(q, method=method, epsilon=epsilon,
                                  delta=delta, seed=seed)
        return classify_threshold(estimates, tau, epsilon)

    # ------------------------------------------------------------------
    # The expected-distance alternative ([AESZ12], discussed in §1.2).
    # ------------------------------------------------------------------
    def expected_distance_ranking(self, q: Point, samples: int = 2048,
                                  seed: int = 0) -> List[int]:
        """Indices ranked by expected distance ``E[d(q, P_i)]``, closest first.

        The companion paper [AESZ12] defines the NN of *q* as the point
        minimizing expected distance.  The paper reproduced here argues
        (citing [YTX+10]) that this ranking can disagree with the
        quantification-probability ranking under large uncertainty — the
        sensor-dispatch example demonstrates exactly that.  Expectations
        are Monte-Carlo estimates with a shared seeded budget, except for
        discrete distributions where they are computed exactly.
        """
        def expected(p: UncertainPoint) -> float:
            if isinstance(p, DiscreteUncertainPoint):
                return sum(w * math.dist(site, q)
                           for site, w in p.sites_with_weights())
            return p.mean_dist(q, samples=samples, seed=seed)

        return sorted(range(self.n), key=lambda i: expected(self.points[i]))

    # ------------------------------------------------------------------
    # Heavy artifacts.
    # ------------------------------------------------------------------
    def build_nonzero_voronoi(self, tol: float = 1e-7) -> NonzeroVoronoiDiagram:
        """Construct ``V!=0`` over the support disks (Theorem 2.5).

        Exact for disk-supported models; for site-based models the support
        disk is the smallest enclosing disk, a conservative region (the
        paper's discrete machinery, :class:`~repro.voronoi.discrete_diagram.
        DiscreteNonzeroVoronoi`, handles those exactly).
        """
        return NonzeroVoronoiDiagram(self._supports, tol=tol)

    def build_vpr(self, box=None) -> ProbabilisticVoronoiDiagram:
        """Construct the exact probabilistic Voronoi diagram (Theorem 4.2).

        The whole construction — bisector generation, arrangement build,
        and face labeling — runs through the batched NumPy pipeline,
        reusing this index's cached
        :class:`~repro.quantification.batch_exact.BatchExactQuantifier`
        for the ``O(N^4)`` face vectors.  *box* overrides the default
        query window (see :class:`~repro.voronoi.vpr.
        ProbabilisticVoronoiDiagram`).
        """
        if not self.all_discrete():
            raise ValueError("V_Pr requires discrete distributions")
        if self._batch_exact is None:
            self._batch_exact = BatchExactQuantifier(
                self.points, kernel=self.kernel)  # type: ignore[arg-type]
        return ProbabilisticVoronoiDiagram(
            self.points, box=box,  # type: ignore[arg-type]
            quantifier=self._batch_exact)
