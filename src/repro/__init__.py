"""repro — a reproduction of *Nearest-Neighbor Searching Under Uncertainty II*
(Agarwal, Aronov, Har-Peled, Phillips, Yi, Zhang; PODS 2013).

The library answers nearest-neighbor queries over *uncertain points* —
points whose locations are probability distributions:

* **Nonzero NNs** (Sections 2–3): which points have *any* chance of being
  the nearest neighbor of a query — via the nonzero Voronoi diagram
  ``V!=0`` or near-linear-size two-stage query structures.
* **Quantification probabilities** (Section 4): the probability that each
  point is the nearest neighbor — exactly (discrete distributions /
  quadrature), by Monte-Carlo instantiation, or by distance-truncated
  spiral search.

Quick start::

    from repro import PNNIndex, DiskUniformPoint

    sensors = [DiskUniformPoint((0, 0), 1.0), DiskUniformPoint((5, 1), 2.0)]
    index = PNNIndex(sensors)
    index.nonzero_nn((2.0, 0.5))           # -> indices with pi > 0
    index.quantify((2.0, 0.5), "exact")    # -> {index: probability}

See README.md for the system inventory (its "Layout" section) and the
reproduction notes; ``python -m repro.experiments`` writes EXPERIMENTS.md,
the paper-vs-measured record of every reproduced theorem/figure.
"""

from .core.index import PNNIndex
from .core.baseline import BranchAndPruneIndex
from .core.io import load_workload, save_workload
from .core.linf import SquareNNIndex
from .core.workloads import (
    clustered_sensor_field,
    disjoint_disks,
    gaussian_sensor_field,
    mobile_object_tracks,
    random_discrete_points,
    random_disks,
    rfid_histogram_field,
)
from .geometry.disks import Disk
from .geometry.squares import Square
from .quantification.batch_exact import BatchExactQuantifier
from .quantification.monte_carlo import MonteCarloQuantifier
from .quantification.spiral import SpiralSearchQuantifier
from .quantification.threshold import ThresholdResult
from .serving import QueryService, ResultCache, ServiceConfig, ShardExecutor
from .uncertain.annulus import AnnulusUniformPoint
from .uncertain.base import UncertainPoint
from .uncertain.discrete import DiscreteUncertainPoint
from .uncertain.polygon import ConvexPolygonUniformPoint
from .uncertain.disk_uniform import DiskUniformPoint
from .uncertain.gaussian import TruncatedGaussianPoint
from .uncertain.histogram import HistogramUncertainPoint
from .voronoi.diagram import NonzeroVoronoiDiagram
from .voronoi.discrete_diagram import DiscreteNonzeroVoronoi
from .voronoi.guaranteed import GuaranteedVoronoi
from .voronoi.vpr import ProbabilisticVoronoiDiagram

__version__ = "1.0.0"

__all__ = [
    "AnnulusUniformPoint",
    "BranchAndPruneIndex",
    "ConvexPolygonUniformPoint",
    "Disk",
    "DiscreteNonzeroVoronoi",
    "DiscreteUncertainPoint",
    "DiskUniformPoint",
    "GuaranteedVoronoi",
    "HistogramUncertainPoint",
    "BatchExactQuantifier",
    "MonteCarloQuantifier",
    "NonzeroVoronoiDiagram",
    "PNNIndex",
    "QueryService",
    "ResultCache",
    "ServiceConfig",
    "ShardExecutor",
    "Square",
    "SquareNNIndex",
    "ProbabilisticVoronoiDiagram",
    "SpiralSearchQuantifier",
    "ThresholdResult",
    "TruncatedGaussianPoint",
    "UncertainPoint",
    "clustered_sensor_field",
    "disjoint_disks",
    "gaussian_sensor_field",
    "load_workload",
    "save_workload",
    "mobile_object_tracks",
    "random_discrete_points",
    "random_disks",
    "rfid_histogram_field",
    "__version__",
]
