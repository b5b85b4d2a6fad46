"""Synthetic workload generators.

The paper motivates uncertain NN search with sensor databases,
location-based services and moving-object tracking (Section 1); it has no
public datasets, so these generators produce the corresponding synthetic
regimes (see "Reproduction notes" in README.md).  Every generator is
seeded and deterministic.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from ..geometry.disks import Disk
from ..uncertain.discrete import DiscreteUncertainPoint
from ..uncertain.disk_uniform import DiskUniformPoint
from ..uncertain.gaussian import TruncatedGaussianPoint
from ..uncertain.histogram import HistogramUncertainPoint

__all__ = [
    "random_disks",
    "disjoint_disks",
    "random_discrete_points",
    "clustered_sensor_field",
    "mobile_object_tracks",
    "rfid_histogram_field",
    "gaussian_sensor_field",
]


def random_disks(n: int, seed: int = 0, extent: float = 10.0,
                 r_min: float = 0.2, r_max: float = 0.8) -> List[Disk]:
    """Uniformly placed disks with radii in ``[r_min, r_max]``.

    The default workload for the ``V!=0`` complexity experiments (E3):
    centers uniform in ``[0, extent]^2``, overlapping allowed.
    """
    rng = random.Random(seed)
    return [Disk(rng.uniform(0, extent), rng.uniform(0, extent),
                 rng.uniform(r_min, r_max)) for _ in range(n)]


def disjoint_disks(n: int, ratio: float = 2.0, seed: int = 0) -> List[Disk]:
    """Pairwise-disjoint disks with radius ratio exactly *ratio*.

    The Theorem 2.10 regime: disks are placed on a jittered grid with cell
    size chosen so neighbors cannot touch; radii are spread
    log-uniformly over ``[1, ratio]`` with the extremes pinned so the
    realized ``lambda`` equals *ratio*.
    """
    if ratio < 1:
        raise ValueError("radius ratio must be >= 1")
    rng = random.Random(seed)
    side = math.ceil(math.sqrt(n))
    cell = 4.5 * ratio  # > 2 * max radius: grid neighbors stay disjoint
    radii = [1.0, ratio] if n >= 2 else [1.0]
    while len(radii) < n:
        radii.append(math.exp(rng.uniform(0.0, math.log(ratio)))
                     if ratio > 1 else 1.0)
    rng.shuffle(radii)
    disks: List[Disk] = []
    for idx in range(n):
        gx = idx % side
        gy = idx // side
        jitter = cell / 2.0 - radii[idx] - 0.1
        cx = gx * cell + cell / 2.0 + rng.uniform(-jitter, jitter)
        cy = gy * cell + cell / 2.0 + rng.uniform(-jitter, jitter)
        disks.append(Disk(cx, cy, radii[idx]))
    return disks


def random_discrete_points(n: int, k: int = 3, seed: int = 0,
                           extent: float = 10.0, spread: float = 1.0,
                           weight_ratio: float = 2.0
                           ) -> List[DiscreteUncertainPoint]:
    """Discrete uncertain points: ``k`` sites in a small cluster each.

    ``weight_ratio`` bounds the per-site weight spread (the global
    ``rho`` of Eq. 9 is then at most ``weight_ratio^2`` before
    normalization effects; the spiral-search benchmark sweeps it).
    """
    rng = random.Random(seed)
    out: List[DiscreteUncertainPoint] = []
    for _ in range(n):
        cx = rng.uniform(0, extent)
        cy = rng.uniform(0, extent)
        sites = [(cx + rng.uniform(-spread, spread),
                  cy + rng.uniform(-spread, spread)) for _ in range(k)]
        weights = [rng.uniform(1.0, weight_ratio) for _ in range(k)]
        out.append(DiscreteUncertainPoint(sites, weights))
    return out


def clustered_sensor_field(n: int, clusters: int = 4, seed: int = 0,
                           extent: float = 100.0,
                           uncertainty: float = 2.0
                           ) -> List[DiskUniformPoint]:
    """Sensor-database regime: readings clustered around base stations.

    Each sensor's location is uniform over a disk of radius
    ``uncertainty`` (imprecise localization), and sensors bunch around
    ``clusters`` hotspots — the spatial skew typical of deployments the
    paper's introduction cites.
    """
    rng = random.Random(seed)
    hubs = [(rng.uniform(0.2, 0.8) * extent, rng.uniform(0.2, 0.8) * extent)
            for _ in range(clusters)]
    out: List[DiskUniformPoint] = []
    for _ in range(n):
        hx, hy = hubs[rng.randrange(clusters)]
        cx = hx + rng.gauss(0, extent / 20.0)
        cy = hy + rng.gauss(0, extent / 20.0)
        out.append(DiskUniformPoint((cx, cy),
                                    uncertainty * rng.uniform(0.5, 1.5)))
    return out


def mobile_object_tracks(n: int, pings: int = 4, seed: int = 0,
                         extent: float = 50.0, speed: float = 1.5
                         ) -> List[DiscreteUncertainPoint]:
    """Moving-object regime ([CKP04]): stale location pings with recency decay.

    Each object reports ``pings`` past positions along a random walk; the
    most recent ping is the most probable current location (geometric decay
    with factor 2), giving a naturally bounded weight spread.
    """
    rng = random.Random(seed)
    out: List[DiscreteUncertainPoint] = []
    for _ in range(n):
        x = rng.uniform(0, extent)
        y = rng.uniform(0, extent)
        track = []
        for _ in range(pings):
            track.append((x, y))
            heading = rng.uniform(0, 2 * math.pi)
            step = speed * rng.uniform(0.5, 1.5)
            x += step * math.cos(heading)
            y += step * math.sin(heading)
        weights = [2.0 ** t for t in range(pings)]  # newest ping heaviest
        out.append(DiscreteUncertainPoint(track, weights))
    return out


def rfid_histogram_field(n: int, grid: int = 3, seed: int = 0,
                         extent: float = 30.0, cell: float = 1.0
                         ) -> List[HistogramUncertainPoint]:
    """RFID/indoor-positioning regime: per-tag occupancy histograms.

    Each tag's location pdf is piecewise constant on a ``grid x grid``
    patch of cells with random (sparse) occupancy counts.
    """
    rng = random.Random(seed)
    out: List[HistogramUncertainPoint] = []
    for _ in range(n):
        ox = rng.uniform(0, extent)
        oy = rng.uniform(0, extent)
        weights = [[rng.choice([0, 1, 1, 2, 3]) for _ in range(grid)]
                   for _ in range(grid)]
        if not any(any(row) for row in weights):
            weights[grid // 2][grid // 2] = 1
        out.append(HistogramUncertainPoint((ox, oy), cell, cell, weights))
    return out


def gaussian_sensor_field(n: int, seed: int = 0, extent: float = 40.0,
                          sigma: float = 1.0,
                          support_factor: float = 3.0
                          ) -> List[TruncatedGaussianPoint]:
    """GPS-noise regime: truncated-Gaussian position estimates."""
    rng = random.Random(seed)
    return [TruncatedGaussianPoint(
        (rng.uniform(0, extent), rng.uniform(0, extent)),
        sigma * rng.uniform(0.5, 1.5),
        support_factor * sigma) for _ in range(n)]
