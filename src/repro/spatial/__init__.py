"""Spatial indexing substrate: augmented kd-tree, persistence, point location.

These stand in for the theoretical structures the paper cites (weighted
Voronoi point location, [KMR+16] envelope reporting, partition trees,
[AC09] halfspace reporting, [DSST89] persistence) — see the substitution
table under "Reproduction notes" in README.md.
"""

from .kdtree import KDTree
from .persistence import PersistentSetFamily
from .planelocate import PersistentPlaneLocator
from .rtree import Rect, RTree

__all__ = ["KDTree", "PersistentPlaneLocator", "PersistentSetFamily", "RTree",
           "Rect"]
