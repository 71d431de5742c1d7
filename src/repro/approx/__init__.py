"""Geometric approximations: the MBR family and distance-bounded rasters.

This package implements both sides of the paper's comparison: the classic
object approximations (MBR, rotated MBR, minimum bounding circle, convex hull,
n-corner, clipped MBR) that are *not* distance-bounded, and the uniform /
hierarchical raster approximations whose error is bounded by a user-chosen
Hausdorff distance ``epsilon``.
"""

from repro.approx.base import GeometricApproximation
from repro.approx.build_engine import HRBuilder, get_build_engine
from repro.approx.circle import MinimumBoundingCircle, welzl_circle
from repro.approx.clipped_mbr import ClippedMBRApproximation
from repro.approx.convex_hull import ConvexHullApproximation
from repro.approx.distance_bound import (
    DistanceBound,
    bound_for_cell_side,
    cell_side_for_bound,
    grid_for_bound,
    level_for_bound,
)
from repro.approx.hierarchical_raster import HierarchicalRasterApproximation, HRCell
from repro.approx.mbr import MBRApproximation
from repro.approx.ncorner import NCornerApproximation
from repro.approx.rotated_mbr import RotatedMBRApproximation, minimum_area_rectangle
from repro.approx.uniform_raster import UniformRasterApproximation

__all__ = [
    "ClippedMBRApproximation",
    "ConvexHullApproximation",
    "DistanceBound",
    "GeometricApproximation",
    "HRBuilder",
    "HRCell",
    "HierarchicalRasterApproximation",
    "MBRApproximation",
    "MinimumBoundingCircle",
    "NCornerApproximation",
    "RotatedMBRApproximation",
    "UniformRasterApproximation",
    "bound_for_cell_side",
    "cell_side_for_bound",
    "get_build_engine",
    "grid_for_bound",
    "level_for_bound",
    "minimum_area_rectangle",
    "welzl_circle",
]
