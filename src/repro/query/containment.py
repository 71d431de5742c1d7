"""Point–polygon containment queries (the data-access experiment, §3 / Figure 4).

The experiment compares two ways of answering "how many points fall inside
this query polygon":

* **Raster + code index** — the query polygon is approximated by a
  hierarchical raster with a given precision (cells per polygon), each query
  cell becomes a 1D key range over the linearized points, and a code index
  (binary search, B+-tree or RadixSpline) counts the points per range.  No
  exact geometric test is performed, so the answer is approximate but
  distance-bounded.
* **MBR filter** — a spatial index over the points (R*-tree, Quadtree,
  STR-packed R-tree, Kd-tree) counts the points inside the polygon's MBR.
  This is what the classic filtering step produces before refinement; the
  count over-estimates the exact result and carries no distance guarantee.

:class:`LinearizedPoints` bundles the linearization (frame + level + sorted
codes) so that several code indexes can be built over the same key array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.hierarchical_raster import HierarchicalRasterApproximation
from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame
from repro.index.base import CodeIndex, SpatialPointIndex
from repro.query.engine import count_ranges

__all__ = [
    "LinearizedPoints",
    "polygon_query_ranges",
    "raster_count",
    "mbr_filter_count",
    "exact_count",
]


@dataclass(frozen=True)
class LinearizedPoints:
    """Points mapped to sorted 1D cell codes at a fixed grid level."""

    frame: GridFrame
    level: int
    codes: np.ndarray  # sorted, uint64

    @classmethod
    def build(cls, points: PointSet, frame: GridFrame, level: int) -> "LinearizedPoints":
        """Linearize ``points`` on ``frame`` at ``level`` and sort the codes.

        Points outside the frame are dropped rather than linearized:
        ``points_to_codes`` clamps them onto edge cells, and a clamped code
        that lands inside a query polygon's key range would be counted by
        :func:`raster_count` as a false positive far beyond the distance
        bound.  Dropping them is exact — an out-of-frame point cannot lie in
        any region the frame covers.
        """
        in_frame = frame.contains_points(points.xs, points.ys)
        xs, ys = points.xs, points.ys
        if not in_frame.all():
            xs = xs[in_frame]
            ys = ys[in_frame]
        codes = frame.points_to_codes(xs, ys, level)
        return cls(frame=frame, level=level, codes=np.sort(codes))

    @property
    def size(self) -> int:
        return int(self.codes.shape[0])


def polygon_query_ranges(
    region: Polygon | MultiPolygon,
    linearized: LinearizedPoints,
    cells_per_polygon: int,
    conservative: bool = True,
) -> list[tuple[int, int]]:
    """Decompose a query polygon into 1D key ranges at the given precision.

    ``cells_per_polygon`` is the paper's precision knob (32 / 128 / 512 cells).
    """
    approx = HierarchicalRasterApproximation.from_cell_budget(
        region,
        linearized.frame,
        max_cells=cells_per_polygon,
        conservative=conservative,
        max_level=linearized.level,
    )
    return approx.query_ranges(linearized.level)


def raster_count(
    region: Polygon | MultiPolygon,
    linearized: LinearizedPoints,
    index: CodeIndex,
    cells_per_polygon: int,
    conservative: bool = True,
) -> int:
    """Approximate count of points inside ``region`` via query cells + a code index.

    All key ranges hit the index in one
    :meth:`~repro.index.base.CodeIndex.count_ranges_batch` call.
    """
    ranges = polygon_query_ranges(region, linearized, cells_per_polygon, conservative)
    return count_ranges(index, ranges)


def mbr_filter_count(region: Polygon | MultiPolygon, index: SpatialPointIndex) -> int:
    """Count of points inside the region's MBR (classic filtering, no refinement)."""
    return index.count_in_box(region.bounds())


def exact_count(region: Polygon | MultiPolygon, points: PointSet) -> int:
    """Exact count of points inside ``region`` (ground truth; PIP per point)."""
    return int(region.contains_points(points.xs, points.ys).sum())
