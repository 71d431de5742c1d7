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

:class:`~repro.index.linearized.LinearizedPoints` bundles the linearization
(frame + level + sorted codes, plus the cell runs the ACT probe walks) so
that several code indexes can be built over the same key array; it is
re-exported here.
"""

from __future__ import annotations

from repro.approx.hierarchical_raster import HierarchicalRasterApproximation
from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame
from repro.index.base import CodeIndex, SpatialPointIndex
from repro.index.linearized import LinearizedPoints
from repro.query.engine import count_ranges

__all__ = [
    "LinearizedPoints",
    "polygon_query_ranges",
    "level_query_ranges",
    "raster_count",
    "mbr_filter_count",
    "exact_count",
]


def polygon_query_ranges(
    region: Polygon | MultiPolygon,
    linearized: LinearizedPoints,
    cells_per_polygon: int,
    conservative: bool = True,
) -> list[tuple[int, int]]:
    """Decompose a query polygon into 1D key ranges at the given precision.

    ``cells_per_polygon`` is the paper's precision knob (32 / 128 / 512 cells).
    """
    return level_query_ranges(
        region, linearized.frame, linearized.level, cells_per_polygon, conservative
    )


def level_query_ranges(
    region: Polygon | MultiPolygon,
    frame: GridFrame,
    level: int,
    cells_per_polygon: int,
    conservative: bool = True,
) -> list[tuple[int, int]]:
    """:func:`polygon_query_ranges` for code indexes on ``frame`` at ``level``.

    The form for callers that count over several code arrays at one level
    (the per-shard arrays of a static partition, the runs of a store) and
    hold no single linearization.
    """
    approx = HierarchicalRasterApproximation.from_cell_budget(
        region,
        frame,
        max_cells=cells_per_polygon,
        conservative=conservative,
        max_level=level,
    )
    return approx.query_ranges(level)


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
