"""Exact geometric predicates.

These are the "expensive CPU-based refinements" of the classic filter-and-
refine pipeline (paper §1).  The approximate pipeline proposed by the paper
avoids calling them at query time; they remain essential here for

* building exact baselines (R*-tree / SI joins, GPU baseline),
* computing ground truth in tests and accuracy reports, and
* constructing raster approximations (cell/polygon relation tests).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.arrays import expand_slices
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.polygon import MultiPolygon, Polygon, Ring
from repro.geometry.segment import segments_intersect
from repro.geometry.slab import SlabTable, ring_segment_array

__all__ = [
    "CellRelation",
    "point_in_polygon",
    "points_in_polygon",
    "point_in_region",
    "points_in_region",
    "RegionSlabs",
    "box_intersects_polygon",
    "box_within_polygon",
    "classify_box",
    "polygons_intersect",
]


class CellRelation(Enum):
    """Relation of a grid cell (a box) to a polygon.

    ``INSIDE`` cells are fully contained, ``BOUNDARY`` cells straddle the
    polygon boundary, and ``OUTSIDE`` cells are disjoint from the polygon.
    Raster approximations are built from this classification: interior cells
    never contribute to the approximation error, boundary cells do.
    """

    OUTSIDE = 0
    BOUNDARY = 1
    INSIDE = 2


def point_in_polygon(x: float, y: float, polygon: Polygon) -> bool:
    """Even-odd (ray casting) point-in-polygon test for a single point.

    Points exactly on the boundary are treated as inside, which matches the
    conservative convention used by the raster approximations.
    """
    if not polygon.bounds().contains_xy(x, y):
        return False
    inside = _ring_contains(polygon.exterior.coords, x, y)
    if not inside:
        return False
    for hole in polygon.holes:
        if _ring_contains_strict(hole.coords, x, y):
            return False
    return True


def _ring_contains(coords: np.ndarray, x: float, y: float) -> bool:
    """Even-odd test against one ring; boundary points count as inside."""
    n = coords.shape[0]
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = coords[i]
        xj, yj = coords[j]
        # Boundary check: point on the segment (i, j).
        if _point_on_edge(x, y, xi, yi, xj, yj):
            return True
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _ring_contains_strict(coords: np.ndarray, x: float, y: float) -> bool:
    """Even-odd test where boundary points count as *outside* the ring.

    Used for holes: a point on a hole's boundary belongs to the polygon.
    """
    n = coords.shape[0]
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = coords[i]
        xj, yj = coords[j]
        if _point_on_edge(x, y, xi, yi, xj, yj):
            return False
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _point_on_edge(
    x: float, y: float, x1: float, y1: float, x2: float, y2: float, eps: float = 1e-9
) -> bool:
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    if abs(cross) > eps * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
        return False
    if min(x1, x2) - eps <= x <= max(x1, x2) + eps and min(y1, y2) - eps <= y <= max(y1, y2) + eps:
        return True
    return False


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, polygon: Polygon) -> np.ndarray:
    """Vectorised even-odd point-in-polygon test.

    Returns a boolean mask over the input points.  The test first filters by
    the polygon's bounding box (which also drops NaN and infinite points) and
    then runs the crossing-number test ring by ring on the rings' cached
    y-slab edge tables (:class:`~repro.geometry.slab.SlabTable`), so a
    candidate point only meets the few edges whose y-range can straddle it
    instead of every vertex.  Verdicts equal :func:`point_in_polygon` bit for
    bit.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    result = np.zeros(xs.shape[0], dtype=bool)
    box = polygon.bounds()
    candidate = box.contains_points(xs, ys)
    if not candidate.any():
        return result
    cx = xs[candidate]
    cy = ys[candidate]
    inside = _ring_contains_vec(polygon.exterior, cx, cy)
    for hole in polygon.holes:
        if inside.any():
            in_hole = _ring_contains_vec(hole, cx, cy, boundary_inside=False)
            inside &= ~in_hole
    result[np.flatnonzero(candidate)] = inside
    return result


def _ring_contains_vec(
    ring: Ring, xs: np.ndarray, ys: np.ndarray, boundary_inside: bool = True
) -> np.ndarray:
    """Vectorised crossing-number test of many finite points against one ring."""
    odd, on_boundary = ring.slab_table().crossings(xs, ys)
    if boundary_inside:
        return odd | on_boundary
    return odd & ~on_boundary


def point_in_region(x: float, y: float, region: Polygon | MultiPolygon) -> bool:
    """Point containment against a polygon or multipolygon."""
    if isinstance(region, MultiPolygon):
        return any(point_in_polygon(x, y, part) for part in region)
    return point_in_polygon(x, y, region)


def points_in_region(
    xs: np.ndarray, ys: np.ndarray, region: Polygon | MultiPolygon
) -> np.ndarray:
    """Vectorised :func:`point_in_region` over coordinate arrays.

    A multipolygon is the OR of :func:`points_in_polygon` over its parts.
    To test points against *many* regions at once (each point against its
    own), build a :class:`RegionSlabs` instead of calling this per region.
    """
    if isinstance(region, MultiPolygon):
        xs = np.asarray(xs, dtype=np.float64)
        mask = np.zeros(xs.shape[0], dtype=bool)
        for part in region:
            mask |= points_in_polygon(xs, ys, part)
        return mask
    return points_in_polygon(xs, ys, region)


class RegionSlabs:
    """Segmented :func:`points_in_region`: many regions, one edge table.

    Holds one :class:`~repro.geometry.slab.SlabTable` over every ring of a
    polygon suite, tagged by part and region, so :meth:`contains` can test an
    array of points *each against its own region* in one pass — the batched
    centre test of the level-synchronous raster builder, which would
    otherwise call :func:`points_in_region` once per region per level.

    Attributes
    ----------
    segments:
        ``(m, 4)`` boundary segments ``(x1, y1, x2, y2)`` of the whole suite:
        regions in order, within a region its parts in order, within a part
        the exterior then the holes.
    region_segment_offsets:
        ``segments[offsets[r]:offsets[r + 1]]`` are region ``r``'s.
    """

    __slots__ = (
        "segments", "region_segment_offsets", "_table",
        "_region_part0", "_part_ring0", "_part_bounds",
    )

    def __init__(self, regions: "list[Polygon | MultiPolygon]") -> None:
        rings: list[Ring] = []
        part_ring0 = [0]
        region_part0 = [0]
        part_bounds = []
        for region in regions:
            for part in region.polygons if isinstance(region, MultiPolygon) else (region,):
                rings.extend(part.rings())
                part_ring0.append(len(rings))
                box = part.bounds()
                part_bounds.append((box.min_x, box.min_y, box.max_x, box.max_y))
            region_part0.append(len(part_bounds))
        ring_sizes = np.array([len(ring) for ring in rings], dtype=np.int64)
        self.segments = np.concatenate([ring_segment_array(ring.coords) for ring in rings])
        self._table = SlabTable(self.segments, ring_sizes)
        self._part_ring0 = np.asarray(part_ring0, dtype=np.int64)
        self._region_part0 = np.asarray(region_part0, dtype=np.int64)
        self._part_bounds = np.asarray(part_bounds, dtype=np.float64).reshape(-1, 4)
        ring_segment0 = np.concatenate(([0], np.cumsum(ring_sizes)))
        self.region_segment_offsets = ring_segment0[self._part_ring0[self._region_part0]]

    def contains(self, region_ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``points_in_region(xs[k], ys[k], regions[region_ids[k]])`` for every ``k``.

        Same verdicts as the per-region calls, bit for bit: a point meets the
        parts of its region whose bounding box holds it, is inside a part if
        it is inside or on the exterior and not strictly inside a hole, and
        inside the region if inside any part.
        """
        result = np.zeros(xs.shape[0], dtype=bool)
        # (point, part) pairs that pass the part's bounding box.
        part0 = self._region_part0[region_ids]
        parts = self._region_part0[region_ids + 1] - part0
        pair_point = np.repeat(np.arange(xs.shape[0]), parts)
        pair_part = expand_slices(part0, parts)
        px, py = xs[pair_point], ys[pair_point]
        box = self._part_bounds[pair_part]
        keep = (px >= box[:, 0]) & (px <= box[:, 2]) & (py >= box[:, 1]) & (py <= box[:, 3])
        pair_point, pair_part, px, py = pair_point[keep], pair_part[keep], px[keep], py[keep]
        # (pair, ring) triples: each surviving pair meets every ring of its part.
        ring0 = self._part_ring0[pair_part]
        rings = self._part_ring0[pair_part + 1] - ring0
        triple_pair = np.repeat(np.arange(pair_part.shape[0]), rings)
        triple_ring = expand_slices(ring0, rings)
        odd, on_boundary = self._table.crossings(px[triple_pair], py[triple_pair], triple_ring)
        # A ring's boundary belongs to the part; off it, the point must be
        # inside the exterior (odd) and outside every hole (even).
        exterior = triple_ring == ring0[triple_pair]
        fails = ~on_boundary & (odd != exterior)
        failed = np.bincount(triple_pair[fails], minlength=pair_part.shape[0])
        result[pair_point[failed == 0]] = True
        return result


def box_intersects_polygon(box: BoundingBox, polygon: Polygon) -> bool:
    """True if ``box`` and ``polygon`` share at least one point."""
    if not box.intersects(polygon.bounds()):
        return False
    # Any polygon vertex inside the box?
    coords = polygon.exterior.coords
    if (
        ((coords[:, 0] >= box.min_x) & (coords[:, 0] <= box.max_x)
         & (coords[:, 1] >= box.min_y) & (coords[:, 1] <= box.max_y)).any()
    ):
        return True
    # Any box corner inside the polygon?
    for corner in box.corners():
        if point_in_polygon(corner.x, corner.y, polygon):
            return True
    # Any boundary segments crossing?
    box_corners = box.corners()
    box_edges = [
        (box_corners[i], box_corners[(i + 1) % 4]) for i in range(4)
    ]
    for seg in polygon.boundary_segments():
        seg_box = seg.bounds()
        if not box.intersects(seg_box):
            continue
        for a, b in box_edges:
            if segments_intersect(seg.start, seg.end, a, b):
                return True
    return False


def box_within_polygon(box: BoundingBox, polygon: Polygon) -> bool:
    """True if ``box`` is fully contained in ``polygon``.

    The test verifies that every box corner is inside the polygon and that no
    polygon boundary segment crosses the box (which would carve a piece of the
    box out of the polygon, e.g. a hole or a concave notch).
    """
    if not polygon.bounds().contains_box(box):
        return False
    for corner in box.corners():
        if not point_in_polygon(corner.x, corner.y, polygon):
            return False
    box_corners = box.corners()
    box_edges = [(box_corners[i], box_corners[(i + 1) % 4]) for i in range(4)]
    for seg in polygon.boundary_segments():
        if not box.intersects(seg.bounds()):
            continue
        for a, b in box_edges:
            if segments_intersect(seg.start, seg.end, a, b):
                return False
        # A segment entirely inside the box also breaks containment.
        if box.contains_point(seg.start) and box.contains_point(seg.end):
            return False
    return True


def classify_box(box: BoundingBox, polygon: Polygon) -> CellRelation:
    """Classify a cell as INSIDE / BOUNDARY / OUTSIDE relative to a polygon."""
    if not box.intersects(polygon.bounds()):
        return CellRelation.OUTSIDE
    if box_within_polygon(box, polygon):
        return CellRelation.INSIDE
    if box_intersects_polygon(box, polygon):
        return CellRelation.BOUNDARY
    return CellRelation.OUTSIDE


def polygons_intersect(a: Polygon, b: Polygon) -> bool:
    """True if two polygons share at least one point."""
    if not a.bounds().intersects(b.bounds()):
        return False
    # Vertex containment either way.
    if points_in_polygon(b.exterior.coords[:, 0], b.exterior.coords[:, 1], a).any():
        return True
    if points_in_polygon(a.exterior.coords[:, 0], a.exterior.coords[:, 1], b).any():
        return True
    # Edge crossings.
    b_segments = list(b.boundary_segments())
    for seg_a in a.boundary_segments():
        box_a = seg_a.bounds()
        for seg_b in b_segments:
            if not box_a.intersects(seg_b.bounds()):
                continue
            if seg_a.intersects(seg_b):
                return True
    return False
