"""Polygons and multipolygons.

A :class:`Polygon` consists of an exterior ring and zero or more interior
rings (holes).  Rings are stored as numpy coordinate arrays without the
closing vertex repeated; the exterior is normalised to counter-clockwise
orientation and holes to clockwise orientation so that downstream algorithms
(signed area, rasterization) can rely on it.

:class:`MultiPolygon` models regions that consist of several disjoint parts —
the paper's NYC neighborhood regions are multipolygons, which matters for the
Bounded Raster Join experiment (Figure 7).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.segment import Segment
from repro.geometry.slab import SlabTable, ring_segment_array

__all__ = ["Ring", "Polygon", "MultiPolygon"]


def _as_ring_array(coords: Iterable[tuple[float, float]] | np.ndarray) -> np.ndarray:
    arr = np.asarray(list(coords) if not isinstance(coords, np.ndarray) else coords, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError("a ring must be an (n, 2) coordinate sequence")
    if not np.isfinite(arr).all():
        raise GeometryError("ring coordinates must be finite")
    # Drop an explicitly repeated closing vertex.
    if arr.shape[0] >= 2 and np.allclose(arr[0], arr[-1]):
        arr = arr[:-1]
    if arr.shape[0] < 3:
        raise GeometryError("a ring needs at least three distinct vertices")
    return arr


def _signed_area(arr: np.ndarray) -> float:
    x = arr[:, 0]
    y = arr[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class Ring:
    """A closed ring of vertices (the closing vertex is implicit)."""

    __slots__ = ("coords", "_slabs")

    def __init__(self, coords: Iterable[tuple[float, float]] | np.ndarray) -> None:
        self.coords = _as_ring_array(coords)
        self._slabs: SlabTable | None = None

    def __getstate__(self) -> dict:
        # The edge table is derived state: polygons shipped to pool workers
        # carry their coordinates only.
        return {"coords": self.coords}

    def __setstate__(self, state: dict) -> None:
        self.coords = state["coords"]
        self._slabs = None

    def slab_table(self) -> SlabTable:
        """The ring's y-slab edge table for containment tests (cached)."""
        if self._slabs is None:
            self._slabs = SlabTable(ring_segment_array(self.coords), [len(self)])
        return self._slabs

    def __len__(self) -> int:
        return int(self.coords.shape[0])

    @property
    def signed_area(self) -> float:
        """Signed area (positive for counter-clockwise orientation)."""
        return _signed_area(self.coords)

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0

    def reversed(self) -> "Ring":
        """Ring with the opposite orientation."""
        return Ring(self.coords[::-1].copy())

    def oriented(self, ccw: bool) -> "Ring":
        """Ring with the requested orientation (no copy if already correct)."""
        if self.is_ccw == ccw:
            return self
        return self.reversed()

    def segments(self) -> Iterator[Segment]:
        """Iterate over boundary segments, including the closing segment."""
        n = len(self)
        for i in range(n):
            a = self.coords[i]
            b = self.coords[(i + 1) % n]
            yield Segment(Point(float(a[0]), float(a[1])), Point(float(b[0]), float(b[1])))

    def points(self) -> Iterator[Point]:
        """Iterate over the vertices."""
        for x, y in self.coords:
            yield Point(float(x), float(y))

    def bounds(self) -> BoundingBox:
        return BoundingBox.from_points(self.coords[:, 0], self.coords[:, 1])

    def perimeter(self) -> float:
        diffs = np.diff(np.vstack([self.coords, self.coords[:1]]), axis=0)
        return float(np.sum(np.hypot(diffs[:, 0], diffs[:, 1])))


class Polygon:
    """A polygon with an exterior ring and optional holes.

    Parameters
    ----------
    exterior:
        Coordinate sequence of the outer boundary.
    holes:
        Optional coordinate sequences of interior boundaries.

    Notes
    -----
    The exterior is normalised to counter-clockwise orientation, holes to
    clockwise orientation.  Self-intersection is not checked — the synthetic
    generators only produce simple polygons, matching the paper's data.
    """

    __slots__ = ("exterior", "holes", "_bounds")

    def __init__(
        self,
        exterior: Iterable[tuple[float, float]] | np.ndarray | Ring,
        holes: Sequence[Iterable[tuple[float, float]] | np.ndarray | Ring] = (),
    ) -> None:
        ext = exterior if isinstance(exterior, Ring) else Ring(exterior)
        self.exterior = ext.oriented(ccw=True)
        normalised_holes = []
        for hole in holes:
            ring = hole if isinstance(hole, Ring) else Ring(hole)
            normalised_holes.append(ring.oriented(ccw=False))
        self.holes: tuple[Ring, ...] = tuple(normalised_holes)
        self._bounds: BoundingBox | None = None

    # ------------------------------------------------------------------ #
    # basic descriptors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Total vertex count across the exterior and all holes.

        This is the "polygon complexity" measure used throughout the paper
        (Boroughs: ~663, Neighborhoods: ~30.6, Census: ~13.6 on average).
        """
        return len(self.exterior) + sum(len(h) for h in self.holes)

    @property
    def area(self) -> float:
        """Polygon area (exterior area minus hole areas)."""
        return self.exterior.area - sum(h.area for h in self.holes)

    def perimeter(self) -> float:
        """Total boundary length including holes."""
        return self.exterior.perimeter() + sum(h.perimeter() for h in self.holes)

    def bounds(self) -> BoundingBox:
        """Axis-aligned bounding box (cached)."""
        if self._bounds is None:
            self._bounds = self.exterior.bounds()
        return self._bounds

    def rings(self) -> Iterator[Ring]:
        """Iterate over the exterior ring followed by the holes."""
        yield self.exterior
        yield from self.holes

    def boundary_segments(self) -> Iterator[Segment]:
        """Iterate over every boundary segment (exterior and holes)."""
        for ring in self.rings():
            yield from ring.segments()

    def centroid(self) -> Point:
        """Area-weighted centroid of the exterior ring."""
        coords = self.exterior.coords
        x = coords[:, 0]
        y = coords[:, 1]
        x1 = np.roll(x, -1)
        y1 = np.roll(y, -1)
        cross = x * y1 - x1 * y
        area6 = 3.0 * np.sum(cross)
        if abs(area6) < 1e-12:
            return Point(float(x.mean()), float(y.mean()))
        cx = float(np.sum((x + x1) * cross) / area6)
        cy = float(np.sum((y + y1) * cross) / area6)
        return Point(cx, cy)

    # ------------------------------------------------------------------ #
    # containment (exact refinement test)
    # ------------------------------------------------------------------ #
    def contains_point(self, p: Point) -> bool:
        """Exact point-in-polygon test (even-odd rule, boundary counts as in).

        This is the CPU-intensive refinement operation that the paper's
        approximate pipeline eliminates; its cost is linear in the number of
        polygon vertices.
        """
        from repro.geometry.predicates import point_in_polygon

        return point_in_polygon(p.x, p.y, self)

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised exact point-in-polygon test for many points."""
        from repro.geometry.predicates import points_in_polygon

        return points_in_polygon(xs, ys, self)

    def translated(self, dx: float, dy: float) -> "Polygon":
        """Polygon shifted by ``(dx, dy)``."""
        ext = self.exterior.coords + np.array([dx, dy])
        holes = [h.coords + np.array([dx, dy]) for h in self.holes]
        return Polygon(ext, holes)

    def scaled(self, factor: float, origin: Point | None = None) -> "Polygon":
        """Polygon scaled by ``factor`` about ``origin`` (default: centroid)."""
        if factor <= 0:
            raise GeometryError("scale factor must be positive")
        o = origin or self.centroid()
        base = np.array([o.x, o.y])
        ext = (self.exterior.coords - base) * factor + base
        holes = [(h.coords - base) * factor + base for h in self.holes]
        return Polygon(ext, holes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Polygon(vertices={self.num_vertices}, holes={len(self.holes)})"


class MultiPolygon:
    """A collection of polygons treated as a single region."""

    __slots__ = ("polygons", "_bounds")

    def __init__(self, polygons: Sequence[Polygon]) -> None:
        if not polygons:
            raise GeometryError("a multipolygon needs at least one part")
        self.polygons: tuple[Polygon, ...] = tuple(polygons)
        self._bounds: BoundingBox | None = None

    def __len__(self) -> int:
        return len(self.polygons)

    def __iter__(self) -> Iterator[Polygon]:
        return iter(self.polygons)

    @property
    def num_vertices(self) -> int:
        return sum(p.num_vertices for p in self.polygons)

    @property
    def area(self) -> float:
        return sum(p.area for p in self.polygons)

    def bounds(self) -> BoundingBox:
        if self._bounds is None:
            box = self.polygons[0].bounds()
            for poly in self.polygons[1:]:
                box = box.union(poly.bounds())
            self._bounds = box
        return self._bounds

    def boundary_segments(self) -> Iterator[Segment]:
        for poly in self.polygons:
            yield from poly.boundary_segments()

    def contains_point(self, p: Point) -> bool:
        """True if any part contains ``p``."""
        return any(poly.contains_point(p) for poly in self.polygons)

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised containment over all parts."""
        mask = np.zeros(len(xs), dtype=bool)
        for poly in self.polygons:
            mask |= poly.contains_points(xs, ys)
        return mask

    def centroid(self) -> Point:
        """Area-weighted centroid of the parts."""
        total = self.area
        if total <= 0:
            xs = [p.centroid().x for p in self.polygons]
            ys = [p.centroid().y for p in self.polygons]
            return Point(float(np.mean(xs)), float(np.mean(ys)))
        cx = sum(p.centroid().x * p.area for p in self.polygons) / total
        cy = sum(p.centroid().y * p.area for p in self.polygons) / total
        return Point(cx, cy)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MultiPolygon(parts={len(self)}, vertices={self.num_vertices})"
