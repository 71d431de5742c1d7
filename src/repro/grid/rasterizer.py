"""Software rasterizer.

The paper relies on the GPU rasterization pipeline to turn geometries into
fine-grained grid approximations "at interactive speeds".  This module is the
CPU substitute: it converts polygons and point sets into masks / histograms on
a :class:`~repro.grid.uniform_grid.UniformGrid`, with the same semantics a
GPU rasterizer provides plus a *conservative* mode.

Three rasterization rules are supported for polygons:

* ``center`` — a cell belongs to the polygon iff its centre is inside.  This
  is the standard GPU sample-at-pixel-centre rule and yields a
  *non-conservative* approximation (both false positives and false negatives
  possible, each within one cell of the boundary).
* ``conservative`` — every cell that overlaps the polygon at all is included,
  so only false positives are possible (paper §2.2).
* ``interior`` — only cells fully inside the polygon are included, so only
  false negatives are possible; the complement of the conservative boundary.

The returned :class:`RasterizedPolygon` exposes interior and boundary masks
separately because the result-range estimation of §6 needs the partial
aggregate over boundary cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import expand_slices
from repro.errors import ApproximationError
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.geometry.slab import ring_segment_array
from repro.grid.uniform_grid import UniformGrid

__all__ = [
    "RasterizedPolygon",
    "rasterize_polygon",
    "rasterize_points",
    "FillRule",
]

FillRule = str  # one of "center", "conservative", "interior"
_VALID_RULES = ("center", "conservative", "interior")


@dataclass(frozen=True, slots=True)
class RasterizedPolygon:
    """Raster masks of one region on a uniform grid.

    Attributes
    ----------
    grid:
        The grid frame the masks refer to.
    interior:
        Boolean mask, shape ``(ny, nx)``; cells fully inside the region.
    boundary:
        Boolean mask of cells crossed by the region boundary.
    """

    grid: UniformGrid
    interior: np.ndarray
    boundary: np.ndarray

    def coverage(self, rule: FillRule = "conservative", center_inside: np.ndarray | None = None) -> np.ndarray:
        """Mask of cells considered part of the region under ``rule``.

        For the ``center`` rule the caller must pass the centre-containment
        mask (it is not derivable from interior/boundary alone).
        """
        if rule == "conservative":
            return self.interior | self.boundary
        if rule == "interior":
            return self.interior
        if rule == "center":
            if center_inside is None:
                raise ApproximationError("center rule requires the centre-containment mask")
            return center_inside
        raise ApproximationError(f"unknown fill rule {rule!r}")

    @property
    def num_interior_cells(self) -> int:
        return int(self.interior.sum())

    @property
    def num_boundary_cells(self) -> int:
        return int(self.boundary.sum())


def _mark_segment_cells(
    grid: UniformGrid, mask: np.ndarray, x0: float, y0: float, x1: float, y1: float
) -> None:
    """Mark every cell whose interior the segment ``(x0, y0)-(x1, y1)`` crosses.

    The segment's crossings with the grid lines are computed exactly; the
    midpoint of every stretch between consecutive crossings identifies one
    crossed cell.  This supercover property is what makes *conservative*
    raster approximations truly conservative: no cell the boundary passes
    through can be missed, so false negatives are impossible (§2.2).

    This is the one-segment-per-call oracle; :func:`rasterize_polygon` runs
    the batched :func:`_mark_segments_cells` kernel, which marks the
    identical cell set for all segments in one pass.
    """
    ts = [0.0, 1.0]
    dx = x1 - x0
    dy = y1 - y0
    if dx != 0.0:
        lo, hi = (x0, x1) if x0 < x1 else (x1, x0)
        first = int(np.ceil((lo - grid.extent.min_x) / grid.cell_width))
        last = int(np.floor((hi - grid.extent.min_x) / grid.cell_width))
        if last >= first:
            lines = grid.extent.min_x + np.arange(first, last + 1) * grid.cell_width
            crossings = (lines - x0) / dx
            ts.extend(crossings[(crossings > 0.0) & (crossings < 1.0)].tolist())
    if dy != 0.0:
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        first = int(np.ceil((lo - grid.extent.min_y) / grid.cell_height))
        last = int(np.floor((hi - grid.extent.min_y) / grid.cell_height))
        if last >= first:
            lines = grid.extent.min_y + np.arange(first, last + 1) * grid.cell_height
            crossings = (lines - y0) / dy
            ts.extend(crossings[(crossings > 0.0) & (crossings < 1.0)].tolist())
    t = np.unique(np.asarray(ts, dtype=np.float64))
    mids = (t[:-1] + t[1:]) / 2.0 if t.shape[0] > 1 else np.array([0.5])
    xs = x0 + mids * dx
    ys = y0 + mids * dy
    # Only mark cells whose midpoint actually lies inside the grid extent.
    inside = grid.extent.contains_points(xs, ys)
    if inside.any():
        ix, iy = grid.points_to_cells(xs[inside], ys[inside])
        mask[iy, ix] = True


def _boundary_segment_array(region: Polygon | MultiPolygon) -> np.ndarray:
    """Boundary segments of a region as an ``(m, 4)`` array of ``(x0, y0, x1, y1)``."""
    parts = region.polygons if isinstance(region, MultiPolygon) else (region,)
    return np.concatenate(
        [ring_segment_array(ring.coords) for part in parts for ring in part.rings()]
    )


def _grid_line_crossings(
    origin: float, step: float, c0: np.ndarray, c1: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment parameters of the crossings with one family of grid lines.

    ``c0``/``c1`` are the segments' start/end coordinates along the axis
    perpendicular to the lines and ``delta = c1 - c0``.  Returns parallel
    ``(segment index, t)`` arrays of the crossings with ``0 < t < 1``.  The
    line coordinates and the division are evaluated with exactly the
    arithmetic of the scalar :func:`_mark_segment_cells`, so the batched
    kernel reproduces its floats bit for bit.
    """
    lo = np.minimum(c0, c1)
    hi = np.maximum(c0, c1)
    first = np.ceil((lo - origin) / step).astype(np.int64)
    last = np.floor((hi - origin) / step).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    # Segments parallel to this line family never cross it.
    counts[delta == 0.0] = 0
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(np.float64)
    seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    line_index = expand_slices(first, counts)
    lines = origin + line_index * step
    t = (lines - c0[seg]) / delta[seg]
    keep = (t > 0.0) & (t < 1.0)
    return seg[keep], t[keep]


def _mark_segments_cells(grid: UniformGrid, mask: np.ndarray, segs: np.ndarray) -> None:
    """Batched :func:`_mark_segment_cells` over an ``(m, 4)`` segment array.

    The last per-segment Python loop of the build layer: every segment's
    grid-line crossing parameters are generated in one global ``(segment,
    t)`` pair list, sorted and deduplicated per segment, and the midpoints of
    consecutive stretches identify the crossed cells — the same supercover
    construction as the scalar oracle, evaluated with identical float
    arithmetic, so the marked cell set is bit-identical.
    """
    m = segs.shape[0]
    if m == 0:
        return
    x0, y0, x1, y1 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx = x1 - x0
    dy = y1 - y0

    # Endpoint parameters 0 and 1 for every segment, plus the vertical and
    # horizontal grid-line crossings in (0, 1).  The true endpoints are
    # passed through (not reconstructed as c0 + delta, which can differ by
    # an ulp), keeping the lo/hi arithmetic identical to the scalar oracle.
    seg_ids = [np.repeat(np.arange(m, dtype=np.int64), 2)]
    ts = [np.tile(np.array([0.0, 1.0]), m)]
    for origin, step, c0, c1, delta in (
        (grid.extent.min_x, grid.cell_width, x0, x1, dx),
        (grid.extent.min_y, grid.cell_height, y0, y1, dy),
    ):
        seg, t = _grid_line_crossings(origin, step, c0, c1, delta)
        seg_ids.append(seg)
        ts.append(t)
    seg = np.concatenate(seg_ids)
    t = np.concatenate(ts)

    # Sort by (segment, t) and drop duplicate parameters within a segment —
    # the batched twin of the scalar kernel's np.unique over one segment's
    # crossing list.
    order = np.lexsort((t, seg))
    seg = seg[order]
    t = t[order]
    uniq = np.ones(t.shape[0], dtype=bool)
    uniq[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg = seg[uniq]
    t = t[uniq]

    # Midpoints of consecutive stretches within each segment.  Every segment
    # keeps at least t = 0 and t = 1, so each has at least one stretch.
    same = seg[1:] == seg[:-1]
    mid_seg = seg[:-1][same]
    mids = (t[:-1][same] + t[1:][same]) / 2.0

    xs = x0[mid_seg] + mids * dx[mid_seg]
    ys = y0[mid_seg] + mids * dy[mid_seg]
    # Only mark cells whose midpoint actually lies inside the grid extent.
    inside = grid.extent.contains_points(xs, ys)
    if inside.any():
        ix, iy = grid.points_to_cells(xs[inside], ys[inside])
        mask[iy, ix] = True


def _polygon_edges(poly: Polygon) -> np.ndarray:
    """All ring edges of a polygon as an ``(m, 4)`` array of ``(x1, y1, x2, y2)``."""
    rows = []
    for ring in poly.rings():
        coords = ring.coords
        nxt = np.roll(coords, -1, axis=0)
        rows.append(np.column_stack([coords, nxt]))
    return np.vstack(rows)


def _scanline_fill_polygon(grid: UniformGrid, poly: Polygon, mask: np.ndarray) -> None:
    """Even-odd scanline fill of one polygon at cell-centre sampling.

    The crossings of every polygon edge (exterior and holes) with every row's
    centre line are computed in one batch over (edge, row) pairs, sorted per
    row, paired even-odd and written as column spans through a difference
    plane — the classic active-edge fill, fully vectorised.  Counting hole
    edges together with exterior edges makes the even-odd rule carve holes
    out automatically.  The cost is ``O(crossings log crossings + window
    area)`` with numpy constants, which is what makes canvas-resolution
    rasterization feasible for the Bounded Raster Join (the canvas build
    phase of one tile is exactly this fill run per polygon).
    """
    box = poly.bounds().intersection(grid.extent)
    if box is None:
        return
    edges = _polygon_edges(poly)
    x1 = edges[:, 0]
    y1 = edges[:, 1]
    x2 = edges[:, 2]
    y2 = edges[:, 3]
    _, iy0, _, iy1 = grid.cells_overlapping(box)
    centers_x0 = grid.extent.min_x + 0.5 * grid.cell_width

    # Candidate row range per edge (generous by construction); the exact
    # centre-line crossing condition is re-checked on the expanded pairs, so
    # the fill matches the per-row formulation bit for bit.
    y_lo = np.minimum(y1, y2)
    y_hi = np.maximum(y1, y2)
    row_from = np.clip(
        np.floor((y_lo - grid.extent.min_y) / grid.cell_height - 0.5).astype(np.int64),
        iy0,
        iy1 + 1,
    )
    row_to = np.clip(
        np.ceil((y_hi - grid.extent.min_y) / grid.cell_height + 0.5).astype(np.int64),
        iy0 - 1,
        iy1,
    )
    counts = np.maximum(row_to - row_from + 1, 0)
    if int(counts.sum()) == 0:
        return
    pair_edge = np.repeat(np.arange(edges.shape[0]), counts)
    pair_row = expand_slices(row_from, counts)

    yc = grid.extent.min_y + (pair_row + 0.5) * grid.cell_height
    ya = y1[pair_edge]
    yb = y2[pair_edge]
    crossing = (ya > yc) != (yb > yc)
    if not crossing.any():
        return
    pair_row = pair_row[crossing]
    e = pair_edge[crossing]
    yc = yc[crossing]
    x_cross = x1[e] + (yc - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])

    # Sort crossings by (row, x) and pair them even-odd within each row.
    order = np.lexsort((x_cross, pair_row))
    rows_sorted = pair_row[order]
    x_sorted = x_cross[order]
    row_start = np.ones(rows_sorted.shape[0], dtype=bool)
    row_start[1:] = rows_sorted[1:] != rows_sorted[:-1]
    rank = np.arange(rows_sorted.shape[0]) - np.repeat(
        np.flatnonzero(row_start), np.diff(np.append(np.flatnonzero(row_start), rows_sorted.shape[0]))
    )
    is_left = (rank % 2 == 0) & np.append(~row_start[1:], False)
    lefts = x_sorted[is_left]
    rights = x_sorted[np.flatnonzero(is_left) + 1]
    span_rows = rows_sorted[is_left]

    # Columns whose centre lies in (left, right), via a difference plane.
    i_from = np.maximum(np.ceil((lefts - centers_x0) / grid.cell_width).astype(np.int64), 0)
    i_to = np.minimum(np.floor((rights - centers_x0) / grid.cell_width).astype(np.int64), grid.nx - 1)
    valid = i_to >= i_from
    if not valid.any():
        return
    i_from = i_from[valid]
    i_to = i_to[valid]
    span_rows = span_rows[valid]
    # Difference plane over the polygon's row window only.
    delta = np.zeros((iy1 - iy0 + 1, grid.nx + 1), dtype=np.int32)
    np.add.at(delta, (span_rows - iy0, i_from), 1)
    np.add.at(delta, (span_rows - iy0, i_to + 1), -1)
    mask[iy0 : iy1 + 1] |= np.cumsum(delta[:, :-1], axis=1) > 0


def _center_fill(grid: UniformGrid, region: Polygon | MultiPolygon) -> np.ndarray:
    """Centre-containment mask over the cells overlapping the region bounds."""
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    box = region.bounds().intersection(grid.extent)
    if box is None:
        return mask
    polygons = region.polygons if isinstance(region, MultiPolygon) else (region,)
    for poly in polygons:
        _scanline_fill_polygon(grid, poly, mask)
    return mask


def rasterize_polygon(region: Polygon | MultiPolygon, grid: UniformGrid) -> tuple[RasterizedPolygon, np.ndarray]:
    """Rasterize a region onto ``grid``.

    Returns
    -------
    (RasterizedPolygon, numpy.ndarray)
        The raster masks plus the centre-containment mask (used for the
        ``center`` fill rule and by the accuracy analysis).
    """
    center_inside = _center_fill(grid, region)
    boundary = np.zeros((grid.ny, grid.nx), dtype=bool)
    segs = _boundary_segment_array(region)
    if segs.shape[0]:
        # Bounding-box prefilter (vectorised twin of the old per-segment
        # extent check), then one batched supercover pass over the survivors.
        overlaps = ~(
            (np.minimum(segs[:, 0], segs[:, 2]) > grid.extent.max_x)
            | (np.maximum(segs[:, 0], segs[:, 2]) < grid.extent.min_x)
            | (np.minimum(segs[:, 1], segs[:, 3]) > grid.extent.max_y)
            | (np.maximum(segs[:, 1], segs[:, 3]) < grid.extent.min_y)
        )
        _mark_segments_cells(grid, boundary, segs[overlaps])
    interior = center_inside & ~boundary
    return RasterizedPolygon(grid=grid, interior=interior, boundary=boundary), center_inside


def rasterize_points(
    xs: np.ndarray,
    ys: np.ndarray,
    grid: UniformGrid,
    weights: np.ndarray | None = None,
    clip: bool = False,
) -> np.ndarray:
    """Accumulate points into a per-cell aggregate plane.

    This mirrors the paper's "blend all the points into a single canvas that
    maintains partial aggregates" step of the Bounded Raster Join: each cell
    of the returned ``(ny, nx)`` array holds the count (or the sum of
    ``weights``) of the points that fall into it.

    Points outside the grid extent are clamped to the border cells by default
    (matching the vectorised cell transform); pass ``clip=True`` to drop them
    instead, which is what a viewport-limited visualization wants.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != xs.shape[0]:
            raise ApproximationError("weights must match the number of points")
    if clip:
        keep = grid.extent.contains_points(xs, ys)
        xs = xs[keep]
        ys = ys[keep]
        if weights is not None:
            weights = weights[keep]
    ix, iy = grid.points_to_cells(xs, ys)
    flat = grid.flatten(ix, iy)
    plane = np.bincount(flat, weights=weights, minlength=grid.num_cells)
    return plane.reshape(grid.ny, grid.nx)


def boundary_cell_boxes(raster: RasterizedPolygon) -> list[BoundingBox]:
    """World-space boxes of the boundary cells of a rasterized region."""
    ys, xs = np.nonzero(raster.boundary)
    return [raster.grid.cell_box(int(ix), int(iy)) for ix, iy in zip(xs, ys)]
