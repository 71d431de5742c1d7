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

One fill mechanism serves every caller: :func:`scanline_spans` rasterizes a
whole polygon suite at cell-centre sampling in one batched pass over (edge,
row) pairs, each region on its own window grid, and returns the covered
cells as ``(region, row, col_from, col_to)`` spans.  The Bounded Raster Join
runs it once per canvas tile for the whole suite; :func:`rasterize_polygon`
runs it on one region with the grid itself as the window.
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
    "SuiteEdges",
    "rasterize_polygon",
    "rasterize_points",
    "scanline_spans",
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


@dataclass(frozen=True, slots=True)
class SuiteEdges:
    """Every ring edge of a polygon suite, tagged with its polygon part.

    A *part* is one :class:`Polygon` — a :class:`MultiPolygon` region has
    several.  Parts keep their bounds (``(P, 4)`` rows ``min_x, min_y, max_x,
    max_y``) and their region; edges are ``(x1, y1) -> (x2, y2)`` with the
    closing edge of each ring last, exactly the floats of
    :func:`~repro.geometry.slab.ring_segment_array`.
    """

    part_region: np.ndarray
    part_bounds: np.ndarray
    edge_part: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray

    @classmethod
    def of(cls, regions: list[Polygon | MultiPolygon]) -> SuiteEdges:
        part_region: list[int] = []
        part_bounds: list[tuple[float, float, float, float]] = []
        ring_part: list[int] = []
        coords: list[np.ndarray] = []
        for r, region in enumerate(regions):
            for part in region.polygons if isinstance(region, MultiPolygon) else (region,):
                ring_part.extend([len(part_region)] * (1 + len(part.holes)))
                coords.extend(ring.coords for ring in part.rings())
                part_region.append(r)
                part_bounds.append(part.bounds().as_tuple())
        sizes = np.array([ring.shape[0] for ring in coords], dtype=np.int64)
        xy = np.concatenate(coords) if coords else np.empty((0, 2), dtype=np.float64)
        # Each vertex's successor on its ring, wrapping at the ring's end.
        ends = np.cumsum(sizes)
        successor = np.arange(1, xy.shape[0] + 1)
        successor[ends - 1] = ends - sizes
        return cls(
            part_region=np.array(part_region, dtype=np.int64),
            part_bounds=np.array(part_bounds, dtype=np.float64).reshape(-1, 4),
            edge_part=np.repeat(np.array(ring_part, dtype=np.int64), sizes),
            x1=xy[:, 0],
            y1=xy[:, 1],
            x2=xy[successor, 0],
            y2=xy[successor, 1],
        )


def _group_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal key tuples (sorted input)."""
    start = np.ones(keys[0].shape[0], dtype=bool)
    start[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    return start


def scanline_spans(
    edges: SuiteEdges, windows: np.ndarray, shapes: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sample-at-centre spans of many regions, each on its own window grid.

    Region ``r`` (selected by ``active[r]``) is rasterized on the
    ``shapes[r] = (nx, ny)`` grid over the window box ``windows[r] = (min_x,
    min_y, max_x, max_y)``: a cell is covered iff its centre lies strictly
    between an even-odd pair of the crossings of the part's edges with the
    cell row's centre line.  Every (edge, row) pair of every part runs in one
    batch: crossings are sorted by ``(part, row, x)`` and paired even-odd per
    part — counting hole edges with exterior edges carves the holes — and
    the spans of a region's parts are unioned per row.  The window arithmetic
    (cell size ``width / nx``, centre rows, crossing abscissae, column
    rounding and the row clip to each part's bounds) is the float sequence of
    a single-window fill, so the coverage is bit-identical to filling each
    region alone.

    Returns ``(region, row, col_from, col_to)`` with inclusive window-local
    columns, sorted by ``(region, row, col_from)``; the spans of one
    ``(region, row)`` are disjoint and non-adjacent, so they list every
    covered cell once, in row-major order.
    """
    # The parts of active regions whose bounds meet their region's window.
    parts = np.flatnonzero(active[edges.part_region])
    win = windows[edges.part_region[parts]]
    b = edges.part_bounds[parts]
    meets = ~((win[:, 0] > b[:, 2]) | (win[:, 2] < b[:, 0]) | (win[:, 1] > b[:, 3]) | (win[:, 3] < b[:, 1]))
    parts = parts[meets]
    pr = edges.part_region[parts]
    win = win[meets]
    b = b[meets]
    nx = shapes[pr, 0]
    ny = shapes[pr, 1]
    cw = (win[:, 2] - win[:, 0]) / nx
    ch = (win[:, 3] - win[:, 1]) / ny
    # Rows of the cells the part's bounds (clipped to the window) overlap.
    iy0 = np.clip(np.floor((np.maximum(b[:, 1], win[:, 1]) - win[:, 1]) / ch), 0, ny - 1).astype(np.int64)
    iy1 = np.clip(np.floor((np.minimum(b[:, 3], win[:, 3]) - win[:, 1]) / ch), 0, ny - 1).astype(np.int64)

    # Candidate row range per edge (generous by construction); the exact
    # centre-line crossing condition is re-checked on the expanded pairs.
    local = np.full(edges.part_region.shape[0], -1, dtype=np.int64)
    local[parts] = np.arange(parts.shape[0])
    part = local[edges.edge_part]
    e = np.flatnonzero(part >= 0)
    part = part[e]
    x1, y1, x2, y2 = edges.x1[e], edges.y1[e], edges.x2[e], edges.y2[e]
    wy0 = win[part, 1]
    ech = ch[part]
    row_from = np.clip(
        np.floor((np.minimum(y1, y2) - wy0) / ech - 0.5).astype(np.int64),
        iy0[part],
        iy1[part] + 1,
    )
    row_to = np.clip(
        np.ceil((np.maximum(y1, y2) - wy0) / ech + 0.5).astype(np.int64),
        iy0[part] - 1,
        iy1[part],
    )
    counts = np.maximum(row_to - row_from + 1, 0)
    pair = np.repeat(np.arange(e.shape[0]), counts)
    row = expand_slices(row_from, counts)
    yc = wy0[pair] + (row + 0.5) * ech[pair]
    crossing = (y1[pair] > yc) != (y2[pair] > yc)
    pair = pair[crossing]
    row = row[crossing]
    yc = yc[crossing]
    x_cross = x1[pair] + (yc - y1[pair]) * (x2[pair] - x1[pair]) / (y2[pair] - y1[pair])
    part = part[pair]

    # Pair the crossings even-odd within each (part, row).
    order = np.lexsort((x_cross, row, part))
    part = part[order]
    row = row[order]
    x_cross = x_cross[order]
    first = _group_starts(part, row)
    group_first = np.flatnonzero(first)
    rank = np.arange(part.shape[0]) - np.repeat(group_first, np.diff(np.append(group_first, part.shape[0])))
    left = np.flatnonzero((rank % 2 == 0) & np.append(~first[1:], False))
    part = part[left]
    row = row[left]
    # Columns whose centre lies in (left, right).
    cx0 = win[part, 0] + 0.5 * cw[part]
    col_from = np.maximum(np.ceil((x_cross[left] - cx0) / cw[part]).astype(np.int64), 0)
    col_to = np.minimum(np.floor((x_cross[left + 1] - cx0) / cw[part]).astype(np.int64), nx[part] - 1)
    valid = col_to >= col_from
    region = pr[part[valid]]
    row = row[valid]
    col_from = col_from[valid]
    col_to = col_to[valid]
    if region.shape[0] == 0:
        return region, row, col_from, col_to

    # Union per (region, row): the OR over parts, and the one-cell overlap of
    # two spans meeting at a centre.  Offsetting each group's columns past
    # every column of the groups before it makes one running maximum
    # group-local.
    order = np.lexsort((col_from, row, region))
    region = region[order]
    row = row[order]
    col_from = col_from[order]
    col_to = col_to[order]
    first = _group_starts(region, row)
    stride = int(col_to.max()) + 2
    offset = (np.cumsum(first) - 1) * stride
    reach = np.maximum.accumulate(col_to + offset) - offset
    merged = first.copy()
    merged[1:] |= col_from[1:] > reach[:-1] + 1
    starts = np.flatnonzero(merged)
    last = np.append(starts[1:], merged.shape[0]) - 1
    return region[starts], row[starts], col_from[starts], reach[last]


def _center_fill(grid: UniformGrid, region: Polygon | MultiPolygon) -> np.ndarray:
    """Centre-containment mask of one region: the span kernel on the grid itself."""
    _, rows, col_from, col_to = scanline_spans(
        SuiteEdges.of([region]),
        np.array([grid.extent.as_tuple()]),
        np.array([[grid.nx, grid.ny]]),
        np.ones(1, dtype=bool),
    )
    mask = np.zeros(grid.num_cells, dtype=bool)
    mask[expand_slices(rows * grid.nx + col_from, col_to - col_from + 1)] = True
    return mask.reshape(grid.ny, grid.nx)


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
