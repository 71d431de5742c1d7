"""The polygon-at-a-time scanline fill that the suite-wide span kernel replaced.

One call fills one polygon part at cell-centre sampling through a difference
plane; a region's mask is the OR over its parts.  It defines the centre masks
:func:`repro.grid.rasterizer.scanline_spans` must reproduce bit for bit, so it
is kept verbatim (only :func:`center_fill_loop`'s name is new).
"""

from __future__ import annotations

import numpy as np

from repro.arrays import expand_slices
from repro.geometry import MultiPolygon, Polygon
from repro.grid import UniformGrid

__all__ = ["scanline_fill_polygon", "center_fill_loop"]


def _polygon_edges(poly: Polygon) -> np.ndarray:
    """All ring edges of a polygon as an ``(m, 4)`` array of ``(x1, y1, x2, y2)``."""
    rows = []
    for ring in poly.rings():
        coords = ring.coords
        nxt = np.roll(coords, -1, axis=0)
        rows.append(np.column_stack([coords, nxt]))
    return np.vstack(rows)


def scanline_fill_polygon(grid: UniformGrid, poly: Polygon, mask: np.ndarray) -> None:
    """Even-odd scanline fill of one polygon at cell-centre sampling."""
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

    i_from = np.maximum(np.ceil((lefts - centers_x0) / grid.cell_width).astype(np.int64), 0)
    i_to = np.minimum(np.floor((rights - centers_x0) / grid.cell_width).astype(np.int64), grid.nx - 1)
    valid = i_to >= i_from
    if not valid.any():
        return
    i_from = i_from[valid]
    i_to = i_to[valid]
    span_rows = span_rows[valid]
    delta = np.zeros((iy1 - iy0 + 1, grid.nx + 1), dtype=np.int32)
    np.add.at(delta, (span_rows - iy0, i_from), 1)
    np.add.at(delta, (span_rows - iy0, i_to + 1), -1)
    mask[iy0 : iy1 + 1] |= np.cumsum(delta[:, :-1], axis=1) > 0


def center_fill_loop(grid: UniformGrid, region: Polygon | MultiPolygon) -> np.ndarray:
    """Centre-containment mask of a region: the OR of its parts' fills."""
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    box = region.bounds().intersection(grid.extent)
    if box is None:
        return mask
    polygons = region.polygons if isinstance(region, MultiPolygon) else (region,)
    for poly in polygons:
        scanline_fill_polygon(grid, poly, mask)
    return mask
