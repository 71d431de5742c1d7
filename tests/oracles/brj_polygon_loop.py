"""The polygon-at-a-time Bounded Raster Join that the span kernel replaced.

Per tile, every point is blended into a count and a value plane, then every
polygon whose bounds overlap the tile is filled on a window of tile cells
aligned to its bounds and its masked pixels are reduced.  It defines the
counts, aggregates and simulated-device charges the suite-wide span join must
reproduce bit for bit, so the loop is kept verbatim apart from two edits:
the fill is :func:`~oracles.scanline_fill.center_fill_loop` (the
supercover boundary mask ``rasterize_polygon`` computed beside it was never
read), and tile membership follows the production seam rule (half-open on
inner seams, closed on the canvas's outer edge).
"""

from __future__ import annotations

import time

import numpy as np

from repro.approx.distance_bound import cell_side_for_bound
from repro.errors import QueryError
from repro.geometry import BoundingBox
from repro.grid import UniformGrid, rasterize_points
from repro.hardware import SimulatedGPU
from repro.query import AggregationQuery, BRJResult
from repro.query.join_brj import _union_extent

from oracles.scanline_fill import center_fill_loop

__all__ = ["brj_polygon_loop"]


def brj_polygon_loop(
    points, regions, epsilon, extent=None, query=None, gpu=None, point_batch_size=1_000_000
) -> BRJResult:
    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    query = query or AggregationQuery()
    gpu = gpu or SimulatedGPU()
    filtered = query.filtered_points(points)
    values = query.values(filtered)

    if extent is None:
        extent = _union_extent(filtered, regions)

    start = time.perf_counter()
    device_start = gpu.stats.device_time

    cell_side = cell_side_for_bound(epsilon)
    full_nx = max(1, int(np.ceil(extent.width / cell_side)))
    full_ny = max(1, int(np.ceil(extent.height / cell_side)))
    tiles = gpu.plan_tiles(full_nx, full_ny)

    bytes_per_point = 2 * 8 + 8
    for batch_start in range(0, len(filtered), point_batch_size):
        batch = min(point_batch_size, len(filtered) - batch_start)
        gpu.record_transfer(batch * bytes_per_point)

    sums = np.zeros(len(regions), dtype=np.float64)
    counts = np.zeros(len(regions), dtype=np.int64)

    for tile_x, tile_y, tile_w, tile_h in tiles:
        gpu.record_pass()
        tile_box = BoundingBox(
            extent.min_x + tile_x * cell_side,
            extent.min_y + tile_y * cell_side,
            extent.min_x + (tile_x + tile_w) * cell_side,
            extent.min_y + (tile_y + tile_h) * cell_side,
        )
        grid = UniformGrid(tile_box, tile_w, tile_h)

        xs, ys = filtered.xs, filtered.ys
        last_x = tile_x + tile_w == full_nx
        last_y = tile_y + tile_h == full_ny
        in_tile = (
            (xs >= tile_box.min_x)
            & ((xs <= tile_box.max_x) if last_x else (xs < tile_box.max_x))
            & (ys >= tile_box.min_y)
            & ((ys <= tile_box.max_y) if last_y else (ys < tile_box.max_y))
        )
        if not in_tile.any():
            continue
        xs = filtered.xs[in_tile]
        ys = filtered.ys[in_tile]
        vals = values[in_tile]
        count_plane = rasterize_points(xs, ys, grid)
        value_plane = rasterize_points(xs, ys, grid, weights=vals)
        gpu.record_draw(primitives=int(in_tile.sum()), pixels=int(np.count_nonzero(count_plane)))

        for polygon_id, region in enumerate(regions):
            overlap = region.bounds().intersection(tile_box)
            if overlap is None:
                continue
            ix0, iy0, ix1, iy1 = grid.cells_overlapping(overlap)
            window_box = BoundingBox(
                tile_box.min_x + ix0 * grid.cell_width,
                tile_box.min_y + iy0 * grid.cell_height,
                tile_box.min_x + (ix1 + 1) * grid.cell_width,
                tile_box.min_y + (iy1 + 1) * grid.cell_height,
            )
            window_grid = UniformGrid(window_box, ix1 - ix0 + 1, iy1 - iy0 + 1)
            coverage = center_fill_loop(window_grid, region)
            covered_pixels = int(np.count_nonzero(coverage))
            gpu.record_draw(primitives=region.num_vertices, pixels=covered_pixels)
            if covered_pixels == 0:
                continue
            count_window = count_plane[iy0 : iy1 + 1, ix0 : ix1 + 1]
            value_window = value_plane[iy0 : iy1 + 1, ix0 : ix1 + 1]
            counts[polygon_id] += int(count_window[coverage].sum())
            sums[polygon_id] += float(value_window[coverage].sum())

    return BRJResult(
        aggregates=query.finalize(sums, counts),
        counts=counts,
        epsilon=epsilon,
        resolution=(full_nx, full_ny),
        num_passes=len(tiles),
        wall_seconds=time.perf_counter() - start,
        device_seconds=gpu.stats.device_time - device_start,
        extra={"cell_side": cell_side, "num_points": len(filtered)},
    )
