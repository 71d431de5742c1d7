"""Bounded Raster Join (BRJ) — the GPU join of §5.2 / Figure 7.

BRJ evaluates the spatial aggregation query entirely on rasterized canvases:

1. the points are blended into a single canvas whose pixels hold partial
   aggregates: one count plane, plus a value-sum plane for SUM and AVG;
2. one scanline pass rasterizes the whole polygon suite onto the same canvas
   frame (:func:`~repro.grid.rasterizer.scanline_spans`), yielding every
   polygon's covered pixels as ``(polygon, row, col_from, col_to)`` spans
   under the GPU sample-at-centre rule;
3. the spans are reduced against the point canvas (mask ∘ blend): a COUNT is
   a difference of the count plane's row-major prefix sum per span, a SUM
   gathers the polygon's covered values in row-major order and adds them.

Because the pixel size is derived from the distance bound, the result is an
``epsilon``-bounded approximation and **no point-in-polygon test is ever
executed**.  When the required canvas resolution exceeds what the (simulated)
GPU supports, the canvas is split into device-sized tiles and one aggregation
pass runs per tile — which is exactly why BRJ loses its advantage for very
tight bounds in Figure 7.  A point on the seam between two tiles is blended
into the tile above / right of it only.

Each polygon is rasterized in the frame of the window of tile pixels its
bounds overlap, and the simulated device is charged one draw call per
polygon per tile, so coverage, aggregates and device statistics equal the
polygon-at-a-time join (kept as a test oracle) bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.approx.distance_bound import canvas_shape, cell_side_for_bound
from repro.arrays import expand_slices
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.rasterizer import SuiteEdges, scanline_spans
from repro.grid.uniform_grid import UniformGrid
from repro.hardware.gpu import SimulatedGPU
from repro.query.spec import Aggregate, AggregationQuery

__all__ = ["BRJResult", "bounded_raster_join"]

Region = Polygon | MultiPolygon


@dataclass(slots=True)
class BRJResult:
    """Result of one Bounded Raster Join run.

    ``wall_seconds`` is split into a build phase (planning plus blending the
    points into the per-tile aggregate canvases) and a probe phase (the
    suite's span rasterization and its reduction against those canvases), so
    benchmark records report the same ``build_seconds`` / ``probe_seconds``
    pair as the point-probe joins.
    """

    aggregates: np.ndarray
    counts: np.ndarray
    epsilon: float
    resolution: tuple[int, int]
    num_passes: int
    wall_seconds: float
    device_seconds: float
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    extra: dict = field(default_factory=dict)


def bounded_raster_join(
    points: PointSet,
    regions: list[Region],
    epsilon: float,
    extent: BoundingBox | None = None,
    query: AggregationQuery | None = None,
    gpu: SimulatedGPU | None = None,
    point_batch_size: int = 1_000_000,
) -> BRJResult:
    """Run the Bounded Raster Join at the given distance bound.

    Parameters
    ----------
    points, regions:
        The join inputs.
    epsilon:
        Distance bound in data units; the pixel side is ``epsilon / sqrt(2)``.
    extent:
        Canvas extent; defaults to the union of the point and polygon bounds.
    query:
        Aggregation specification (COUNT by default).
    gpu:
        Simulated device; a default device is created when omitted.  Device
        counters accumulate across calls when the caller passes its own.
    point_batch_size:
        Number of points per simulated host-to-device transfer batch (the
        paper streams the 600M points in batches).
    """
    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    query = query or AggregationQuery()
    gpu = gpu or SimulatedGPU()
    filtered = query.filtered_points(points)
    # COUNT needs only the count plane; SUM and AVG also blend the values.
    weighted = query.aggregate is not Aggregate.COUNT
    values = query.values(filtered) if weighted else None

    if extent is None:
        extent = _union_extent(filtered, regions)

    start = time.perf_counter()
    device_start = gpu.stats.device_time

    cell_side = cell_side_for_bound(epsilon)
    full_nx, full_ny = canvas_shape(extent, epsilon)
    tiles = gpu.plan_tiles(full_nx, full_ny)

    # Simulate streaming the point batches to the device once.
    bytes_per_point = 2 * 8 + 8  # x, y and one value channel
    for batch_start in range(0, len(filtered), point_batch_size):
        batch = min(point_batch_size, len(filtered) - batch_start)
        gpu.record_transfer(batch * bytes_per_point)

    num_regions = len(regions)
    sums = np.zeros(num_regions, dtype=np.float64)
    counts = np.zeros(num_regions, dtype=np.int64)
    build_seconds = time.perf_counter() - start

    probe_start = time.perf_counter()
    edges = SuiteEdges.of(regions)
    bounds = np.array(
        [region.bounds().as_tuple() for region in regions], dtype=np.float64
    ).reshape(num_regions, 4)
    vertices = [region.num_vertices for region in regions]
    probe_seconds = time.perf_counter() - probe_start

    for tile_x, tile_y, tile_w, tile_h in tiles:
        build_start = time.perf_counter()
        gpu.record_pass()
        tile_box = BoundingBox(
            extent.min_x + tile_x * cell_side,
            extent.min_y + tile_y * cell_side,
            extent.min_x + (tile_x + tile_w) * cell_side,
            extent.min_y + (tile_y + tile_h) * cell_side,
        )
        grid = UniformGrid(tile_box, tile_w, tile_h)

        # Blend the points of this tile into its count (and value) plane —
        # the canvas build phase of the tile.  Only points of this tile reach
        # the cell transform, which would clamp outside points onto the border.
        in_tile = _tile_members(
            filtered.xs, filtered.ys, tile_box, tile_x + tile_w == full_nx, tile_y + tile_h == full_ny
        )
        if not in_tile.any():
            build_seconds += time.perf_counter() - build_start
            continue
        pixel = grid.flatten(*grid.points_to_cells(filtered.xs[in_tile], filtered.ys[in_tile]))
        count_plane = np.bincount(pixel, minlength=grid.num_cells)
        if weighted:
            value_plane = np.bincount(pixel, weights=values[in_tile], minlength=grid.num_cells)
        gpu.record_draw(primitives=int(pixel.shape[0]), pixels=int(np.count_nonzero(count_plane)))
        build_seconds += time.perf_counter() - build_start
        probe_start = time.perf_counter()

        # One span pass rasterizes every polygon overlapping the tile, each
        # on the window of tile cells its bounds overlap (GPU sample-at-centre
        # rule, non-conservative coverage).
        overlaps, windows, shapes, origin = _tile_windows(bounds, grid)
        region, row, col_from, col_to = scanline_spans(edges, windows, shapes, overlaps)
        first = (row + origin[region, 1]) * tile_w + col_from + origin[region, 0]
        length = col_to - col_from + 1
        covered = _region_sums(region, length, num_regions)
        for polygon_id in np.flatnonzero(overlaps).tolist():
            gpu.record_draw(primitives=vertices[polygon_id], pixels=int(covered[polygon_id]))

        # COUNT: each span is a difference of the plane's row-major prefix sum.
        prefix = np.zeros(grid.num_cells + 1, dtype=np.int64)
        np.cumsum(count_plane, out=prefix[1:])
        counts += _region_sums(region, prefix[first + length] - prefix[first], num_regions)
        if weighted:
            # A polygon's covered values in row-major order, reduced by one
            # np.sum: the same pairwise additions as summing its masked window.
            gathered = value_plane[expand_slices(first, length)]
            ends = np.cumsum(covered)
            for polygon_id in np.flatnonzero(covered).tolist():
                stop = int(ends[polygon_id])
                sums[polygon_id] += float(np.sum(gathered[stop - covered[polygon_id] : stop]))
        probe_seconds += time.perf_counter() - probe_start

    wall_seconds = time.perf_counter() - start
    device_seconds = gpu.stats.device_time - device_start

    return BRJResult(
        aggregates=query.finalize(sums, counts),
        counts=counts,
        epsilon=epsilon,
        resolution=(full_nx, full_ny),
        num_passes=len(tiles),
        wall_seconds=wall_seconds,
        device_seconds=device_seconds,
        build_seconds=build_seconds,
        probe_seconds=probe_seconds,
        extra={"cell_side": cell_side, "num_points": len(filtered)},
    )


def _tile_members(
    xs: np.ndarray, ys: np.ndarray, box: BoundingBox, last_x: bool, last_y: bool
) -> np.ndarray:
    """Points of one tile: half-open on inner seams, closed on the canvas edge.

    A point on a seam between two tiles belongs to the tile above / right of
    it only, so it is blended exactly once; the canvas's own max edges stay
    closed (``last_x`` / ``last_y`` mark the tiles that carry them).
    """
    return (
        (xs >= box.min_x)
        & ((xs <= box.max_x) if last_x else (xs < box.max_x))
        & (ys >= box.min_y)
        & ((ys <= box.max_y) if last_y else (ys < box.max_y))
    )


def _tile_windows(
    bounds: np.ndarray, grid: UniformGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per region: does it overlap the tile, and its window of tile cells.

    Returns ``(overlaps, windows, shapes, origin)``: the closed bounds-box
    overlap test, the window box ``(min_x, min_y, max_x, max_y)`` of the
    tile cells the clipped bounds overlap, its ``(nx, ny)`` and its first
    tile cell ``(ix0, iy0)``.  Windows are aligned to the tile grid, so
    window cell ``(i, j)`` is tile cell ``(ix0 + i, iy0 + j)``; the float
    expressions are those of ``UniformGrid.cells_overlapping`` and of the
    window boxes built from them.
    """
    box = grid.extent
    overlaps = ~(
        (box.min_x > bounds[:, 2])
        | (box.max_x < bounds[:, 0])
        | (box.min_y > bounds[:, 3])
        | (box.max_y < bounds[:, 1])
    )
    tile_min = np.array([box.min_x, box.min_y])
    cell = np.array([grid.cell_width, grid.cell_height])
    last = np.array([grid.nx - 1, grid.ny - 1])
    lo = np.maximum(bounds[:, :2], tile_min)
    hi = np.minimum(bounds[:, 2:], [box.max_x, box.max_y])
    i0 = np.clip(np.floor((lo - tile_min) / cell), 0, last).astype(np.int64)
    i1 = np.clip(np.floor((hi - tile_min) / cell), 0, last).astype(np.int64)
    windows = np.hstack([tile_min + i0 * cell, tile_min + (i1 + 1) * cell])
    return overlaps, windows, i1 - i0 + 1, i0


def _region_sums(region: np.ndarray, values: np.ndarray, num_regions: int) -> np.ndarray:
    """Per-region totals of span values, spans sorted by region."""
    out = np.zeros(num_regions, dtype=values.dtype)
    if region.shape[0]:
        first = np.flatnonzero(np.diff(region, prepend=-1))
        out[region[first]] = np.add.reduceat(values, first)
    return out


def _union_extent(points: PointSet, regions: list[Region]) -> BoundingBox:
    box = None
    if len(points):
        min_x, min_y, max_x, max_y = points.bounds()
        box = BoundingBox(min_x, min_y, max_x, max_y)
    for region in regions:
        box = region.bounds() if box is None else box.union(region.bounds())
    if box is None:
        raise QueryError("cannot derive an extent from empty inputs")
    # Tiny margin so border points stay strictly inside the canvas.
    return box.expanded(1e-9 * max(1.0, box.width, box.height))

