"""Tests for the software rasterizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import noisy_convex_polygon
from repro.errors import ApproximationError
from repro.geometry import BoundingBox, MultiPolygon, Polygon
from repro.grid import UniformGrid, boundary_cell_boxes, rasterize_points, rasterize_polygon
from repro.grid.rasterizer import (
    _boundary_segment_array,
    _mark_segment_cells,
    _mark_segments_cells,
)


@pytest.fixture()
def grid() -> UniformGrid:
    return UniformGrid(BoundingBox(0.0, 0.0, 10.0, 10.0), 20, 20)


class TestPolygonRasterization:
    def test_axis_aligned_square_coverage(self, grid):
        poly = Polygon([(2.0, 2.0), (8.0, 2.0), (8.0, 8.0), (2.0, 8.0)])
        raster, center_inside = rasterize_polygon(poly, grid)
        conservative = raster.interior | raster.boundary
        # Conservative coverage area must be >= polygon area, interior <= polygon area.
        cell_area = grid.cell_width * grid.cell_height
        assert conservative.sum() * cell_area >= poly.area - 1e-9
        assert raster.interior.sum() * cell_area <= poly.area + 1e-9
        # Center-rule coverage of an axis-aligned square aligned to cell borders
        # equals the exact area.
        assert center_inside.sum() * cell_area == pytest.approx(poly.area)

    def test_interior_cells_are_fully_inside(self, grid, l_shape):
        raster, _ = rasterize_polygon(l_shape, grid)
        ys, xs = np.nonzero(raster.interior)
        for ix, iy in zip(xs, ys):
            box = grid.cell_box(int(ix), int(iy))
            for corner in box.corners():
                assert l_shape.contains_point(corner)

    def test_boundary_cells_touch_boundary(self, grid, l_shape):
        raster, _ = rasterize_polygon(l_shape, grid)
        # Every cell crossed by the boundary must be marked as boundary.
        for seg in l_shape.boundary_segments():
            mid = seg.midpoint
            ix, iy = grid.point_to_cell(mid.x, mid.y)
            assert raster.boundary[iy, ix]

    def test_hole_not_covered(self, grid, unit_square):
        raster, center_inside = rasterize_polygon(unit_square, grid)
        ix, iy = grid.point_to_cell(5.0, 5.0)
        assert not raster.interior[iy, ix]
        assert not center_inside[iy, ix]

    def test_multipolygon_covers_all_parts(self, grid):
        a = Polygon([(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)])
        b = Polygon([(6.0, 6.0), (9.0, 6.0), (9.0, 9.0), (6.0, 9.0)])
        raster, center = rasterize_polygon(MultiPolygon([a, b]), grid)
        ix, iy = grid.point_to_cell(2.0, 2.0)
        assert center[iy, ix]
        ix, iy = grid.point_to_cell(7.5, 7.5)
        assert center[iy, ix]
        ix, iy = grid.point_to_cell(4.5, 4.5)
        assert not center[iy, ix]

    def test_polygon_outside_grid(self, grid):
        poly = Polygon([(100.0, 100.0), (110.0, 100.0), (110.0, 110.0), (100.0, 110.0)])
        raster, center = rasterize_polygon(poly, grid)
        assert raster.interior.sum() == 0
        assert raster.boundary.sum() == 0
        assert center.sum() == 0

    def test_coverage_rules(self, grid, l_shape):
        raster, center = rasterize_polygon(l_shape, grid)
        conservative = raster.coverage("conservative")
        interior = raster.coverage("interior")
        center_cov = raster.coverage("center", center_inside=center)
        assert (interior & ~conservative).sum() == 0
        assert (center_cov & ~conservative).sum() == 0
        with pytest.raises(ApproximationError):
            raster.coverage("center")
        with pytest.raises(ApproximationError):
            raster.coverage("bogus")

    def test_boundary_cell_boxes(self, grid, l_shape):
        raster, _ = rasterize_polygon(l_shape, grid)
        boxes = boundary_cell_boxes(raster)
        assert len(boxes) == raster.num_boundary_cells


class TestBoundarySegmentArray:
    def test_same_floats_and_order_as_segment_iteration(self, unit_square):
        """Parts in order, exterior before holes, closing segment last."""
        region = MultiPolygon(
            [unit_square, noisy_convex_polygon(30.0, 5.0, 3.5, 24, seed=2),
             unit_square.translated(50.0, 0.5)]
        )
        want = [
            [seg.start.x, seg.start.y, seg.end.x, seg.end.y]
            for seg in region.boundary_segments()
        ]
        got = _boundary_segment_array(region)
        assert got.dtype == np.float64
        assert got.tolist() == want
        first_part = _boundary_segment_array(unit_square)
        assert first_part.tolist() == want[: unit_square.num_vertices]


class TestBatchedSegmentMarking:
    """`_mark_segments_cells` ≡ the per-segment scalar oracle, bit for bit."""

    @pytest.mark.parametrize(
        "nx,ny,extent",
        [
            (20, 20, BoundingBox(0.0, 0.0, 10.0, 10.0)),
            (37, 23, BoundingBox(1.0, -2.0, 9.5, 8.25)),
            (64, 64, BoundingBox(3.0, 3.0, 7.0, 7.0)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mask_identical_to_scalar_loop(self, nx, ny, extent, seed):
        region = noisy_convex_polygon(5.0, 5.0, 3.5, 24, seed=seed)
        grid = UniformGrid(extent, nx, ny)
        segs = _boundary_segment_array(region)
        scalar_mask = np.zeros((ny, nx), dtype=bool)
        for x0, y0, x1, y1 in segs:
            _mark_segment_cells(grid, scalar_mask, x0, y0, x1, y1)
        batch_mask = np.zeros((ny, nx), dtype=bool)
        _mark_segments_cells(grid, batch_mask, segs)
        np.testing.assert_array_equal(scalar_mask, batch_mask)

    def test_axis_parallel_and_degenerate_segments(self, grid):
        # Horizontal, vertical, diagonal through corners, and zero-length.
        segs = np.array(
            [
                [1.0, 2.5, 9.0, 2.5],
                [4.5, 0.5, 4.5, 9.5],
                [0.0, 0.0, 10.0, 10.0],
                [3.3, 3.3, 3.3, 3.3],
            ]
        )
        scalar_mask = np.zeros((20, 20), dtype=bool)
        for x0, y0, x1, y1 in segs:
            _mark_segment_cells(grid, scalar_mask, x0, y0, x1, y1)
        batch_mask = np.zeros((20, 20), dtype=bool)
        _mark_segments_cells(grid, batch_mask, segs)
        np.testing.assert_array_equal(scalar_mask, batch_mask)

    def test_empty_segment_array(self, grid):
        mask = np.zeros((20, 20), dtype=bool)
        _mark_segments_cells(grid, mask, np.empty((0, 4), dtype=np.float64))
        assert not mask.any()


class TestPointRasterization:
    def test_counts_preserved(self, grid, rng):
        xs = rng.uniform(0, 10, 500)
        ys = rng.uniform(0, 10, 500)
        plane = rasterize_points(xs, ys, grid)
        assert plane.sum() == 500

    def test_weighted_sum_preserved(self, grid, rng):
        xs = rng.uniform(0, 10, 300)
        ys = rng.uniform(0, 10, 300)
        weights = rng.uniform(0, 5, 300)
        plane = rasterize_points(xs, ys, grid, weights=weights)
        assert plane.sum() == pytest.approx(weights.sum())

    def test_single_point_lands_in_right_cell(self, grid):
        plane = rasterize_points(np.array([2.6]), np.array([7.1]), grid)
        ix, iy = grid.point_to_cell(2.6, 7.1)
        assert plane[iy, ix] == 1
        assert plane.sum() == 1

    def test_weight_length_mismatch(self, grid):
        with pytest.raises(ApproximationError):
            rasterize_points(np.array([1.0]), np.array([1.0]), grid, weights=np.array([1.0, 2.0]))

    def test_points_outside_grid_clamped(self, grid):
        plane = rasterize_points(np.array([-5.0, 50.0]), np.array([-5.0, 50.0]), grid)
        assert plane.sum() == 2
        assert plane[0, 0] == 1
        assert plane[-1, -1] == 1
