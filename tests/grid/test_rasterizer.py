"""Tests for the software rasterizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.scanline_fill import center_fill_loop

from repro.data import noisy_convex_polygon
from repro.errors import ApproximationError
from repro.geometry import BoundingBox, MultiPolygon, Polygon
from repro.grid import UniformGrid, boundary_cell_boxes, rasterize_points, rasterize_polygon
from repro.grid.rasterizer import (
    SuiteEdges,
    _boundary_segment_array,
    _mark_segment_cells,
    _mark_segments_cells,
    scanline_spans,
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


def _star_ring(rng, cx, cy, r_lo, r_hi, n, snap):
    """A star-shaped ring; ``snap`` puts the vertices on a half-unit lattice,
    so vertices and horizontal edges land exactly on cell centres and borders."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(r_lo, r_hi, n)
    ring = np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    return np.round(ring * 2.0) / 2.0 if snap else ring


def _star_polygon(rng, cx, cy, n, holes, snap):
    exterior = _star_ring(rng, cx, cy, 3.0, 6.0, n, snap)
    hole_rings = [
        _star_ring(rng, cx + rng.uniform(-1.0, 1.0), cy + rng.uniform(-1.0, 1.0), 0.3, 1.5,
                   int(rng.integers(4, 9)), snap)
        for _ in range(holes)
    ]
    return Polygon(exterior, holes=hole_rings)


def _random_region(rng, snap):
    """A polygon with holes, or a multipolygon whose parts may overlap."""
    if rng.uniform() < 0.5:
        return _star_polygon(rng, 5.0, 5.0, int(rng.integers(4, 30)), int(rng.integers(0, 3)), snap)
    return MultiPolygon([
        _star_polygon(rng, *rng.uniform(1.0, 9.0, 2), int(rng.integers(4, 20)),
                      int(rng.integers(0, 2)), snap)
        for _ in range(int(rng.integers(2, 4)))
    ])


def _random_grid(rng):
    """A grid whose extent and resolution are unrelated to the data lattice."""
    x0, y0 = rng.uniform(-3.0, 6.0, 2)
    w, h = rng.uniform(0.5, 14.0, 2)
    return UniformGrid(BoundingBox(x0, y0, x0 + w, y0 + h), int(rng.integers(1, 60)),
                       int(rng.integers(1, 60)))


class TestSpanKernelAgainstLoopOracle:
    """The suite-wide span kernel ≡ the per-part scanline fill it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), snap=st.booleans())
    def test_center_mask_matches_loop(self, seed, snap):
        rng = np.random.default_rng(seed)
        region = _random_region(rng, snap)
        for grid in (_random_grid(rng), UniformGrid(BoundingBox(0.0, 0.0, 10.0, 10.0), 20, 20)):
            _, center = rasterize_polygon(region, grid)
            np.testing.assert_array_equal(center, center_fill_loop(grid, region))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), snap=st.booleans())
    def test_suite_spans_match_per_region_fills(self, seed, snap):
        """One call over a suite, each region on its own window, some inactive."""
        rng = np.random.default_rng(seed)
        regions = [_random_region(rng, snap) for _ in range(int(rng.integers(1, 6)))]
        grids = [_random_grid(rng) for _ in regions]
        active = rng.uniform(size=len(regions)) < 0.8
        region, row, col_from, col_to = scanline_spans(
            SuiteEdges.of(regions),
            np.array([g.extent.as_tuple() for g in grids]),
            np.array([[g.nx, g.ny] for g in grids]),
            active,
        )
        keys = np.column_stack([region, row, col_from])
        assert (np.lexsort(keys.T[::-1]) == np.arange(keys.shape[0])).all()
        for r, (poly, grid) in enumerate(zip(regions, grids)):
            mask = np.zeros((grid.ny, grid.nx), dtype=int)
            mine = region == r
            for y, a, b in zip(row[mine], col_from[mine], col_to[mine]):
                mask[y, a : b + 1] += 1
            want = center_fill_loop(grid, poly) if active[r] else np.zeros_like(mask, dtype=bool)
            # Every covered cell is listed exactly once.
            np.testing.assert_array_equal(mask, want.astype(int))

    def test_empty_suite(self):
        spans = scanline_spans(
            SuiteEdges.of([]), np.empty((0, 4)), np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=bool),
        )
        assert [a.shape for a in spans] == [(0,)] * 4


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
