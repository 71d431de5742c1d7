"""Tests for uniform grids and the grid hierarchy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ApproximationError, GeometryError
from repro.geometry import BoundingBox
from repro.grid import GridFrame, UniformGrid


class TestUniformGrid:
    def test_invalid_resolution(self):
        with pytest.raises(GeometryError):
            UniformGrid(BoundingBox(0, 0, 1, 1), 0, 4)

    def test_from_cell_size(self):
        grid = UniformGrid.from_cell_size(BoundingBox(0, 0, 10, 5), 1.0)
        assert (grid.nx, grid.ny) == (10, 5)
        assert grid.cell_width == pytest.approx(1.0)

    def test_from_cell_size_invalid(self):
        with pytest.raises(ApproximationError):
            UniformGrid.from_cell_size(BoundingBox(0, 0, 1, 1), 0.0)

    def test_cell_box_and_center(self):
        grid = UniformGrid(BoundingBox(0, 0, 4, 4), 4, 4)
        box = grid.cell_box(1, 2)
        assert box.as_tuple() == (1.0, 2.0, 2.0, 3.0)
        assert grid.cell_center(1, 2) == (1.5, 2.5)

    def test_point_to_cell_clamps(self):
        grid = UniformGrid(BoundingBox(0, 0, 4, 4), 4, 4)
        assert grid.point_to_cell(-1.0, 10.0) == (0, 3)
        assert grid.point_to_cell(3.999, 0.0) == (3, 0)

    def test_points_to_cells_matches_scalar(self, rng):
        grid = UniformGrid(BoundingBox(0, 0, 100, 50), 20, 10)
        xs = rng.uniform(0, 100, 200)
        ys = rng.uniform(0, 50, 200)
        ix, iy = grid.points_to_cells(xs, ys)
        for i in range(0, 200, 13):
            assert (int(ix[i]), int(iy[i])) == grid.point_to_cell(float(xs[i]), float(ys[i]))

    def test_cells_overlapping(self):
        grid = UniformGrid(BoundingBox(0, 0, 10, 10), 10, 10)
        assert grid.cells_overlapping(BoundingBox(1.5, 2.5, 3.5, 4.5)) == (1, 2, 3, 4)

    def test_flatten_unique(self):
        grid = UniformGrid(BoundingBox(0, 0, 4, 4), 4, 4)
        ix, iy = np.meshgrid(np.arange(4), np.arange(4))
        flat = grid.flatten(ix.ravel(), iy.ravel())
        assert len(set(flat.tolist())) == 16

    def test_cell_centers_shape(self):
        grid = UniformGrid(BoundingBox(0, 0, 4, 2), 4, 2)
        gx, gy = grid.cell_centers()
        assert gx.shape == (2, 4)
        assert gx[0, 0] == pytest.approx(0.5)
        assert gy[1, 0] == pytest.approx(1.5)


class TestGridFrame:
    def test_square_frame_covers_extent(self):
        frame = GridFrame(BoundingBox(0, 0, 100, 40))
        assert frame.size >= 100.0
        assert frame.frame_box().contains_box(BoundingBox(0, 0, 100, 40))

    def test_cell_side_halves_per_level(self, small_frame):
        assert small_frame.cell_side(3) == pytest.approx(small_frame.cell_side(2) / 2)

    def test_cell_diagonal(self, small_frame):
        assert small_frame.cell_diagonal(4) == pytest.approx(small_frame.cell_side(4) * math.sqrt(2))

    def test_level_for_cell_side(self, small_frame):
        level = small_frame.level_for_cell_side(1.0)
        assert small_frame.cell_side(level) <= 1.0
        assert small_frame.cell_side(level - 1) > 1.0

    def test_level_for_cell_side_whole_frame(self, small_frame):
        assert small_frame.level_for_cell_side(small_frame.size * 2) == 0

    def test_level_for_cell_side_invalid(self, small_frame):
        with pytest.raises(ApproximationError):
            small_frame.level_for_cell_side(0.0)

    def test_level_for_cell_side_too_fine(self, small_frame):
        with pytest.raises(ApproximationError):
            small_frame.level_for_cell_side(1e-12)

    def test_point_to_cell_and_box_agree(self, small_frame):
        cell = small_frame.point_to_cell(12.3, 45.6, 7)
        box = small_frame.cell_box(cell)
        assert box.contains_xy(12.3, 45.6)

    @settings(max_examples=40)
    @given(x=st.floats(0, 100), y=st.floats(0, 100), level=st.integers(0, 16))
    def test_points_to_codes_matches_point_to_cell(self, small_frame, x, y, level):
        codes = small_frame.points_to_codes(np.array([x]), np.array([y]), level)
        cell = small_frame.point_to_cell(x, y, level)
        assert int(codes[0]) == cell.code

    def test_uniform_grid_of_level(self, small_frame):
        grid = small_frame.uniform_grid(3)
        assert grid.nx == grid.ny == 8
        assert grid.cell_width == pytest.approx(small_frame.cell_side(3))

    def test_cell_center_inside_cell(self, small_frame):
        cell = small_frame.point_to_cell(50.0, 50.0, 5)
        cx, cy = small_frame.cell_center(cell)
        assert small_frame.cell_box(cell).contains_xy(cx, cy)


@st.composite
def frames_and_points(draw):
    """A raw frame (non-power-of-two size, possibly negative origin) and points
    on it: uniform interior points, points on the max edges, cell-aligned
    coordinates at a random level, and a few points clamped from outside."""
    origin_x = draw(st.floats(-1e4, 1e4, allow_nan=False))
    origin_y = draw(st.floats(-1e4, 1e4, allow_nan=False))
    size = draw(st.floats(1e-3, 1e5, allow_nan=False).filter(lambda s: math.log2(s) % 1))
    frame = GridFrame.from_raw(origin_x, origin_y, size)
    seed = draw(st.integers(0, 2**32 - 1))
    align_level = draw(st.integers(0, 20))
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=(2, 64))
    cells = rng.integers(0, 1 << align_level, size=(2, 32), endpoint=True)
    t = np.concatenate(
        [t, cells / float(1 << align_level), [[1.0, 1.0, 0.0, 0.3], [1.0, 0.0, 1.0, 1.0]],
         [[-0.5, 1.5, 0.5], [0.5, 0.5, 2.0]]],
        axis=1,
    )
    xs = origin_x + t[0] * size
    ys = origin_y + t[1] * size
    return frame, xs, ys


class TestCrossLevelIdentity:
    """A point's level-L code is its level-M code shifted right by 2(M - L).

    The run pyramid of a point linearization derives every coarser level from
    the finest codes by this identity, so a mismatch would make the probe
    match a point against the wrong cell."""

    @settings(max_examples=40, deadline=None)
    @given(case=frames_and_points())
    def test_every_level_pair_up_to_twenty(self, case):
        frame, xs, ys = case
        codes = [frame.points_to_codes(xs, ys, level) for level in range(21)]
        for fine in range(21):
            for coarse in range(fine + 1):
                shifted = codes[fine] >> np.uint64(2 * (fine - coarse))
                np.testing.assert_array_equal(codes[coarse], shifted)
