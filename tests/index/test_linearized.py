"""The point linearization the ACT probe walks, and the walk itself.

* ``LinearizedPoints``: sorted codes, cells, run offsets, the point -> cell
  map and the run pyramid, against ``np.unique`` per level;
* ``match_sorted`` / ``isin_sorted``: the two-sided sorted matcher against
  ``np.intersect1d``, and the mixed-dtype guard (codes above 2**53);
* ``FlatACT.lookup_linearized`` / ``count_linearized`` on fresh and patched
  (tombstoned, multi-segment) indexes, for linearizations at and finer than
  the index's ``max_level``, against the per-point level loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.act_level_loop import lookup_codes_loop

from repro.approx.build_engine import get_build_engine
from repro.arrays import isin_sorted, match_sorted
from repro.errors import IndexError_
from repro.geometry import BoundingBox, Polygon
from repro.grid import GridFrame
from repro.index import FlatACT
from repro.index.linearized import LinearizedPoints

FRAME = GridFrame(BoundingBox(0.0, 0.0, 256.0, 256.0))


def _region(rng: np.random.Generator) -> Polygon:
    cx, cy = rng.uniform(30.0, 220.0, size=2)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=int(rng.integers(4, 10))))
    radii = rng.uniform(5.0, 60.0, size=angles.shape[0])
    return Polygon(np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)]))


def _coords(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    xs = rng.uniform(0.0, 256.0, size=n)
    ys = rng.uniform(0.0, 256.0, size=n)
    repeats = rng.integers(0, n, size=n // 3)
    xs = np.concatenate([xs, xs[repeats], [256.0, -1.0, np.nan, 0.0]])
    ys = np.concatenate([ys, ys[repeats], [256.0, 5.0, 5.0, 400.0]])
    return xs, ys


def _live_index(rng: np.random.Generator, epsilon: float, patches: int) -> FlatACT:
    """A fresh index patched ``patches`` times: adds, replacements, removals."""
    builder = get_build_engine(None)
    cells = lambda regions: builder.build_cell_arrays(regions, FRAME, epsilon)  # noqa: E731
    index = FlatACT.build([_region(rng) for _ in range(int(rng.integers(1, 6)))], FRAME, epsilon)
    for step in range(patches):
        op = step % 3
        if op == 0 or index.num_polygons == 0:
            index.add_polygons(cells([_region(rng) for _ in range(int(rng.integers(1, 4)))]))
        elif op == 1:
            position = int(rng.integers(0, index.num_polygons))
            index.replace_polygon(position, cells([_region(rng)])[0])
        else:
            index.remove_polygons([int(rng.integers(0, index.num_polygons))])
    return index


def _loop_pairs(index: FlatACT, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """The per-point level loop over the in-frame points; out-of-frame ones match nothing."""
    valid = FRAME.contains_points(xs, ys)
    codes = FRAME.points_to_codes(xs[valid], ys[valid], index.max_level)
    valid_offsets, ids = lookup_codes_loop(index, codes)
    counts = np.zeros(xs.shape[0], dtype=np.int64)
    counts[valid] = np.diff(valid_offsets)
    offsets = np.zeros(xs.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, ids


class TestLinearizedPoints:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), level=st.integers(0, 14), n=st.integers(0, 300))
    def test_arrays_and_pyramid(self, seed, level, n):
        rng = np.random.default_rng(seed)
        xs, ys = _coords(rng, n)
        lin = LinearizedPoints.from_coords(FRAME, level, xs, ys).fill_pyramid()
        valid = FRAME.contains_points(xs, ys)
        codes = FRAME.points_to_codes(xs[valid], ys[valid], level)
        cells, counts = np.unique(codes, return_counts=True)
        np.testing.assert_array_equal(lin.codes, np.sort(codes))
        np.testing.assert_array_equal(lin.cells, cells)
        np.testing.assert_array_equal(np.diff(lin.cum), counts)
        assert lin.cum[0] == 0 and lin.cum[-1] == codes.shape[0]
        np.testing.assert_array_equal(lin.point_cell[~valid], -1)
        np.testing.assert_array_equal(lin.cells[lin.point_cell[valid]], codes)
        for coarse in range(level + 1):
            prefixes, first = lin.runs(coarse)
            shifted = cells >> np.uint64(2 * (level - coarse))
            want, starts = np.unique(shifted, return_index=True)
            np.testing.assert_array_equal(prefixes, want)
            np.testing.assert_array_equal(first, np.append(starts, cells.shape[0]))

    def test_lazy_levels_equal_filled_ones(self):
        rng = np.random.default_rng(11)
        xs, ys = _coords(rng, 500)
        filled = LinearizedPoints.from_coords(FRAME, 12, xs, ys).fill_pyramid()
        lazy = LinearizedPoints.from_coords(FRAME, 12, xs, ys)
        for level in (9, 3, 10, 0, 12):
            for got, want in zip(lazy.runs(level), filled.runs(level)):
                np.testing.assert_array_equal(got, want)
        with pytest.raises(IndexError_):
            lazy.runs(13)

    def test_from_codes_matches_unique_inverse(self):
        codes = np.array([9, 3, 3, 12, 9, 0, 3], dtype=np.uint64)
        lin = LinearizedPoints.from_codes(codes, level=2)
        cells, inverse = np.unique(codes, return_inverse=True)
        np.testing.assert_array_equal(lin.cells, cells)
        np.testing.assert_array_equal(lin.point_cell, inverse.reshape(-1))
        assert lin.num_points == lin.size == 7 and lin.num_cells == 4


class TestSortedMatching:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(0, 2**64 - 1), max_size=40),
        b=st.lists(st.integers(0, 2**64 - 1), max_size=40),
        shared=st.lists(st.integers(0, 2**64 - 1), max_size=10),
    )
    def test_match_sorted_is_intersect1d(self, a, b, shared):
        a = np.unique(np.array(a + shared, dtype=np.uint64))
        b = np.unique(np.array(b + shared, dtype=np.uint64))
        _, want_a, want_b = np.intersect1d(a, b, assume_unique=True, return_indices=True)
        for left, right, wa, wb in ((a, b, want_a, want_b), (b, a, want_b, want_a)):
            ia, ib = match_sorted(left, right)
            np.testing.assert_array_equal(ia, wa)
            np.testing.assert_array_equal(ib, wb)

    def test_both_search_directions_above_2_53(self):
        big = np.uint64(2**60)
        short = np.array([big + np.uint64(3)], dtype=np.uint64)
        long = big + np.arange(0, 8, dtype=np.uint64)
        assert [x.tolist() for x in match_sorted(short, long)] == [[0], [3]]
        assert [x.tolist() for x in match_sorted(long, short)] == [[3], [0]]

    def test_mixed_dtypes_are_refused(self):
        """uint64 vs int64 would compare as float64: 2**60 + 1 and 2**60 + 3 collide."""
        keys = np.array([2**60 + 1, 2**60 + 3], dtype=np.uint64)
        needles = np.array([2**60 + 2], dtype=np.int64)
        with pytest.raises(IndexError_):
            isin_sorted(keys, needles)
        with pytest.raises(IndexError_):
            match_sorted(keys, needles)
        with pytest.raises(IndexError_):
            match_sorted(needles, keys)
        hit, pos = isin_sorted(keys, needles.astype(np.uint64), return_positions=True)
        assert not hit[0] and pos[0] == 1


class TestLinearizedWalk:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([16.0, 4.0]),
        patches=st.integers(0, 5),
        extra_levels=st.integers(0, 4),
    )
    def test_walk_equals_level_loop(self, seed, epsilon, patches, extra_levels):
        """Pairs and run-offset counts, at max_level and finer, fresh or patched."""
        rng = np.random.default_rng(seed)
        index = _live_index(rng, epsilon, patches)
        xs, ys = _coords(rng, int(rng.integers(1, 300)))
        want_offsets, want_ids = _loop_pairs(index, xs, ys)
        level = index.max_level + extra_levels
        for lin in (
            LinearizedPoints.from_coords(FRAME, level, xs, ys),
            LinearizedPoints.from_coords(FRAME, level, xs, ys).fill_pyramid(),
        ):
            offsets, ids = index.lookup_linearized(lin)
            np.testing.assert_array_equal(offsets, want_offsets)
            np.testing.assert_array_equal(ids, want_ids)
            counts = index.count_linearized(lin, index.num_polygons)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(
                counts, np.bincount(want_ids, minlength=index.num_polygons)
            )
        offsets, ids = index.lookup_points(xs, ys)
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(ids, want_ids)

    def test_refuses_coarser_or_foreign_linearizations(self):
        rng = np.random.default_rng(5)
        index = _live_index(rng, 4.0, 0)
        xs, ys = _coords(rng, 50)
        coarse = LinearizedPoints.from_coords(FRAME, index.max_level - 1, xs, ys)
        with pytest.raises(IndexError_):
            index.lookup_linearized(coarse)
        with pytest.raises(IndexError_):
            index.count_linearized(coarse, index.num_polygons)
        other = GridFrame(BoundingBox(0.0, 0.0, 512.0, 512.0))
        foreign = LinearizedPoints.from_coords(other, index.max_level, xs, ys)
        with pytest.raises(IndexError_):
            index.lookup_linearized(foreign)
