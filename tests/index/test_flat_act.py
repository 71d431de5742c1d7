"""Tests of the flattened, array-backed ACT (batch probe representation)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.act_level_loop import assert_kernel_matches_loop

from repro.curves import CellId
from repro.data import NYCWorkload
from repro.geometry import BoundingBox
from repro.grid import GridFrame
from repro.index import AdaptiveCellTrie, FlatACT


@pytest.fixture(scope="module")
def nyc():
    workload = NYCWorkload(extent=BoundingBox(0.0, 0.0, 1000.0, 1000.0), seed=3)
    regions = workload.neighborhoods(count=8)
    frame = workload.frame()
    trie = AdaptiveCellTrie.build(regions, frame, epsilon=8.0)
    points = workload.taxi_points(1500)
    return trie, points


def csr_to_lists(offsets: np.ndarray, values: np.ndarray) -> list[list[int]]:
    return [
        values[offsets[k] : offsets[k + 1]].tolist() for k in range(offsets.shape[0] - 1)
    ]


class TestAgainstScalarTrie:
    def test_lookup_points_matches_per_point_walk(self, nyc):
        trie, points = nyc
        offsets, polygon_ids = trie.flattened().lookup_points(points.xs, points.ys)
        assert offsets.shape[0] == len(points) + 1
        expected = trie.lookup_points(points.xs, points.ys)
        assert csr_to_lists(offsets, polygon_ids) == expected

    def test_match_order_is_coarse_to_fine(self, nyc):
        """The CSR lists replay the root-to-leaf trie walk order exactly."""
        trie, points = nyc
        offsets, polygon_ids = trie.flattened().lookup_points(points.xs, points.ys)
        for k in range(min(200, len(points))):
            scalar = trie.lookup_point(float(points.xs[k]), float(points.ys[k]))
            assert polygon_ids[offsets[k] : offsets[k + 1]].tolist() == scalar

    def test_cell_population_preserved(self, nyc):
        trie, _ = nyc
        assert trie.flattened().num_cells == trie.num_cells

    def test_from_trie_matches_from_pairs(self):
        """The trie walk and the direct triple construction are equivalent."""
        frame = GridFrame(BoundingBox(0.0, 0.0, 64.0, 64.0))
        trie = AdaptiveCellTrie(frame, max_level=6)
        rng = np.random.default_rng(42)
        pairs = []
        for polygon_id in range(5):
            for _ in range(20):
                level = int(rng.integers(1, 7))
                code = int(rng.integers(0, 1 << (2 * level)))
                trie.insert_cell(polygon_id, CellId(code, level))
                pairs.append((level, code, polygon_id))
        xs = rng.uniform(0.0, 64.0, size=500)
        ys = rng.uniform(0.0, 64.0, size=500)
        via_dfs = FlatACT.from_trie(trie)
        via_pairs = FlatACT.from_pairs(frame, trie.max_level, pairs)
        offsets_a, pids_a = via_dfs.lookup_points(xs, ys)
        offsets_b, pids_b = via_pairs.lookup_points(xs, ys)
        np.testing.assert_array_equal(offsets_a, offsets_b)
        np.testing.assert_array_equal(pids_a, pids_b)
        assert via_dfs.num_cells == via_pairs.num_cells


class TestKernelEqualsLevelLoop:
    """The cell-deduplicated ``lookup_codes`` against the per-point level loop."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), polygons=st.integers(1, 6))
    def test_arbitrary_cells(self, seed, polygons):
        """Random cells on every level, nested and shared by several polygons."""
        rng = np.random.default_rng(seed)
        frame = GridFrame(BoundingBox(0.0, 0.0, 64.0, 64.0))
        max_level = 6
        pairs = []
        for polygon_id in range(polygons):
            levels = rng.integers(0, max_level + 1, size=int(rng.integers(1, 30)))
            # A narrow code range per level makes polygons collide on cells and
            # puts fine cells under coarse ones.
            cells = {(int(lv), int(rng.integers(0, min(4**lv, 12)))) for lv in levels}
            pairs += [(level, code, polygon_id) for level, code in sorted(cells)]
        assert_kernel_matches_loop(FlatACT.from_pairs(frame, max_level, pairs), rng)

    @pytest.fixture()
    def flat(self, nyc):
        trie, _ = nyc
        return trie.flattened()

    def test_empty_code_array(self, flat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for codes in (np.empty(0), np.empty(0, dtype=np.uint64), []):
                offsets, ids = flat.lookup_codes(codes)
                assert offsets.tolist() == [0]
                assert offsets.dtype == ids.dtype == np.int64 and ids.size == 0

    def test_index_without_a_populated_level(self):
        frame = GridFrame(BoundingBox(0.0, 0.0, 16.0, 16.0))
        codes = np.array([3, 3, 200, 0], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            offsets, ids = FlatACT(frame, 4, []).lookup_codes(codes)
        assert offsets.tolist() == [0, 0, 0, 0, 0]
        assert offsets.dtype == ids.dtype == np.int64 and ids.size == 0

    def test_every_polygon_tombstoned(self):
        frame = GridFrame(BoundingBox(0.0, 0.0, 16.0, 16.0))
        flat = FlatACT.from_pairs(frame, 4, [(1, 0, 0), (3, 5, 1), (3, 5, 0)])
        codes = np.arange(256, dtype=np.uint64)
        assert flat.lookup_codes(codes)[1].size > 0
        flat.remove_polygons([0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            offsets, ids = flat.lookup_codes(codes)
        assert not offsets.any() and offsets.shape == (257,)
        assert offsets.dtype == ids.dtype == np.int64 and ids.size == 0

    def test_foreign_dtype_and_strided_input(self, flat, nyc):
        _, points = nyc
        codes = flat.frame.points_to_codes(points.xs, points.ys, flat.max_level)
        want_offsets, want_ids = flat.lookup_codes(codes)
        strided = np.repeat(codes.astype(np.int64), 2)[::2]
        assert not strided.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for foreign in (strided, codes.tolist()):
                offsets, ids = flat.lookup_codes(foreign)
                np.testing.assert_array_equal(offsets, want_offsets)
                np.testing.assert_array_equal(ids, want_ids)

    def test_out_of_frame_and_nan_points_match_nothing(self, flat, nyc):
        """The frame mask stays in front of the kernel."""
        _, points = nyc
        xs = points.xs[:50].copy()
        ys = points.ys[:50].copy()
        want_offsets, want_ids = flat.lookup_points(xs, ys)
        xs[::5] = np.nan
        ys[1::5] = -1e9
        offsets, ids = flat.lookup_points(xs, ys)
        counts = np.diff(offsets)
        dropped = np.zeros(50, dtype=bool)
        dropped[::5] = dropped[1::5] = True
        assert not counts[dropped].any()
        np.testing.assert_array_equal(counts[~dropped], np.diff(want_offsets)[~dropped])
        keep = np.repeat(~dropped, np.diff(want_offsets))
        np.testing.assert_array_equal(ids, want_ids[keep])


class TestLifecycle:
    @pytest.fixture()
    def small(self):
        frame = GridFrame(BoundingBox(0.0, 0.0, 16.0, 16.0))
        trie = AdaptiveCellTrie(frame, max_level=4)
        trie.insert_cell(0, CellId(0, 1))  # coarse quadrant for polygon 0
        trie.insert_cell(1, CellId(5, 3))  # fine cell for polygon 1
        return frame, trie

    def test_flattened_is_cached(self, small):
        _, trie = small
        assert trie.flattened() is trie.flattened()

    def test_insert_invalidates_cache(self, small):
        _, trie = small
        before = trie.flattened()
        trie.insert_cell(2, CellId(1, 1))
        after = trie.flattened()
        assert after is not before
        assert after.num_cells == before.num_cells + 1

    def test_shared_cell_returns_all_polygons(self, small):
        frame, trie = small
        trie.insert_cell(7, CellId(0, 1))  # same coarse cell as polygon 0
        offsets, polygon_ids = trie.flattened().lookup_points(
            np.array([1.0]), np.array([1.0])
        )
        matches = polygon_ids[offsets[0] : offsets[1]].tolist()
        assert set(matches) == set(trie.lookup_point(1.0, 1.0))
        assert 0 in matches and 7 in matches

    def test_empty_probe_batch(self, small):
        _, trie = small
        offsets, polygon_ids = trie.flattened().lookup_points(
            np.empty(0), np.empty(0)
        )
        assert offsets.tolist() == [0]
        assert polygon_ids.size == 0

    def test_empty_trie(self):
        frame = GridFrame(BoundingBox(0.0, 0.0, 16.0, 16.0))
        trie = AdaptiveCellTrie(frame, max_level=4)
        offsets, polygon_ids = trie.flattened().lookup_points(
            np.array([1.0, 2.0]), np.array([1.0, 2.0])
        )
        assert offsets.tolist() == [0, 0, 0]
        assert polygon_ids.size == 0

    def test_memory_accounting_positive(self, small):
        _, trie = small
        flat = trie.flattened()
        assert isinstance(flat, FlatACT)
        assert flat.memory_bytes() > 0
        assert flat.num_levels == 2


class TestSaveLoadRoundTrip:
    def test_postings_and_lookups_identical(self, tmp_path, nyc):
        trie, points = nyc
        flat = trie.flattened()
        path = tmp_path / "flat_act.npz"
        flat.save(path)
        loaded = FlatACT.load(path)

        assert loaded.max_level == flat.max_level
        assert loaded.num_levels == flat.num_levels
        assert loaded.num_cells == flat.num_cells
        for (lvl_a, keys_a, off_a, pids_a), (lvl_b, keys_b, off_b, pids_b) in zip(
            flat._levels, loaded._levels
        ):
            assert lvl_a == lvl_b
            np.testing.assert_array_equal(keys_a, keys_b)
            np.testing.assert_array_equal(off_a, off_b)
            np.testing.assert_array_equal(pids_a, pids_b)

        offsets_a, pids_a = flat.lookup_points(points.xs, points.ys)
        offsets_b, pids_b = loaded.lookup_points(points.xs, points.ys)
        np.testing.assert_array_equal(offsets_a, offsets_b)
        np.testing.assert_array_equal(pids_a, pids_b)

    def test_frame_restored_bit_exactly(self, tmp_path, nyc):
        trie, points = nyc
        flat = trie.flattened()
        path = tmp_path / "flat_act.npz"
        flat.save(path)
        loaded = FlatACT.load(path)
        assert loaded.frame.origin_x == flat.frame.origin_x
        assert loaded.frame.origin_y == flat.frame.origin_y
        assert loaded.frame.size == flat.frame.size
        # The scalar walk (which consults the frame) agrees point by point.
        for k in range(50):
            x, y = float(points.xs[k]), float(points.ys[k])
            assert loaded.lookup_point(x, y) == flat.lookup_point(x, y)

    def test_empty_index_round_trip(self, tmp_path):
        frame = GridFrame(BoundingBox(0.0, 0.0, 16.0, 16.0))
        flat = FlatACT(frame, 4, [])
        path = tmp_path / "empty.npz"
        flat.save(path)
        loaded = FlatACT.load(path)
        assert loaded.num_cells == 0
        offsets, pids = loaded.lookup_points(np.array([1.0]), np.array([1.0]))
        assert offsets.tolist() == [0, 0]
        assert pids.size == 0
