"""Parity regression tests: the suite-wide sweep ≡ the per-cell recursion oracle.

The per-cell recursive refinement (``tests/oracles/hr_recursive.py``) is the
correctness oracle of the construction path; the level-synchronous
suite-wide frontier sweep must emit the **identical cell set** — codes,
levels and boundary flags — for every construction mode (distance-bounded
and budgeted, conservative and non-conservative), on convex blobs, concave
shapes, polygons with holes and multipolygons, whether it sweeps one region
or a whole suite.  FlatACT bulk loading must likewise reproduce the oracle's
per-insert trie, flattened, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import hr_recursive
from repro.approx import HierarchicalRasterApproximation, HRBuilder, get_build_engine
from repro.data import NYCWorkload, noisy_convex_polygon
from repro.errors import ApproximationError
from repro.geometry import BoundingBox, MultiPolygon, Polygon
from repro.grid import GridFrame
from repro.index import FlatACT


def cell_set(approx: HierarchicalRasterApproximation) -> set[tuple[int, int, bool]]:
    codes, levels, boundary = approx.cell_arrays()
    return set(zip(levels.tolist(), codes.tolist(), boundary.tolist()))


def sweep_one(region, frame, **kwargs) -> HierarchicalRasterApproximation:
    """The sweep over a one-region suite — what single-region builds run."""
    return HierarchicalRasterApproximation._build_frontier_suite([region], frame, **kwargs)[0]


def assert_same_levels(got: FlatACT, want: FlatACT) -> None:
    assert got.max_level == want.max_level
    assert got.num_cells == want.num_cells
    assert got.num_levels == want.num_levels
    for (l1, k1, o1, p1), (l2, k2, o2, p2) in zip(got._levels, want._levels):
        assert l1 == l2
        np.testing.assert_array_equal(k1, k2)
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(p1, p2)


@pytest.fixture(scope="module")
def frame() -> GridFrame:
    return GridFrame(BoundingBox(0.0, 0.0, 100.0, 100.0))


@pytest.fixture(
    scope="module",
    params=["blob", "concave", "holed", "multi"],
)
def region(request):
    if request.param == "blob":
        return noisy_convex_polygon(50.0, 50.0, 18.0, 22, seed=11)
    if request.param == "concave":
        return Polygon([(5, 5), (60, 5), (60, 25), (25, 25), (25, 60), (5, 60)])
    if request.param == "holed":
        return Polygon(
            [(10.0, 10.0), (90.0, 10.0), (90.0, 90.0), (10.0, 90.0)],
            holes=[[(40.0, 40.0), (60.0, 40.0), (60.0, 60.0), (40.0, 60.0)]],
        )
    return MultiPolygon(
        [
            noisy_convex_polygon(28.0, 30.0, 12.0, 14, seed=3),
            noisy_convex_polygon(70.0, 68.0, 13.0, 18, seed=4),
        ]
    )


class TestFrontierSweepParity:
    """The one-region suite sweep emits exactly the oracle's cells."""

    @pytest.mark.parametrize("conservative", [True, False])
    @pytest.mark.parametrize("max_cells", [None, 4, 16, 64, 256])
    def test_cell_set_identical(self, frame, region, conservative, max_cells):
        oracle = hr_recursive.build_hr(
            region, frame, max_level=8, max_cells=max_cells, conservative=conservative
        )
        swept = sweep_one(
            region, frame, max_level=8, max_cells=max_cells, conservative=conservative
        )
        assert cell_set(oracle) == cell_set(swept)
        assert oracle.max_level == swept.max_level
        assert oracle.num_boundary_cells == swept.num_boundary_cells

    def test_from_bound_engines_agree(self, frame, region):
        oracle = hr_recursive.build_bound(region, frame, epsilon=2.0)
        swept = HierarchicalRasterApproximation.from_bound(region, frame, epsilon=2.0)
        assert cell_set(oracle) == cell_set(swept)

    def test_budget_engines_agree_through_public_api(self, frame, region):
        oracle = hr_recursive.build_hr(region, frame, max_cells=64)
        swept = HierarchicalRasterApproximation.from_cell_budget(region, frame, max_cells=64)
        assert cell_set(oracle) == cell_set(swept)
        assert oracle.max_level == swept.max_level

    def test_covers_points_identical(self, frame, region, rng):
        xs = rng.uniform(0.0, 100.0, 500)
        ys = rng.uniform(0.0, 100.0, 500)
        oracle = hr_recursive.build_hr(region, frame, max_cells=128)
        swept = HierarchicalRasterApproximation.from_cell_budget(region, frame, max_cells=128)
        np.testing.assert_array_equal(
            oracle.covers_points(xs, ys), swept.covers_points(xs, ys)
        )


class TestBatchConstruction:
    def test_batch_equals_individual_builds(self, frame):
        regions = [noisy_convex_polygon(30.0 + 8 * k, 40.0, 9.0, 12, seed=k) for k in range(5)]
        batch = HierarchicalRasterApproximation.from_cell_budget_batch(
            regions, frame, max_cells=64
        )
        assert len(batch) == len(regions)
        for region, approx in zip(regions, batch):
            single = hr_recursive.build_hr(region, frame, max_cells=64)
            assert cell_set(single) == cell_set(approx)

    def test_budget_validated(self, frame):
        blob = noisy_convex_polygon(50.0, 50.0, 10.0, 10, seed=1)
        with pytest.raises(ApproximationError):
            HierarchicalRasterApproximation.from_cell_budget_batch([blob], frame, max_cells=0)

    def test_from_cell_arrays_rejects_mismatched_shapes(self, frame):
        blob = noisy_convex_polygon(50.0, 50.0, 10.0, 10, seed=1)
        with pytest.raises(ApproximationError):
            HierarchicalRasterApproximation.from_cell_arrays(
                blob,
                frame,
                np.zeros(3, dtype=np.uint64),
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=bool),
                max_level=4,
                conservative=True,
            )


class TestFlatACTBulkLoad:
    """`FlatACT.build` ≡ flattening the oracle's per-insert trie."""

    @pytest.fixture(scope="class")
    def suite(self):
        workload = NYCWorkload(extent=BoundingBox(0.0, 0.0, 1000.0, 1000.0), seed=5)
        return workload.neighborhoods(count=7), workload.frame()

    def test_bulk_load_matches_trie_flatten(self, suite):
        regions, frame = suite
        via_trie = hr_recursive.load_act(regions, frame, epsilon=8.0).flattened()
        assert_same_levels(FlatACT.build(regions, frame, epsilon=8.0), via_trie)

    def test_bulk_index_answers_probes_like_trie(self, suite, rng):
        regions, frame = suite
        trie = hr_recursive.load_act(regions, frame, epsilon=8.0)
        flat = FlatACT.build(regions, frame, epsilon=8.0)
        xs = rng.uniform(0.0, 1000.0, 800)
        ys = rng.uniform(0.0, 1000.0, 800)
        offsets_a, pids_a = trie.lookup_points_batch(xs, ys)
        offsets_b, pids_b = flat.lookup_points_batch(xs, ys)
        np.testing.assert_array_equal(offsets_a, offsets_b)
        np.testing.assert_array_equal(pids_a, pids_b)
        for k in range(0, 800, 97):
            assert flat.lookup_point(float(xs[k]), float(ys[k])) == trie.lookup_point(
                float(xs[k]), float(ys[k])
            )

    def test_flattened_is_self(self, suite):
        regions, frame = suite
        flat = FlatACT.build(regions, frame, epsilon=8.0)
        assert flat.flattened() is flat

    def test_from_cells_rejects_mismatched_arrays(self, suite):
        _, frame = suite
        with pytest.raises(Exception):
            FlatACT.from_cells(
                frame,
                4,
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.uint64),
                np.zeros(2, dtype=np.int64),
            )


class TestSuiteSweepParity:
    """The suite-wide sweep emits exactly the one-region sweeps' cells."""

    @pytest.fixture(scope="class")
    def mixed_suite(self, frame):
        return [
            noisy_convex_polygon(50.0, 50.0, 18.0, 22, seed=11),
            Polygon([(5, 5), (60, 5), (60, 25), (25, 25), (25, 60), (5, 60)]),
            Polygon(
                [(10.0, 10.0), (90.0, 10.0), (90.0, 90.0), (10.0, 90.0)],
                holes=[[(40.0, 40.0), (60.0, 40.0), (60.0, 60.0), (40.0, 60.0)]],
            ),
            MultiPolygon(
                [
                    noisy_convex_polygon(28.0, 30.0, 12.0, 14, seed=3),
                    noisy_convex_polygon(70.0, 68.0, 13.0, 18, seed=4),
                ]
            ),
        ] + [noisy_convex_polygon(30.0 + 7 * k, 40.0, 8.0, 12, seed=k) for k in range(4)]

    @pytest.mark.parametrize("conservative", [True, False])
    @pytest.mark.parametrize("max_cells", [None, 4, 16, 64, 256])
    def test_suite_sweep_identical_to_per_region(
        self, frame, mixed_suite, conservative, max_cells
    ):
        suite = HierarchicalRasterApproximation._build_frontier_suite(
            mixed_suite, frame, max_level=8, max_cells=max_cells, conservative=conservative
        )
        assert len(suite) == len(mixed_suite)
        for region, batched in zip(mixed_suite, suite):
            single = sweep_one(
                region, frame, max_level=8, max_cells=max_cells, conservative=conservative
            )
            assert cell_set(single) == cell_set(batched)
            assert single.max_level == batched.max_level
            # Stronger than set equality: the emitted arrays match in order,
            # so downstream bulk loads see bit-identical inputs.
            for a, b in zip(single.cell_arrays(), batched.cell_arrays()):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("max_cells", [1, 2, 3])
    def test_tiny_budget_parity_all_engines(self, frame, mixed_suite, max_cells):
        """1–3 cell budgets stop before the first split, as in the oracle."""
        oracle = [
            hr_recursive.build_hr(region, frame, max_cells=max_cells) for region in mixed_suite
        ]
        batch = HierarchicalRasterApproximation.from_cell_budget_batch(
            mixed_suite, frame, max_cells=max_cells
        )
        for region, ref, approx in zip(mixed_suite, oracle, batch):
            assert cell_set(ref) == cell_set(approx)
            assert approx.num_cells <= max_cells
            single = HierarchicalRasterApproximation.from_cell_budget(
                region, frame, max_cells=max_cells
            )
            assert cell_set(single) == cell_set(approx)

    def test_suite_bound_build_matches_flat_act(self, frame, mixed_suite):
        via_trie = hr_recursive.load_act(mixed_suite, frame, epsilon=4.0).flattened()
        assert_same_levels(FlatACT.build(mixed_suite, frame, epsilon=4.0), via_trie)

    @pytest.mark.parametrize("conservative", [True, False])
    @pytest.mark.parametrize("epsilon", [16.0, 4.0])
    def test_suite_bound_build_identical_to_python_oracle(self, frame, conservative, epsilon):
        """Holes and touching parts on cell-aligned coordinates: cell centres
        fall exactly on hole and part boundaries, where the segmented centre
        test must give the scalar ray cast's verdict."""
        holed = Polygon(
            [(12.5, 12.5), (87.5, 12.5), (87.5, 87.5), (12.5, 87.5)],
            holes=[
                [(25.0, 25.0), (50.0, 25.0), (50.0, 50.0), (25.0, 50.0)],
                [(56.25, 56.25), (75.0, 62.5), (62.5, 75.0)],
            ],
        )
        touching = MultiPolygon(
            [
                Polygon([(0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (0.0, 50.0)],
                        holes=[[(12.5, 12.5), (37.5, 12.5), (37.5, 37.5), (12.5, 37.5)]]),
                Polygon([(50.0, 0.0), (100.0, 0.0), (100.0, 50.0), (50.0, 50.0)]),
                noisy_convex_polygon(50.0, 75.0, 20.0, 16, seed=9),
            ]
        )
        regions = [holed, touching]
        batched = get_build_engine().build_bound_batch(
            regions, frame, epsilon, conservative=conservative
        )
        for region, swept in zip(regions, batched):
            oracle = hr_recursive.build_bound(region, frame, epsilon, conservative=conservative)
            assert cell_set(oracle) == cell_set(swept)
            assert oracle.max_level == swept.max_level

    def test_empty_suite(self, frame):
        assert (
            HierarchicalRasterApproximation._build_frontier_suite(
                [], frame, max_level=8, max_cells=None, conservative=True
            )
            == []
        )


class TestEngineResolution:
    def test_none_is_the_one_builder(self):
        builder = get_build_engine(None)
        assert isinstance(builder, HRBuilder)
        assert get_build_engine() is builder

    def test_unknown_engine_rejected(self):
        """Every name is rejected, the retired backend names included."""
        for name in ("gpu", "python", "vectorized", "suite"):
            with pytest.raises(ApproximationError):
                get_build_engine(name)


class TestReplayBudget:
    """The vectorised budget replay vs the oracle's sequential loop.

    The suite sweep replays the recursive oracle's best-first budget
    accounting over per-parent cell deltas; `_replay_budget` does it with
    prefix sums and a first-failure cutoff.  Deltas can be negative (all
    children outside), so the prefix is non-monotone — the property-style
    sweep below covers exactly those shapes.
    """

    @staticmethod
    def _oracle(deltas, slice_starts, slice_stops, base_totals, max_cells):
        split_upto = np.empty(slice_starts.shape[0], dtype=np.int64)
        new_totals = np.empty(slice_starts.shape[0], dtype=np.int64)
        for s, (lo, hi, total) in enumerate(
            zip(slice_starts.tolist(), slice_stops.tolist(), base_totals.tolist())
        ):
            upto = lo
            for p in range(lo, hi):
                if total + 3 > max_cells:
                    break
                total += int(deltas[p])
                upto = p + 1
            split_upto[s] = upto
            new_totals[s] = total
        return split_upto, new_totals

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_sequential_loop(self, seed):
        from repro.approx.hierarchical_raster import _replay_budget

        rng = np.random.default_rng(seed)
        num_slices = int(rng.integers(1, 8))
        sizes = rng.integers(1, 20, size=num_slices)
        slice_stops = np.cumsum(sizes)
        slice_starts = np.concatenate(([0], slice_stops[:-1]))
        n = int(slice_stops[-1])
        # The sweep's real deltas lie in [-1, 3] (4 children, each inside /
        # boundary / outside, minus the parent).
        deltas = rng.integers(-1, 4, size=n).astype(np.int64)
        base_totals = rng.integers(1, 30, size=num_slices).astype(np.int64)
        max_cells = int(rng.integers(4, 40))

        got = _replay_budget(deltas, slice_starts, slice_stops, base_totals, max_cells)
        want = self._oracle(deltas, slice_starts, slice_stops, base_totals, max_cells)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_budget_already_exhausted(self):
        from repro.approx.hierarchical_raster import _replay_budget

        deltas = np.array([3, 3], dtype=np.int64)
        split_upto, new_totals = _replay_budget(
            deltas,
            np.array([0], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([10], dtype=np.int64),
            max_cells=12,
        )
        assert split_upto.tolist() == [0]
        assert new_totals.tolist() == [10]

    def test_negative_deltas_reopen_budget_for_later_parents(self):
        """A non-monotone prefix: parent 1 fails, so the loop stops there even
        though parent 2's delta would bring the total back under budget."""
        from repro.approx.hierarchical_raster import _replay_budget

        deltas = np.array([3, -1, -1], dtype=np.int64)
        split_upto, new_totals = _replay_budget(
            deltas,
            np.array([0], dtype=np.int64),
            np.array([3], dtype=np.int64),
            np.array([5], dtype=np.int64),
            max_cells=10,
        )
        # Parent 0 splits (5+3=8); parent 1 sees 8+3 > 10 and stops the loop.
        assert split_upto.tolist() == [1]
        assert new_totals.tolist() == [8]
