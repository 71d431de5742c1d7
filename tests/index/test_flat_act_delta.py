"""Live-suite mutations of the flat ACT: delta segments vs from-scratch builds.

The rebuild-parity contract under test: after **any** interleaving of
``add_polygons`` / ``remove_polygons`` / ``replace_polygon`` /
``consolidate``, the mutated index answers every probe **bit-identically**
— through the batch probe and the per-point oracle alike — to a
:meth:`FlatACT.build` from scratch over the mutated suite, and
``consolidate()`` reproduces that from-scratch build's exact arrays.
Persistence and the segment generation tokens (the shared-memory republish
contract) are locked down here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.act_level_loop import assert_kernel_matches_loop
from oracles.probe_loop import PythonLoopEngine

from repro.api.fingerprint import entry_fingerprints
from repro.approx.build_engine import get_build_engine
from repro.errors import IndexError_
from repro.geometry import BoundingBox, Polygon
from repro.grid import GridFrame
from repro.index import FlatACT

EPSILON = 16.0


@pytest.fixture(scope="module")
def builder():
    return get_build_engine(None)


@pytest.fixture(scope="module")
def frame(workload):
    return workload.frame()


@pytest.fixture(scope="module")
def pool(workload):
    """More polygons than any test starts with — mutation material."""
    return workload.neighborhoods(count=24)


@pytest.fixture(scope="module")
def probes(workload):
    points = workload.taxi_points(600)
    return points.xs, points.ys


def _cells(builder, regions, frame):
    """Per-polygon ``(codes, levels)`` arrays — the delta builders' input."""
    return builder.build_cell_arrays(regions, frame, EPSILON)


def _fresh(regions, frame):
    """The from-scratch oracle for the current suite."""
    return FlatACT.build(
        list(regions), frame, EPSILON, fingerprints=entry_fingerprints(regions)
    )


def _assert_probe_parity(live, regions, frame, probes):
    """The batch probe and the per-point oracle both agree bit for bit with a
    from-scratch build."""
    fresh = _fresh(regions, frame)
    xs, ys = probes
    for probe in (lambda index: index.lookup_points_batch(xs, ys),
                  lambda index: PythonLoopEngine().probe_act_pairs(index, xs, ys)):
        off_live, pids_live = probe(live)
        off_fresh, pids_fresh = probe(fresh)
        np.testing.assert_array_equal(off_live, off_fresh)
        np.testing.assert_array_equal(pids_live, pids_fresh)
    assert live.num_polygons == fresh.num_polygons == len(regions)
    assert live.num_cells == fresh.num_cells
    return fresh


def _assert_same_arrays(a: FlatACT, b: FlatACT):
    """Segment-free structural equality — the consolidation parity gate."""
    assert a.consolidated and b.consolidated
    assert a.num_levels == b.num_levels
    assert a.num_cells == b.num_cells
    for (lvl_a, keys_a, off_a, pids_a), (lvl_b, keys_b, off_b, pids_b) in zip(
        a._levels, b._levels
    ):
        assert lvl_a == lvl_b
        np.testing.assert_array_equal(keys_a, keys_b)
        np.testing.assert_array_equal(off_a, off_b)
        np.testing.assert_array_equal(pids_a, pids_b)


class TestRandomInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mutation_sequence_rebuild_parity(self, seed, builder, pool, frame, probes):
        """Random add/remove/replace/consolidate runs never drift from fresh builds."""
        rng = np.random.default_rng(seed)
        current = list(pool[:6])
        next_pick = 6
        live = _fresh(current, frame)
        for _ in range(8):
            choices = ["add", "replace", "consolidate"]
            if current:
                choices.append("remove")
            op = str(rng.choice(choices))
            if op == "add":
                count = int(rng.integers(1, 3))
                newbies = [
                    pool[(next_pick + i) % len(pool)].scaled(0.95)
                    for i in range(count)
                ]
                next_pick += count
                ids = live.add_polygons(
                    _cells(builder, newbies, frame),
                    fingerprints=entry_fingerprints(newbies),
                )
                assert ids == list(range(len(current), len(current) + count))
                current.extend(newbies)
            elif op == "remove":
                count = int(rng.integers(1, min(2, len(current)) + 1))
                positions = sorted(
                    int(p)
                    for p in rng.choice(len(current), size=count, replace=False)
                )
                live.remove_polygons(positions)
                for position in reversed(positions):
                    del current[position]
            elif op == "replace":
                if not current:
                    continue
                position = int(rng.integers(0, len(current)))
                region = current[position].scaled(0.9)
                live.replace_polygon(
                    position,
                    _cells(builder, [region], frame)[0],
                    fingerprint=entry_fingerprints([region])[0],
                )
                current[position] = region
            else:
                live.consolidate()
                assert live.consolidated
            fresh = _assert_probe_parity(live, current, frame, probes)
            assert live.fingerprints == fresh.fingerprints

        # The final consolidation must reproduce the oracle's exact arrays.
        live.consolidate()
        _assert_same_arrays(live, _fresh(current, frame))


def _random_region(rng: np.random.Generator) -> Polygon:
    """A star polygon or a cell-aligned box; both land on top of each other."""
    if rng.random() < 0.4:
        # Boxes on a 16-unit lattice share whole edges (touching polygons).
        x0, y0 = (16.0 * rng.integers(1, 9, size=2)).tolist()
        w, h = (16.0 * rng.integers(1, 4, size=2)).tolist()
        return Polygon([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])
    cx, cy = rng.uniform(40.0, 150.0, size=2)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=int(rng.integers(5, 12))))
    radii = rng.uniform(10.0, 45.0, size=angles.shape[0])
    return Polygon(np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)]))


class TestKernelEqualsLevelLoop:
    """``lookup_codes`` vs the per-point level loop on live, patched suites."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([16.0, 4.0]),
        steps=st.integers(0, 6),
    )
    def test_random_suites_under_mutation(self, seed, epsilon, steps):
        """Overlapping/touching suites, through patches, tombstones and consolidation."""
        rng = np.random.default_rng(seed)
        builder = get_build_engine(None)
        # Polygons stay left of x = 200, so the right strip hits nothing.
        frame = GridFrame(BoundingBox(0.0, 0.0, 256.0, 256.0))
        cells = lambda regions: builder.build_cell_arrays(regions, frame, epsilon)  # noqa: E731
        live = FlatACT.build(
            [_random_region(rng) for _ in range(int(rng.integers(1, 6)))], frame, epsilon
        )
        assert_kernel_matches_loop(live, rng)
        for _ in range(steps):
            op = rng.choice(["replace", "remove", "add"])
            if op == "add" or live.num_polygons == 0:
                count = int(rng.integers(1, 3))
                live.add_polygons(cells([_random_region(rng) for _ in range(count)]))
            elif op == "replace":
                position = int(rng.integers(0, live.num_polygons))
                live.replace_polygon(position, cells([_random_region(rng)])[0])
            else:
                count = int(rng.integers(1, min(2, live.num_polygons) + 1))
                live.remove_polygons(rng.choice(live.num_polygons, size=count, replace=False))
            assert_kernel_matches_loop(live, rng)
        live.consolidate()
        assert_kernel_matches_loop(live, rng)


class TestEdges:
    def test_empty_suite_grows(self, builder, pool, frame, probes):
        """An empty index accepts adds and matches a fresh 2-polygon build."""
        live = _fresh([], frame)
        assert live.num_polygons == 0
        xs, ys = probes
        offsets, pids = live.lookup_points(xs, ys)
        assert offsets.tolist() == [0] * (xs.shape[0] + 1)
        assert pids.size == 0

        newbies = list(pool[:2])
        ids = live.add_polygons(
            _cells(builder, newbies, frame), fingerprints=entry_fingerprints(newbies)
        )
        assert ids == [0, 1]
        _assert_probe_parity(live, newbies, frame, probes)
        live.consolidate()
        _assert_same_arrays(live, _fresh(newbies, frame))

    def test_remove_last_polygon_empties_index(self, builder, pool, frame, probes):
        """Removing down to zero polygons leaves a truly empty index."""
        current = list(pool[:3])
        live = _fresh(current, frame)
        for position in (2, 1, 0):
            live.remove_polygons([position])
            del current[position]
            _assert_probe_parity(live, current, frame, probes)
        assert live.num_polygons == 0
        assert live.num_cells == 0
        assert live.fingerprints == ()
        live.consolidate()
        assert live.num_levels == 0
        _assert_same_arrays(live, _fresh([], frame))

    def test_replace_with_identical_cells_stays_identical(
        self, builder, pool, frame, probes
    ):
        """A modify-to-identical still consolidates to the untouched arrays."""
        current = list(pool[:4])
        live = _fresh(current, frame)
        live.replace_polygon(
            1,
            _cells(builder, [current[1]], frame)[0],
            fingerprint=entry_fingerprints([current[1]])[0],
        )
        assert not live.consolidated  # the index-level path always does the work
        fresh = _assert_probe_parity(live, current, frame, probes)
        assert live.fingerprints == fresh.fingerprints
        live.consolidate()
        _assert_same_arrays(live, fresh)

    def test_out_of_range_positions_rejected(self, builder, pool, frame):
        live = _fresh(list(pool[:2]), frame)
        cells = _cells(builder, [pool[2]], frame)[0]
        with pytest.raises(IndexError_):
            live.remove_polygons([2])
        with pytest.raises(IndexError_):
            live.replace_polygon(-1, cells)
        with pytest.raises(IndexError_):
            live.replace_polygon(2, cells)
        assert live.consolidated  # a rejected call leaves no slot machinery behind


def _with_level(levels: np.ndarray, index: int, level: int) -> np.ndarray:
    levels = levels.copy()
    levels[index] = level
    return levels


#: Malformed ``(codes, levels)`` pairs, from a good pair and the index's max_level.
BAD_PAIRS = {
    "unequal length": lambda codes, levels, top: (codes, levels[:-1]),
    "2-D": lambda codes, levels, top: (codes[:4].reshape(2, 2), levels[:4].reshape(2, 2)),
    "level above max_level": lambda codes, levels, top: (codes, _with_level(levels, 0, top + 1)),
    "level 99": lambda codes, levels, top: (codes, np.full_like(levels, 99)),
    "negative level": lambda codes, levels, top: (codes, _with_level(levels, -1, -1)),
    "not a pair": lambda codes, levels, top: (codes,),
    "not integers": lambda codes, levels, top: (codes, ["a"] * codes.shape[0]),
}


class TestBadCellsLeaveIndexUntouched:
    """A malformed ``(codes, levels)`` pair fails before any state changes."""

    @pytest.mark.parametrize("case", sorted(BAD_PAIRS))
    @pytest.mark.parametrize("mutated", [False, True])
    def test_replace_and_add_reject_bad_pairs(
        self, builder, pool, frame, probes, case, mutated
    ):
        current = list(pool[:6])
        live = _fresh(current, frame)
        if mutated:
            replacement = current[1].scaled(0.9)
            live.replace_polygon(1, _cells(builder, [replacement], frame)[0])
            current[1] = replacement
        good = _cells(builder, [pool[7]], frame)[0]
        bad = BAD_PAIRS[case](*good, live.max_level)
        xs, ys = probes
        before = live.lookup_points(xs, ys)
        num_cells, segments = live.num_cells, live.num_delta_segments
        dense = None if live._dense_of_slot is None else live._dense_of_slot.copy()

        with pytest.raises(IndexError_):
            live.replace_polygon(2, bad)
        with pytest.raises(IndexError_):
            live.add_polygons([good, bad])
        assert live.num_cells == num_cells
        assert live.num_delta_segments == segments
        assert live.num_polygons == len(current)
        if dense is None:
            assert live._dense_of_slot is None
        else:
            np.testing.assert_array_equal(live._dense_of_slot, dense)
        after = live.lookup_points(xs, ys)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        _assert_probe_parity(live, current, frame, probes)


class TestBoundedDeltaStack:
    """Patches merge into the newest delta segments by size (binary counter)."""

    def test_equal_patches_count_in_binary(self, builder, pool, frame, probes):
        """k equal-size patches of distinct polygons leave popcount(k) segments."""
        current = list(pool[:12])
        live = _fresh(current, frame)
        replacement = pool[20].scaled(0.8)
        cells = _cells(builder, [replacement], frame)[0]
        for k in range(1, len(current) + 1):
            live.replace_polygon(k - 1, cells)
            current[k - 1] = replacement
            assert live.num_delta_segments == bin(k).count("1")
            assert live.num_delta_segments <= int(np.log2(k)) + 1
            _assert_probe_parity(live, current, frame, probes)
        live.consolidate()
        _assert_same_arrays(live, FlatACT.build(current, frame, EPSILON))

    def test_newest_segment_is_smaller_than_the_one_below(self, builder, pool, frame, probes):
        """Mixed sizes: a patch stops merging at a segment larger than the merge."""
        current = list(pool[:10])
        live = _fresh(current, frame)
        rng = np.random.default_rng(3)
        for _ in range(10):
            position = int(rng.integers(0, len(current)))
            region = pool[int(rng.integers(10, len(pool)))].scaled(float(rng.uniform(0.3, 1.2)))
            live.replace_polygon(position, _cells(builder, [region], frame)[0])
            current[position] = region
            sizes = [live._live_count(segment) for segment in live._deltas]
            assert len(sizes) == 1 or sizes[-2] > sizes[-1]
            _assert_probe_parity(live, current, frame, probes)

    def test_merging_drops_tombstones(self, builder, pool, frame, probes):
        """Re-patching one polygon keeps one segment holding only its live cells."""
        current = list(pool[:5])
        live = _fresh(current, frame)
        for scale in (0.9, 0.8, 0.9, 0.7, 0.95):
            region = pool[2].scaled(scale)
            cells = _cells(builder, [region], frame)[0]
            live.replace_polygon(2, cells)
            current[2] = region
            assert live.num_delta_segments == 1
            stored = sum(pids.shape[0] for _, _, _, pids in live._deltas[0])
            assert stored == cells[0].shape[0]
            _assert_probe_parity(live, current, frame, probes)


class TestPersistence:
    def _mutated(self, builder, pool, frame):
        """A live index with two delta segments, a tombstone and fingerprints.

        The large patch comes first: a later patch with fewer postings than
        the newest segment stacks on top of it instead of merging into it.
        """
        current = list(pool[:5])
        live = _fresh(current, frame)
        replacement = current[2].scaled(1.2)
        live.replace_polygon(
            2,
            _cells(builder, [replacement], frame)[0],
            fingerprint=entry_fingerprints([replacement])[0],
        )
        current[2] = replacement
        live.remove_polygons([0])
        del current[0]
        newbie = pool[5].scaled(0.3)
        live.add_polygons(
            _cells(builder, [newbie], frame), fingerprints=entry_fingerprints([newbie])
        )
        current.append(newbie)
        return live, current

    def test_delta_segments_round_trip(self, tmp_path, builder, pool, frame, probes):
        """Save/load of a live index keeps deltas, tombstones and fingerprints."""
        live, current = self._mutated(builder, pool, frame)
        assert not live.consolidated and live.num_delta_segments == 2
        path = tmp_path / "live.npz"
        live.save(path)
        loaded = FlatACT.load(path)

        assert not loaded.consolidated
        assert loaded.num_delta_segments == live.num_delta_segments
        assert loaded.num_polygons == live.num_polygons
        assert loaded.num_cells == live.num_cells
        assert loaded.fingerprints == live.fingerprints
        np.testing.assert_array_equal(loaded._dense_of_slot, live._dense_of_slot)
        _assert_probe_parity(loaded, current, frame, probes)
        # Both copies consolidate to the same (from-scratch) arrays.
        _assert_same_arrays(live.consolidate(), loaded.consolidate())

    def test_v1_schema_loads_as_consolidated(self, tmp_path, pool, frame, probes):
        """Pre-live files (no schema field) load as consolidated v1 indexes."""
        plain = FlatACT.build(list(pool[:3]), frame, EPSILON)  # no fingerprints
        assert "schema" not in plain.state_arrays()  # v1 on disk
        path = tmp_path / "v1.npz"
        plain.save(path)
        loaded = FlatACT.load(path)
        assert loaded.consolidated
        assert loaded.fingerprints is None
        xs, ys = probes
        off_a, pids_a = plain.lookup_points(xs, ys)
        off_b, pids_b = loaded.lookup_points(xs, ys)
        np.testing.assert_array_equal(off_a, off_b)
        np.testing.assert_array_equal(pids_a, pids_b)

    def test_fingerprints_upgrade_to_v2(self, tmp_path, pool, frame):
        """Fingerprints alone bump the schema; they survive the round trip."""
        regions = list(pool[:3])
        flat = _fresh(regions, frame)
        assert int(flat.state_arrays()["schema"][0]) == 2
        path = tmp_path / "v2.npz"
        flat.save(path)
        loaded = FlatACT.load(path)
        assert loaded.consolidated
        assert loaded.fingerprints == entry_fingerprints(regions)
