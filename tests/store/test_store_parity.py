"""Rebuild-parity suite for the updatable store.

The store's correctness contract: after **any** interleaving of
insert / delete / flush / compact, every query path answers bit-identically —
float aggregates included — to a store rebuilt from scratch over the live
point set.  The scripted interleavings below drive the store through
randomised op sequences (seeded, so failures reproduce) and check every
query path at several points along the way, both against the rebuild
oracle and against the original single-shot query paths
(``act_approximate_join``, ``raster_count``, ``estimate_count_range``) over
the live point set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import PointSet
from repro.index import SortedCodeArray
from repro.query import (
    AggregationQuery,
    LinearizedPoints,
    act_approximate_join,
    estimate_count_range,
    raster_count,
)
from repro.query.spec import Aggregate
from repro.store import SizeTieredCompaction, SpatialStore

EPSILON = 14.0


@pytest.fixture(scope="module")
def pool(workload):
    """A pool of points the scripts draw insert batches from."""
    return workload.taxi_points(2400)


@pytest.fixture(scope="module")
def regions(workload):
    return workload.neighborhoods(count=6)


@pytest.fixture(scope="module")
def act_index(regions, frame):
    """One prebuilt polygon index shared by store and oracle joins."""
    from repro.index import FlatACT

    return FlatACT.build(regions, frame, epsilon=EPSILON)


def _apply_script(store, pool, seed, num_ops):
    """Drive the store through one randomised op sequence."""
    rng = np.random.default_rng(seed)
    cursor = 0
    for _ in range(num_ops):
        op = rng.choice(["insert", "insert", "delete", "flush", "compact"])
        if op == "insert" and cursor < len(pool):
            size = int(rng.integers(50, 300))
            batch = pool.select(np.arange(cursor, min(cursor + size, len(pool))))
            cursor += len(batch)
            store.insert(batch)
        elif op == "delete":
            live = store.snapshot().live_ids()
            if live.shape[0]:
                kill = rng.choice(live, size=min(40, live.shape[0]), replace=False)
                store.delete(kill)
        elif op == "flush":
            store.flush()
        elif op == "compact":
            store.compact(full=bool(rng.integers(0, 2)))
    return store


def _assert_all_paths_match(store, regions, frame, level, act_index):
    """Every query path vs the rebuild oracle AND the single-shot paths."""
    oracle = store.rebuilt(auto_compact=False)
    live = store.live_points()
    assert oracle.num_live == store.num_live == len(live)

    lin = LinearizedPoints.build(live, frame, level)
    lin_index = SortedCodeArray(lin.codes, assume_sorted=True)
    count_query = AggregationQuery()
    sum_query = AggregationQuery(aggregate=Aggregate.SUM, attribute="fare")
    avg_query = AggregationQuery(aggregate=Aggregate.AVG, attribute="passengers")

    # --- ACT approximate join (counts exact, float sums bit-identical)
    for query in (count_query, sum_query, avg_query):
        got = store.act_join(regions, epsilon=EPSILON, query=query, trie=act_index)
        want = oracle.act_join(regions, epsilon=EPSILON, query=query, trie=act_index)
        direct = act_approximate_join(live, regions, frame, epsilon=EPSILON,
                                      query=query, trie=act_index)
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.aggregates, want.aggregates)
        np.testing.assert_array_equal(got.aggregates, direct.aggregates)
        assert got.pip_tests == 0

    # --- raster counts through the code-index path
    for region in regions[:3]:
        got_count = store.raster_count(region, 48)
        want_count = oracle.raster_count(region, 48)
        direct_count = raster_count(region, lin, lin_index, 48)
        assert got_count == want_count == direct_count

    # --- raw range counts
    lo = int(lin.codes[0]) if lin.size else 0
    hi = int(lin.codes[-1]) + 1 if lin.size else 1
    ranges = [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    assert store.count_in_ranges(ranges) == oracle.count_in_ranges(ranges)

    # --- result-range estimation
    for region in regions[:2]:
        got_est = store.estimate_count_range(region, epsilon=30.0)
        want_est = oracle.estimate_count_range(region, epsilon=30.0)
        direct_est = estimate_count_range(live, region, epsilon=30.0)
        for attr in ("approximate", "boundary_count", "lower", "upper", "expected"):
            assert getattr(got_est, attr) == getattr(want_est, attr)
            assert getattr(got_est, attr) == getattr(direct_est, attr)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_scripted_interleavings_match_rebuild(
    seed, pool, regions, frame, store_level, act_index
):
    store = SpatialStore(
        frame,
        store_level,
        attributes=pool.attribute_names,
        memtable_capacity=400,
        compaction=SizeTieredCompaction(min_runs=3, tier_base=4.0),
        auto_compact=bool(seed % 2),
    )
    _apply_script(store, pool, seed, num_ops=10)
    _assert_all_paths_match(store, regions, frame, store_level, act_index)
    # Keep mutating from the reached state and re-check: parity must hold at
    # every prefix of the interleaving, not just at a quiescent end state.
    _apply_script(store, pool, seed + 1000, num_ops=6)
    _assert_all_paths_match(store, regions, frame, store_level, act_index)


def test_every_op_interleaving_explicit(pool, regions, frame, store_level, act_index):
    """A deterministic script touching every transition at least once."""
    store = SpatialStore(
        frame, store_level, attributes=pool.attribute_names,
        memtable_capacity=10_000, auto_compact=False,
    )
    ids1 = store.insert(pool.select(np.arange(0, 300)))
    store.delete(ids1[:25])            # memtable-resident delete
    store.flush()
    ids2 = store.insert(pool.select(np.arange(300, 500)))
    store.delete(ids1[50:80])          # tombstone into a run
    store.delete(ids2[:10])            # memtable delete again
    store.flush()
    store.insert(pool.select(np.arange(500, 650)))
    store.flush()
    store.compact(full=False)          # policy pass (may be a no-op)
    store.delete(store.snapshot().live_ids()[::17])
    store.compact(full=True)           # consolidate + purge tombstones
    store.insert(pool.select(np.arange(650, 700)))  # live memtable tail
    assert store.num_runs == 1
    _assert_all_paths_match(store, regions, frame, store_level, act_index)


def test_empty_store_queries(regions, frame, store_level, act_index):
    store = SpatialStore(frame, store_level, attributes=("fare", "passengers"))
    assert store.num_live == 0
    assert store.count_in_ranges([(0, 2**60)]) == 0
    assert store.raster_count(regions[0], 32) == 0
    result = store.act_join(regions, epsilon=EPSILON, trie=act_index)
    assert (result.counts == 0).all()
    est = store.estimate_count_range(regions[0], epsilon=30.0)
    assert est.lower == est.upper == 0.0
    assert len(store.live_points()) == 0


def test_redelete_of_dropped_id_leaves_no_phantom_tombstone(pool, frame, store_level):
    """An id dropped at flush (deleted while buffered) or purged by a
    compaction must not grow the tombstone set when deleted again."""
    store = SpatialStore(frame, store_level, attributes=pool.attribute_names,
                         memtable_capacity=10_000, auto_compact=False)
    ids = store.insert(pool.select(np.arange(0, 100)))
    assert store.delete(ids[:5]) == 5      # memtable-resident: dropped at flush
    store.flush()
    assert store.delete(ids[:5]) == 0      # never reached a run -> ignored
    assert store.num_tombstones == 0
    assert store.delete(np.array([ids[10]])) == 1   # real tombstone
    store.compact(full=True)               # purges it physically
    assert store.num_tombstones == 0
    assert store.delete(np.array([ids[10]])) == 0   # purged -> ignored again
    assert store.num_tombstones == 0
    assert store.stats.deletes == 6


def test_fully_tombstoned_merge_leaves_no_empty_run(pool, frame, store_level):
    store = SpatialStore(frame, store_level, attributes=pool.attribute_names,
                         memtable_capacity=10_000, auto_compact=False)
    store.insert(pool.select(np.arange(0, 50)))
    store.flush()
    assert store.num_runs == 1
    store.delete(store.snapshot().live_ids())
    store.compact(full=True)
    assert store.num_runs == 0
    assert store.num_tombstones == 0
    assert store.num_live == 0


def test_delete_everything_then_reinsert(pool, regions, frame, store_level, act_index):
    store = SpatialStore(frame, store_level, attributes=pool.attribute_names,
                         memtable_capacity=200, auto_compact=True)
    store.insert(pool.select(np.arange(0, 600)))
    store.delete(store.snapshot().live_ids())
    assert store.num_live == 0
    assert store.count_in_ranges([(0, 2**60)]) == 0
    store.compact(full=True)
    assert store.num_tombstones == 0
    store.insert(pool.select(np.arange(600, 900)))
    _assert_all_paths_match(store, regions, frame, store_level, act_index)


def test_snapshot_isolation_under_concurrent_ingest(pool, regions, frame, store_level):
    """A snapshot keeps answering from its frozen state while the store moves on."""
    store = SpatialStore(frame, store_level, attributes=pool.attribute_names,
                         memtable_capacity=150, auto_compact=True)
    store.insert(pool.select(np.arange(0, 400)))
    snap = store.snapshot()
    frozen_live = snap.num_live
    frozen_count = snap.count_in_ranges([(0, 2**60)])
    frozen_points = snap.live_points()

    store.insert(pool.select(np.arange(400, 800)))
    store.delete(store.snapshot().live_ids()[:200])
    store.flush()
    store.compact(full=True)

    assert snap.num_live == frozen_live
    assert snap.count_in_ranges([(0, 2**60)]) == frozen_count
    np.testing.assert_array_equal(snap.live_points().xs, frozen_points.xs)
    assert store.num_live != frozen_live


def test_point_filter_fans_out(pool, regions, frame, store_level, act_index):
    """The filterCondition applies per segment, identical to the global filter."""
    store = SpatialStore(frame, store_level, attributes=pool.attribute_names,
                         memtable_capacity=250, auto_compact=True)
    store.insert(pool.select(np.arange(0, 900)))
    store.delete(store.snapshot().live_ids()[::9])
    query = AggregationQuery(
        aggregate=Aggregate.SUM,
        attribute="fare",
        point_filter=lambda pts: pts.attribute("passengers") >= 2,
    )
    live = store.live_points()
    got = store.act_join(regions, epsilon=EPSILON, query=query, trie=act_index)
    direct = act_approximate_join(live, regions, frame, epsilon=EPSILON,
                                  query=query, trie=act_index)
    np.testing.assert_array_equal(got.aggregates, direct.aggregates)
    np.testing.assert_array_equal(got.counts, direct.counts)


def test_out_of_frame_points_never_counted(regions, frame, store_level, act_index):
    """Out-of-frame inserts are live (joins see nothing, counts see nothing)
    but never alias edge cells through clamped codes."""
    far = 10 * frame.size
    xs = np.array([frame.origin_x - far, frame.origin_x + far, frame.origin_x + 1.0])
    ys = np.array([frame.origin_y + 1.0, frame.origin_y + far, frame.origin_y + 1.0])
    points = PointSet(xs, ys, {"fare": np.ones(3), "passengers": np.ones(3)})
    store = SpatialStore.from_points(points, frame, store_level)
    assert store.num_live == 3
    # Only the single in-frame point can ever be counted.
    assert store.count_in_ranges([(0, 2**60)]) == 1
    result = store.act_join(regions, epsilon=EPSILON, trie=act_index)
    assert result.counts.sum() <= 1
