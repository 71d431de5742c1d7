"""Bit-parity: sharded execution reproduces the unsharded kernels exactly.

The acceptance bar of the scatter-gather layer: for every tested shard
count, over static partitions and store-backed snapshots, the merged
result — float aggregates included — is bit-identical to the unsharded
kernel.  The suite deliberately includes zero-point shards
(all points clustered in one tile) and polygons straddling tile boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SpatialDataset
from repro.query import AggregationQuery
from repro.query.join_mm import act_approximate_join
from repro.shard import ShardedStore, StaticShards, sharded_act_join

SHARD_COUNTS = (1, 2, 4, 7)
EPSILON = 8.0


def _assert_join_equal(result, reference):
    assert np.array_equal(result.counts, reference.counts)
    assert np.array_equal(result.aggregates, reference.aggregates)  # bit-exact floats


class TestStaticJoinParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_gather_matches_unsharded_kernel(
        self, frame, taxi_points, neighborhoods, avg_query, shards
    ):
        reference = act_approximate_join(
            taxi_points, neighborhoods, frame, epsilon=EPSILON, query=avg_query
        )
        partition = StaticShards.build(taxi_points, frame, shards)
        result = sharded_act_join(
            partition.segments(),
            neighborhoods,
            frame,
            epsilon=EPSILON,
            query=avg_query,
        )
        _assert_join_equal(result, reference)
        assert result.extra["shards"] == shards
        assert len(result.extra["shard_seconds"]) == shards

    def test_zero_point_shards(self, frame, clustered_points, neighborhoods, avg_query):
        """Clustered points leave most tiles empty; the merge must not care."""
        partition = StaticShards.build(clustered_points, frame, 4)
        assert sum(1 for part in partition.parts if len(part) == 0) >= 3
        reference = act_approximate_join(
            clustered_points, neighborhoods, frame, epsilon=EPSILON, query=avg_query
        )
        result = sharded_act_join(
            partition.segments(), neighborhoods, frame,
            epsilon=EPSILON, query=avg_query,
        )
        _assert_join_equal(result, reference)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_straddling_polygons(
        self, frame, taxi_points, straddling_regions, avg_query, shards
    ):
        """Regions crossing every tile cut still aggregate bit-identically."""
        reference = act_approximate_join(
            taxi_points, straddling_regions, frame,
            epsilon=EPSILON, query=avg_query,
        )
        assert reference.counts.sum() > 0  # the polygons actually match points
        partition = StaticShards.build(taxi_points, frame, shards)
        result = sharded_act_join(
            partition.segments(), straddling_regions, frame,
            epsilon=EPSILON, query=avg_query,
        )
        _assert_join_equal(result, reference)

    def test_point_filter_parity(self, frame, taxi_points, neighborhoods):
        query = AggregationQuery(
            epsilon=EPSILON, point_filter=lambda pts: pts.attribute("fare") > 10.0
        )
        reference = act_approximate_join(
            taxi_points, neighborhoods, frame, epsilon=EPSILON, query=query
        )
        partition = StaticShards.build(taxi_points, frame, 4)
        result = sharded_act_join(
            partition.segments(), neighborhoods, frame, epsilon=EPSILON, query=query
        )
        _assert_join_equal(result, reference)


class TestStoreParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_interleaved_ingest_matches_unsharded_store(
        self, frame, store_level, taxi_points, neighborhoods, avg_query, shards
    ):
        """Same ingest history → same global ids → bit-equal snapshot joins."""
        from repro.store import SpatialStore

        sharded = ShardedStore(
            frame, store_level, shards,
            attributes=taxi_points.attribute_names, memtable_capacity=500,
        )
        plain = SpatialStore(
            frame, store_level,
            attributes=taxi_points.attribute_names, memtable_capacity=500,
        )
        third = len(taxi_points) // 3
        for step in range(3):
            batch = taxi_points.select(np.arange(step * third, (step + 1) * third))
            ids_a = sharded.insert(batch)
            ids_b = plain.insert(batch)
            assert np.array_equal(ids_a, ids_b)  # one global id sequence
            if step == 1:
                kill = ids_a[::5]
                assert sharded.delete(kill) == plain.delete(kill)
                sharded.flush()
                plain.flush()
        result = sharded.act_join(
            neighborhoods, epsilon=EPSILON, query=avg_query
        )
        reference = plain.snapshot().act_join(
            neighborhoods, epsilon=EPSILON, query=avg_query
        )
        _assert_join_equal(result, reference)
        assert sharded.num_live == plain.num_live
        live_a, live_b = sharded.live_points(), plain.snapshot().live_points()
        assert np.array_equal(live_a.xs, live_b.xs)
        assert np.array_equal(live_a.ys, live_b.ys)

    @pytest.mark.parametrize("shards", (2, 7))
    def test_raster_count_and_estimate(
        self, frame, store_level, taxi_points, neighborhoods, shards
    ):
        from repro.store import SpatialStore

        sharded = ShardedStore.from_points(taxi_points, frame, store_level, shards)
        plain = SpatialStore.from_points(taxi_points, frame, store_level)
        for region in neighborhoods[:3]:
            assert sharded.raster_count(region, 64) == plain.snapshot().raster_count(
                region, 64
            )
            assert sharded.estimate_count_range(region, 10.0) == plain.snapshot().estimate_count_range(
                region, 10.0
            )

    def test_compaction_preserves_parity(
        self, frame, store_level, taxi_points, neighborhoods, avg_query
    ):
        sharded = ShardedStore(
            frame, store_level, 4,
            attributes=taxi_points.attribute_names,
            memtable_capacity=400, auto_compact=False,
        )
        third = len(taxi_points) // 3
        for step in range(3):
            sharded.insert(taxi_points.select(np.arange(step * third, (step + 1) * third)))
            sharded.flush()
        before = sharded.act_join(neighborhoods, epsilon=EPSILON, query=avg_query)
        assert sharded.compact(full=True) > 0
        after = sharded.act_join(neighborhoods, epsilon=EPSILON, query=avg_query)
        _assert_join_equal(after, before)
        rebuilt = sharded.rebuilt().act_join(neighborhoods, epsilon=EPSILON, query=avg_query)
        _assert_join_equal(rebuilt, before)


class TestFacadeParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_dataset_query_estimate_raster(
        self, frame, workload, taxi_points, neighborhoods, avg_query, shards
    ):
        """The planned scatter-gather facade path equals the unsharded facade."""
        base = SpatialDataset(
            taxi_points, frame=frame, extent=workload.extent,
            suites={"hoods": neighborhoods},
        )
        ds = SpatialDataset(
            taxi_points, frame=frame, extent=workload.extent,
            suites={"hoods": neighborhoods}, shards=shards,
        )
        r0 = base.query(avg_query, suite="hoods")
        r1 = ds.query(avg_query, suite="hoods")
        assert r1.choice.plan.operator == "scatter_gather"
        assert r1.choice.plan.params["shards"] == shards
        _assert_join_equal(r1.result, r0.result)
        assert ds.estimate("hoods", epsilon=10.0) == base.estimate("hoods", epsilon=10.0)
        assert np.array_equal(
            ds.raster_count("hoods", cells_per_polygon=64),
            base.raster_count("hoods", cells_per_polygon=64),
        )

    def test_sharded_store_dataset(
        self, frame, store_level, taxi_points, neighborhoods, avg_query
    ):
        store = ShardedStore.from_points(taxi_points, frame, store_level, 4)
        ds = SpatialDataset(store, suites={"hoods": neighborhoods})
        assert ds.shards == 4
        base = SpatialDataset(
            taxi_points, frame=frame, suites={"hoods": neighborhoods}
        )
        r0 = base.query(avg_query, suite="hoods")
        r1 = ds.query(avg_query, suite="hoods")
        _assert_join_equal(r1.result, r0.result)
        assert r1.result.extra["shards"] == 4
        # One registry serves all shards: the second query is a pure hit.
        misses = ds.registry.stats.misses
        ds.query(avg_query, suite="hoods")
        assert ds.registry.stats.misses == misses

    def test_explain_reports_stages_and_fan_out(
        self, frame, taxi_points, neighborhoods, avg_query
    ):
        ds = SpatialDataset(
            taxi_points, frame=frame, suites={"hoods": neighborhoods}, shards=4
        )
        text = ds.query(avg_query, suite="hoods").explain()
        assert "scatter_gather" in text
        assert "stages:" in text and "registry_build=" in text
        assert "shard execute:" in text and "shard3=" in text
