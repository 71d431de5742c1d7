"""Plan-execution parity: ``dataset.query`` ≡ the direct kernel call.

The facade's core contract (and this PR's acceptance bar): planning and
executing through :class:`repro.api.SpatialDataset` returns **bit-identical**
results — float aggregates included — to calling the execution kernels by
hand, for every strategy the optimizer can choose, including the
``epsilon=None`` exact path and empty inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SpatialDataset
from repro.geometry import PointSet
from repro.query import (
    AggregationQuery,
    bounded_raster_join,
    estimate_count_range,
    gpu_baseline_join,
    raster_count,
    rtree_exact_join,
    shape_index_exact_join,
)
from repro.query.join_mm import act_approximate_join


def _assert_bit_identical(facade_result, kernel_result):
    assert np.array_equal(facade_result.counts, kernel_result.counts)
    # Bitwise float equality, NaNs included — no tolerance.
    assert np.array_equal(
        np.asarray(facade_result.aggregates), np.asarray(kernel_result.aggregates)
    )


class TestForcedStrategyParity:
    """Each strategy, forced through the facade, matches its kernel bitwise."""

    def test_act(self, dataset, taxi_points, neighborhoods, frame):
        outcome = dataset.query(
            AggregationQuery(epsilon=8.0), strategy="act"
        )
        direct = act_approximate_join(
            taxi_points, neighborhoods, frame, epsilon=8.0
        )
        assert outcome.strategy == "act"
        _assert_bit_identical(outcome, direct)

    def test_rtree(self, dataset, taxi_points, neighborhoods):
        outcome = dataset.query(AggregationQuery(), strategy="rtree")
        direct = rtree_exact_join(taxi_points, neighborhoods)
        assert outcome.strategy == "rtree"
        _assert_bit_identical(outcome, direct)

    def test_shape_index(self, dataset, taxi_points, neighborhoods, frame):
        outcome = dataset.query(AggregationQuery(), strategy="shape-index")
        direct = shape_index_exact_join(taxi_points, neighborhoods, frame)
        assert outcome.strategy == "shape-index"
        _assert_bit_identical(outcome, direct)

    def test_brj_alias(self, dataset, taxi_points, neighborhoods, workload):
        outcome = dataset.query(AggregationQuery(epsilon=10.0), strategy="brj")
        direct = bounded_raster_join(
            taxi_points, neighborhoods, epsilon=10.0, extent=workload.extent
        )
        assert outcome.strategy == "raster"
        _assert_bit_identical(outcome, direct)

    def test_gpu_baseline_alias(self, dataset, taxi_points, neighborhoods, workload):
        outcome = dataset.query(AggregationQuery(), strategy="gpu-baseline")
        direct = gpu_baseline_join(taxi_points, neighborhoods, extent=workload.extent)
        assert outcome.strategy == "exact"
        _assert_bit_identical(outcome, direct)

    def test_sum_aggregate_parity(self, dataset, taxi_points, neighborhoods, frame):
        from repro.query import Aggregate

        spec = AggregationQuery(aggregate=Aggregate.SUM, attribute="fare", epsilon=8.0)
        outcome = dataset.query(spec, strategy="act")
        direct = act_approximate_join(
            taxi_points, neighborhoods, frame, epsilon=8.0, query=spec
        )
        _assert_bit_identical(outcome, direct)


class TestNaturalChoiceParity:
    """The optimizer's own pick, executed, still matches its kernel bitwise."""

    def test_with_bound(self, dataset, taxi_points, neighborhoods, frame, workload):
        spec = AggregationQuery(epsilon=8.0)
        choice = dataset.plan(spec)
        outcome = dataset.query(spec)
        assert outcome.strategy == choice.strategy
        kernels = {
            "act": lambda: act_approximate_join(
                taxi_points, neighborhoods, frame, epsilon=8.0
            ),
            "raster": lambda: bounded_raster_join(
                taxi_points, neighborhoods, epsilon=8.0, extent=workload.extent
            ),
            "rtree": lambda: rtree_exact_join(taxi_points, neighborhoods),
            "shape-index": lambda: shape_index_exact_join(
                taxi_points, neighborhoods, frame
            ),
        }
        _assert_bit_identical(outcome, kernels[choice.strategy]())

    def test_exact_required(self, dataset, taxi_points, neighborhoods, frame):
        """epsilon=None: only exact strategies compete, and the pick runs."""
        spec = AggregationQuery(epsilon=None)
        choice = dataset.plan(spec)
        assert choice.strategy in ("rtree", "shape-index", "exact")
        outcome = dataset.query(spec)
        kernels = {
            "rtree": lambda: rtree_exact_join(taxi_points, neighborhoods),
            "shape-index": lambda: shape_index_exact_join(
                taxi_points, neighborhoods, frame
            ),
            "exact": lambda: gpu_baseline_join(
                taxi_points, neighborhoods, extent=dataset.extent
            ),
        }
        _assert_bit_identical(outcome, kernels[choice.strategy]())
        # And the exact answer really is exact.
        reference = rtree_exact_join(taxi_points, neighborhoods)
        assert np.array_equal(outcome.counts, reference.counts)


class TestEdgeInputs:
    @pytest.fixture()
    def empty_points(self, taxi_points):
        return PointSet(
            np.empty(0), np.empty(0),
            {name: np.empty(0) for name in taxi_points.attribute_names},
        )

    @pytest.mark.parametrize("strategy", ["act", "rtree", "shape-index"])
    def test_empty_point_set(
        self, workload, frame, neighborhoods, empty_points, strategy
    ):
        dataset = SpatialDataset(
            empty_points, frame=frame, extent=workload.extent,
            suites={"neighborhoods": neighborhoods},
        )
        spec = AggregationQuery(epsilon=8.0 if strategy == "act" else None)
        outcome = dataset.query(spec, strategy=strategy)
        assert outcome.counts.shape == (len(neighborhoods),)
        assert not outcome.counts.any()
        assert not np.asarray(outcome.aggregates).any()

    @pytest.mark.parametrize("strategy", ["act", "rtree", "shape-index"])
    def test_empty_suite(self, workload, frame, taxi_points, strategy):
        dataset = SpatialDataset(
            taxi_points, frame=frame, extent=workload.extent, suites={"empty": []}
        )
        spec = AggregationQuery(epsilon=8.0 if strategy == "act" else None)
        outcome = dataset.query(spec, strategy=strategy)
        assert outcome.counts.shape == (0,)
        assert np.asarray(outcome.aggregates).shape == (0,)


class TestStoreBackedParity:
    def test_act_over_store_equals_kernel_over_live_points(
        self, workload, frame, taxi_points, neighborhoods
    ):
        from repro.store import SpatialStore

        store = SpatialStore(
            frame, 8, attributes=taxi_points.attribute_names,
            memtable_capacity=700, auto_compact=True,
        )
        store.insert(taxi_points)
        store.delete(np.arange(0, len(taxi_points), 7))
        dataset = SpatialDataset(store, suites={"neighborhoods": neighborhoods})
        outcome = dataset.query(
            AggregationQuery(epsilon=8.0), strategy="act"
        )
        direct = act_approximate_join(
            store.snapshot().live_points(), neighborhoods, frame, epsilon=8.0
        )
        _assert_bit_identical(outcome, direct)

    def test_exact_over_store_materialises_live_points(
        self, workload, frame, taxi_points, neighborhoods
    ):
        from repro.store import SpatialStore

        store = SpatialStore(frame, 8, attributes=taxi_points.attribute_names)
        store.insert(taxi_points)
        dataset = SpatialDataset(store, suites={"neighborhoods": neighborhoods})
        outcome = dataset.query(AggregationQuery(), strategy="rtree")
        direct = rtree_exact_join(
            store.snapshot().live_points(), neighborhoods
        )
        _assert_bit_identical(outcome, direct)


class TestNonJoinPaths:
    def test_raster_count_parity(
        self, dataset, taxi_points, neighborhoods, frame
    ):
        from repro.index import SortedCodeArray
        from repro.query import LinearizedPoints

        counts = dataset.raster_count(
            "neighborhoods", cells_per_polygon=64
        )
        linearized = LinearizedPoints.build(taxi_points, frame, dataset.level)
        index = SortedCodeArray(linearized.codes, assume_sorted=True)
        direct = [
            raster_count(region, linearized, index, cells_per_polygon=64)
            for region in neighborhoods
        ]
        assert counts.tolist() == direct

    def test_estimate_parity(self, dataset, taxi_points, neighborhoods):
        estimates = dataset.estimate("neighborhoods", epsilon=20.0)
        for region, estimate in zip(neighborhoods, estimates):
            direct = estimate_count_range(taxi_points, region, epsilon=20.0)
            assert estimate == direct

    def test_raster_count_applies_point_filter(self, dataset, taxi_points, neighborhoods, frame):
        """A spec with a point_filter must not reuse the unfiltered index."""
        from repro.index import SortedCodeArray
        from repro.query import AggregationQuery, LinearizedPoints

        spec = AggregationQuery(point_filter=lambda ps: ps.attribute("passengers") >= 3)
        dataset.raster_count("neighborhoods", cells_per_polygon=64)  # warm the cache
        counts = dataset.raster_count("neighborhoods", cells_per_polygon=64, spec=spec)
        filtered = spec.filtered_points(taxi_points)
        linearized = LinearizedPoints.build(filtered, frame, dataset.level)
        index = SortedCodeArray(linearized.codes, assume_sorted=True)
        direct = [
            raster_count(region, linearized, index, cells_per_polygon=64)
            for region in neighborhoods
        ]
        assert counts.tolist() == direct
        assert sum(direct) < sum(
            dataset.raster_count("neighborhoods", cells_per_polygon=64).tolist()
        )

    def test_estimate_applies_point_filter_on_both_sources(
        self, workload, frame, taxi_points, neighborhoods
    ):
        """Filtered estimates agree between static and store-backed datasets."""
        from repro.store import SpatialStore

        spec = AggregationQuery(point_filter=lambda ps: ps.attribute("passengers") >= 3)
        static = SpatialDataset(
            taxi_points, frame=frame, extent=workload.extent,
            suites={"n": neighborhoods},
        )
        store = SpatialStore(frame, 8, attributes=taxi_points.attribute_names)
        store.insert(taxi_points)
        backed = SpatialDataset(store, suites={"n": neighborhoods})
        assert static.estimate("n", epsilon=20.0, spec=spec) == backed.estimate(
            "n", epsilon=20.0, spec=spec
        )
        filtered = spec.filtered_points(taxi_points)
        direct = [
            estimate_count_range(filtered, region, epsilon=20.0)
            for region in neighborhoods
        ]
        assert static.estimate("n", epsilon=20.0, spec=spec) == direct

    def test_store_raster_count_with_filter_matches_static(
        self, workload, frame, taxi_points, neighborhoods
    ):
        from repro.store import SpatialStore

        spec = AggregationQuery(point_filter=lambda ps: ps.attribute("passengers") >= 3)
        store = SpatialStore(frame, 8, attributes=taxi_points.attribute_names)
        store.insert(taxi_points)
        backed = SpatialDataset(store, level=8, suites={"n": neighborhoods})
        static = SpatialDataset(
            taxi_points, frame=frame, extent=workload.extent, level=8,
            suites={"n": neighborhoods},
        )
        filtered_backed = backed.raster_count("n", cells_per_polygon=64, spec=spec)
        filtered_static = static.raster_count("n", cells_per_polygon=64, spec=spec)
        assert filtered_backed.tolist() == filtered_static.tolist()
