"""Parity regression tests: batch probe kernels ≡ the per-point loop oracle.

The per-point index-nested loops (``tests/oracles/probe_loop.py``) are the
correctness oracle of the batch probe kernels; every join strategy must
reproduce them **exactly** — bit-identical float aggregates, equal counts
and equal operation counters — and so must ``raster_count``, on synthetic
polygons as well as the NYC-style workload fixtures.  Both sides probe the
same index instance, so the comparison isolates the probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.probe_loop import PythonLoopEngine
from repro.data import NYCWorkload
from repro.geometry import BoundingBox, Polygon
from repro.geometry.point import PointSet
from repro.grid import GridFrame
from repro.index import BPlusTree, FlatACT, RadixSpline, RStarTree, ShapeIndex, SortedCodeArray
from repro.query import (
    Aggregate,
    AggregationQuery,
    LinearizedPoints,
    act_approximate_join,
    polygon_query_ranges,
    raster_count,
    rtree_exact_join,
    shape_index_exact_join,
)

EPSILON = 8.0
ORACLE = PythonLoopEngine()


def act_parity(points, regions, frame, epsilon, query):
    trie = FlatACT.build(regions, frame, epsilon)
    kernel = act_approximate_join(points, regions, frame, epsilon=epsilon, query=query, trie=trie)
    assert_matches_oracle(
        kernel, points, query,
        lambda xs, ys, values: ORACLE.probe_act(trie, xs, ys, values, len(regions)),
    )


def rtree_parity(points, regions, query):
    tree = RStarTree.bulk_load_boxes([region.bounds() for region in regions])
    kernel = rtree_exact_join(points, regions, query=query)
    assert_matches_oracle(
        kernel, points, query,
        lambda xs, ys, values: ORACLE.probe_rtree(tree, regions, xs, ys, values),
    )


def shape_index_parity(points, regions, frame, query):
    index = ShapeIndex(regions, frame)
    kernel = shape_index_exact_join(points, regions, frame, query=query, index=index)
    assert_matches_oracle(
        kernel, points, query,
        lambda xs, ys, values: ORACLE.probe_shape_index(index, regions, xs, ys, values),
    )


def assert_matches_oracle(kernel, points, query, oracle_probe):
    """Aggregates bit-identical and counters equal to the oracle's probe."""
    filtered = query.filtered_points(points)
    outcome = oracle_probe(filtered.xs, filtered.ys, query.values(filtered))
    np.testing.assert_array_equal(
        kernel.aggregates, query.finalize(outcome.sums, outcome.counts)
    )
    np.testing.assert_array_equal(kernel.counts, outcome.counts)
    assert kernel.pip_tests == outcome.pip_tests
    assert kernel.index_probes == outcome.index_probes


QUERIES = {
    "count": AggregationQuery(),
    "sum": AggregationQuery(aggregate=Aggregate.SUM, attribute="fare"),
    "avg": AggregationQuery(aggregate=Aggregate.AVG, attribute="passengers"),
}


@pytest.mark.parametrize("query_name", sorted(QUERIES))
class TestJoinParityNYC:
    """All three strategies on the NYC-style fixtures, all aggregate kinds."""

    def test_act_join(self, taxi_points, neighborhoods, workload, query_name):
        act_parity(taxi_points, neighborhoods, workload.frame(), EPSILON, QUERIES[query_name])

    def test_rtree_join(self, taxi_points, neighborhoods, query_name):
        rtree_parity(taxi_points, neighborhoods, QUERIES[query_name])

    def test_shape_index_join(self, taxi_points, neighborhoods, workload, query_name):
        shape_index_parity(taxi_points, neighborhoods, workload.frame(), QUERIES[query_name])


class TestJoinParitySynthetic:
    """Hand-built polygons, including overlap, points outside every region,
    and degenerate batches."""

    @pytest.fixture(scope="class")
    def frame(self):
        return GridFrame(BoundingBox(0.0, 0.0, 100.0, 100.0))

    @pytest.fixture(scope="class")
    def regions(self):
        return [
            Polygon([(5.0, 5.0), (45.0, 5.0), (45.0, 45.0), (5.0, 45.0)]),
            # Overlaps the first square.
            Polygon([(30.0, 30.0), (70.0, 30.0), (70.0, 70.0), (30.0, 70.0)]),
            Polygon([(60.0, 5.0), (90.0, 5.0), (90.0, 25.0), (60.0, 25.0)]),
        ]

    @pytest.fixture(scope="class")
    def points(self, rng):
        xs = rng.uniform(0.0, 100.0, size=2000)
        ys = rng.uniform(0.0, 100.0, size=2000)
        return PointSet(xs, ys, attributes={"fare": rng.uniform(1.0, 50.0, size=2000)})

    def test_all_strategies(self, points, regions, frame):
        query = AggregationQuery(aggregate=Aggregate.SUM, attribute="fare")
        act_parity(points, regions, frame, 2.0, query)
        rtree_parity(points, regions, query)
        shape_index_parity(points, regions, frame, query)

    def test_empty_point_batch(self, points, regions, frame):
        empty = points.select(np.zeros(len(points), dtype=bool))
        result = act_approximate_join(empty, regions, frame, epsilon=2.0)
        assert result.counts.sum() == 0
        result = rtree_exact_join(empty, regions)
        assert result.counts.sum() == 0

    def test_points_outside_all_regions(self, regions, frame):
        far = PointSet(np.full(10, 99.0), np.full(10, 99.0))
        result = rtree_exact_join(far, regions)
        assert result.counts.sum() == 0
        assert result.pip_tests == 0


class TestRasterCountParity:
    """`raster_count` through every code index family, against the oracle."""

    @pytest.fixture(scope="class")
    def setup(self):
        workload = NYCWorkload(extent=BoundingBox(0.0, 0.0, 1000.0, 1000.0), seed=11)
        points = workload.taxi_points(2500)
        regions = workload.neighborhoods(count=6)
        frame = workload.frame()
        linearized = LinearizedPoints.build(points, frame, level=10)
        return regions, linearized

    @pytest.mark.parametrize("precision", (32, 128))
    def test_indexes_agree_across_engines(self, setup, precision):
        regions, linearized = setup
        indexes = {
            "sorted": SortedCodeArray(linearized.codes, assume_sorted=True),
            "btree": BPlusTree(linearized.codes, assume_sorted=True),
            "spline": RadixSpline(linearized.codes, assume_sorted=True),
        }
        for region in regions:
            for name, index in indexes.items():
                ranges = polygon_query_ranges(region, linearized, precision)
                oracle = ORACLE.count_ranges(index, ranges)
                kernel = raster_count(region, linearized, index, precision)
                assert kernel == oracle, f"{name} diverged at precision {precision}"
