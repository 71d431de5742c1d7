"""Dataset-level tracing: query span trees and explain() stability."""

from __future__ import annotations

import pytest

from repro.api import SpatialDataset
from repro.obs import trace
from repro.query import AggregationQuery
from repro.shard import ShardedStore


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.disable()


@pytest.fixture()
def dataset(workload, taxi_points, neighborhoods):
    return SpatialDataset(
        taxi_points, frame=workload.frame(), extent=workload.extent
    ).add_suite("neighborhoods", neighborhoods)


class TestQuerySpans:
    def test_spans_none_without_tracer(self, dataset):
        outcome = dataset.join("neighborhoods", strategy="act", epsilon=4.0)
        assert outcome.spans is None

    def test_query_span_tree_covers_stages(self, dataset):
        trace.enable()
        outcome = dataset.join("neighborhoods", strategy="act", epsilon=4.0)
        trace.disable()
        root = outcome.spans
        assert root is not None and root.name == "dataset.query"
        names = {s.name for s in root.walk()}
        assert {"query.plan", "query.execute", "registry.build", "join.probe"} <= names
        # Stage timings are views over the same spans.
        plan = next(s for s in root.walk() if s.name == "query.plan")
        execute = next(s for s in root.walk() if s.name == "query.execute")
        assert outcome.stage_seconds["plan"] == plan.seconds
        assert outcome.stage_seconds["execute"] == execute.seconds

    def test_self_times_sum_to_wall_clock(self, dataset):
        trace.enable()
        outcome = dataset.join("neighborhoods", strategy="act", epsilon=4.0)
        trace.disable()
        root = outcome.spans
        total_self = sum(s.self_seconds for s in root.walk())
        assert total_self == pytest.approx(root.seconds, rel=0.05)

    def test_explain_fields_identical_with_and_without_tracer(
        self, workload, taxi_points, neighborhoods
    ):
        def run(traced: bool):
            ds = SpatialDataset(
                taxi_points, frame=workload.frame(), extent=workload.extent
            ).add_suite("neighborhoods", neighborhoods)
            if traced:
                trace.enable()
            outcome = ds.query(
                AggregationQuery(epsilon=4.0), strategy="act"
            )
            trace.disable()
            return outcome

        plain = run(traced=False).explain()
        traced = run(traced=True).explain()
        assert "spans:" not in plain
        assert "spans:" in traced
        # Existing explain() fields are byte-identical in *structure*: the
        # traced rendering only appends lines, never alters the originals.
        plain_lines = plain.splitlines()
        traced_lines = traced.splitlines()[: len(plain_lines)]
        for before, after in zip(plain_lines, traced_lines):
            # Timing digits differ run to run; the field skeleton must not.
            assert _skeleton(before) == _skeleton(after)

    def test_sharded_query_records_per_shard_spans(
        self, workload, taxi_points, neighborhoods
    ):
        store = ShardedStore.from_points(taxi_points, workload.frame(), 10, 4)
        ds = SpatialDataset(store, extent=workload.extent).add_suite(
            "neighborhoods", neighborhoods
        )
        trace.enable()
        outcome = ds.join("neighborhoods", strategy="act", epsilon=4.0)
        trace.disable()
        shard_spans = [
            s for s in outcome.spans.walk() if s.name == "shard.probe"
        ]
        assert len(shard_spans) == 4
        assert sorted(s.tags["shard"] for s in shard_spans) == [0, 1, 2, 3]
        assert outcome.stage_seconds["shard_execute"] == [
            s.seconds for s in sorted(shard_spans, key=lambda s: s.tags["shard"])
        ]


def _skeleton(line: str) -> str:
    """A line with every digit blanked, isolating the format skeleton."""
    return "".join("#" if ch.isdigit() else ch for ch in line)
