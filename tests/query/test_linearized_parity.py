"""Three ACT probe paths agree bit for bit on COUNT, SUM and AVG.

* ``SpatialDataset.query`` — walks the dataset's cached point linearization
  (when the query has no ``point_filter`` and the index is no finer than the
  dataset's level; otherwise it linearizes per call);
* ``act_approximate_join`` — linearizes the points for the call;
* ``PythonLoopEngine.probe_act`` — the per-point loop over
  ``FlatACT.lookup_point``, the oracle.

The suites overlap, touch and have holes; the index is patched into a
tombstoned, multi-segment live index; the points repeat, leave the frame and
include NaN.  The ``join.probe`` span says which linearization and which
COUNT path each query took, and the test checks that too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.probe_loop import PythonLoopEngine

from repro.api import SpatialDataset
from repro.errors import IndexError_, QueryError
from repro.geometry import BoundingBox, Polygon
from repro.geometry.point import PointSet
from repro.grid import GridFrame
from repro.obs import trace
from repro.index import FlatACT
from repro.query import Aggregate, AggregationQuery, LinearizedPoints, act_approximate_join

ORACLE = PythonLoopEngine()
FRAME = GridFrame(BoundingBox(0.0, 0.0, 256.0, 256.0))


def _region(rng: np.random.Generator) -> Polygon:
    """A lattice box (boxes share edges), a star, or a box with a hole."""
    kind = rng.integers(0, 3)
    x0, y0 = (16.0 * rng.integers(1, 11, size=2)).tolist()
    w, h = (16.0 * rng.integers(2, 5, size=2)).tolist()
    shell = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    if kind == 0:
        return Polygon(shell)
    if kind == 1:
        cx, cy = rng.uniform(50.0, 200.0, size=2)
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=int(rng.integers(5, 12))))
        radii = rng.uniform(10.0, 50.0, size=angles.shape[0])
        return Polygon(
            np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
        )
    hx, hy = x0 + w / 4.0, y0 + h / 4.0
    hole = [(hx, hy), (hx + w / 2.0, hy), (hx + w / 2.0, hy + h / 2.0), (hx, hy + h / 2.0)]
    return Polygon(shell, holes=[hole])


def _points(rng: np.random.Generator, n: int) -> PointSet:
    """Uniform points plus repeats, max-edge, out-of-frame and NaN points."""
    xs = rng.uniform(0.0, 256.0, size=n)
    ys = rng.uniform(0.0, 256.0, size=n)
    repeats = rng.integers(0, n, size=n // 4)
    xs = np.concatenate([xs, xs[repeats], [256.0, 256.0, -3.0, 300.0, np.nan, 10.0]])
    ys = np.concatenate([ys, ys[repeats], [256.0, 100.0, 50.0, 20.0, 40.0, np.nan]])
    fares = rng.uniform(0.5, 80.0, size=xs.shape[0])
    return PointSet(xs, ys, {"fare": fares})


def _specs(epsilon: float, point_filter) -> dict[str, AggregationQuery]:
    common = dict(epsilon=epsilon, suite="s", point_filter=point_filter)
    return {
        "count": AggregationQuery(**common),
        "sum": AggregationQuery(aggregate=Aggregate.SUM, attribute="fare", **common),
        "avg": AggregationQuery(aggregate=Aggregate.AVG, attribute="fare", **common),
    }


def _patch(dataset: SpatialDataset, rng: np.random.Generator, epsilon: float) -> None:
    """Grow the index's delta stack: a large add, then a tiny replacement
    (its segment stays separate, being smaller than the add's), then a removal
    (a tombstone)."""
    dataset.add_polygons("s", [_region(rng) for _ in range(3)])
    tiny = Polygon([(100.0, 100.0), (104.0, 100.0), (104.0, 104.0), (100.0, 104.0)])
    dataset.replace_polygon("s", 0, tiny)
    dataset.remove_polygons("s", [1])
    index = dataset.act_index("s", epsilon)
    assert not index.consolidated
    assert index.num_delta_segments >= 2


def _probe_tags() -> list[dict]:
    return [span.tags for span in trace.active().find("join.probe")]


def assert_three_paths_agree(dataset, points, spec, *, cached: bool) -> None:
    tracer_was_on = trace.enabled()
    trace.enable()
    try:
        got = dataset.query(spec, strategy="act")
        tags = _probe_tags()
    finally:
        if not tracer_was_on:
            trace.disable()
    assert len(tags) == 1
    assert tags[0]["linearization"] == ("cached" if cached else "per-call")
    count_only = spec.aggregate is Aggregate.COUNT
    assert tags[0]["count"] == ("runs" if count_only else "pairs")

    regions = list(dataset.suite("s").regions)
    index = dataset.act_index("s", spec.epsilon)
    per_call = act_approximate_join(
        points, regions, FRAME, epsilon=spec.epsilon, query=spec, trie=index
    )
    filtered = spec.filtered_points(points)
    oracle = ORACLE.probe_act(
        index, filtered.xs, filtered.ys, spec.values(filtered), len(regions)
    )
    want = spec.finalize(oracle.sums, oracle.counts)
    for result in (got, per_call):
        np.testing.assert_array_equal(result.counts, oracle.counts)
        np.testing.assert_array_equal(result.aggregates, want)
    assert per_call.index_probes == oracle.index_probes


class TestThreeProbePaths:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([16.0, 4.0]),
        level=st.integers(4, 9),
        patched=st.booleans(),
    )
    def test_count_sum_avg_agree(self, seed, epsilon, level, patched):
        """Fresh and patched indexes; the dataset level is drawn on both
        sides of the index's max_level (16 -> level 5, 4 -> level 7)."""
        rng = np.random.default_rng(seed)
        points = _points(rng, int(rng.integers(1, 400)))
        dataset = SpatialDataset(points, frame=FRAME, level=level)
        dataset.add_suite("s", [_region(rng) for _ in range(int(rng.integers(1, 6)))])
        dataset.query(AggregationQuery(epsilon=epsilon, suite="s"), strategy="act")
        if patched:
            _patch(dataset, rng, epsilon)
        cached = level >= dataset.act_index("s", epsilon).max_level
        for spec in _specs(epsilon, None).values():
            assert_three_paths_agree(dataset, points, spec, cached=cached)
        fare_filter = lambda pts: pts.attribute("fare") > 20.0  # noqa: E731
        for spec in _specs(epsilon, fare_filter).values():
            assert_three_paths_agree(dataset, points, spec, cached=False)

    def test_finer_dataset_level_walks_the_pyramid(self):
        """Level 12 over an index of max level 5: the walk reads coarse runs
        of the cached pyramid, never the finest cells directly."""
        rng = np.random.default_rng(7)
        points = _points(rng, 2000)
        dataset = SpatialDataset(points, frame=FRAME, level=12)
        dataset.add_suite("s", [_region(rng) for _ in range(6)])
        dataset.query(AggregationQuery(epsilon=16.0, suite="s"), strategy="act")
        _patch(dataset, rng, 16.0)
        for spec in _specs(16.0, None).values():
            assert_three_paths_agree(dataset, points, spec, cached=True)

    def test_static_sharded_dataset_uses_the_cached_linearization(self):
        """A static ``shards`` count changes no execution: the sharded
        dataset walks the same cached linearization as an unsharded one."""
        rng = np.random.default_rng(3)
        points = _points(rng, 500)
        dataset = SpatialDataset(points, frame=FRAME, shards=2)
        dataset.add_suite("s", [_region(rng) for _ in range(3)])
        for spec in _specs(16.0, None).values():
            assert_three_paths_agree(dataset, points, spec, cached=True)
        assert dataset._linearized is not None


def test_kernel_refuses_a_mismatched_linearization():
    rng = np.random.default_rng(1)
    points = _points(rng, 100)
    regions = [_region(rng) for _ in range(3)]
    index = FlatACT.build(regions, FRAME, 4.0)
    fewer = points.select(np.arange(len(points)) % 2 == 0)
    coarse = LinearizedPoints.build(points, FRAME, index.max_level - 1)
    for lin, error in ((LinearizedPoints.build(fewer, FRAME, 12), QueryError), (coarse, IndexError_)):
        with pytest.raises(error):
            act_approximate_join(points, regions, FRAME, epsilon=4.0, trie=index, linearized=lin)
