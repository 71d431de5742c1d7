"""Frame-validity regression tests: out-of-frame probes must never match.

The conservativity guarantee of a distance-bounded approximation is that it
errs only at its boundary cells — false positives within ``epsilon`` of a
region boundary, never frame-widths away.  ``GridFrame.points_to_codes``
clamps out-of-frame points onto edge cells, so every probe path has to mask
with the frame before trusting the codes; these tests lock that in for all
index forms, and for every frame edge.  They also lock the empty-input
behaviour of the probe paths (N = 0 must flow through the batch kernels) so
future sweeps cannot regress either edge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import HierarchicalRasterApproximation
from repro.geometry import BoundingBox, Polygon
from repro.geometry.point import PointSet
from repro.grid import GridFrame
from repro.index import AdaptiveCellTrie, FlatACT
from repro.query import (
    act_approximate_join,
    estimate_count_range,
    exact_count,
    raster_count,
)
from repro.query.containment import LinearizedPoints
from repro.index.sorted_array import SortedCodeArray


@pytest.fixture(scope="module")
def frame() -> GridFrame:
    return GridFrame(BoundingBox(0.0, 0.0, 8.0, 8.0))


@pytest.fixture(scope="module")
def edge_polygon() -> Polygon:
    """A polygon hugging the frame's max corner — its conservative
    approximation covers the edge cells that clamped points land in."""
    return Polygon([(5.0, 5.0), (7.9, 5.0), (7.9, 7.9), (5.0, 7.9)])


@pytest.fixture(scope="module", params=["trie", "flat"])
def act_index(request, frame, edge_polygon):
    if request.param == "trie":
        return AdaptiveCellTrie.build([edge_polygon], frame, epsilon=1.0)
    return FlatACT.build([edge_polygon], frame, epsilon=1.0)


#: One probe beyond each frame edge (the frame is [0, 8+margin] squared),
#: plus the far-away repro from the original bug report.
OUTSIDE_POINTS = [
    (-1.0, 6.0),  # left of min_x
    (100.0, 6.0),  # right of max_x
    (6.0, -1.0),  # below min_y
    (6.0, 100.0),  # above max_y
    (100.0, 100.0),  # far corner (the original x=100 repro)
    (-0.0000001, 6.0),  # barely outside
]


class TestOutOfFrameProbes:
    def test_join_counts_zero_for_outside_points(self, frame, edge_polygon, act_index):
        xs, ys = zip(*OUTSIDE_POINTS)
        points = PointSet(np.array(xs), np.array(ys))
        result = act_approximate_join(
            points, [edge_polygon], frame, epsilon=1.0, trie=act_index
        )
        assert result.counts.tolist() == [0]

    def test_scalar_lookups_empty_outside(self, act_index):
        for x, y in OUTSIDE_POINTS:
            assert act_index.lookup_point(x, y) == []

    def test_batch_lookup_empty_outside(self, act_index):
        xs, ys = map(np.asarray, zip(*OUTSIDE_POINTS))
        offsets, pids = act_index.lookup_points_batch(xs, ys)
        assert offsets.tolist() == [0] * (len(OUTSIDE_POINTS) + 1)
        assert pids.size == 0

    def test_mixed_batch_keeps_inside_matches(self, frame, edge_polygon, act_index):
        """Out-of-frame points are masked without shifting in-frame matches."""
        xs = np.array([6.0, 100.0, 6.5, -1.0])
        ys = np.array([6.0, 100.0, 6.5, 6.0])
        points = PointSet(xs, ys)
        result = act_approximate_join(
            points, [edge_polygon], frame, epsilon=1.0, trie=act_index
        )
        assert result.counts.tolist() == [2]
        offsets, pids = act_index.lookup_points_batch(xs, ys)
        assert offsets.tolist() == [0, 1, 1, 2, 2]
        assert pids.tolist() == [0, 0]

    def test_point_on_max_edge_keeps_matching(self):
        """The frame is closed: a point exactly on the max edge clamps into
        the last cell, which a conservative edge-touching approximation
        covers — it must keep matching."""
        frame = GridFrame(BoundingBox(0.0, 0.0, 8.0, 8.0), margin_fraction=0.0)
        polygon = Polygon([(6.0, 6.0), (8.0, 6.0), (8.0, 8.0), (6.0, 8.0)])
        points = PointSet(np.array([8.0, 8.0]), np.array([8.0, 7.0]))
        result = act_approximate_join(points, [polygon], frame, epsilon=1.0)
        assert result.counts.tolist() == [2]

    def test_hr_covers_points_outside_frame(self, frame, edge_polygon):
        approx = HierarchicalRasterApproximation.from_bound(edge_polygon, frame, epsilon=1.0)
        xs, ys = map(np.asarray, zip(*OUTSIDE_POINTS))
        assert not approx.covers_points(xs, ys).any()
        for x, y in OUTSIDE_POINTS:
            assert not approx.covers_point(x, y)
        # Scalar and batch stay in lockstep on a mixed batch.
        mixed_x = np.array([6.0, 100.0, 6.5])
        mixed_y = np.array([6.0, 100.0, 6.5])
        batch = approx.covers_points(mixed_x, mixed_y)
        scalar = [approx.covers_point(float(x), float(y)) for x, y in zip(mixed_x, mixed_y)]
        assert batch.tolist() == scalar == [True, False, True]

    def test_linearized_points_drop_outside(self, frame, edge_polygon):
        """raster_count must not count clamped out-of-frame points."""
        inside = [(6.0, 6.0), (6.5, 7.0)]
        xs, ys = map(np.asarray, zip(*(inside + OUTSIDE_POINTS)))
        points = PointSet(xs, ys)
        linearized = LinearizedPoints.build(points, frame, level=6)
        assert linearized.size == len(inside)
        index = SortedCodeArray(linearized.codes, assume_sorted=True)
        approx_count = raster_count(edge_polygon, linearized, index, cells_per_polygon=64)
        exact = exact_count(edge_polygon, points)
        assert exact == 2
        # Conservative approximation: no false negatives, and the clamped
        # out-of-frame points contribute nothing.
        assert exact <= approx_count <= len(inside)


class TestEmptyInputs:
    """Lock the N = 0 paths the batch kernels must keep supporting."""

    def test_empty_batch_lookup(self, act_index):
        offsets, pids = act_index.lookup_points_batch(np.empty(0), np.empty(0))
        assert offsets.tolist() == [0]
        assert pids.size == 0

    def test_empty_join(self, frame, edge_polygon):
        empty = PointSet(np.empty(0), np.empty(0))
        result = act_approximate_join(empty, [edge_polygon], frame, epsilon=1.0)
        assert result.counts.tolist() == [0]
        assert result.index_probes == 0

    def test_empty_estimate_count_range(self, edge_polygon):
        empty = PointSet(np.empty(0), np.empty(0))
        estimate = estimate_count_range(empty, edge_polygon, epsilon=1.0)
        assert estimate.approximate == 0.0
        assert estimate.lower == 0.0
        assert estimate.upper == 0.0
        assert estimate.contains(0.0)

    def test_empty_linearized_points(self, frame):
        empty = PointSet(np.empty(0), np.empty(0))
        linearized = LinearizedPoints.build(empty, frame, level=5)
        assert linearized.size == 0
