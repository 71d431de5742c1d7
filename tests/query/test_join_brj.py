"""Tests for the Bounded Raster Join and the GPU-baseline join (Figure 7 machinery)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.brj_polygon_loop import brj_polygon_loop

from repro.errors import QueryError
from repro.geometry import BoundingBox, MultiPolygon, PointSet, Polygon
from repro.hardware import DeviceSpec, SimulatedGPU
from repro.query import (
    Aggregate,
    AggregationQuery,
    bounded_raster_join,
    exact_join_reference,
    gpu_baseline_join,
    median_relative_error,
)

#: A bound whose pixel side is exactly 1.0, so canvas and tile seams sit on
#: integer coordinates.
UNIT_PIXEL_EPSILON = math.sqrt(2.0)


@pytest.fixture(scope="module")
def reference(taxi_points, neighborhoods):
    return exact_join_reference(taxi_points, neighborhoods)


class TestBoundedRasterJoin:
    def test_invalid_epsilon(self, taxi_points, neighborhoods):
        with pytest.raises(QueryError):
            bounded_raster_join(taxi_points, neighborhoods, epsilon=0.0)

    def test_counts_close_to_exact(self, taxi_points, neighborhoods, workload, reference):
        result = bounded_raster_join(taxi_points, neighborhoods, epsilon=10.0, extent=workload.extent)
        assert median_relative_error(result.counts, reference.counts) < 0.02

    def test_accuracy_improves_with_tighter_bound(
        self, taxi_points, neighborhoods, workload, reference
    ):
        loose = bounded_raster_join(taxi_points, neighborhoods, epsilon=40.0, extent=workload.extent)
        tight = bounded_raster_join(taxi_points, neighborhoods, epsilon=5.0, extent=workload.extent)
        assert median_relative_error(tight.counts, reference.counts) <= median_relative_error(
            loose.counts, reference.counts
        )

    def test_resolution_grows_with_tighter_bound(self, taxi_points, neighborhoods, workload):
        loose = bounded_raster_join(taxi_points, neighborhoods, epsilon=40.0, extent=workload.extent)
        tight = bounded_raster_join(taxi_points, neighborhoods, epsilon=5.0, extent=workload.extent)
        assert tight.resolution[0] > loose.resolution[0]

    def test_canvas_subdivision_when_exceeding_device_limit(
        self, taxi_points, neighborhoods, workload
    ):
        small_device = SimulatedGPU(spec=DeviceSpec(max_texture_size=128))
        result = bounded_raster_join(
            taxi_points, neighborhoods, epsilon=10.0, extent=workload.extent, gpu=small_device
        )
        assert result.num_passes > 1
        # Subdivision must not change the result.
        single = bounded_raster_join(taxi_points, neighborhoods, epsilon=10.0, extent=workload.extent)
        np.testing.assert_array_equal(result.counts, single.counts)

    def test_device_time_recorded(self, taxi_points, neighborhoods, workload):
        gpu = SimulatedGPU()
        result = bounded_raster_join(
            taxi_points, neighborhoods, epsilon=10.0, extent=workload.extent, gpu=gpu
        )
        assert result.device_seconds > 0
        assert gpu.stats.pixels_written > 0

    def test_sum_aggregate(self, taxi_points, neighborhoods, workload):
        query = AggregationQuery(aggregate=Aggregate.SUM, attribute="fare")
        reference = exact_join_reference(taxi_points, neighborhoods, query=query)
        result = bounded_raster_join(
            taxi_points, neighborhoods, epsilon=5.0, extent=workload.extent, query=query
        )
        assert median_relative_error(result.aggregates, reference.aggregates) < 0.02

    def test_default_extent_derived_from_inputs(self, taxi_points, neighborhoods):
        result = bounded_raster_join(taxi_points, neighborhoods, epsilon=10.0)
        assert result.resolution[0] > 0


class TestTileSeams:
    def test_point_on_inner_seam_counted_once(self):
        """An 8x8 canvas cut into four 4x4 tiles: a point on the x = 4 seam
        belongs to the right-hand tile only."""
        extent = BoundingBox(0.0, 0.0, 8.0, 8.0)
        square = Polygon([(0.5, 0.5), (7.5, 0.5), (7.5, 7.5), (0.5, 7.5)])
        points = PointSet([4.0, 1.5], [2.5, 1.5])
        tiled = bounded_raster_join(
            points, [square], UNIT_PIXEL_EPSILON, extent=extent,
            gpu=SimulatedGPU(DeviceSpec(max_texture_size=4)),
        )
        single = bounded_raster_join(points, [square], UNIT_PIXEL_EPSILON, extent=extent)
        assert tiled.num_passes == 4
        assert single.num_passes == 1
        assert tiled.counts.tolist() == single.counts.tolist() == [2]

    def test_points_on_canvas_max_edge_kept(self):
        """The canvas's own outer edges stay closed, tiled or not."""
        extent = BoundingBox(0.0, 0.0, 8.0, 8.0)
        square = Polygon([(-1.0, -1.0), (9.0, -1.0), (9.0, 9.0), (-1.0, 9.0)])
        points = PointSet([8.0, 8.0, 0.0, 4.0], [8.0, 4.0, 8.0, 4.0])
        for size in (4, 8):
            result = bounded_raster_join(
                points, [square], UNIT_PIXEL_EPSILON, extent=extent,
                gpu=SimulatedGPU(DeviceSpec(max_texture_size=size)),
            )
            assert result.counts.tolist() == [4]


def _star_polygon(rng, cx, cy, r_lo, r_hi, holes, snap):
    """A star-shaped polygon with up to ``holes`` holes around ``(cx, cy)``;
    ``snap`` puts vertices on integer pixel borders and half-integer centres."""

    def ring(x, y, lo, hi, n):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(lo, hi, n)
        xy = np.column_stack([x + radii * np.cos(angles), y + radii * np.sin(angles)])
        return np.round(xy * 2.0) / 2.0 if snap else xy

    hole_rings = [
        ring(cx + rng.uniform(-1.0, 1.0), cy + rng.uniform(-1.0, 1.0), 0.2 * r_lo, 0.6 * r_lo,
             int(rng.integers(4, 8)))
        for _ in range(holes)
    ]
    return Polygon(ring(cx, cy, r_lo, r_hi, int(rng.integers(4, 24))), holes=hole_rings)


def _seam_suite(rng, snap):
    """Regions on a 40x40 canvas: polygons with holes that straddle 8- and
    16-pixel tile seams, a multipolygon with overlapping parts, and a polygon
    wholly outside the extent."""
    regions = [
        _star_polygon(rng, *rng.uniform(4.0, 36.0, 2), 3.0, 9.0, int(rng.integers(0, 3)), snap)
        for _ in range(int(rng.integers(1, 5)))
    ]
    a = _star_polygon(rng, 16.0, 16.0, 4.0, 8.0, 1, snap)
    regions.append(MultiPolygon([a, a.translated(*rng.uniform(-3.0, 3.0, 2)),
                                 _star_polygon(rng, 30.0, 8.0, 2.0, 5.0, 0, snap)]))
    regions.append(_star_polygon(rng, 60.0, 20.0, 2.0, 5.0, 0, snap))
    return regions


def _seam_points(rng, n):
    """Uniform points plus points exactly on tile seams, pixel borders and the
    canvas edges, some outside the extent."""
    xs = [rng.uniform(-2.0, 42.0, n), rng.integers(0, 41, n // 4).astype(float),
          rng.uniform(0.0, 40.0, n // 4)]
    ys = [rng.uniform(-2.0, 42.0, n), rng.uniform(0.0, 40.0, n // 4),
          rng.integers(0, 41, n // 4).astype(float)]
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    return PointSet(xs, ys, attributes={"fare": rng.uniform(0.0, 50.0, xs.shape[0])})


class TestSpanJoinAgainstLoopOracle:
    """The suite-wide span BRJ ≡ the polygon-at-a-time loop, bit for bit:
    counts, aggregates and every simulated-device counter."""

    EXTENT = BoundingBox(0.0, 0.0, 40.0, 40.0)

    @staticmethod
    def _assert_same(points, regions, query, texture, extent):
        got_gpu = SimulatedGPU(DeviceSpec(max_texture_size=texture))
        want_gpu = SimulatedGPU(DeviceSpec(max_texture_size=texture))
        got = bounded_raster_join(points, regions, UNIT_PIXEL_EPSILON, extent=extent, query=query,
                                  gpu=got_gpu)
        want = brj_polygon_loop(points, regions, UNIT_PIXEL_EPSILON, extent=extent, query=query,
                                gpu=want_gpu)
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.aggregates, want.aggregates)
        assert got.counts.dtype == want.counts.dtype
        assert got.device_seconds == want.device_seconds
        assert got_gpu.stats.as_dict() == want_gpu.stats.as_dict()
        assert (got.resolution, got.num_passes) == (want.resolution, want.num_passes)
        return got

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        snap=st.booleans(),
        texture=st.sampled_from([8, 16, 64]),
        aggregate=st.sampled_from([Aggregate.COUNT, Aggregate.SUM, Aggregate.AVG]),
    )
    def test_matches_loop(self, seed, snap, texture, aggregate):
        rng = np.random.default_rng(seed)
        attribute = None if aggregate is Aggregate.COUNT else "fare"
        query = AggregationQuery(aggregate=aggregate, attribute=attribute)
        self._assert_same(_seam_points(rng, 400), _seam_suite(rng, snap), query, texture,
                          self.EXTENT)

    def test_workload_suite_one_and_many_tiles(self, taxi_points, neighborhoods, workload):
        query = AggregationQuery(aggregate=Aggregate.SUM, attribute="fare")
        for texture in (4096, 128):
            self._assert_same(taxi_points, neighborhoods, query, texture, workload.extent)

    def test_overlapping_parts_counted_once(self):
        square = Polygon([(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0)])
        doubled = MultiPolygon([square, square.translated(1.0, 0.0)])
        points = PointSet([3.5, 6.5, 4.5], [3.5, 3.5, 9.5])
        result = self._assert_same(points, [doubled], None, 4, self.EXTENT)
        assert result.counts.tolist() == [2]

    def test_empty_suite(self):
        points = _seam_points(np.random.default_rng(0), 50)
        for query in (None, AggregationQuery(aggregate=Aggregate.AVG, attribute="fare")):
            result = self._assert_same(points, [], query, 16, self.EXTENT)
            assert result.counts.shape == result.aggregates.shape == (0,)


class TestGPUBaseline:
    def test_exact_counts(self, taxi_points, neighborhoods, workload, reference):
        result = gpu_baseline_join(
            taxi_points, neighborhoods, extent=workload.extent, grid_resolution=256
        )
        np.testing.assert_array_equal(result.counts, reference.counts)

    def test_pip_tests_counted(self, taxi_points, neighborhoods, workload):
        result = gpu_baseline_join(
            taxi_points, neighborhoods, extent=workload.extent, grid_resolution=256
        )
        assert result.pip_tests >= result.counts.sum()

    def test_brj_beats_baseline_on_device_time_at_loose_bound(
        self, taxi_points, neighborhoods, workload
    ):
        """The Figure 7 headline: at a 10 m bound BRJ is much cheaper than the
        exact baseline on the device cost model; at a very tight bound the
        advantage disappears."""
        gpu_a = SimulatedGPU()
        brj_loose = bounded_raster_join(
            taxi_points, neighborhoods, epsilon=10.0, extent=workload.extent, gpu=gpu_a
        )
        gpu_b = SimulatedGPU()
        baseline = gpu_baseline_join(
            taxi_points, neighborhoods, extent=workload.extent, grid_resolution=256, gpu=gpu_b
        )
        assert brj_loose.device_seconds < baseline.device_seconds

        gpu_c = SimulatedGPU(spec=DeviceSpec(max_texture_size=512))
        brj_tight = bounded_raster_join(
            taxi_points, neighborhoods, epsilon=0.5, extent=workload.extent, gpu=gpu_c
        )
        assert brj_tight.device_seconds > brj_loose.device_seconds
