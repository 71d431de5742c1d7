"""Tests for polygons, rings and multipolygons."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import MultiPolygon, Point, Polygon, Ring


class TestRing:
    def test_closing_vertex_dropped(self):
        ring = Ring([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(ring) == 3

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Ring([(0, 0), (1, 1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            Ring([(0, 0), (1, bad), (1, 1)])
        with pytest.raises(GeometryError, match="finite"):
            Polygon([(0, 0), (4, 0), (4, 4)], holes=[[(1, 1), (bad, 1), (2, 2)]])

    def test_signed_area_orientation(self):
        ccw = Ring([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert ccw.is_ccw
        assert ccw.signed_area == pytest.approx(1.0)
        cw = ccw.reversed()
        assert not cw.is_ccw
        assert cw.signed_area == pytest.approx(-1.0)

    def test_oriented_no_copy_when_correct(self):
        ring = Ring([(0, 0), (1, 0), (1, 1)])
        assert ring.oriented(ccw=True) is ring

    def test_perimeter(self):
        ring = Ring([(0, 0), (3, 0), (3, 4)])
        assert ring.perimeter() == pytest.approx(12.0)

    def test_segments_close_the_ring(self):
        ring = Ring([(0, 0), (1, 0), (1, 1)])
        segs = list(ring.segments())
        assert len(segs) == 3
        assert segs[-1].end == Point(0.0, 0.0)


class TestSlabTableCache:
    """The cached edge table is derived state: it never travels or counts."""

    def test_built_lazily_once(self, unit_square):
        fresh = Polygon(unit_square.exterior.coords, [h.coords for h in unit_square.holes])
        assert fresh.exterior._slabs is None
        fresh.contains_points(np.array([1.0]), np.array([1.0]))
        table = fresh.exterior._slabs
        assert table is not None
        fresh.contains_points(np.array([2.0]), np.array([2.0]))
        assert fresh.exterior._slabs is table

    def test_not_pickled(self, unit_square):
        fresh = Polygon(unit_square.exterior.coords, [h.coords for h in unit_square.holes])
        fresh.bounds()  # the (small) cached bounding box does travel
        cold = pickle.dumps(fresh)
        xs, ys = np.array([1.0, 5.0, 4.0]), np.array([1.0, 5.0, 5.0])
        want = fresh.contains_points(xs, ys)
        assert pickle.dumps(fresh) == cold
        clone = pickle.loads(cold)
        assert all(ring._slabs is None for ring in clone.rings())
        np.testing.assert_array_equal(clone.contains_points(xs, ys), want)

    def test_not_fingerprinted(self, unit_square):
        from repro.api.fingerprint import region_fingerprint

        fresh = Polygon(unit_square.exterior.coords, [h.coords for h in unit_square.holes])
        before = region_fingerprint(fresh)
        fresh.contains_points(np.array([1.0]), np.array([1.0]))
        assert region_fingerprint(fresh) == before == region_fingerprint(unit_square)


class TestPolygon:
    def test_exterior_normalised_ccw(self):
        poly = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # given clockwise
        assert poly.exterior.is_ccw

    def test_holes_normalised_cw(self, unit_square):
        assert all(not h.is_ccw for h in unit_square.holes)

    def test_area_subtracts_holes(self, unit_square):
        assert unit_square.area == pytest.approx(100.0 - 4.0)

    def test_num_vertices_counts_holes(self, unit_square):
        assert unit_square.num_vertices == 8

    def test_bounds(self, unit_square):
        assert unit_square.bounds().as_tuple() == (0.0, 0.0, 10.0, 10.0)

    def test_centroid_of_square(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        c = poly.centroid()
        assert (c.x, c.y) == pytest.approx((1.0, 1.0))

    def test_contains_point_with_hole(self, unit_square):
        assert unit_square.contains_point(Point(1.0, 1.0))
        assert not unit_square.contains_point(Point(5.0, 5.0))  # in the hole
        assert not unit_square.contains_point(Point(20.0, 20.0))

    def test_contains_point_concave(self, l_shape):
        assert l_shape.contains_point(Point(1.0, 5.0))
        assert not l_shape.contains_point(Point(5.0, 5.0))  # in the notch

    def test_contains_points_matches_scalar(self, l_shape, rng):
        xs = rng.uniform(-1, 7, 300)
        ys = rng.uniform(-1, 7, 300)
        vector = l_shape.contains_points(xs, ys)
        scalar = np.array([l_shape.contains_point(Point(x, y)) for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(vector, scalar)

    def test_translated(self, l_shape):
        moved = l_shape.translated(10.0, 5.0)
        assert moved.contains_point(Point(11.0, 10.0))
        assert moved.area == pytest.approx(l_shape.area)

    def test_scaled_area(self, l_shape):
        scaled = l_shape.scaled(2.0)
        assert scaled.area == pytest.approx(4.0 * l_shape.area)

    def test_scaled_invalid_factor(self, l_shape):
        with pytest.raises(GeometryError):
            l_shape.scaled(0.0)

    def test_boundary_segments_count(self, unit_square):
        assert len(list(unit_square.boundary_segments())) == 8


class TestMultiPolygon:
    def test_requires_parts(self):
        with pytest.raises(GeometryError):
            MultiPolygon([])

    def test_area_and_vertices_sum(self, unit_square, l_shape):
        multi = MultiPolygon([unit_square, l_shape.translated(20.0, 0.0)])
        assert multi.area == pytest.approx(unit_square.area + l_shape.area)
        assert multi.num_vertices == unit_square.num_vertices + l_shape.num_vertices

    def test_bounds_cover_all_parts(self, unit_square, l_shape):
        multi = MultiPolygon([unit_square, l_shape.translated(20.0, 0.0)])
        box = multi.bounds()
        assert box.contains_box(unit_square.bounds())

    def test_contains_point_any_part(self, unit_square, l_shape):
        multi = MultiPolygon([unit_square, l_shape.translated(20.0, 0.0)])
        assert multi.contains_point(Point(1.0, 1.0))
        assert multi.contains_point(Point(21.0, 5.0))
        assert not multi.contains_point(Point(15.0, 15.0))

    def test_contains_points_vectorised(self, unit_square, l_shape):
        multi = MultiPolygon([unit_square, l_shape.translated(20.0, 0.0)])
        xs = np.array([1.0, 21.0, 15.0])
        ys = np.array([1.0, 5.0, 15.0])
        assert multi.contains_points(xs, ys).tolist() == [True, True, False]

    def test_centroid_weighted(self):
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(10, 0), (12, 0), (12, 2), (10, 2)])
        multi = MultiPolygon([a, b])
        assert multi.centroid().x == pytest.approx(6.0)
