"""Tests for the exact geometric predicates."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.ring_loop import points_in_region_loop

from repro.geometry import (
    BoundingBox,
    CellRelation,
    MultiPolygon,
    Point,
    Polygon,
    box_intersects_polygon,
    box_within_polygon,
    classify_box,
    point_in_polygon,
    point_in_region,
    points_in_polygon,
    points_in_region,
    polygons_intersect,
)
from repro.geometry.predicates import RegionSlabs


class TestPointInPolygon:
    def test_boundary_counts_as_inside(self, unit_square):
        assert point_in_polygon(0.0, 5.0, unit_square)
        assert point_in_polygon(10.0, 10.0, unit_square)

    def test_hole_boundary_belongs_to_polygon(self, unit_square):
        assert point_in_polygon(4.0, 5.0, unit_square)

    def test_hole_interior_excluded(self, unit_square):
        assert not point_in_polygon(5.0, 5.0, unit_square)

    def test_outside_bbox_short_circuit(self, unit_square):
        assert not point_in_polygon(100.0, 100.0, unit_square)

    def test_concave_polygon(self, l_shape):
        assert point_in_polygon(1.0, 1.0, l_shape)
        assert not point_in_polygon(4.0, 4.0, l_shape)

    @settings(max_examples=30)
    @given(x=st.floats(-2, 12), y=st.floats(-2, 12))
    def test_vectorised_matches_scalar(self, unit_square, x, y):
        single = point_in_polygon(x, y, unit_square)
        vector = points_in_polygon(np.array([x]), np.array([y]), unit_square)[0]
        assert single == vector

    def test_point_in_region_multipolygon(self, unit_square, l_shape):
        multi = MultiPolygon([unit_square, l_shape.translated(50.0, 0.0)])
        assert point_in_region(51.0, 1.0, multi)
        assert not point_in_region(30.0, 30.0, multi)


class TestBoxPolygonRelations:
    def test_box_inside(self, unit_square):
        box = BoundingBox(1.0, 1.0, 3.0, 3.0)
        assert box_within_polygon(box, unit_square)
        assert box_intersects_polygon(box, unit_square)
        assert classify_box(box, unit_square) is CellRelation.INSIDE

    def test_box_straddling_boundary(self, unit_square):
        box = BoundingBox(-1.0, 4.0, 1.0, 6.0)
        assert not box_within_polygon(box, unit_square)
        assert box_intersects_polygon(box, unit_square)
        assert classify_box(box, unit_square) is CellRelation.BOUNDARY

    def test_box_outside(self, unit_square):
        box = BoundingBox(20.0, 20.0, 21.0, 21.0)
        assert not box_intersects_polygon(box, unit_square)
        assert classify_box(box, unit_square) is CellRelation.OUTSIDE

    def test_box_over_hole_is_not_inside(self, unit_square):
        box = BoundingBox(4.5, 4.5, 5.5, 5.5)
        assert not box_within_polygon(box, unit_square)

    def test_box_containing_whole_polygon_intersects(self, l_shape):
        box = BoundingBox(-10.0, -10.0, 10.0, 10.0)
        assert box_intersects_polygon(box, l_shape)
        assert classify_box(box, l_shape) is CellRelation.BOUNDARY

    def test_box_in_concave_notch(self, l_shape):
        # The notch of the L is outside the polygon even though it is inside the MBR.
        box = BoundingBox(4.0, 4.0, 5.0, 5.0)
        assert classify_box(box, l_shape) is CellRelation.OUTSIDE


class TestPolygonsIntersect:
    def test_overlapping(self, unit_square):
        other = Polygon([(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0)])
        assert polygons_intersect(unit_square, other)

    def test_disjoint(self, unit_square):
        other = Polygon([(20.0, 20.0), (30.0, 20.0), (30.0, 30.0), (20.0, 30.0)])
        assert not polygons_intersect(unit_square, other)

    def test_containment_counts_as_intersection(self, unit_square):
        inner = Polygon([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)])
        assert polygons_intersect(unit_square, inner)
        assert polygons_intersect(inner, unit_square)

    def test_edge_touching(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        assert polygons_intersect(a, b)


class TestRandomisedAgainstArea:
    def test_monte_carlo_area_consistency(self, l_shape, rng):
        """The fraction of random points classified inside approximates the area."""
        box = l_shape.bounds()
        n = 4000
        xs = rng.uniform(box.min_x, box.max_x, n)
        ys = rng.uniform(box.min_y, box.max_y, n)
        frac = points_in_polygon(xs, ys, l_shape).mean()
        expected = l_shape.area / box.area
        assert frac == pytest.approx(expected, abs=0.05)


def _star_ring(rng, cx, cy, r_lo, r_hi, n, snap):
    """A star-shaped ring; ``snap`` puts the vertices on a coarse lattice, which
    makes horizontal edges, repeated ordinates and collinear runs common."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(r_lo, r_hi, n)
    ring = np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    return np.round(ring * 2.0) / 2.0 if snap else ring


def _star_polygon(rng, cx, cy, n, holes, snap):
    exterior = _star_ring(rng, cx, cy, 6.0, 10.0, n, snap)
    hole_rings = [
        _star_ring(rng, cx + rng.uniform(-2.0, 2.0), cy + rng.uniform(-2.0, 2.0), 0.5, 2.5,
                   int(rng.integers(3, 9)), snap)
        for _ in range(holes)
    ]
    return Polygon(exterior, holes=hole_rings)


def _probe_points(rng, region, n_random):
    """Random points plus the places a slab table could get wrong: vertices,
    edge interiors, horizontal edges, ring y-extremes and slab borders (each
    also one ulp above and below), and non-finite points."""
    parts = region.polygons if isinstance(region, MultiPolygon) else (region,)
    box = region.bounds()
    xs = [rng.uniform(box.min_x - 2.0, box.max_x + 2.0, n_random)]
    ys = [rng.uniform(box.min_y - 2.0, box.max_y + 2.0, n_random)]
    for part in parts:
        for ring in part.rings():
            a = ring.coords
            b = np.roll(a, -1, axis=0)
            t = rng.uniform(0.0, 1.0, (a.shape[0], 1))
            on_edges = a + t * (b - a)
            flat = a[:, 1] == b[:, 1]
            # The table cuts [ymin, ymax] into len(ring) uniform slabs.
            borders = np.linspace(a[:, 1].min(), a[:, 1].max(), a.shape[0] + 1)
            border_ys = np.concatenate(
                [borders, np.nextafter(borders, np.inf), np.nextafter(borders, -np.inf)]
            )
            # Just above and below each vertex, inside the 1e-9 boundary tolerance.
            xs += [a[:, 0], a[:, 0], a[:, 0], on_edges[:, 0], on_edges[flat, 0],
                   rng.uniform(box.min_x, box.max_x, border_ys.shape[0])]
            ys += [a[:, 1], a[:, 1] + 5e-10, a[:, 1] - 5e-10, on_edges[:, 1], a[flat, 1],
                   border_ys]
    xs.append(np.array([np.nan, 0.0, np.inf, -np.inf, 0.0]))
    ys.append(np.array([0.0, np.nan, 0.0, 0.0, np.inf]))
    return np.concatenate(xs), np.concatenate(ys)


class TestSlabKernelAgainstLoopOracle:
    """The slab-indexed kernel, the all-edges loop it replaced and the scalar
    ray cast give the same verdict for every point."""

    @staticmethod
    def _check(region, xs, ys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = points_in_region(xs, ys, region)
        np.testing.assert_array_equal(got, points_in_region_loop(xs, ys, region))
        scalar = [point_in_region(float(x), float(y), region) for x, y in zip(xs, ys)]
        np.testing.assert_array_equal(got, np.array(scalar, dtype=bool))
        return got

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), holes=st.integers(0, 3),
           snap=st.booleans())
    def test_star_polygons_with_holes(self, seed, n, holes, snap):
        rng = np.random.default_rng(seed)
        polygon = _star_polygon(rng, 0.0, 0.0, n, holes, snap)
        self._check(polygon, *_probe_points(rng, polygon, 200))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_vertex_on_a_slab_border(self, seed):
        """32 lattice vertices spanning exactly [-8, 8]: the slabs are 0.5 high,
        so every vertex sits on a border and an edge reaches the slab below
        (above) its lower (upper) end only through its padding."""
        rng = np.random.default_rng(seed)
        ring = _star_ring(rng, 0.0, 0.0, 4.0, 7.9, 32, True)
        ring[np.argmin(ring[:, 1]), 1] = -8.0
        ring[np.argmax(ring[:, 1]), 1] = 8.0
        polygon = Polygon(ring)
        self._check(polygon, *_probe_points(rng, polygon, 100))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 24), snap=st.booleans())
    def test_multipolygons_with_touching_parts(self, seed, n, snap):
        rng = np.random.default_rng(seed)
        star = _star_polygon(rng, 0.0, 0.0, n, 1, snap)
        box = star.bounds()
        # A copy whose bounding box shares an edge with the star's, and a
        # square that shares the star's lowest vertex.
        low = star.exterior.coords[np.argmin(star.exterior.coords[:, 1])]
        square = Polygon([(low[0], low[1]), (low[0] + 3, low[1]), (low[0] + 3, low[1] - 3),
                          (low[0], low[1] - 3)])
        multi = MultiPolygon([star, star.translated(box.max_x - box.min_x, 0.0), square])
        self._check(multi, *_probe_points(rng, multi, 200))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), snap=st.booleans())
    def test_segmented_call_matches_per_region_calls(self, seed, snap):
        rng = np.random.default_rng(seed)
        regions = [
            _star_polygon(rng, 0.0, 0.0, 12, 2, snap),
            MultiPolygon([_star_polygon(rng, 5.0, 5.0, 7, 0, snap),
                          _star_polygon(rng, 20.0, 5.0, 9, 1, snap)]),
            Polygon([(-3.0, 2.0), (4.0, 2.0), (9.0, 2.0)]),
        ]
        slabs = RegionSlabs(regions)
        for rid, region in enumerate(regions):
            xs, ys = _probe_points(rng, region, 100)
            keep = np.isfinite(xs) & np.isfinite(ys)
            xs, ys = xs[keep], ys[keep]
            # Interleave with points tagged for the other regions.
            tags = rng.integers(0, len(regions), xs.shape[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = slabs.contains(tags, xs, ys)
            for other, other_region in enumerate(regions):
                mine = tags == other
                np.testing.assert_array_equal(
                    got[mine], points_in_region_loop(xs[mine], ys[mine], other_region)
                )

    def test_empty_input(self, unit_square):
        empty = np.empty(0, dtype=np.float64)
        assert points_in_region(empty, empty, unit_square).shape == (0,)
        assert RegionSlabs([unit_square]).contains(
            np.empty(0, dtype=np.int64), empty, empty
        ).shape == (0,)

    def test_ring_without_y_extent_is_one_slab(self, rng):
        """A degenerate (zero-area, horizontal) ring: its own points are on the
        boundary, everything else is outside, and nothing warns."""
        sliver = Polygon([(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)])
        xs = np.array([0.0, 2.5, 10.0, 11.0, 5.0, 5.0, np.nan, np.inf])
        ys = np.array([1.0, 1.0, 1.0, 1.0, 1.0 + 1e-6, 0.0, 1.0, 1.0])
        got = self._check(sliver, xs, ys)
        assert got.tolist() == [True, True, True, False, False, False, False, False]

    def test_non_finite_points_are_outside(self, unit_square):
        xs = np.array([np.nan, 5.0, np.inf, -np.inf, 1.0])
        ys = np.array([5.0, np.nan, 5.0, 5.0, np.inf])
        assert not self._check(unit_square, xs, ys).any()

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_verdicts_do_not_depend_on_the_pair_chunk(self, rng, monkeypatch, chunk):
        """Many kernel passes (down to one point per pass) equal one pass."""
        from repro.geometry import slab

        polygon = _star_polygon(rng, 0.0, 0.0, 32, 2, True)
        xs, ys = _probe_points(rng, polygon, 300)
        whole = points_in_polygon(xs, ys, polygon)
        monkeypatch.setattr(slab, "_PAIR_CHUNK", chunk)
        np.testing.assert_array_equal(points_in_polygon(xs, ys, polygon), whole)
        np.testing.assert_array_equal(whole, points_in_region_loop(xs, ys, polygon))
