"""IndexRegistry: content fingerprints, cache hits/misses, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexRegistry, suite_fingerprint
from repro.geometry import MultiPolygon, Polygon
from repro.query import act_approximate_join


def _square(x0, y0, side):
    return Polygon([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)])


class TestFingerprint:
    def test_same_geometry_same_fingerprint(self):
        a = [_square(0, 0, 10), _square(20, 20, 5)]
        b = [_square(0, 0, 10), _square(20, 20, 5)]
        assert suite_fingerprint(a) == suite_fingerprint(b)

    def test_vertex_change_changes_fingerprint(self):
        a = [_square(0, 0, 10)]
        b = [_square(0, 0, 10.0000001)]
        assert suite_fingerprint(a) != suite_fingerprint(b)

    def test_order_sensitive(self):
        p, q = _square(0, 0, 10), _square(20, 20, 5)
        assert suite_fingerprint([p, q]) != suite_fingerprint([q, p])

    def test_holes_and_multipolygons_fingerprinted(self):
        plain = _square(0, 0, 10)
        holed = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        multi = MultiPolygon([plain])
        prints = {suite_fingerprint([region]) for region in (plain, holed, multi)}
        # The hole changes the fingerprint; a single-part multipolygon hashes
        # like its part (same ring bytes, same structure).
        assert suite_fingerprint([plain]) != suite_fingerprint([holed])
        assert len(prints) >= 2

    def test_suite_length_matters(self):
        p = _square(0, 0, 10)
        assert suite_fingerprint([p]) != suite_fingerprint([p, p])


class TestRegistryCache:
    def test_act_index_cached_per_params(self, neighborhoods, workload):
        frame = workload.frame()
        registry = IndexRegistry()
        first = registry.act_index(neighborhoods, frame, epsilon=8.0)
        again = registry.act_index(neighborhoods, frame, epsilon=8.0)
        other_eps = registry.act_index(neighborhoods, frame, epsilon=16.0)
        assert again is first
        assert other_eps is not first
        assert registry.stats.hits == 1
        assert registry.stats.misses == 2
        assert len(registry) == 2
        assert registry.stats.build_seconds > 0

    def test_cached_index_is_bit_identical_to_fresh_build(
        self, taxi_points, neighborhoods, workload
    ):
        frame = workload.frame()
        registry = IndexRegistry()
        registry.act_index(neighborhoods, frame, epsilon=8.0)  # miss: build
        cached = registry.act_index(neighborhoods, frame, epsilon=8.0)  # hit
        via_cache = act_approximate_join(
            taxi_points, neighborhoods, frame, epsilon=8.0, trie=cached
        )
        direct = act_approximate_join(taxi_points, neighborhoods, frame, epsilon=8.0)
        assert np.array_equal(via_cache.counts, direct.counts)
        assert np.array_equal(via_cache.aggregates, direct.aggregates)

    def test_shape_index_cached(self, neighborhoods, workload):
        frame = workload.frame()
        registry = IndexRegistry()
        first = registry.shape_index(neighborhoods, frame, max_cells_per_shape=32)
        again = registry.shape_index(neighborhoods, frame, max_cells_per_shape=32)
        finer = registry.shape_index(neighborhoods, frame, max_cells_per_shape=64)
        assert again is first
        assert finer is not first

    def test_memory_bytes_counts_entries(self, neighborhoods, workload):
        registry = IndexRegistry()
        assert registry.memory_bytes() == 0
        registry.act_index(neighborhoods, workload.frame(), epsilon=16.0)
        built = registry.memory_bytes()
        assert built > 0
        # The polygons' cached edge tables are not index bytes.
        for region in neighborhoods:
            region.contains_points(np.array([500.0]), np.array([500.0]))
        assert registry.memory_bytes() == built


class TestInvalidation:
    @pytest.fixture()
    def warm_registry(self, neighborhoods, census, workload):
        frame = workload.frame()
        registry = IndexRegistry()
        registry.act_index(neighborhoods, frame, epsilon=8.0)
        registry.act_index(census, frame, epsilon=8.0)
        return registry

    def test_full_invalidation(self, warm_registry, neighborhoods, workload):
        dropped = warm_registry.invalidate()
        assert dropped == 2
        assert len(warm_registry) == 0
        assert warm_registry.stats.invalidations == 1
        warm_registry.act_index(neighborhoods, workload.frame(), epsilon=8.0)
        assert warm_registry.stats.misses == 3  # rebuilt after the clear

    def test_per_suite_invalidation(self, warm_registry, neighborhoods, census, workload):
        dropped = warm_registry.invalidate(suite_fingerprint(neighborhoods))
        assert dropped == 1
        assert len(warm_registry) == 1
        # The census entry survived: fetching it again is a hit.
        warm_registry.act_index(census, workload.frame(), epsilon=8.0)
        assert warm_registry.stats.hits == 1

    def test_invalidate_unknown_fingerprint_is_noop(self, warm_registry):
        assert warm_registry.invalidate("no-such-suite") == 0
        assert len(warm_registry) == 2
