"""Live suite updates through the facade: delta patches, counters, fencing.

The end-to-end rebuild-parity contract: after any sequence of
``replace_polygon`` / ``add_polygons`` / ``remove_polygons`` /
``apply_suite`` calls, a query over the patched dataset answers
**bit-identically** (floats included) to a fresh dataset built over the
mutated suite — static and store-backed, sharded and unsharded, direct and
served.  Modify-to-identical mutations are fingerprint-skipped no-ops, and
the serving layer's suite-update requests fence queued queries onto the
correct side of the mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SpatialDataset
from repro.errors import QueryError
from repro.query import AggregationQuery
from repro.serve import QueryServer

EPSILON = 8.0
SPEC = AggregationQuery(epsilon=EPSILON)

SCOPED_KEYS = {
    "suite_hits",
    "suite_misses",
    "suite_invalidations",
    "point_hits",
    "point_misses",
    "point_invalidations",
    "patches",
    "patched_polygons",
}


def _oracle(workload, taxi_points, regions, *, strategy="act", shards=None):
    """A fresh dataset over the mutated suite — the rebuild-parity oracle."""
    fresh = SpatialDataset(
        taxi_points,
        frame=workload.frame(),
        extent=workload.extent,
        suites={"oracle": list(regions)},
        shards=shards,
    )
    return fresh.query(SPEC, suite="oracle", strategy=strategy)


def _assert_matches(result, oracle):
    np.testing.assert_array_equal(result.counts, oracle.counts)
    np.testing.assert_array_equal(result.aggregates, oracle.aggregates)


class TestPatchParity:
    def test_replace_patches_cached_index(self, dataset, workload, taxi_points, neighborhoods):
        dataset.act_index("neighborhoods", EPSILON)  # warm the patch target
        moved = neighborhoods[0].scaled(0.8)
        info = dataset.replace_polygon("neighborhoods", 0, moved)
        assert not info["noop"]
        assert info["replaced"] == 1 and info["unchanged"] == len(neighborhoods) - 1
        assert info["patched_entries"] == 1 and info["dropped_entries"] == 0
        assert info["old_fingerprint"] != info["new_fingerprint"]

        result = dataset.query(SPEC, strategy="act")
        # The patched entry was re-keyed under the new fingerprint: a hit.
        assert result.registry_misses == 0 and result.registry_hits >= 1
        mutated = [moved, *neighborhoods[1:]]
        _assert_matches(result, _oracle(workload, taxi_points, mutated))

    def test_mutation_sequence_parity(
        self, dataset, workload, taxi_points, neighborhoods
    ):
        dataset.act_index("neighborhoods", EPSILON)
        current = list(neighborhoods)
        extra = workload.neighborhoods(count=len(neighborhoods) + 2)[len(neighborhoods):]
        dataset.add_polygons("neighborhoods", list(extra))
        current.extend(extra)
        dataset.remove_polygons("neighborhoods", [0, 3])
        del current[3], current[0]
        replacement = current[2].scaled(0.9)
        dataset.replace_polygon("neighborhoods", 2, replacement)
        current[2] = replacement

        result = dataset.query(SPEC, strategy="act")
        assert result.counts.shape == (len(current),)
        _assert_matches(result, _oracle(workload, taxi_points, current))

    def test_apply_suite_diffs_positionally(self, dataset, workload, taxi_points, neighborhoods):
        dataset.act_index("neighborhoods", EPSILON)
        new_regions = list(neighborhoods)
        new_regions[4] = neighborhoods[4].scaled(0.85)  # one replacement...
        new_regions.append(neighborhoods[0].scaled(0.5))  # ...and one append
        info = dataset.apply_suite("neighborhoods", new_regions)
        assert info["replaced"] == 1 and info["added"] == 1 and info["removed"] == 0
        assert info["unchanged"] == len(neighborhoods) - 1
        assert info["patched_entries"] == 1

        result = dataset.query(SPEC, strategy="act")
        _assert_matches(result, _oracle(workload, taxi_points, new_regions))

    def test_random_scripted_sequence(self, dataset, workload, taxi_points, neighborhoods):
        """A seeded mutation script stays in lockstep with its python mirror."""
        rng = np.random.default_rng(99)
        dataset.act_index("neighborhoods", EPSILON)
        current = list(neighborhoods)
        pool = workload.neighborhoods(count=20)
        next_pick = len(neighborhoods)
        for _ in range(6):
            op = str(rng.choice(["replace", "add", "remove"]))
            if op == "replace":
                position = int(rng.integers(0, len(current)))
                region = current[position].scaled(0.9)
                dataset.replace_polygon("neighborhoods", position, region)
                current[position] = region
            elif op == "add":
                region = pool[next_pick % len(pool)].scaled(0.95)
                next_pick += 1
                dataset.add_polygons("neighborhoods", [region])
                current.append(region)
            else:
                position = int(rng.integers(0, len(current)))
                dataset.remove_polygons("neighborhoods", [position])
                del current[position]
            assert dataset.suite("neighborhoods").regions == tuple(current)
        result = dataset.query(SPEC, strategy="act")
        _assert_matches(result, _oracle(workload, taxi_points, current))

    def test_store_backed_patch_parity(self, workload, taxi_points, neighborhoods):
        from repro.store import SpatialStore

        store = SpatialStore.from_points(taxi_points, workload.frame(), 10)
        dataset = SpatialDataset(store, extent=workload.extent).add_suite(
            "hood", list(neighborhoods)
        )
        dataset.act_index("hood", EPSILON)
        replacement = neighborhoods[2].scaled(0.85)
        info = dataset.replace_polygon("hood", 2, replacement)
        assert info["patched_entries"] == 1

        current = list(neighborhoods)
        current[2] = replacement
        result = dataset.query(SPEC, suite="hood", strategy="act")
        _assert_matches(result, _oracle(workload, taxi_points, current))

    def test_sharded_patch_parity(self, workload, taxi_points, neighborhoods):
        dataset = SpatialDataset(
            taxi_points,
            frame=workload.frame(),
            extent=workload.extent,
            suites={"hood": list(neighborhoods)},
            shards=3,
        )
        dataset.act_index("hood", EPSILON)
        replacement = neighborhoods[1].scaled(0.8)
        dataset.replace_polygon("hood", 1, replacement)
        current = list(neighborhoods)
        current[1] = replacement
        result = dataset.query(SPEC, suite="hood", strategy="act")
        _assert_matches(result, _oracle(workload, taxi_points, current))

    def test_other_strategies_see_the_new_suite(
        self, dataset, workload, taxi_points, neighborhoods
    ):
        """Non-patchable plans are rebuilt over the mutated geometry."""
        replacement = neighborhoods[0].scaled(0.8)
        dataset.replace_polygon("neighborhoods", 0, replacement)
        mutated = [replacement, *neighborhoods[1:]]
        result = dataset.query(SPEC, strategy="raster")
        _assert_matches(
            result, _oracle(workload, taxi_points, mutated, strategy="raster")
        )


class TestNoopAndErrors:
    def test_replace_with_identical_region_is_noop(self, dataset, neighborhoods):
        dataset.act_index("neighborhoods", EPSILON)
        fingerprint = dataset.suite("neighborhoods").fingerprint
        info = dataset.replace_polygon("neighborhoods", 3, neighborhoods[3])
        assert info["noop"]
        assert info["replaced"] == 0 and info["patched_entries"] == 0
        assert dataset.suite("neighborhoods").fingerprint == fingerprint
        assert dataset.registry_stats()["patches"] == 0

    def test_apply_identical_suite_is_noop(self, dataset, neighborhoods):
        info = dataset.apply_suite("neighborhoods", list(neighborhoods))
        assert info["noop"] and info["unchanged"] == len(neighborhoods)

    def test_replace_out_of_range_rejected(self, dataset, neighborhoods):
        with pytest.raises(QueryError):
            dataset.replace_polygon("neighborhoods", len(neighborhoods), neighborhoods[0])

    def test_remove_out_of_range_rejected(self, dataset, neighborhoods):
        with pytest.raises(IndexError):
            dataset.remove_polygons("neighborhoods", [len(neighborhoods)])

    def test_unknown_suite_rejected(self, dataset, neighborhoods):
        with pytest.raises(QueryError):
            dataset.replace_polygon("bogus", 0, neighborhoods[0])


class TestScopedCounters:
    def test_patch_counters_attribute_to_suite_scope(self, dataset, neighborhoods):
        dataset.act_index("neighborhoods", EPSILON)
        stats = dataset.registry_stats()
        assert stats["suite_misses"] == 1 and stats["point_misses"] == 0

        dataset.replace_polygon("neighborhoods", 0, neighborhoods[0].scaled(0.8))
        stats = dataset.registry_stats()
        assert stats["patches"] == 1
        assert stats["patched_polygons"] == 1
        assert stats["patch_seconds"] > 0.0
        assert stats["suite_invalidations"] == 0  # patched, never dropped

        dataset.query(SPEC, strategy="act")
        stats = dataset.registry_stats()
        assert stats["suite_hits"] >= 1 and stats["suite_misses"] == 1

    def test_result_carries_scoped_deltas(self, dataset):
        result = dataset.query(SPEC, strategy="act")
        assert set(result.registry_scoped) == SCOPED_KEYS
        assert result.registry_scoped["suite_misses"] == result.registry_misses
        assert result.registry_scoped["patches"] == 0  # queries never patch

    def test_explain_includes_scoped_registry_line(self, dataset):
        explain = dataset.query(SPEC, strategy="act").explain()
        assert "registry:" in explain
        assert "patched_polygons" in explain


class TestServeFencing:
    def test_update_fences_queued_queries(self, dataset, workload, taxi_points, neighborhoods):
        """Queries queued before the mutation see the old suite; after, the new."""
        new_regions = list(neighborhoods)
        new_regions[0] = neighborhoods[0].scaled(0.8)
        server = QueryServer(dataset, max_batch=16, max_wait_ms=50.0)
        future_old = server.submit_join(epsilon=EPSILON)
        future_update = server.submit_suite_update("neighborhoods", new_regions)
        future_new = server.submit_join(epsilon=EPSILON)
        server.start()
        old_response = future_old.result(timeout=30)
        update_response = future_update.result(timeout=30)
        new_response = future_new.result(timeout=30)
        server.close()

        _assert_matches(old_response, _oracle(workload, taxi_points, neighborhoods))
        _assert_matches(new_response, _oracle(workload, taxi_points, new_regions))
        answer = update_response.result
        assert not answer.noop and answer.replaced == 1
        # The fenced join before the update built the cache; the mutation
        # patched that entry rather than dropping it.
        assert answer.patched_entries == 1 and answer.dropped_entries == 0
        assert answer.old_fingerprint != answer.new_fingerprint

    def test_blocking_update_applies_before_returning(
        self, dataset, workload, taxi_points, neighborhoods
    ):
        extra = workload.neighborhoods(count=len(neighborhoods) + 1)[-1]
        with QueryServer(dataset, max_batch=16, max_wait_ms=10.0) as server:
            response = server.update_suite(
                "neighborhoods", [*neighborhoods, extra]
            )
            assert response.result.added == 1
            join = server.join(epsilon=EPSILON)
        assert join.counts.shape == (len(neighborhoods) + 1,)
        _assert_matches(
            join, _oracle(workload, taxi_points, [*neighborhoods, extra])
        )

    def test_noop_update_reports_noop(self, dataset, neighborhoods):
        with QueryServer(dataset, max_batch=4, max_wait_ms=10.0) as server:
            response = server.update_suite("neighborhoods", list(neighborhoods))
        assert response.result.noop
        assert response.result.patched_entries == 0
