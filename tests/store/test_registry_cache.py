"""Store-side polygon-index caching: one build across N snapshot joins.

Closes the ROADMAP open item: ``StoreSnapshot.act_join`` used to rebuild the
polygon index per call unless a prebuilt ``trie=`` was threaded by hand.
Snapshots now fetch the index from the store's
:class:`~repro.api.IndexRegistry`, which flush and compaction invalidate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexRegistry
from repro.index import FlatACT
from repro.store import SpatialStore


@pytest.fixture()
def store(frame, store_level, taxi_points):
    store = SpatialStore(
        frame,
        store_level,
        attributes=taxi_points.attribute_names,
        memtable_capacity=100_000,
        auto_compact=False,
    )
    store.insert(taxi_points)
    store.flush()
    return store


def _spy_index_builds(monkeypatch):
    """Count every actual ACT index construction."""
    calls: list = []
    original = FlatACT.build.__func__

    def wrapper(cls, regions, *args, **kwargs):
        calls.append(regions)
        return original(cls, regions, *args, **kwargs)

    monkeypatch.setattr(FlatACT, "build", classmethod(wrapper))
    return calls


class TestSnapshotIndexCache:
    def test_one_build_across_many_snapshot_joins(
        self, store, neighborhoods, monkeypatch
    ):
        """The acceptance bar: N joins over an unchanged store, exactly one build."""
        builds = _spy_index_builds(monkeypatch)
        results = [
            store.snapshot().act_join(neighborhoods, epsilon=8.0) for _ in range(5)
        ]
        assert len(builds) == 1
        assert store.registry.stats.misses == 1
        assert store.registry.stats.hits == 4
        # Cache hits answer identically to the build that populated them.
        for result in results[1:]:
            assert np.array_equal(result.counts, results[0].counts)
            assert np.array_equal(result.aggregates, results[0].aggregates)
        assert results[0].extra["registry_hit"] is False
        assert results[1].extra["registry_hit"] is True

    def test_prebuilt_trie_bypasses_the_registry(self, store, neighborhoods, frame):
        trie = FlatACT.build(neighborhoods, frame, epsilon=8.0)
        store.snapshot().act_join(neighborhoods, epsilon=8.0, trie=trie)
        assert store.registry.stats.misses == 0
        assert store.registry.stats.hits == 0

    def test_flush_keeps_suite_index(
        self, store, neighborhoods, taxi_points, monkeypatch
    ):
        """Scoped invalidation: a flush clears only point-dependent entries.

        The polygon-suite ACT index depends on the regions and the frame —
        never on the points — so ingest churn must keep serving it from
        cache (hit-counter regression: the post-flush join is a hit, not a
        rebuild).
        """
        builds = _spy_index_builds(monkeypatch)
        store.snapshot().act_join(neighborhoods, epsilon=8.0)
        hits_before = store.registry.stats.hits
        store.insert(taxi_points.select(np.arange(50)))
        store.flush()
        result = store.snapshot().act_join(neighborhoods, epsilon=8.0)
        assert len(builds) == 1  # the suite index survived the flush
        assert store.registry.stats.hits == hits_before + 1
        assert store.registry.stats.invalidations >= 1  # the point scope was cleared
        assert result.extra["registry_hit"] is True

    def test_empty_flush_keeps_the_cache(self, store, neighborhoods, monkeypatch):
        builds = _spy_index_builds(monkeypatch)
        store.snapshot().act_join(neighborhoods, epsilon=8.0)
        store.flush()  # memtable empty: state unchanged, cache kept
        store.snapshot().act_join(neighborhoods, epsilon=8.0)
        assert len(builds) == 1

    def test_compaction_keeps_suite_index(
        self, frame, store_level, taxi_points, neighborhoods, monkeypatch
    ):
        """Compaction reshuffles points, so it too spares polygon-suite entries."""
        store = SpatialStore(
            frame,
            store_level,
            attributes=taxi_points.attribute_names,
            memtable_capacity=100_000,
            auto_compact=False,
        )
        half = len(taxi_points) // 2
        store.insert(taxi_points.select(np.arange(half)))
        store.flush()
        store.insert(taxi_points.select(np.arange(half, len(taxi_points))))
        store.flush()
        builds = _spy_index_builds(monkeypatch)
        before = store.snapshot().act_join(neighborhoods, epsilon=8.0)
        store.compact(full=True)
        after = store.snapshot().act_join(neighborhoods, epsilon=8.0)
        assert len(builds) == 1  # served from cache across the compaction
        assert np.array_equal(after.counts, before.counts)
        assert np.array_equal(after.aggregates, before.aggregates)

    def test_joins_with_registry_match_prebuilt_trie(self, store, neighborhoods, frame):
        """Caching never changes the answer (bit-identical to trie threading)."""
        trie = FlatACT.build(neighborhoods, frame, epsilon=8.0)
        via_registry = store.snapshot().act_join(neighborhoods, epsilon=8.0)
        via_trie = store.snapshot().act_join(neighborhoods, epsilon=8.0, trie=trie)
        assert np.array_equal(via_registry.counts, via_trie.counts)
        assert np.array_equal(via_registry.aggregates, via_trie.aggregates)

    def test_registry_shared_with_dataset(self, store, neighborhoods):
        """Ad-hoc facade queries and snapshot joins share one cache."""
        from repro.api import SpatialDataset
        from repro.query import AggregationQuery

        dataset = SpatialDataset(store, suites={"n": neighborhoods})
        dataset.query(AggregationQuery(epsilon=8.0), strategy="act")  # miss: build
        store.snapshot().act_join(neighborhoods, epsilon=8.0)  # hit: same key
        assert store.registry.stats.misses == 1
        assert store.registry.stats.hits == 1

    def test_external_registry_attached(self, frame, store_level, taxi_points, neighborhoods):
        registry = IndexRegistry()
        store = SpatialStore(
            frame,
            store_level,
            attributes=taxi_points.attribute_names,
            registry=registry,
        )
        store.insert(taxi_points.select(np.arange(100)))
        store.snapshot().act_join(neighborhoods, epsilon=8.0)
        assert registry.stats.misses == 1
        assert store.registry is registry
