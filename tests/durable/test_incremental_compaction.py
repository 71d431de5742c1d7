"""Budgeted incremental compaction: bounded work per flush, debt gauge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.point import PointSet
from repro.store.store import SpatialStore


def _batch(rng, n=200):
    return PointSet(
        rng.uniform(0, 1000, n), rng.uniform(0, 1000, n), {"fare": rng.uniform(1, 50, n)}
    )


@pytest.fixture()
def ingest_rng():
    return np.random.default_rng(99)


class TestIncrementalMode:
    def test_auto_pass_does_at_most_one_merge(self, crash_frame, ingest_rng):
        store = SpatialStore(
            crash_frame,
            10,
            attributes=("fare",),
            memtable_capacity=200,
            incremental_compaction=True,
        )
        merges_per_flush = []
        for _ in range(12):
            before = store.stats.compactions
            store.insert(_batch(ingest_rng))
            merges_per_flush.append(store.stats.compactions - before)
        assert max(merges_per_flush) <= 1

    def test_explicit_max_merges_respected(self, crash_frame, ingest_rng):
        store = SpatialStore(
            crash_frame, 10, attributes=("fare",), memtable_capacity=100, auto_compact=False
        )
        for _ in range(8):
            store.insert(_batch(ingest_rng, 100))
        runs_before = store.num_runs
        assert store.compact(max_merges=1) == 1
        assert store.num_runs < runs_before

    def test_byte_budget_bounds_merged_bytes_but_always_progresses(
        self, crash_frame, ingest_rng
    ):
        store = SpatialStore(
            crash_frame, 10, attributes=("fare",), memtable_capacity=100, auto_compact=False
        )
        for _ in range(8):
            store.insert(_batch(ingest_rng, 100))
        # A 1-byte budget cannot fit any merge, but the first merge always
        # runs — otherwise debt could never drain.
        assert store.compact(byte_budget=1) == 1

    def test_incremental_parity_with_stop_the_world(self, crash_frame, ingest_rng):
        from repro.geometry.polygon import Polygon

        batches = [_batch(ingest_rng, 150) for _ in range(10)]
        incremental = SpatialStore(
            crash_frame,
            10,
            attributes=("fare",),
            memtable_capacity=128,
            incremental_compaction=True,
        )
        baseline = SpatialStore(
            crash_frame, 10, attributes=("fare",), memtable_capacity=128
        )
        for batch in batches:
            incremental.insert(batch)
            baseline.insert(batch)
        region = Polygon(np.array([[100.0, 100.0], [800.0, 100.0], [800.0, 800.0], [100.0, 800.0]]))
        a = incremental.act_join([region], epsilon=4.0)
        b = baseline.act_join([region], epsilon=4.0)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.aggregates, b.aggregates)


class TestDebtGauge:
    def test_debt_accumulates_without_compaction_and_drains(self, crash_frame, ingest_rng):
        store = SpatialStore(
            crash_frame, 10, attributes=("fare",), memtable_capacity=100, auto_compact=False
        )
        for _ in range(8):
            store.insert(_batch(ingest_rng, 100))
        store.flush()
        assert store.stats.compaction_debt_bytes > 0
        assert store.compaction_debt() == store.stats.compaction_debt_bytes
        store.compact(full=True)
        assert store.stats.compaction_debt_bytes == 0

    def test_debt_in_stats_dict(self, crash_frame):
        store = SpatialStore(crash_frame, 10, attributes=("fare",))
        assert "compaction_debt_bytes" in store.stats.as_dict()

    def test_incremental_debt_drains_across_flushes(self, crash_frame, ingest_rng):
        store = SpatialStore(
            crash_frame,
            10,
            attributes=("fare",),
            memtable_capacity=100,
            incremental_compaction=True,
        )
        for _ in range(16):
            store.insert(_batch(ingest_rng, 100))
        debt_live = store.stats.compaction_debt_bytes
        # Quiesce: repeated budgeted passes must reach debt 0.
        for _ in range(32):
            if store.stats.compaction_debt_bytes == 0:
                break
            store.compact(max_merges=1)
        assert store.stats.compaction_debt_bytes == 0
        assert debt_live >= 0

    def test_budget_validation(self, crash_frame):
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            SpatialStore(
                crash_frame, 10, attributes=("fare",), compaction_budget_bytes=0
            )


class TestDurableIncremental:
    def test_compaction_params_replay_identically(self, tmp_path, crash_frame, ingest_rng):
        from repro.durable import crashsim

        store = SpatialStore.create(
            tmp_path / "store",
            crash_frame,
            10,
            attributes=("fare",),
            memtable_capacity=128,
            incremental_compaction=True,
            compaction_budget_bytes=1 << 16,
        )
        for _ in range(10):
            store.insert(_batch(ingest_rng, 150))
        store.compact(max_merges=2)
        reopened = SpatialStore.open(tmp_path / "store")
        assert reopened.incremental_compaction is True
        assert reopened.compaction_budget_bytes == 1 << 16
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(store)
        store.close()
        reopened.close()
