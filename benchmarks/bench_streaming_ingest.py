"""STREAM — streaming ingest over the updatable spatial store.

The paper's pipeline is build-once; this benchmark measures what the
repository's LSM-style :class:`~repro.store.store.SpatialStore` adds on top:
absorbing a continuous stream of inserts and deletes while serving the same
approximate queries, without ever rebuilding from scratch.

One scripted workload (micro-batched inserts with a per-batch delete rate,
interleaved count queries and ACT aggregation joins) runs through two ingest
pipelines:

* **store** — memtable appends with automatic flush + size-tiered
  compaction; queries fan out across memtable and runs.
* **naive rebuild** — the build-once pipeline applied per batch: after every
  batch, a whole new store is built from scratch over the current live point
  set (re-filter the deletes, re-linearize, re-sort).  This is the
  capability-equivalent alternative — same delete handling, same snapshot
  queries — to maintaining the store incrementally.

Both pipelines must produce identical query answers at every batch (the
incremental store additionally must match a from-scratch rebuild of itself —
the parity suite's contract, re-checked here at benchmark scale).  The
headline number is the amortized ingest throughput ratio: flush+compact
ingest is expected to beat rebuild-per-batch by >= 5x at the default
(fig6-like) scale, because the naive pipeline re-encodes and re-sorts every
live point once per batch, while the store touches each point once at flush
plus O(log(total / flush)) size-tiered compaction rewrites.

Every measurement appends a JSON run record carrying ingest points/sec and
per-query latencies, so the streaming performance trajectory stays
comparable across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import IndexRegistry
from repro.bench import append_run_record, is_smoke_run, run_record
from repro.query import level_query_ranges
from repro.store import SpatialStore

ACT_EPSILON = 32.0 if is_smoke_run() else 8.0
STORE_LEVEL = 8 if is_smoke_run() else 12
DELETE_FRACTION = 0.02


def _join_every(num_batches: int) -> int:
    """Joins run on every n-th batch (plus the final one): interleaved often
    enough to measure serving latency, sparse enough that the join does not
    dominate the ingest measurement."""
    return max(1, num_batches // 5)


@pytest.fixture(scope="module")
def stream_points(workload, scale):
    return workload.taxi_points(scale.ingest_points)


@pytest.fixture(scope="module")
def stream_regions(workload, scale):
    return workload.neighborhoods(count=max(4, scale.num_neighborhoods // 4))


@pytest.fixture(scope="module")
def registry():
    """Shared polygon-index cache (the facade's serving-layer setup)."""
    return IndexRegistry()


@pytest.fixture(scope="module")
def act_index(stream_regions, frame, registry):
    """Polygon index built once up front through the registry, as a serving
    system would.  The per-batch joins thread it explicitly so the measured
    join latency isolates the probe phase from flush-driven cache
    invalidation; both pipelines probe the identical instance."""
    return registry.act_index(stream_regions, frame, epsilon=ACT_EPSILON)


@pytest.fixture(scope="module")
def count_ranges_queries(stream_regions, frame):
    """Fixed key-range decompositions of a few query polygons."""
    return [
        level_query_ranges(region, frame, STORE_LEVEL, cells_per_polygon=64)
        for region in stream_regions[:4]
    ]


@pytest.fixture(scope="module")
def script(stream_points, scale):
    """The op sequence both pipelines replay: (insert range, delete ids).

    Ids are assigned sequentially by both pipelines, so the delete id arrays
    (drawn from the tracked live set) apply to either one identically.
    """
    rng = np.random.default_rng(42)
    bounds = np.linspace(0, len(stream_points), scale.ingest_batches + 1, dtype=np.int64)
    live = np.empty(0, dtype=np.int64)
    ops = []
    for i in range(scale.ingest_batches):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        live = np.concatenate([live, np.arange(lo, hi, dtype=np.int64)])
        kill = rng.choice(live, size=int(DELETE_FRACTION * live.shape[0]), replace=False)
        live = np.setdiff1d(live, kill)
        ops.append((lo, hi, np.sort(kill)))
    return ops


@pytest.fixture(scope="module")
def results():
    """Cross-test result channel (ingest seconds + final answers per pipeline)."""
    return {"store": None, "naive": None}


def _emit(name: str, ingest_seconds: float, num_points: int, metrics: dict):
    append_run_record(
        run_record(
            "streaming_ingest",
            name,
            ingest_seconds,
            num_points=num_points,
            metrics=metrics,
        )
    )


def test_streaming_store(
    script, stream_points, stream_regions, frame, act_index, registry,
    count_ranges_queries, results,
):
    """LSM ingest: memtable appends + flush + size-tiered compaction."""
    store = SpatialStore(
        frame, STORE_LEVEL, attributes=stream_points.attribute_names,
        memtable_capacity=8192, auto_compact=True,
    )
    ingest_seconds = 0.0
    join_ms: list[float] = []
    count_ms: list[float] = []
    for batch_id, (lo, hi, kill) in enumerate(script):
        start = time.perf_counter()
        store.insert(stream_points.select(np.arange(lo, hi)))
        store.delete(kill)
        ingest_seconds += time.perf_counter() - start

        snap = store.snapshot()
        start = time.perf_counter()
        counts = [snap.count_in_ranges(r) for r in count_ranges_queries]
        count_ms.append((time.perf_counter() - start) * 1e3 / len(count_ranges_queries))
        if batch_id % _join_every(len(script)) == 0 or batch_id == len(script) - 1:
            result = snap.act_join(stream_regions, epsilon=ACT_EPSILON, trie=act_index)
            join_ms.append(result.probe_seconds * 1e3)

    start = time.perf_counter()
    store.flush()
    store.compact(full=True)
    ingest_seconds += time.perf_counter() - start

    # The store's contract at benchmark scale: identical to a from-scratch
    # rebuild over the live point set.
    final = store.act_join(stream_regions, epsilon=ACT_EPSILON, trie=act_index)
    rebuilt = store.rebuilt().act_join(stream_regions, epsilon=ACT_EPSILON, trie=act_index)
    assert np.array_equal(final.counts, rebuilt.counts)
    assert np.array_equal(final.aggregates, rebuilt.aggregates)

    results["store"] = {
        "ingest_seconds": ingest_seconds,
        "counts": counts,
        "join_counts": final.counts,
    }
    _emit(
        "store", ingest_seconds, store.stats.inserts,
        {
            "ingest_points_per_second": store.stats.inserts / max(ingest_seconds, 1e-9),
            "mean_join_ms": float(np.mean(join_ms)),
            "max_join_ms": float(np.max(join_ms)),
            "mean_count_ms": float(np.mean(count_ms)),
            "final_live_points": store.num_live,
            "flushes": store.stats.flushes,
            "compactions": store.stats.compactions,
            "index_registry": registry.stats.as_dict(),
        },
    )


def test_streaming_naive_rebuild(
    script, stream_points, stream_regions, frame, act_index,
    count_ranges_queries, results,
):
    """Rebuild-per-batch: a fresh store over the live set after every batch."""
    live_mask = np.zeros(len(stream_points), dtype=bool)
    ingest_seconds = 0.0
    join_ms: list[float] = []
    count_ms: list[float] = []
    store = None
    for batch_id, (lo, hi, kill) in enumerate(script):
        start = time.perf_counter()
        live_mask[lo:hi] = True
        live_mask[kill] = False
        store = SpatialStore.from_points(
            stream_points.select(live_mask), frame, STORE_LEVEL
        )
        ingest_seconds += time.perf_counter() - start

        snap = store.snapshot()
        start = time.perf_counter()
        counts = [snap.count_in_ranges(r) for r in count_ranges_queries]
        count_ms.append((time.perf_counter() - start) * 1e3 / len(count_ranges_queries))
        if batch_id % _join_every(len(script)) == 0 or batch_id == len(script) - 1:
            result = snap.act_join(stream_regions, epsilon=ACT_EPSILON, trie=act_index)
            join_ms.append(result.probe_seconds * 1e3)

    results["naive"] = {
        "ingest_seconds": ingest_seconds,
        "counts": counts,
        "join_counts": result.counts,
    }
    _emit(
        "naive_rebuild", ingest_seconds, int(live_mask.shape[0]),
        {
            "ingest_points_per_second": live_mask.shape[0] / max(ingest_seconds, 1e-9),
            "mean_join_ms": float(np.mean(join_ms)),
            "max_join_ms": float(np.max(join_ms)),
            "mean_count_ms": float(np.mean(count_ms)),
            "final_live_points": int(live_mask.sum()),
        },
    )


def test_store_matches_naive_and_beats_rebuild(results, scale):
    """Same answers, amortized ingest >= 5x cheaper (full scale only)."""
    store_res = results["store"]
    naive_res = results["naive"]
    assert store_res is not None and naive_res is not None, (
        "run the store and naive benchmarks first (same pytest invocation)"
    )
    assert store_res["counts"] == naive_res["counts"]
    assert np.array_equal(store_res["join_counts"], naive_res["join_counts"])

    speedup = naive_res["ingest_seconds"] / max(store_res["ingest_seconds"], 1e-9)
    _emit(
        "ingest_speedup", store_res["ingest_seconds"],
        None, {"speedup_vs_naive_rebuild": speedup},
    )
    if not is_smoke_run():
        # The acceptance bar: amortized flush+compact ingest beats
        # rebuild-per-batch by at least 5x at the default scale.  The smoke
        # run only checks that every transition executes — at a few thousand
        # points both pipelines cost microseconds and the ratio is noise.
        assert speedup >= 5.0, f"amortized ingest speedup {speedup:.1f}x < 5x"
