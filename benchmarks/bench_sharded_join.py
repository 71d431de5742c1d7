"""SHARD — scatter-gather join scaling vs the single-shard baseline.

The sharded execution layer (:mod:`repro.shard`) partitions the point side
into K rectangular tiles, probes every tile against one shared ACT index —
serially or on a persistent shared-memory process pool — and merges the
per-shard match pairs exactly.  This benchmark measures the fig6-scale
aggregation join at a fixed shard count across worker counts and records
the speedup against the 1-shard serial baseline.

Two invariants are asserted unconditionally, at every scale:

* **bit parity** — every configuration (shard count x worker count) returns
  byte-identical counts *and* float aggregates to the unsharded kernel;
* **record shape** — each JSON run record carries the ``shards`` and
  ``workers`` fields the CI smoke job greps for.

The >=2x pool speedup target only applies on hardware that can express it
(>= 4 physical cores, full scale): the merge is exact regardless, so on a
small CI box the benchmark still exercises the pool path and the records
still track the trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench import append_run_record, is_smoke_run, print_table, run_record
from repro.index import FlatACT
from repro.query import AggregationQuery, act_approximate_join
from repro.shard import StaticShards, get_executor, sharded_act_join, shutdown_executors

ACT_EPSILON = 32.0 if is_smoke_run() else 4.0
SHARDS = 4
#: Pool sizes swept against the serial fan-out (0 = in-process serial).
WORKER_COUNTS = (0, 2) if is_smoke_run() else (0, 2, 4)
ROUNDS = 2 if is_smoke_run() else 3


@pytest.fixture(scope="module")
def spec():
    return AggregationQuery(epsilon=ACT_EPSILON)


@pytest.fixture(scope="module")
def trie(neighborhoods, frame):
    """One prebuilt index shared by every configuration (probe-phase bench).

    ``FlatACT`` so the pool path can ship it once over shared memory.
    """
    return FlatACT.build(neighborhoods, frame, epsilon=ACT_EPSILON)


@pytest.fixture(scope="module")
def reference(join_points, neighborhoods, frame, spec, trie):
    return act_approximate_join(
        join_points, neighborhoods, frame, epsilon=ACT_EPSILON, query=spec, trie=trie
    )


def _probe_seconds(partition, neighborhoods, frame, spec, trie, executor):
    """Best-of-N probe wall seconds (the index is prebuilt and published)."""
    best, result = float("inf"), None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = sharded_act_join(
            partition.segments(), neighborhoods, frame,
            epsilon=ACT_EPSILON, query=spec, trie=trie, executor=executor,
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def test_sharded_join_scaling(join_points, neighborhoods, frame, spec, trie, reference):
    cpu_count = os.cpu_count() or 1
    baseline_partition = StaticShards.build(join_points, frame, 1)
    baseline_seconds, baseline = _probe_seconds(
        baseline_partition, neighborhoods, frame, spec, trie, None
    )
    assert np.array_equal(baseline.counts, reference.counts)
    assert np.array_equal(baseline.aggregates, reference.aggregates)

    partition = StaticShards.build(join_points, frame, SHARDS)
    rows = [["1 shard / serial", 1, 0, round(baseline_seconds * 1e3, 2), "1.0x"]]
    speedups = {}
    try:
        for workers in WORKER_COUNTS:
            executor = get_executor(workers)
            seconds, result = _probe_seconds(
                partition, neighborhoods, frame, spec, trie, executor
            )
            # Bit parity at every configuration — the merge is exact.
            assert np.array_equal(result.counts, reference.counts)
            assert np.array_equal(result.aggregates, reference.aggregates)
            assert result.extra["shards"] == SHARDS
            assert result.extra["workers"] == (0 if workers in (0, 1) else workers)

            speedup = baseline_seconds / max(seconds, 1e-12)
            speedups[workers] = speedup
            label = "serial" if workers == 0 else f"pool[{workers}]"
            rows.append(
                [
                    f"{SHARDS} shards / {label}", SHARDS, workers,
                    round(seconds * 1e3, 2), f"{speedup:.2f}x",
                ]
            )
            record = run_record(
                "shard",
                f"act-shard{SHARDS}-w{workers}:neighborhoods",
                seconds,
                num_points=result.index_probes,
                probe_seconds=seconds,
                metrics={
                    "shards": SHARDS,
                    "workers": workers,
                    "cpu_count": cpu_count,
                    "baseline_seconds": baseline_seconds,
                    "speedup_vs_baseline": round(speedup, 3),
                },
            )
            # The CI smoke job greps the JSONL for these fields; fail fast
            # here if the record shape regresses.
            assert record["metrics"]["shards"] == SHARDS
            assert record["metrics"]["workers"] == workers
            append_run_record(record)
    finally:
        shutdown_executors()

    print_table(
        ["configuration", "shards", "workers", "probe ms", "speedup"],
        rows,
        title=(
            f"SHARD  scatter-gather join scaling "
            f"({len(join_points):,} points, eps={ACT_EPSILON} m, {cpu_count} cpus)"
        ),
    )

    if not is_smoke_run() and cpu_count >= 4 and 4 in speedups:
        # The acceptance target: the 4-worker pool halves the probe wall
        # time at fig6 scale on hardware with >= 4 cores.
        assert speedups[4] >= 2.0, f"4-worker speedup {speedups[4]:.2f}x < 2x"
