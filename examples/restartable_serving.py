"""Restartable serving: a QueryServer node survives kill -9 mid-ingest.

The durability subsystem end to end, as a two-process demo:

1. A **node** child process creates a durable session on disk — a WAL'd
   :class:`~repro.store.SpatialStore` and a polygon suite — checkpoints it
   with ``SpatialDataset.save``, keeps ingesting (the tail lives only in
   the write-ahead log), serves a burst of aggregation joins through a
   :class:`~repro.serve.QueryServer`, prints the answers … and then
   SIGKILLs itself.  No close, no flush, no goodbye.
2. The parent **restarts** the node: ``SpatialDataset.open`` reads the
   session manifest, reopens the store (replaying the WAL tail past the
   checkpoint — the recovery report says exactly what came back), verifies
   every suite fingerprint, and serves the identical burst again.

The parity check at the end is the paper-grade contract: the restarted
node's responses are **bit-identical** — float aggregates included — to the
ones served before the crash.

Run with::

    python examples/restartable_serving.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np

from repro import NYCWorkload, SpatialDataset
from repro.query import AggregationQuery
from repro.query.spec import Aggregate
from repro.serve import QueryServer
from repro.store import SpatialStore

SPECS = [
    AggregationQuery(epsilon=8.0),
    AggregationQuery(aggregate=Aggregate.SUM, attribute="fare", epsilon=8.0),
    AggregationQuery(aggregate=Aggregate.AVG, attribute="fare", epsilon=8.0),
]


def _serve_burst(dataset) -> list[dict]:
    """One deterministic coalesced burst; responses as plain lists."""
    server = QueryServer(dataset, max_batch=16, max_wait_ms=50.0)
    futures = [server.submit_join("neighborhoods", spec=spec) for spec in SPECS]
    server.start()
    responses = [f.result(timeout=60) for f in futures]
    server.close()
    return [
        {"counts": r.counts.tolist(), "aggregates": r.aggregates.tolist()}
        for r in responses
    ]


def node(directory: str) -> None:
    """The serving node: build, checkpoint, keep ingesting, serve, die."""
    workload = NYCWorkload(seed=7)
    points = workload.taxi_points(40_000)
    half = len(points) // 2

    store = SpatialStore.create(
        os.path.join(directory, "store"),
        workload.frame(),
        10,
        attributes=points.attribute_names,
        memtable_capacity=4096,
    )
    dataset = SpatialDataset(
        store, suites={"neighborhoods": workload.neighborhoods(count=24)}
    )
    store.insert(points.select(np.arange(half)))
    dataset.save(directory)  # checkpoint: runs + manifest, WAL truncated
    store.insert(points.select(np.arange(half, len(points))))  # WAL-only tail
    store.delete(np.arange(0, 2000, dtype=np.int64))  # also WAL-only

    print(json.dumps({"served": _serve_burst(dataset)}), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)  # no close(), no flush()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="restartable-") as directory:
        print("== starting node (it will checkpoint, ingest, serve, crash) ==")
        child = subprocess.run(
            [sys.executable, __file__, "--node", directory],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        before = json.loads(child.stdout.splitlines()[-1])["served"]
        print(f"node killed (SIGKILL) after serving {len(before)} responses")

        print("\n== restarting: SpatialDataset.open over the session dir ==")
        dataset = SpatialDataset.open(directory)
        report = dataset.store.last_recovery
        print(
            f"recovery: {report.records} WAL records replayed "
            f"({report.inserted_points} points, {report.deletes} delete batches, "
            f"{report.flushes} flushes) in {report.seconds * 1e3:.1f} ms"
        )

        after = _serve_burst(dataset)
        for mine, theirs in zip(before, after):
            assert mine["counts"] == theirs["counts"]
            assert mine["aggregates"] == theirs["aggregates"]
        print(
            f"\nparity: {len(after)} responses bit-identical across the crash "
            "(counts and float aggregates)"
        )
        dataset.store.close()


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--node":
        node(sys.argv[2])
    else:
        main()
