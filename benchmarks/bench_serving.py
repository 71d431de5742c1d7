"""SERVING — micro-batched query coalescing vs one-at-a-time dispatch.

The serving layer (:mod:`repro.serve`) batches compatible concurrent
requests into one fused kernel call.  This benchmark drives the fig6 join
workload through a :class:`~repro.serve.QueryServer` with closed-loop
clients under concurrent ingest, once with coalescing disabled
(``max_batch=1`` — every request pays a full probe pass) and once
micro-batched, and records sustained QPS with p50/p99 latency per mode.

Asserted unconditionally, at every scale:

* **bit parity under ingest** — a coalesced burst served while a writer
  thread ingests/flushes returns byte-identical aggregates *and* counts to
  solo runs against each response's pinned snapshot;
* **record shape** — each JSON run record carries the ``qps`` /
  ``latency_p50_ms`` / ``latency_p99_ms`` fields the CI smoke job checks.

The >=3x sustained-QPS target applies at full scale: with B closed-loop
clients, serial dispatch sustains ~1/T_probe regardless of B while
micro-batching serves ~B requests per probe, so the win is algorithmic
(shared probe passes), not core-count dependent.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import SpatialDataset
from repro.bench import append_run_record, is_smoke_run, print_table, run_record
from repro.query import AggregationQuery
from repro.query.spec import Aggregate
from repro.serve import QueryServer, run_serving_load
from repro.store.store import SpatialStore

CLIENTS = 8
COALESCED_BATCH = 32
MAX_WAIT_MS = 2.0
DURATION_SECONDS = 0.4 if is_smoke_run() else 2.5
ACT_EPSILON = 32.0 if is_smoke_run() else 4.0
INGEST_BATCH = 100 if is_smoke_run() else 400


def _dataset(join_points, neighborhoods, frame):
    """A fresh store-backed dataset per configuration (ingest mutates it)."""
    store = SpatialStore.from_points(join_points, frame, 12)
    return SpatialDataset(store).add_suite("neighborhoods", neighborhoods)


def test_serving_parity_under_ingest(join_points, neighborhoods, frame):
    """Coalesced responses bit-match solo runs while the store ingests."""
    dataset = _dataset(join_points, neighborhoods, frame)
    specs = [
        AggregationQuery(epsilon=ACT_EPSILON),
        AggregationQuery(epsilon=ACT_EPSILON, aggregate=Aggregate.SUM, attribute="fare"),
    ]
    stop = threading.Event()
    rng = np.random.default_rng(20210107)
    box = frame.frame_box()

    def writer():
        while not stop.is_set():
            n = INGEST_BATCH
            dataset.store.insert(
                type(join_points)(
                    rng.uniform(box.min_x, box.max_x, n),
                    rng.uniform(box.min_y, box.max_y, n),
                    {name: rng.uniform(0.0, 10.0, n) for name in dataset.store.attributes},
                )
            )
            stop.wait(0.001)

    ingest = threading.Thread(target=writer)
    ingest.start()
    try:
        with QueryServer(dataset, max_batch=COALESCED_BATCH, max_wait_ms=MAX_WAIT_MS) as server:
            futures = [server.submit_join(spec=specs[i % len(specs)]) for i in range(12)]
            responses = [f.result(timeout=600) for f in futures]
    finally:
        stop.set()
        ingest.join()

    fused = sum(1 for r in responses if r.timing.batch_requests > 1)
    assert fused > 0, "burst never coalesced"
    for i, response in enumerate(responses):
        solo = response.snapshot.act_join(
            list(neighborhoods), epsilon=ACT_EPSILON, query=specs[i % len(specs)]
        )
        np.testing.assert_array_equal(response.aggregates, solo.aggregates)
        np.testing.assert_array_equal(response.counts, solo.counts)


def test_serving_throughput(join_points, neighborhoods, frame):
    rows = []
    qps = {}
    for mode, max_batch in (("serial", 1), ("coalesced", COALESCED_BATCH)):
        dataset = _dataset(join_points, neighborhoods, frame)
        report = run_serving_load(
            dataset,
            clients=CLIENTS,
            duration_seconds=DURATION_SECONDS,
            max_batch=max_batch,
            max_wait_ms=MAX_WAIT_MS,
            epsilon=ACT_EPSILON,
            ingest_batch=INGEST_BATCH,
        )
        assert report.errors == 0
        assert report.responses > 0
        assert report.ingested_points > 0, "writer never ran"
        if mode == "serial":
            assert report.max_batch_requests == 1
        qps[mode] = report.qps
        rows.append(
            [
                mode,
                report.responses,
                round(report.qps, 1),
                round(report.latency_p50_ms, 2),
                round(report.latency_p99_ms, 2),
                round(report.mean_batch_requests, 2),
                report.ingested_points,
            ]
        )
        server_stats = report.server_stats
        record = run_record(
            "serving",
            f"act-{mode}:neighborhoods",
            report.duration_seconds,
            num_points=dataset.num_points,
            latency_p50_ms=report.latency_p50_ms,
            latency_p99_ms=report.latency_p99_ms,
            qps=report.qps,
            metrics={
                "mode": mode,
                "clients": report.clients,
                "max_batch": max_batch,
                "max_wait_ms": MAX_WAIT_MS,
                "responses": report.responses,
                "mean_batch_requests": round(report.mean_batch_requests, 3),
                "max_batch_requests": report.max_batch_requests,
                "ingested_points": report.ingested_points,
                "batch_occupancy_mean": server_stats["batch_occupancy_mean"],
                "server_latency_p50_ms": server_stats["latency_p50_ms"],
                "server_latency_p99_ms": server_stats["latency_p99_ms"],
                "latency_quantiles": server_stats["histograms"]["latency_seconds"],
                "kernel_quantiles": server_stats["histograms"]["kernel_seconds"],
            },
        )
        # The CI smoke job checks the JSONL for these serving fields;
        # fail fast here if the record shape regresses.
        assert record["qps"] == pytest.approx(report.qps)
        assert record["latency_p50_ms"] is not None
        assert record["latency_p99_ms"] is not None
        assert record["metrics"]["batch_occupancy_mean"] >= 1.0
        for key in ("p50", "p90", "p99"):
            assert record["metrics"]["latency_quantiles"][key] > 0
        append_run_record(record)

    print_table(
        ["mode", "responses", "qps", "p50 ms", "p99 ms", "mean batch", "ingested"],
        rows,
        title=(
            f"SERVING  micro-batched coalescing vs serial dispatch "
            f"({len(join_points):,} points, {CLIENTS} clients, "
            f"{DURATION_SECONDS}s, eps={ACT_EPSILON} m)"
        ),
    )

    if not is_smoke_run():
        # The acceptance target: micro-batching sustains >= 3x the serial
        # QPS on the fig6 join workload.
        ratio = qps["coalesced"] / max(qps["serial"], 1e-12)
        assert ratio >= 3.0, f"coalescing speedup {ratio:.2f}x < 3x"
