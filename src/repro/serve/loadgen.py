"""Closed-loop load generation for the serving layer.

:func:`run_serving_load` drives a :class:`~repro.serve.server.QueryServer`
the way the serving benchmark and the ``repro serve-bench`` CLI measure it:
``clients`` closed-loop threads each submit an ACT join, wait for the
response, record the end-to-end latency and immediately submit the next one,
for ``duration_seconds``.  An optional writer thread streams inserts into the
backing store at the same time (flushes and compactions fire through the
store's normal autoflush path), exercising snapshot-per-batch isolation
under real concurrency.

Closed-loop clients make the coalescing win directly visible: with serial
dispatch (``max_batch=1``) the sustained rate is ~``1 / probe_seconds``
regardless of client count, because every request pays a full probe pass.
With micro-batching the dispatcher fuses the ~``clients`` outstanding
requests into one shared probe, so throughput scales with the batch size
while per-request latency stays at roughly one kernel interval.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import PointSet
from repro.serve.server import QueryServer

__all__ = ["LoadReport", "run_serving_load"]


@dataclass(slots=True)
class LoadReport:
    """Aggregate outcome of one closed-loop serving run."""

    clients: int
    duration_seconds: float
    responses: int
    errors: int
    qps: float
    latency_p50_ms: float
    latency_p99_ms: float
    mean_batch_requests: float
    max_batch_requests: int
    batches: int
    kernel_seconds: float
    ingested_points: int = 0
    #: The server's full frozen stats snapshot (histogram quantiles, batch
    #: occupancy, registry/store aggregates) taken at drain time.
    server_stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "duration_seconds": self.duration_seconds,
            "responses": self.responses,
            "errors": self.errors,
            "qps": self.qps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "mean_batch_requests": self.mean_batch_requests,
            "max_batch_requests": self.max_batch_requests,
            "batches": self.batches,
            "kernel_seconds": self.kernel_seconds,
            "ingested_points": self.ingested_points,
            "server_stats": dict(self.server_stats),
        }


def _ingest_loop(store, stop: threading.Event, batch: int, counter: list, seed: int):
    """Writer thread: stream uniform point batches into the store."""
    rng = np.random.default_rng(seed)
    box = store.frame.frame_box()
    attributes = getattr(store, "attributes", ())
    while not stop.is_set():
        xs = rng.uniform(box.min_x, box.max_x, batch)
        ys = rng.uniform(box.min_y, box.max_y, batch)
        values = {name: rng.uniform(0.0, 10.0, batch) for name in attributes}
        store.insert(PointSet(xs, ys, values))
        counter[0] += batch
        # A short nap keeps the writer from monopolising the GIL between
        # kernel calls while still forcing many flushes per run.
        stop.wait(0.002)


def run_serving_load(
    dataset,
    *,
    clients: int = 8,
    duration_seconds: float = 2.0,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    suite: "str | None" = None,
    epsilon: float = 4.0,
    ingest_batch: int = 0,
    ingest_seed: int = 20210107,
) -> LoadReport:
    """Drive a server with closed-loop join clients; returns a :class:`LoadReport`.

    ``max_batch=1`` is the serial-dispatch baseline (no coalescing);
    ``ingest_batch > 0`` adds a concurrent writer streaming batches of that
    size into the backing store (requires a store-backed dataset).
    """
    if clients < 1:
        raise QueryError("need at least one client")
    if duration_seconds <= 0:
        raise QueryError("duration must be positive")
    if ingest_batch and dataset.store is None:
        raise QueryError("concurrent ingest needs a store-backed dataset")

    latencies: "list[list[float]]" = [[] for _ in range(clients)]
    errors = [0] * clients
    started = threading.Barrier(clients + 1)

    with QueryServer(dataset, max_batch=max_batch, max_wait_ms=max_wait_ms) as server:

        def client(slot: int) -> None:
            mine = latencies[slot]
            started.wait()
            deadline = time.perf_counter() + duration_seconds
            while True:
                begin = time.perf_counter()
                if begin >= deadline and mine:
                    return
                try:
                    server.submit_join(suite, epsilon=epsilon).result()
                    mine.append(time.perf_counter() - begin)
                except Exception:
                    errors[slot] += 1
                    return

        threads = [
            threading.Thread(target=client, args=(slot,), name=f"serve-client-{slot}")
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()

        stop_ingest = threading.Event()
        ingested = [0]
        writer = None
        if ingest_batch:
            writer = threading.Thread(
                target=_ingest_loop,
                args=(dataset.store, stop_ingest, int(ingest_batch), ingested, ingest_seed),
                name="serve-ingest",
            )
            writer.start()

        started.wait()
        begin = time.perf_counter()
        if writer is not None:
            # Stop the writer at the duration boundary, not when the last
            # client drains: slow serial configurations would otherwise keep
            # probing a still-growing store and never catch up.
            timer = threading.Timer(duration_seconds, stop_ingest.set)
            timer.daemon = True
            timer.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin

        if writer is not None:
            stop_ingest.set()
            writer.join()
        stats = server.stats

    all_latencies = np.array(
        [value for client_lats in latencies for value in client_lats], dtype=np.float64
    )
    responses = int(all_latencies.shape[0])
    return LoadReport(
        clients=clients,
        duration_seconds=elapsed,
        responses=responses,
        errors=int(sum(errors)),
        qps=responses / elapsed if elapsed > 0 else 0.0,
        latency_p50_ms=float(np.percentile(all_latencies, 50) * 1e3) if responses else 0.0,
        latency_p99_ms=float(np.percentile(all_latencies, 99) * 1e3) if responses else 0.0,
        mean_batch_requests=stats.mean_batch_requests,
        max_batch_requests=stats.max_batch_requests,
        batches=stats.batches,
        kernel_seconds=stats.kernel_seconds,
        ingested_points=ingested[0],
        server_stats=stats.as_dict(),
    )
