"""Serving-layer observability: frozen stats, span trees under concurrency."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import trace
from repro.serve import QueryServer, StatsSnapshot


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.disable()


class TestStatsSnapshot:
    def test_property_returns_frozen_snapshot(self, store_dataset):
        with QueryServer(store_dataset) as server:
            server.join(epsilon=4.0)
            stats = server.stats
        assert isinstance(stats, StatsSnapshot)
        with pytest.raises(AttributeError):
            stats.batches = 99
        with pytest.raises(AttributeError):
            stats.nonexistent_field

    def test_callable_snapshot_supports_both_styles(self, store_dataset):
        with QueryServer(store_dataset) as server:
            server.join(epsilon=4.0)
            # Old attribute style and the callable style read the same data.
            assert server.stats.responses == 1
            assert server.stats().as_dict()["responses"] == 1
            snap = server.stats
            assert snap() is snap

    def test_as_dict_includes_quantiles_and_aggregates(self, store_dataset):
        with QueryServer(store_dataset) as server:
            for _ in range(3):
                server.join(epsilon=4.0)
            stats = server.stats.as_dict()
        assert stats["responses"] == 3
        assert stats["qps"] > 0
        assert stats["latency_p50_ms"] > 0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]
        assert stats["batch_occupancy_mean"] >= 1.0
        assert stats["histograms"]["latency_seconds"]["count"] == 3
        assert stats["registry"]["hits"] >= 1
        assert stats["store"]["inserts"] > 0
        assert stats["uptime_seconds"] > 0

    def test_snapshot_internally_consistent_under_load(self, store_dataset):
        """Reading stats while the dispatcher mutates them never observes a
        half-applied batch (counters snapshot under the server lock)."""
        stop = threading.Event()
        bad = []

        with QueryServer(store_dataset, max_batch=4) as server:

            def reader():
                while not stop.is_set():
                    snap = server.stats
                    if snap.responses > snap.requests:
                        bad.append(snap.as_dict())
                    if snap.batches > snap.responses > 0:
                        bad.append(snap.as_dict())

            thread = threading.Thread(target=reader)
            thread.start()
            for _ in range(20):
                server.join(epsilon=4.0)
            stop.set()
            thread.join()
        assert not bad, bad[:1]

    def test_periodic_stats_hook(self, store_dataset):
        seen = []
        server = QueryServer(
            store_dataset,
            stats_interval_seconds=0.02,
            stats_hook=seen.append,
        )
        with server:
            server.join(epsilon=4.0)
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
        assert seen, "stats hook never fired"
        assert isinstance(seen[0], StatsSnapshot)
        assert seen[-1].requests >= 1


class TestServeSpans:
    def test_batch_span_tree(self, store_dataset):
        tracer = trace.enable()
        with store_dataset.serve(max_batch=8) as server:
            response = server.join(epsilon=4.0)
        trace.disable()
        batches = [r for r in tracer.roots if r.name == "serve.batch"]
        assert batches, [r.name for r in tracer.roots]
        batch = batches[0]
        kernel = [c for c in batch.walk() if c.name == "batch.kernel"]
        assert kernel and kernel[0].tags["kind"] == "join"
        probes = [c for c in kernel[0].walk() if c.name == "fused.probe"]
        assert probes and probes[0].tags["points"] > 0
        # The response carries the same batch span.
        assert response.timing.spans is batch
        assert "serve.batch" in response.explain()

    def test_no_spans_without_tracer(self, store_dataset):
        with store_dataset.serve(max_batch=8) as server:
            response = server.join(epsilon=4.0)
        assert response.timing.spans is None
        # One-line explain: byte-identical to the pre-tracing format.
        assert "\n" not in response.explain()

    def test_nesting_exact_under_concurrent_clients(self, store_dataset):
        """4 client threads; every batch span tree stays exact: each
        serve.batch root holds exactly one batch.kernel child chain, and no
        span from one batch leaks into another."""
        clients, per_client = 4, 6
        tracer = trace.enable()
        with store_dataset.serve(max_batch=8, max_wait_ms=2.0) as server:
            ready = threading.Barrier(clients)
            failures = []

            def client():
                try:
                    ready.wait()
                    for _ in range(per_client):
                        server.join(epsilon=4.0)
                except Exception as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = server.stats
        trace.disable()
        assert not failures, failures

        batches = [r for r in tracer.roots if r.name == "serve.batch"]
        # One batch span per dispatched batch, exactly.
        assert len(batches) == stats.batches
        total_requests = 0
        for batch in batches:
            kernels = [s for s in batch.walk() if s.name == "batch.kernel"]
            assert len(kernels) == 1
            # Children sit inside their parent's time window.
            for item in batch.walk():
                for child in item.children:
                    assert child.start >= item.start - 1e-9
                    assert child.end <= item.end + 1e-9
            total_requests += batch.tags["requests"]
        assert total_requests == clients * per_client
        # Client threads submit but never trace: no stray roots from them.
        assert all(r.name == "serve.batch" for r in tracer.roots)
