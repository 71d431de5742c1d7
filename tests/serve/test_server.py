"""QueryServer behaviour: coalescing windows, scatter parity, lifecycle.

The core contract under test: a response served from a coalesced batch is
**bit-identical** — float aggregates included — to running that request
alone against the snapshot it was pinned to.  Batches are made deterministic
by submitting before :meth:`QueryServer.start`: the dispatcher's first
sweep then sees the whole burst at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query import AggregationQuery
from repro.query.spec import Aggregate
from repro.serve import QueryServer


def _solo_join(response, dataset, spec):
    """The solo-run oracle: the same request against the pinned snapshot."""
    regions = list(dataset.suite(response.suite).regions)
    return response.snapshot.act_join(
        regions, epsilon=float(spec.epsilon), query=spec
    )


def _assert_join_parity(response, dataset, spec):
    solo = _solo_join(response, dataset, spec)
    np.testing.assert_array_equal(response.aggregates, solo.aggregates)
    np.testing.assert_array_equal(response.counts, solo.counts)


class TestCoalescing:
    def test_burst_fuses_into_one_batch(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=16, max_wait_ms=50.0)
        futures = [server.submit_join(epsilon=4.0) for _ in range(6)]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats.batches == 1
        assert all(r.timing.batch_requests == 6 for r in responses)
        assert server.stats.fused_requests == 6

    def test_mixed_aggregates_share_one_probe(self, store_dataset):
        specs = [
            AggregationQuery(epsilon=4.0),
            AggregationQuery(epsilon=4.0, aggregate=Aggregate.SUM, attribute="fare"),
            AggregationQuery(epsilon=4.0, aggregate=Aggregate.AVG, attribute="fare"),
        ]
        server = QueryServer(store_dataset, max_batch=16, max_wait_ms=50.0)
        futures = [server.submit_join(spec=spec) for spec in specs]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        # One batch (aggregate/attribute are not part of the coalescing
        # key), yet every response bit-matches its own solo run.
        assert server.stats.batches == 1
        for response, spec in zip(responses, specs):
            _assert_join_parity(response, store_dataset, spec)

    def test_serial_mode_never_coalesces(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=1, max_wait_ms=50.0)
        futures = [server.submit_join(epsilon=4.0) for _ in range(4)]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats.batches == 4
        assert all(r.timing.batch_requests == 1 for r in responses)
        assert server.stats.fused_requests == 0

    def test_different_epsilon_does_not_fuse(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=16, max_wait_ms=50.0)
        futures = [server.submit_join(epsilon=eps) for eps in (4.0, 8.0, 4.0)]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats.batches == 2
        for response, eps in zip(responses, (4.0, 8.0, 4.0)):
            _assert_join_parity(response, store_dataset, AggregationQuery(epsilon=eps))

    def test_point_filters_fuse_only_on_identity(self, store_dataset):
        west = lambda pts: pts.xs < 500.0
        spec = AggregationQuery(epsilon=4.0, point_filter=west)
        server = QueryServer(store_dataset, max_batch=16, max_wait_ms=50.0)
        filtered = [server.submit_join(spec=spec) for _ in range(2)]
        plain = server.submit_join(epsilon=4.0)
        server.start()
        responses = [f.result(timeout=30) for f in filtered]
        plain_response = plain.result(timeout=30)
        server.close()
        # Two batches: the identical-filter pair fuses, the unfiltered
        # request stays apart.
        assert server.stats.batches == 2
        assert all(r.timing.batch_requests == 2 for r in responses)
        for response in responses:
            _assert_join_parity(response, store_dataset, spec)
        _assert_join_parity(plain_response, store_dataset, AggregationQuery(epsilon=4.0))

    def test_kinds_do_not_fuse_with_each_other(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=16, max_wait_ms=50.0)
        join = server.submit_join(epsilon=4.0)
        lookup = server.submit_lookup([100.0], [100.0], epsilon=4.0)
        server.start()
        join.result(timeout=30)
        lookup.result(timeout=30)
        server.close()
        assert server.stats.batches == 2

    def test_max_batch_splits_oversized_bursts(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=3, max_wait_ms=50.0)
        futures = [server.submit_join(epsilon=4.0) for _ in range(7)]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats.batches == 3  # 3 + 3 + 1
        assert max(r.timing.batch_requests for r in responses) == 3
        for response in responses:
            _assert_join_parity(response, store_dataset, AggregationQuery(epsilon=4.0))


class TestLookup:
    def test_coalesced_lookup_slices_bit_match_solo_probes(self, store_dataset, rng):
        xs = rng.uniform(0.0, 1000.0, 30)
        ys = rng.uniform(0.0, 1000.0, 30)
        server = QueryServer(store_dataset, max_batch=16, max_wait_ms=50.0)
        futures = [
            server.submit_lookup(xs[i * 10 : (i + 1) * 10], ys[i * 10 : (i + 1) * 10])
            for i in range(3)
        ]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats.batches == 1
        trie = store_dataset.act_index("neighborhoods", 4.0)
        for i, response in enumerate(responses):
            offsets, pids = trie.lookup_points_batch(
                xs[i * 10 : (i + 1) * 10], ys[i * 10 : (i + 1) * 10]
            )
            np.testing.assert_array_equal(response.result.offsets, offsets)
            np.testing.assert_array_equal(response.result.region_ids, pids)
            assert len(response.result) == 10

    def test_lookup_answer_matches_accessor(self, store_dataset):
        with QueryServer(store_dataset, max_batch=4) as server:
            response = server.lookup([500.0, -50.0], [500.0, -50.0])
        answer = response.result
        assert len(answer) == 2
        assert answer.matches(1).shape == (0,)  # out-of-extent point

    def test_rejects_ragged_coordinates(self, store_dataset):
        server = QueryServer(store_dataset)
        with pytest.raises(QueryError):
            server.submit_lookup([1.0, 2.0], [1.0])


class TestSharedAnswerKinds:
    def test_raster_count_batch_shares_one_computation(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=8, max_wait_ms=50.0)
        futures = [
            server.submit_raster_count(cells_per_polygon=64) for _ in range(3)
        ]
        server.start()
        responses = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats.batches == 1
        expected = store_dataset.raster_count("neighborhoods", cells_per_polygon=64)
        for response in responses:
            np.testing.assert_array_equal(response.result, expected)
        # Shared computation, but no response aliases another's array.
        assert responses[0].result is not responses[1].result

    def test_estimate_parity(self, store_dataset):
        with QueryServer(store_dataset, max_batch=4) as server:
            response = server.estimate(epsilon=6.0)
        assert response.result == store_dataset.estimate("neighborhoods", epsilon=6.0)


class TestStaticDataset:
    def test_join_parity_against_facade(self, static_dataset):
        spec = AggregationQuery(epsilon=4.0, aggregate=Aggregate.SUM, attribute="fare")
        with static_dataset.serve(max_batch=8) as server:
            response = server.join(spec=spec)
        assert response.snapshot is None
        solo = static_dataset.query(spec, strategy="act")
        np.testing.assert_array_equal(response.aggregates, solo.aggregates)
        np.testing.assert_array_equal(response.counts, solo.counts)

    def test_raster_and_estimate(self, static_dataset):
        with static_dataset.serve() as server:
            raster = server.raster_count(cells_per_polygon=32)
            estimate = server.estimate(epsilon=8.0)
        np.testing.assert_array_equal(
            raster.result, static_dataset.raster_count("neighborhoods", cells_per_polygon=32)
        )
        assert estimate.result == static_dataset.estimate("neighborhoods", epsilon=8.0)


class TestLifecycleAndErrors:
    def test_submit_after_close_raises(self, store_dataset):
        server = QueryServer(store_dataset)
        server.start()
        server.close()
        with pytest.raises(QueryError):
            server.submit_join(epsilon=4.0)

    def test_close_drains_pending_requests(self, store_dataset):
        server = QueryServer(store_dataset, max_batch=8, max_wait_ms=1000.0)
        futures = [server.submit_join(epsilon=4.0) for _ in range(3)]
        server.start()
        server.close()  # must resolve everything still queued
        for future in futures:
            assert future.result(timeout=5).counts is not None

    def test_unknown_suite_rejected_at_submit(self, store_dataset):
        server = QueryServer(store_dataset)
        with pytest.raises(QueryError):
            server.submit_join("nope", epsilon=4.0)

    def test_kernel_error_reaches_every_batched_future(self, store_dataset):
        bad = AggregationQuery(epsilon=4.0, aggregate=Aggregate.SUM, attribute="missing")
        server = QueryServer(store_dataset, max_batch=8, max_wait_ms=50.0)
        futures = [server.submit_join(spec=bad) for _ in range(2)]
        server.start()
        for future in futures:
            with pytest.raises(Exception, match="missing"):
                future.result(timeout=30)
        server.close()
        assert server.stats.errors == 2

    def test_invalid_window_parameters(self, store_dataset):
        with pytest.raises(QueryError):
            QueryServer(store_dataset, max_batch=0)
        with pytest.raises(QueryError):
            QueryServer(store_dataset, max_wait_ms=-1.0)

    def test_join_without_epsilon_rejected(self, store_dataset):
        server = QueryServer(store_dataset)
        with pytest.raises(QueryError):
            server.submit_join(spec=AggregationQuery())


class TestTelemetry:
    def test_explain_reports_queue_batch_kernel(self, store_dataset):
        with store_dataset.serve(max_batch=8) as server:
            response = server.join(epsilon=4.0)
        text = response.explain()
        assert "join over suite 'neighborhoods'" in text
        assert "queue" in text and "kernel" in text and "batch" in text

    def test_stats_as_dict(self, store_dataset):
        with QueryServer(store_dataset) as server:
            server.join(epsilon=4.0)
            stats = server.stats.as_dict()
        assert stats["requests"] == 1
        assert stats["responses"] == 1
        assert stats["batches"] >= 1
        assert stats["mean_batch_requests"] >= 1.0
