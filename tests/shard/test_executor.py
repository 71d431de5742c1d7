"""Executors and shared-memory transport: serial vs pool bit-equality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.index import FlatACT
from repro.shard import (
    PoolExecutor,
    SerialExecutor,
    StaticShards,
    get_executor,
    sharded_act_join,
)
from repro.shard.shm import attach_arrays, pack_arrays


class TestShmTransport:
    def test_pack_attach_roundtrip(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
            "c": np.array([], dtype=np.uint64),
        }
        block = pack_arrays(arrays)
        try:
            attached = attach_arrays(block.manifest)
            try:
                for key, arr in arrays.items():
                    assert attached[key].dtype == arr.dtype
                    assert np.array_equal(attached[key], arr)
            finally:
                attached.close()
        finally:
            block.unlink()
        block.unlink()  # idempotent

    def test_flat_act_state_roundtrip(self, frame, neighborhoods):
        """A FlatACT rebuilt from attached shm buffers probes identically."""
        flat = FlatACT.build(neighborhoods, frame, epsilon=8.0)
        block = pack_arrays(flat.state_arrays())
        try:
            attached = attach_arrays(block.manifest)
            try:
                clone = FlatACT.from_state_arrays(attached)
                xs = np.linspace(10.0, 990.0, 200)
                ys = np.linspace(990.0, 10.0, 200)
                off_a, pid_a = flat.lookup_points_batch(xs, ys)
                off_b, pid_b = clone.lookup_points_batch(xs, ys)
                assert np.array_equal(off_a, off_b)
                assert np.array_equal(pid_a, pid_b)
            finally:
                attached.close()
        finally:
            block.unlink()


class TestExecutorRegistry:
    def test_serial_resolution(self):
        assert get_executor(None) is get_executor(0) is get_executor(1)
        assert isinstance(get_executor(None), SerialExecutor)

    def test_executor_instances_pass_through(self):
        serial = SerialExecutor()
        assert get_executor(serial) is serial

    def test_pool_requires_two_workers(self):
        with pytest.raises(QueryError):
            PoolExecutor(1)


class TestPoolParity:
    @pytest.fixture(scope="class")
    def pool(self):
        pool = PoolExecutor(2)
        yield pool
        pool.close()

    def test_pool_matches_serial_probe(self, frame, taxi_points, neighborhoods, pool):
        flat = FlatACT.build(neighborhoods, frame, epsilon=8.0)
        partition = StaticShards.build(taxi_points, frame, 4)
        coords = partition.coords()
        serial_results, _ = SerialExecutor().probe_act(flat, coords)
        pool_results, seconds = pool.probe_act(flat, coords)
        assert len(pool_results) == 4 and len(seconds) == 4
        for (off_a, pid_a), (off_b, pid_b) in zip(serial_results, pool_results):
            assert np.array_equal(off_a, off_b)
            assert np.array_equal(pid_a, pid_b)

    def test_pool_join_bit_equal_and_index_reused(
        self, frame, taxi_points, neighborhoods, avg_query, pool
    ):
        partition = StaticShards.build(taxi_points, frame, 4)
        trie = FlatACT.build(neighborhoods, frame, epsilon=8.0)
        serial = sharded_act_join(
            partition.segments(), neighborhoods, frame,
            epsilon=8.0, query=avg_query, trie=trie,
        )
        first = sharded_act_join(
            partition.segments(), neighborhoods, frame,
            epsilon=8.0, query=avg_query, trie=trie, executor=pool,
        )
        published = len(pool._published)
        second = sharded_act_join(
            partition.segments(), neighborhoods, frame,
            epsilon=8.0, query=avg_query, trie=trie, executor=pool,
        )
        assert np.array_equal(first.counts, serial.counts)
        assert np.array_equal(first.aggregates, serial.aggregates)
        assert np.array_equal(second.aggregates, serial.aggregates)
        assert first.extra["workers"] == 2
        # The index is published once per pool, not re-shipped per query.
        assert len(pool._published) == published
