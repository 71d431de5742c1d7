"""Crash-injection recovery: recovered state must equal the never-crashed oracle.

Three crash families, all driven by :mod:`repro.durable.crashsim` scripts:

* **In-process reopen** — close-less abandonment (the WAL simply keeps
  whatever was committed) and reopen, static and sharded.
* **Subprocess kill-9** — a child process applies a script prefix and
  SIGKILLs itself on an op boundary or at an injected fsync / torn-write
  fault point; the parent recovers the directory.
* **Fault hooks** — fsync / ``os.replace`` failures injected into
  checkpoints must leave the previous checkpoint intact.

On op boundaries recovery must reproduce the oracle **structurally** (the
exact run layout — replay is deterministic); mid-op crashes must land on
*some* consistent script prefix logically, and always answer queries
bit-identically to that prefix's oracle.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.durable import crashsim, faults
from repro.shard.store import ShardedStore
from repro.store.store import SpatialStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _probe_regions():
    from repro.geometry.polygon import Polygon

    side = crashsim.EXTENT / 2
    return [
        Polygon(
            np.array(
                [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]]
            )
        )
        for x0 in (0.0, side * 0.7)
        for y0 in (0.0, side * 0.9)
    ]


def _assert_join_parity(recovered, oracle):
    regions = _probe_regions()
    mine = recovered.act_join(regions, epsilon=4.0)
    theirs = oracle.act_join(regions, epsilon=4.0)
    np.testing.assert_array_equal(mine.counts, theirs.counts)
    np.testing.assert_array_equal(mine.aggregates, theirs.aggregates)


class TestInProcessRecovery:
    def test_static_store_recovers_bit_identical(self, tmp_path, crash_frame, script):
        store = SpatialStore.create(
            tmp_path / "store", crash_frame, 10, **crashsim.STORE_KWARGS
        )
        crashsim.apply_script(store, script)
        # Abandon without close/save: recovery has the whole WAL to replay.
        reopened = SpatialStore.open(tmp_path / "store")
        oracle = crashsim.build_oracle(script)
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(oracle)
        _assert_join_parity(reopened, oracle)
        assert reopened.last_recovery.records == len(script) + reopened.last_recovery.flushes - sum(
            1 for op in script if op["op"] == "flush"
        ) + reopened.last_recovery.compactions - sum(
            1 for op in script if op["op"] == "compact"
        )
        store.close()
        reopened.close()

    def test_checkpoint_bounds_replay(self, tmp_path, crash_frame, script):
        store = SpatialStore.create(
            tmp_path / "store", crash_frame, 10, **crashsim.STORE_KWARGS
        )
        crashsim.apply_script(store, script, stop=15)
        store.save()
        crashsim.apply_script(store, script, start=15)
        reopened = SpatialStore.open(tmp_path / "store")
        oracle = crashsim.build_oracle(script)
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(oracle)
        # Only post-checkpoint mutations were replayed.
        tail_mutations = sum(1 for op in script[15:] if op["op"] in ("insert", "delete"))
        assert reopened.last_recovery.inserts + reopened.last_recovery.deletes == tail_mutations
        store.close()
        reopened.close()

    def test_sharded_store_recovers_bit_identical(self, tmp_path, crash_frame, script):
        store = ShardedStore.create(
            tmp_path / "store", crash_frame, 10, 4, **crashsim.STORE_KWARGS
        )
        crashsim.apply_script(store, script)
        reopened = ShardedStore.open(tmp_path / "store")
        oracle = crashsim.build_oracle(script, shards=4)
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(oracle)
        _assert_join_parity(reopened, oracle)
        store.close()
        reopened.close()

    def test_sharded_uncommitted_tail_rolls_back(self, tmp_path, crash_frame, script):
        store = ShardedStore.create(
            tmp_path / "store", crash_frame, 10, 3, **crashsim.STORE_KWARGS
        )
        crashsim.apply_script(store, script, stop=10)
        # Append member records *without* the commit marker: the broadcast
        # reached the members but the operation was never acked.
        points = crashsim.make_script(seed=7, ops=1)
        for member in store._stores:
            member.insert(crashsim._op_points(points[0], member.attributes))
        reopened = ShardedStore.open(tmp_path / "store")
        oracle = crashsim.build_oracle(script, 10, shards=3)
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(oracle)
        assert reopened.last_recovery.rolled_back >= 3
        store.close()
        reopened.close()


def _run_child(directory, *extra):
    argv = [
        sys.executable,
        "-m",
        "repro.durable.crashsim",
        str(directory),
        "--ops",
        "25",
        "--seed",
        "101",
        *extra,
    ]
    return subprocess.run(argv, env={"PYTHONPATH": REPO_SRC}, timeout=120)


class TestSubprocessKill9:
    @pytest.mark.parametrize("crash_after", [3, 11, 19])
    def test_kill_on_op_boundary_matches_oracle(self, tmp_path, script, crash_after):
        result = _run_child(tmp_path / "store", "--crash-after", str(crash_after))
        assert result.returncode == -9
        recovered = SpatialStore.open(tmp_path / "store")
        oracle = crashsim.build_oracle(script, crash_after)
        assert crashsim.structural_digest(recovered) == crashsim.structural_digest(oracle)
        _assert_join_parity(recovered, oracle)
        recovered.close()

    def test_kill_on_op_boundary_sharded(self, tmp_path, script):
        result = _run_child(
            tmp_path / "store", "--shards", "4", "--crash-after", "13"
        )
        assert result.returncode == -9
        recovered = ShardedStore.open(tmp_path / "store")
        oracle = crashsim.build_oracle(script, 13, shards=4)
        assert crashsim.structural_digest(recovered) == crashsim.structural_digest(oracle)
        _assert_join_parity(recovered, oracle)
        recovered.close()

    @pytest.mark.parametrize(
        "fault",
        ["fsync:2:kill", "fsync:9:kill", "wal.write:4:kill", "wal.write:7:torn:11"],
    )
    def test_kill_mid_op_lands_on_a_consistent_prefix(self, tmp_path, script, fault):
        result = _run_child(tmp_path / "store", "--fault", fault)
        assert result.returncode == -9
        recovered = SpatialStore.open(tmp_path / "store")
        prefix = crashsim.matching_prefix(recovered, script)
        assert prefix is not None, "recovered state matches no script prefix"
        _assert_join_parity(recovered, crashsim.build_oracle(script, prefix))
        recovered.close()

    def test_kill_mid_op_sharded_rolls_back_to_a_cut(self, tmp_path, script):
        result = _run_child(
            tmp_path / "store", "--shards", "3", "--fault", "fsync:12:kill"
        )
        assert result.returncode == -9
        recovered = ShardedStore.open(tmp_path / "store")
        # The commit log bounds replay to a whole-op cut, so sharded
        # recovery must match an *exact op boundary*, structurally.
        matches = [
            stop
            for stop in range(len(script) + 1)
            if crashsim.structural_digest(crashsim.build_oracle(script, stop, shards=3))
            == crashsim.structural_digest(recovered)
        ]
        assert matches, "sharded recovery does not sit on an op boundary"
        recovered.close()


class TestCheckpointFaults:
    def _populated(self, tmp_path, crash_frame, script):
        store = SpatialStore.create(
            tmp_path / "store", crash_frame, 10, **crashsim.STORE_KWARGS
        )
        crashsim.apply_script(store, script, stop=12)
        return store

    @staticmethod
    def _oracle_after_save_attempt(script):
        # save() flushes the memtable first (a logged FLUSH), so the state
        # a failed save leaves behind includes that flush.
        oracle = crashsim.build_oracle(script, 12)
        oracle.flush()
        return oracle

    @pytest.mark.parametrize("rule", [
        faults.FaultRule(op="fsync", at=0),
        faults.FaultRule(op="fsync", at=2),
        faults.FaultRule(op="replace", at=0),
    ])
    def test_failed_save_preserves_recoverable_state(
        self, tmp_path, crash_frame, script, rule
    ):
        store = self._populated(tmp_path, crash_frame, script)
        with faults.inject(rule):
            with pytest.raises(faults.InjectedFault):
                store.save()
        # The failed checkpoint must not have truncated the WAL or replaced
        # the manifest incoherently: reopening recovers the full state.
        reopened = SpatialStore.open(tmp_path / "store")
        oracle = self._oracle_after_save_attempt(script)
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(oracle)
        store.close()
        reopened.close()

    def test_orphan_run_files_and_tmp_manifest_collected(
        self, tmp_path, crash_frame, script
    ):
        store = self._populated(tmp_path, crash_frame, script)
        store.save()
        store.close()
        directory = tmp_path / "store"
        orphan = directory / "gen99_run00.npz"
        orphan.write_bytes(b"leftover from a crashed flush")
        stale_tmp = directory / "manifest.json.tmp"
        stale_tmp.write_text("{}")
        reopened = SpatialStore.open(directory)
        assert not orphan.exists()
        assert not stale_tmp.exists()
        assert crashsim.structural_digest(reopened) == crashsim.structural_digest(
            self._oracle_after_save_attempt(script)
        )
        reopened.close()
