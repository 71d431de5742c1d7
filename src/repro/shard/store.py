"""Sharded updatable store: routed ingest over per-shard LSM stores.

A :class:`ShardedStore` owns one :class:`~repro.store.store.SpatialStore`
per tile of a :class:`~repro.shard.frame.ShardedFrame` and a single global
insertion-id sequence.  Ingest batches are routed per shard with one
vectorized :meth:`~repro.shard.frame.ShardedFrame.route_points` pass and
land in the member stores as explicit-id inserts, so the id space stays
**global**: any interleaving of sharded ingest produces exactly the ids an
unsharded store would assign, which is what makes every sharded query
mergeable bit for bit.

All member stores run on the **global frame and level** — the tiles decide
placement, never encoding — and share one
:class:`~repro.api.registry.IndexRegistry`, so a polygon suite's ACT index
is built once for all shards (member flushes invalidate only point-scoped
entries and leave it alone).

:class:`ShardedSnapshot` freezes all member snapshots in one pass — the
store is single-writer, so the combined view is one consistent cut of the
global id space — and answers queries by scatter-gather
(:mod:`repro.shard.gather`).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np

from repro.durable import faults
from repro.durable.wal import CommitLog, RecoveryReport, WriteAheadLog
from repro.errors import StoreError
from repro.geometry.point import PointSet
from repro.grid.uniform_grid import GridFrame
from repro.query.spec import AggregationQuery
from repro.shard.frame import ShardedFrame
from repro.shard.gather import (
    ShardSegment,
    sharded_act_join,
    sharded_estimate_count_range,
)
from repro.store.store import SizeTieredCompaction, SpatialStore, StoreStats

__all__ = ["ShardedStore", "ShardedSnapshot"]


class ShardedSnapshot:
    """One consistent cut across all shard snapshots of a sharded store."""

    __slots__ = ("sharded_frame", "frame", "level", "shards", "_registry")

    def __init__(self, sharded_frame: ShardedFrame, level: int, shards, registry=None) -> None:
        self.sharded_frame = sharded_frame
        self.frame = sharded_frame.frame
        self.level = level
        self.shards = tuple(shards)
        self._registry = registry

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------ #
    # segment plumbing
    # ------------------------------------------------------------------ #
    def segments(self) -> list[list[ShardSegment]]:
        """Per shard, the probe-ready live segments (runs first, memtable last)."""
        return [
            [ShardSegment(ids, xs, ys, values) for ids, xs, ys, values in snap._segments()]
            for snap in self.shards
        ]

    # ------------------------------------------------------------------ #
    # query paths (scatter-gather over the member snapshots)
    # ------------------------------------------------------------------ #
    def act_join(
        self,
        regions,
        epsilon: float = 4.0,
        query: AggregationQuery | None = None,
        trie=None,
    ):
        """ACT aggregation join, bit-identical to the unsharded snapshot path.

        Every shard probes the same registry-cached index; the match pairs
        carry global insertion ids, so the gather merge replays the exact
        addition sequence of :meth:`StoreSnapshot.act_join` over one
        unsharded store with the same ingest history.
        """
        result = sharded_act_join(
            self.segments(),
            regions,
            self.frame,
            epsilon=epsilon,
            query=query,
            trie=trie,
            registry=self._registry,
        )
        result.extra["num_runs"] = sum(len(snap.runs) for snap in self.shards)
        result.extra["memtable_points"] = sum(
            int(snap.mem_ids.shape[0]) for snap in self.shards
        )
        return result

    def count_in_ranges(self, ranges) -> int:
        """Sum of the members' exact tombstone-corrected range counts."""
        return sum(snap.count_in_ranges(ranges) for snap in self.shards)

    def raster_count(
        self,
        region,
        cells_per_polygon: int,
        conservative: bool = True,
    ) -> int:
        """Approximate count in ``region``; one approximation, K fan-outs.

        The query cells are decomposed once on the global frame — every
        shard counts against identical key ranges, so the integer partials
        sum to exactly the unsharded answer.
        """
        from repro.approx.hierarchical_raster import HierarchicalRasterApproximation

        approx = HierarchicalRasterApproximation.from_cell_budget(
            region,
            self.frame,
            max_cells=cells_per_polygon,
            conservative=conservative,
            max_level=self.level,
        )
        return self.count_in_ranges(approx.query_ranges(self.level))

    def estimate_count_range(self, region, epsilon: float):
        """Certain COUNT interval; per-shard coverage counts sum exactly."""
        coords = [
            (xs, ys) for snap in self.shards for _, xs, ys, _ in snap._segments()
        ]
        return sharded_estimate_count_range(coords, region, epsilon)

    # ------------------------------------------------------------------ #
    # point-set views
    # ------------------------------------------------------------------ #
    @property
    def num_live(self) -> int:
        return sum(snap.num_live for snap in self.shards)

    def live_ids(self) -> np.ndarray:
        """Sorted insertion ids of every live point (global id space)."""
        if not self.shards:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([snap.live_ids() for snap in self.shards]))

    def live_points(self) -> PointSet:
        """All live points merged into ascending global-id order.

        Identical (order included) to :meth:`StoreSnapshot.live_points` of
        an unsharded store with the same ingest history — the canonical
        rebuild order.
        """
        segments = [seg for snap in self.shards for seg in snap._segments()]
        names = list(self.shards[0].mem_values) if self.shards else []
        if not segments:
            return PointSet(np.empty(0), np.empty(0), {name: np.empty(0) for name in names})
        ids = np.concatenate([seg[0] for seg in segments])
        xs = np.concatenate([seg[1] for seg in segments])
        ys = np.concatenate([seg[2] for seg in segments])
        order = np.argsort(ids, kind="stable")
        values = {
            name: np.concatenate([seg[3][name] for seg in segments])[order] for name in names
        }
        return PointSet(xs[order], ys[order], values)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardedSnapshot(shards={len(self.shards)}, live={self.num_live})"


class ShardedStore:
    """K routed LSM stores behind one global id space (see module docstring)."""

    def __init__(
        self,
        frame: GridFrame,
        level: int,
        shards: int,
        attributes: tuple[str, ...] = (),
        memtable_capacity: int = 8192,
        compaction: SizeTieredCompaction | None = None,
        auto_compact: bool = True,
        incremental_compaction: bool = False,
        compaction_budget_bytes: int | None = None,
        registry=None,
    ) -> None:
        if shards < 1:
            raise StoreError("a sharded store needs at least one shard")
        self.sharded_frame = ShardedFrame(frame, shards)
        self.frame = frame
        self.level = int(level)
        self.attributes = tuple(attributes)
        self.memtable_capacity = int(memtable_capacity)
        self.auto_compact = auto_compact
        self.incremental_compaction = bool(incremental_compaction)
        self.compaction_budget_bytes = compaction_budget_bytes
        self._registry = registry
        self._stores = [
            SpatialStore(
                frame,
                level,
                attributes=self.attributes,
                memtable_capacity=memtable_capacity,
                compaction=compaction,
                auto_compact=auto_compact,
                incremental_compaction=incremental_compaction,
                compaction_budget_bytes=compaction_budget_bytes,
                registry=self.registry,
            )
            for _ in range(shards)
        ]
        self._next_id = 0
        # Durable plumbing, attached by :meth:`create` / :meth:`open`: each
        # member store gets its own WAL (records routed to that shard) and
        # the commit log marks, after every sharded mutation, a consistent
        # cut of all member (epoch, record_count) positions — the recovery
        # boundary that rolls a crash mid-broadcast back atomically.
        self._commit_log: CommitLog | None = None
        self._directory: Path | None = None
        self.last_recovery: RecoveryReport | None = None
        # Guards the global id sequence and keeps a snapshot one consistent
        # cut across all member stores while another thread ingests.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(
        cls, points: PointSet, frame: GridFrame, level: int, shards: int, **kwargs
    ) -> "ShardedStore":
        """Bulk-load: one routed insert + flush (K single-run member stores)."""
        store = cls(frame, level, shards, attributes=points.attribute_names, **kwargs)
        store.insert(points)
        store.flush()
        return store

    @classmethod
    def create(
        cls,
        directory,
        frame: GridFrame,
        level: int,
        shards: int,
        sync: bool = True,
        **kwargs,
    ) -> "ShardedStore":
        """A new **durable** sharded store rooted at ``directory``.

        Layout: ``sharded.json`` (global manifest), one
        ``shard{k:02d}/`` durable member store per tile (each with its own
        WAL) and ``commit/`` — the commit log whose records make sharded
        mutations atomic across the member logs.
        """
        directory = Path(directory)
        if (directory / "sharded.json").exists():
            raise StoreError(f"a sharded store already exists in {directory}")
        store = cls(frame, level, shards, **kwargs)
        store._directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        for pos, member in enumerate(store._stores):
            member_dir = directory / f"shard{pos:02d}"
            member._directory = member_dir
            member.save(member_dir)
            member._wal = WriteAheadLog.create(member_dir / "wal", epoch=0, sync=sync)
        store._commit_log = CommitLog.create(directory / "commit", epoch=0, sync=sync)
        store._save_manifest(directory, commit_epoch=0)
        return store

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.sharded_frame.num_shards

    def insert(self, points: PointSet) -> np.ndarray:
        """Route a batch across the shards; returns the assigned global ids.

        Ids come from the store-wide sequence, exactly as an unsharded store
        would assign them; each member receives its slice as an explicit-id
        insert in ascending order (the routing groups with a stable sort).
        """
        with self._lock:
            n = len(points)
            ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
            self._next_id += n
            if n == 0:
                return ids
            routes = self.sharded_frame.route_points(points.xs, points.ys)
            order = np.argsort(routes, kind="stable")
            counts = np.bincount(routes, minlength=self.num_shards)
            bounds = np.zeros(self.num_shards + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            for shard_id, store in enumerate(self._stores):
                indices = order[bounds[shard_id] : bounds[shard_id + 1]]
                if indices.shape[0] == 0:
                    continue
                store.insert(points.select(indices), ids=ids[indices])
            self._commit()
            return ids

    def delete(self, ids) -> int:
        """Broadcast a delete; every id is recorded by exactly one shard.

        Members ignore ids they never held (buffered-membership check in the
        memtable, run-presence check before tombstoning), so the broadcast
        counts each deletion once no matter how the ids spread across
        shards.
        """
        with self._lock:
            newly = sum(store.delete(ids) for store in self._stores)
            self._commit()
            return newly

    def flush(self) -> int:
        """Flush every member memtable; returns how many produced a run."""
        with self._lock:
            flushed = sum(1 for store in self._stores if store.flush() is not None)
            self._commit()
            return flushed

    def compact(
        self,
        full: bool = False,
        max_merges: int | None = None,
        byte_budget: int | None = None,
    ) -> int:
        """Run compaction on every member; returns total merges performed."""
        with self._lock:
            merges = sum(
                store.compact(full=full, max_merges=max_merges, byte_budget=byte_budget)
                for store in self._stores
            )
            self._commit()
            return merges

    def _commit(self) -> None:
        """Mark the sharded mutation durable: one cut over all member WALs.

        Member inserts/deletes/flushes already fsynced their own records;
        the commit record — fsynced after all of them — is what recovery
        replays up to, so a crash between member writes rolls the whole
        operation back instead of resurrecting the shards it reached.
        """
        if self._commit_log is not None:
            self._commit_log.commit(
                [(member.wal.epoch, member.wal.record_count) for member in self._stores]
            )

    # ------------------------------------------------------------------ #
    # index registry
    # ------------------------------------------------------------------ #
    @property
    def registry(self):
        """One :class:`~repro.api.registry.IndexRegistry` shared by all shards.

        The polygon-suite ACT index every shard probes is global-frame, so
        one cache entry serves the whole fan-out; member flushes invalidate
        only point-scoped entries, leaving it untouched.
        """
        if self._registry is None:
            from repro.api.registry import IndexRegistry

            self._registry = IndexRegistry()
        return self._registry

    def attach_registry(self, registry) -> None:
        """Share an external registry (e.g. a dataset's) with every shard."""
        self._registry = registry
        for store in self._stores:
            store.attach_registry(registry)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ShardedSnapshot:
        """Freeze all member states in one pass (single-writer store, so the
        member snapshots form one consistent cut of the global id space)."""
        with self._lock:
            return ShardedSnapshot(
                self.sharded_frame,
                self.level,
                (store.snapshot() for store in self._stores),
                registry=self.registry,
            )

    def act_join(self, regions, **kwargs):
        return self.snapshot().act_join(regions, **kwargs)

    def raster_count(self, region, cells_per_polygon, **kwargs) -> int:
        return self.snapshot().raster_count(region, cells_per_polygon, **kwargs)

    def estimate_count_range(self, region, epsilon):
        return self.snapshot().estimate_count_range(region, epsilon)

    def count_in_ranges(self, ranges) -> int:
        return self.snapshot().count_in_ranges(ranges)

    def live_points(self) -> PointSet:
        return self.snapshot().live_points()

    def rebuilt(self, **kwargs) -> "ShardedStore":
        """A from-scratch sharded store over the current live point set."""
        return ShardedStore.from_points(
            self.live_points(), self.frame, self.level, self.num_shards, **kwargs
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    #: Manifest schema version written by :meth:`save`.
    MANIFEST_VERSION = 1

    def _save_manifest(self, directory: Path, commit_epoch: int) -> None:
        policy = self._stores[0].compaction
        manifest = {
            "format_version": self.MANIFEST_VERSION,
            "shards": self.num_shards,
            "level": self.level,
            "attributes": list(self.attributes),
            "next_id": int(self._next_id),
            "frame": {
                "origin_x": float(self.frame.origin_x),
                "origin_y": float(self.frame.origin_y),
                "size": float(self.frame.size),
            },
            "memtable_capacity": self.memtable_capacity,
            "auto_compact": self.auto_compact,
            "incremental_compaction": self.incremental_compaction,
            "compaction_budget_bytes": self.compaction_budget_bytes,
            "compaction": {
                "min_runs": policy.min_runs,
                "tier_base": policy.tier_base,
            },
            "commit_epoch": int(commit_epoch),
        }
        tmp_path = directory / "sharded.json.tmp"
        with open(tmp_path, "w") as handle:
            handle.write(json.dumps(manifest, indent=2))
            handle.flush()
            faults.fsync_fileno(handle.fileno())
        faults.fsync_dir(directory)
        faults.replace(tmp_path, directory / "sharded.json")
        faults.fsync_dir(directory)

    def save(self, directory=None) -> Path:
        """Checkpoint every member plus the global manifest; see
        :meth:`SpatialStore.save` for the per-member crash-safety story.

        An in-place save of a durable sharded store truncates every member
        WAL (each member save does) and then the commit log — the sharded
        epoch advances only after all members are durably checkpointed, so
        a crash anywhere in between recovers consistently: saved members
        replay nothing (their commit-cut entries are from the previous
        epoch), unsaved ones replay their logs up to the last cut.
        """
        with self._lock:
            if directory is None:
                if self._directory is None:
                    raise StoreError("save() needs a directory for a non-durable store")
                directory = self._directory
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            in_place = self._commit_log is not None and directory == self._directory
            for pos, member in enumerate(self._stores):
                member.save(directory / f"shard{pos:02d}")
            # Manifest (with the advanced epoch) goes durable *before* the
            # commit log truncates: a crash in between leaves an empty new
            # epoch to recover (nothing to replay — every member is saved),
            # never a commit log newer than the manifest that names it.
            self._save_manifest(
                directory,
                commit_epoch=self._commit_log.epoch + 1 if in_place else 0,
            )
            if in_place:
                self._commit_log.truncate()
            return directory

    @classmethod
    def open(
        cls,
        directory,
        registry=None,
        durable: bool | None = None,
        sync: bool = True,
    ) -> "ShardedStore":
        """Restore a sharded store checkpointed with :meth:`save`.

        With the durable layout present, the last commit-log cut bounds
        each member's WAL replay — acked sharded mutations come back whole,
        un-acked ones are rolled back on every shard — and the global id
        sequence resumes past everything recovered.
        """
        directory = Path(directory)
        manifest_path = directory / "sharded.json"
        if not manifest_path.exists():
            raise StoreError(f"no sharded store manifest in {directory}")
        manifest = json.loads(manifest_path.read_text())
        version = int(manifest.get("format_version", -1))
        if version != cls.MANIFEST_VERSION:
            raise StoreError(
                f"unsupported sharded manifest version {version} "
                f"(this build reads version {cls.MANIFEST_VERSION})"
            )
        stale_tmp = directory / "sharded.json.tmp"
        if stale_tmp.exists():
            stale_tmp.unlink()
        frame = GridFrame.from_raw(
            manifest["frame"]["origin_x"],
            manifest["frame"]["origin_y"],
            manifest["frame"]["size"],
        )
        shards = int(manifest["shards"])
        store = cls(
            frame,
            int(manifest["level"]),
            shards,
            attributes=tuple(manifest["attributes"]),
            memtable_capacity=int(manifest["memtable_capacity"]),
            compaction=SizeTieredCompaction(
                min_runs=int(manifest["compaction"]["min_runs"]),
                tier_base=float(manifest["compaction"]["tier_base"]),
            ),
            auto_compact=bool(manifest["auto_compact"]),
            incremental_compaction=bool(manifest.get("incremental_compaction", False)),
            compaction_budget_bytes=manifest.get("compaction_budget_bytes"),
            registry=registry,
        )
        store._directory = directory
        if durable is None:
            durable = (directory / "commit").exists()
        limits: "list[tuple[int | None, int] | None]" = [None] * shards
        if durable:
            store._commit_log, cut = CommitLog.open(
                directory / "commit",
                epoch=int(manifest.get("commit_epoch", 0)),
                sync=sync,
            )
            if cut is None:
                # No sharded mutation committed since the last checkpoint:
                # any member records are an un-acked broadcast — roll back.
                limits = [(None, 0)] * shards
            else:
                if len(cut) != shards:
                    raise StoreError(
                        f"commit log cut covers {len(cut)} members, expected {shards}"
                    )
                limits = list(cut)
        members = []
        for pos in range(shards):
            members.append(
                SpatialStore.open(
                    directory / f"shard{pos:02d}",
                    registry=store.registry,
                    durable=durable,
                    sync=sync,
                    _replay_limit=limits[pos],
                )
            )
        store._stores = members
        store._next_id = max(
            int(manifest["next_id"]), max(member._next_id for member in members)
        )
        if durable:
            store.last_recovery = RecoveryReport.merged(
                [member.last_recovery for member in members if member.last_recovery]
            )
        return store

    def close(self) -> None:
        """Release every member WAL and the commit log (if attached)."""
        with self._lock:
            for member in self._stores:
                member.close()
            if self._commit_log is not None:
                self._commit_log.close()

    @property
    def directory(self) -> "Path | None":
        return self._directory

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> tuple[SpatialStore, ...]:
        return tuple(self._stores)

    @property
    def stats(self) -> StoreStats:
        """Member counters summed into one store-wide view."""
        combined = StoreStats()
        for store in self._stores:
            combined.inserts += store.stats.inserts
            combined.deletes += store.stats.deletes
            combined.flushes += store.stats.flushes
            combined.flushed_entries += store.stats.flushed_entries
            combined.compactions += store.stats.compactions
            combined.compacted_entries += store.stats.compacted_entries
            combined.purged_tombstones += store.stats.purged_tombstones
            combined.compaction_debt_bytes += store.stats.compaction_debt_bytes
        return combined

    @property
    def num_live(self) -> int:
        return sum(store.num_live for store in self._stores)

    @property
    def num_runs(self) -> int:
        return sum(store.num_runs for store in self._stores)

    @property
    def num_tombstones(self) -> int:
        return sum(store.num_tombstones for store in self._stores)

    @property
    def memtable_size(self) -> int:
        return sum(store.memtable_size for store in self._stores)

    def memory_bytes(self) -> int:
        return sum(store.memory_bytes() for store in self._stores)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedStore(shards={self.num_shards}, live={self.num_live}, "
            f"runs={self.num_runs})"
        )
