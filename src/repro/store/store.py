"""The LSM-style updatable spatial store.

The paper's distance-bounded pipeline is build-once: linearize the points,
sort them, index the polygons, query forever.  :class:`SpatialStore` makes
the *point side* of that pipeline updatable without giving up any of the
batch query machinery:

* **Ingest** lands in a :class:`~repro.store.memtable.MemTable` — an O(1)
  append buffer.  Nothing is encoded or sorted on the hot path.
* **Flush** drains the buffer into an immutable
  :class:`~repro.store.run.Run`: points are linearized with
  :meth:`CellId.encode_points <repro.curves.cellid.CellId.encode_points>` and
  frozen in canonical ``(code, id)`` order, giving each run a sorted code
  array the existing code-index query paths consume unchanged.
* **Deletes** of buffered points simply drop out of the next flush; deletes
  of already-flushed points become **tombstones** (a sorted id array) that
  every query subtracts exactly and the next compaction purges physically.
* **Size-tiered compaction** merges runs of similar size into one
  consolidated run whose arrays are bit-identical to a from-scratch build
  over the surviving points — so query behaviour never depends on the
  ingest history.
* **Snapshots** (:meth:`SpatialStore.snapshot`) freeze the current state in
  O(memtable) time and keep serving consistent reads while ingest, flushes
  and compactions continue.

Every query path (range counts, raster counts, the ACT aggregation join,
result-range estimation) answers **exactly** what a store rebuilt from
scratch over the live point set would answer — bit for bit, float aggregates
included.  The parity suite in ``tests/store/test_store_parity.py`` locks
this down over scripted interleavings of insert / delete / flush / compact.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.arrays import isin_sorted
from repro.durable import faults
from repro.durable import wal as walog
from repro.errors import StoreError, WalError
from repro.geometry.point import PointSet
from repro.grid.uniform_grid import GridFrame
from repro.obs import trace
from repro.obs.log import get_logger
from repro.store.memtable import MemTable
from repro.store.run import Run
from repro.store.snapshot import StoreSnapshot

__all__ = ["SizeTieredCompaction", "SpatialStore", "StoreStats"]

_log = get_logger("store")


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sort and deduplicate an id array (sort + neighbour comparison)."""
    if ids.shape[0] < 2:
        return ids
    ids = np.sort(ids)
    keep = np.empty(ids.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


@dataclass(frozen=True, slots=True)
class SizeTieredCompaction:
    """Size-tiered compaction policy (the classic LSM default).

    Runs are bucketed into tiers by order of magnitude
    (``floor(log_base(size))``); whenever a tier accumulates ``min_runs``
    runs, they are merged into one consolidated run, which usually graduates
    into the next tier.  Each point is therefore rewritten only
    O(log_base(total / flush_size)) times over its lifetime — the amortised
    ingest win the streaming benchmark measures against rebuild-per-batch.
    """

    min_runs: int = 4
    tier_base: float = 4.0

    def __post_init__(self) -> None:
        if self.min_runs < 2:
            raise StoreError("compaction needs at least 2 runs per merge")
        if self.tier_base <= 1.0:
            raise StoreError("tier_base must be greater than 1")

    def tier_of(self, size: int) -> int:
        """Tier index of a run with ``size`` live-or-dead entries."""
        return int(math.floor(math.log(max(size, 1), self.tier_base)))

    def select(self, runs: "list[Run]") -> "list[int] | None":
        """Positions of the runs to merge next, or ``None`` when stable.

        The fullest eligible tier (smallest tier first, so cheap merges
        happen before expensive ones) is merged in its entirety.
        """
        return self.select_sizes([len(run) for run in runs])

    def select_sizes(self, sizes: "list[int]") -> "list[int] | None":
        """:meth:`select` over plain entry counts (the debt simulation)."""
        tiers: dict[int, list[int]] = {}
        for pos, size in enumerate(sizes):
            tiers.setdefault(self.tier_of(size), []).append(pos)
        for tier in sorted(tiers):
            if len(tiers[tier]) >= self.min_runs:
                return tiers[tier]
        return None


@dataclass(slots=True)
class StoreStats:
    """Lifetime counters of one store (reported by the streaming benchmark)."""

    inserts: int = 0
    deletes: int = 0
    flushes: int = 0
    flushed_entries: int = 0
    compactions: int = 0
    compacted_entries: int = 0
    purged_tombstones: int = 0
    #: Seconds spent freezing memtables into runs / merging runs.
    flush_seconds: float = 0.0
    compaction_seconds: float = 0.0
    #: Bytes of runs the compaction policy would still merge if run to
    #: completion — the gauge incremental compaction drains between flushes.
    compaction_debt_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "inserts": self.inserts,
            "deletes": self.deletes,
            "flushes": self.flushes,
            "flushed_entries": self.flushed_entries,
            "compactions": self.compactions,
            "compacted_entries": self.compacted_entries,
            "purged_tombstones": self.purged_tombstones,
            "flush_seconds": self.flush_seconds,
            "compaction_seconds": self.compaction_seconds,
            "compaction_debt_bytes": self.compaction_debt_bytes,
        }


class SpatialStore:
    """Updatable point store over a fixed grid frame and linearization level.

    Parameters
    ----------
    frame:
        The :class:`~repro.grid.uniform_grid.GridFrame` shared with the
        polygon approximations and indexes that will query the store.
    level:
        Linearization level of the run code arrays (the fine level of §3's
        point linearization).
    attributes:
        Names of the per-point attribute columns every insert batch must
        carry (e.g. ``("fare", "passengers")``).
    memtable_capacity:
        Buffered entries that trigger an automatic flush (and, when
        ``auto_compact`` is on, a compaction check) during :meth:`insert`.
    compaction:
        The :class:`SizeTieredCompaction` policy; pass a policy with
        different knobs to tune merge frequency.
    auto_compact:
        Run the compaction policy after every flush.  Turn off to drive
        :meth:`flush` / :meth:`compact` manually (the parity suite does).
    incremental_compaction:
        Bound the automatic post-flush compaction to **one** merge (the
        smallest eligible tier) instead of looping until the policy is
        stable.  Remaining work is tracked as the ``compaction_debt_bytes``
        gauge and drained one merge per flush — flattening the p99 flush
        latency a stop-the-world merge cascade would cause.  Query results
        never depend on run layout, so this changes latency only.
    compaction_budget_bytes:
        Alternative bound: each automatic pass merges tiers until the next
        merge would push the pass's *input* bytes past the budget (the
        first merge always runs, so debt drains even when one tier exceeds
        the budget on its own).
    registry:
        Optional :class:`~repro.api.registry.IndexRegistry` shared with the
        serving layer.  Snapshots use it to cache the polygon index their
        ACT joins probe (one build across any number of joins over an
        unchanged store); the store invalidates it on every flush and
        compaction.  Created lazily when not provided.
    """

    def __init__(
        self,
        frame: GridFrame,
        level: int,
        attributes: tuple[str, ...] = (),
        memtable_capacity: int = 8192,
        compaction: SizeTieredCompaction | None = None,
        auto_compact: bool = True,
        incremental_compaction: bool = False,
        compaction_budget_bytes: int | None = None,
        registry=None,
    ) -> None:
        if level < 0:
            raise StoreError("linearization level must be non-negative")
        if memtable_capacity < 1:
            raise StoreError("memtable capacity must be at least 1")
        if compaction_budget_bytes is not None and compaction_budget_bytes < 1:
            raise StoreError("compaction byte budget must be positive")
        self.frame = frame
        self.level = int(level)
        self.attributes = tuple(attributes)
        self.memtable_capacity = int(memtable_capacity)
        self.compaction = compaction or SizeTieredCompaction()
        self.auto_compact = auto_compact
        self.incremental_compaction = bool(incremental_compaction)
        self.compaction_budget_bytes = (
            None if compaction_budget_bytes is None else int(compaction_budget_bytes)
        )
        self.stats = StoreStats()
        #: Write-ahead log attached by :meth:`create` / :meth:`open`; when
        #: set, every mutation is logged and fsynced before it is acked.
        self._wal: walog.WriteAheadLog | None = None
        self._directory: Path | None = None
        #: :class:`~repro.durable.wal.RecoveryReport` of the last replay.
        self.last_recovery: walog.RecoveryReport | None = None
        self._memtable = MemTable(self.attributes, first_id=0)
        self._runs: list[Run] = []
        # Sorted tombstone ids pointing into runs.  Replaced wholesale on
        # every delete/compaction (never mutated), so snapshots can hold it
        # by reference.
        self._deleted_ids = np.empty(0, dtype=np.int64)
        self._next_id = 0
        self._registry = registry
        # Guards the mutable state (memtable, run list, tombstones, id
        # sequence) so a serving layer can snapshot from reader threads while
        # one writer ingests.  Reentrant: insert -> flush -> compact nest.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(
        cls,
        points: PointSet,
        frame: GridFrame,
        level: int,
        **kwargs,
    ) -> "SpatialStore":
        """Bulk-load a store from an existing point set (one insert + flush).

        The resulting single-run store is exactly what any ingest history
        with the same live point set compacts down to — the parity suite
        uses this as its from-scratch oracle.
        """
        store = cls(frame, level, attributes=points.attribute_names, **kwargs)
        store.insert(points)
        store.flush()
        return store

    @classmethod
    def create(
        cls,
        directory,
        frame: GridFrame,
        level: int,
        sync: bool = True,
        **kwargs,
    ) -> "SpatialStore":
        """A new **durable** store rooted at ``directory``.

        Writes an empty checkpoint and attaches a write-ahead log: from now
        on every mutation is appended to ``directory/wal`` and fsynced
        before it is acked (``sync=False`` keeps the log but skips the
        fsync — crash-unsafe fast mode for bulk loads), so
        :meth:`open` on the same directory reconstructs the exact live
        state — memtable included — after any crash.
        """
        directory = Path(directory)
        if (directory / "manifest.json").exists():
            raise StoreError(f"a store already exists in {directory}")
        store = cls(frame, level, **kwargs)
        store._directory = directory
        store.save(directory)
        store._wal = walog.WriteAheadLog.create(directory / "wal", epoch=0, sync=sync)
        return store

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def insert(self, points: PointSet, ids: np.ndarray | None = None) -> np.ndarray:
        """Append a point batch; returns the assigned insertion ids.

        Ids are assigned sequentially and never reused; they are the handle
        :meth:`delete` takes and the global order every query merges by.

        ``ids`` lets an external sequencer (a
        :class:`~repro.shard.store.ShardedStore` routing one global id space
        across member stores) assign them instead: they must be strictly
        increasing and start at or after the store's next id, so ids stay
        unique and ascending within the store even though the local sequence
        gains gaps.
        """
        with self._lock:
            n = len(points)
            if ids is None:
                ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
            else:
                ids = np.asarray(ids, dtype=np.int64)
                if ids.shape[0] != n:
                    raise StoreError("explicit ids must match the batch length")
                if n and (ids[0] < self._next_id or (np.diff(ids) <= 0).any()):
                    raise StoreError(
                        "explicit ids must be strictly increasing and start at or "
                        f"after the next insertion id {self._next_id}"
                    )
            try:
                values = {name: points.attribute(name) for name in self.attributes}
            except Exception as exc:
                raise StoreError(
                    f"insert batch lacks a store attribute: {exc}"
                ) from exc
            # Log after validation (a rejected batch must leave no record),
            # apply, then group-commit: one fsync at the end of the public
            # call covers this record plus any capacity-triggered flush
            # record it caused.
            if self._wal is not None:
                self._wal.append(
                    walog.INSERT,
                    walog.encode_insert(
                        ids, points.xs, points.ys, [values[name] for name in self.attributes]
                    ),
                )
            self._memtable.append(ids, points.xs, points.ys, values)
            self._next_id = int(ids[-1]) + 1 if n else self._next_id
            self.stats.inserts += n
            if len(self._memtable) >= self.memtable_capacity:
                self.flush()
            if self._wal is not None:
                self._wal.commit()
            return ids

    def delete(self, ids) -> int:
        """Delete points by insertion id; returns newly recorded deletions.

        Buffered points are dropped in place (they never reach a run);
        flushed points get a tombstone that queries subtract immediately and
        the next compaction involving their run purges physically.  Unknown
        and already-deleted ids are ignored.
        """
        with self._lock:
            ids = np.asarray(ids, dtype=np.int64)
            if self._wal is not None:
                self._wal.append(walog.DELETE, walog.encode_delete(ids))
            newly = self._delete_locked(ids)
            if self._wal is not None:
                self._wal.commit()
            return newly

    def _delete_locked(self, ids: np.ndarray) -> int:
        ids = _sorted_unique(ids)
        ids = ids[(ids >= 0) & (ids < self._next_id)]
        if ids.shape[0] == 0:
            return 0
        local = ids[ids >= self._memtable.first_id]
        remote = ids[ids < self._memtable.first_id]
        newly = self._memtable.delete_local(local)
        if remote.shape[0]:
            # Only ids that still live in some run get a tombstone: an id
            # below the memtable tail that is in no run was already dropped
            # (deleted while buffered, or purged by a compaction), and a
            # phantom tombstone for it would be miscounted as a new deletion
            # and could never be consumed by any merge.
            present = np.zeros(remote.shape[0], dtype=bool)
            for run in self._runs:
                present |= isin_sorted(run.ids, remote)
                if present.all():
                    break
            remote = remote[present]
        if remote.shape[0]:
            before = self._deleted_ids.shape[0]
            # Both inputs are sorted and unique, so the union is one sort of
            # the concatenation plus a neighbour-comparison dedupe — cheaper
            # than np.union1d's generic unique on the ingest hot path.
            self._deleted_ids = _sorted_unique(
                np.concatenate([self._deleted_ids, remote])
            )
            newly += self._deleted_ids.shape[0] - before
        self.stats.deletes += newly
        return newly

    def flush(self) -> "Run | None":
        """Freeze the memtable into a sorted run (no-op when empty).

        With ``auto_compact`` on, the compaction policy runs afterwards —
        bounded to one merge / a byte budget per flush when
        ``incremental_compaction`` / ``compaction_budget_bytes`` is set.
        An actual flush (non-empty memtable) invalidates the attached index
        registry.  With a WAL attached, the flush record is logged first
        and the segment rotates afterwards, so a segment never spans a run
        boundary.
        """
        with self._lock:
            if self._wal is not None:
                self._wal.append(walog.FLUSH, b"")
            run = self._flush_locked()
            if self._wal is not None:
                self._wal.commit()
                self._wal.rotate()
            return run

    def _flush_locked(self) -> "Run | None":
        """The flush itself, WAL-free (shared by the public path and replay)."""
        ids, xs, ys, values = self._memtable.live_arrays()
        self._memtable.clear(next_first_id=self._next_id)
        run = None
        if ids.shape[0]:
            with trace.timed("store.flush", entries=int(ids.shape[0])) as flush_span:
                run = Run.build(self.frame, self.level, ids, xs, ys, values)
                self._runs = self._runs + [run]
            self.stats.flushes += 1
            self.stats.flushed_entries += len(run)
            self.stats.flush_seconds += flush_span.seconds
            _log.info(
                "store flush: entries=%d runs=%d seconds=%.6f",
                len(run), len(self._runs), flush_span.seconds,
            )
            self._invalidate_registry()
        if self.auto_compact:
            max_merges, byte_budget = self._auto_compact_limits()
            self._compact_locked(False, max_merges, byte_budget)
        else:
            self.stats.compaction_debt_bytes = self._debt_locked()
        return run

    def _auto_compact_limits(self) -> "tuple[int | None, int | None]":
        if self.compaction_budget_bytes is not None:
            return None, self.compaction_budget_bytes
        if self.incremental_compaction:
            return 1, None
        return None, None

    def compact(
        self,
        full: bool = False,
        max_merges: int | None = None,
        byte_budget: int | None = None,
    ) -> int:
        """Merge runs per the size-tiered policy; returns merges performed.

        ``full`` consolidates everything into a single run regardless of the
        policy (and purges every tombstone).  ``max_merges`` /
        ``byte_budget`` bound one incremental pass: stop after that many
        merges, or before a merge that would push the pass's cumulative
        input bytes past the budget (the first merge always runs).  Merging
        feeds the surviving entries back through :meth:`Run.build`, so the
        consolidated arrays are bit-identical to a from-scratch build over
        the same live points — bounded passes change *when* merges happen,
        never what queries answer.
        """
        with self._lock:
            if self._wal is not None:
                self._wal.append(
                    walog.COMPACT, walog.encode_compact(full, max_merges, byte_budget)
                )
            merges = self._compact_locked(full, max_merges, byte_budget)
            if self._wal is not None:
                self._wal.commit()
            return merges

    def _compact_locked(
        self,
        full: bool,
        max_merges: int | None = None,
        byte_budget: int | None = None,
    ) -> int:
        with trace.timed("store.compact", full=full) as compact_span:
            merges = self._compact_loop(full, max_merges, byte_budget)
            self.stats.compaction_debt_bytes = self._debt_locked()
            compact_span.annotate(
                merges=merges, debt_bytes=self.stats.compaction_debt_bytes
            )
        if merges:
            self.stats.compaction_seconds += compact_span.seconds
            _log.info(
                "store compaction: merges=%d runs=%d tombstones=%d debt=%d seconds=%.6f",
                merges, len(self._runs), int(self._deleted_ids.shape[0]),
                self.stats.compaction_debt_bytes, compact_span.seconds,
            )
        return merges

    def _compact_loop(
        self, full: bool, max_merges: int | None, byte_budget: int | None
    ) -> int:
        merges = 0
        spent = 0
        while True:
            if max_merges is not None and merges >= max_merges:
                break
            if full:
                if len(self._runs) > 1:
                    positions = list(range(len(self._runs)))
                elif len(self._runs) == 1 and self._deleted_ids.shape[0]:
                    # A lone run still gets rewritten when tombstones point
                    # into it — full compaction guarantees a dead-entry-free
                    # store.
                    positions = [0]
                else:
                    positions = None
                full = False  # one full pass, then stop
            else:
                positions = self.compaction.select(self._runs)
            if positions is None:
                break
            cost = sum(self._runs[pos].memory_bytes() for pos in positions)
            if byte_budget is not None and merges and spent + cost > byte_budget:
                break
            merges += 1
            spent += cost
            self._merge_runs(positions)
        if merges:
            self._invalidate_registry()
        return merges

    def compaction_debt(self) -> int:
        """Bytes of runs the policy would still merge if run to completion.

        Zero for a policy-stable store; incremental compaction drains it
        one bounded pass per flush.  (Also kept fresh on
        ``stats.compaction_debt_bytes`` after every flush/compaction.)
        """
        with self._lock:
            return self._debt_locked()

    def _debt_locked(self) -> int:
        # Simulate the policy to stability over (entry count, byte) pairs —
        # no arrays are touched, so this is O(merges * runs) bookkeeping.
        sizes = [len(run) for run in self._runs]
        nbytes = [run.memory_bytes() for run in self._runs]
        debt = 0
        while True:
            positions = self.compaction.select_sizes(sizes)
            if positions is None:
                return debt
            chosen = set(positions)
            debt += sum(nbytes[pos] for pos in positions)
            merged_size = sum(sizes[pos] for pos in positions)
            merged_bytes = sum(nbytes[pos] for pos in positions)
            sizes = [s for pos, s in enumerate(sizes) if pos not in chosen] + [merged_size]
            nbytes = [b for pos, b in enumerate(nbytes) if pos not in chosen] + [merged_bytes]

    def _merge_runs(self, positions: "list[int]") -> None:
        # Merge in ascending first-id order: when the inputs' id ranges do
        # not interleave (the common case — consecutive flushes), the
        # concatenated rows are already id-sorted and Run.build skips its
        # canonicalising argsort entirely.
        chosen = sorted(
            (self._runs[pos] for pos in positions),
            key=lambda run: int(run.ids[0]) if len(run) else -1,
        )
        masks = [run.live_mask(self._deleted_ids) for run in chosen]
        merged = Run.merge(chosen, masks)

        # Tombstones pointing into the merged runs are now physically purged
        # (an id lives in exactly one segment, so they cannot match anywhere
        # else); drop them from the global set.
        consumed = np.concatenate(
            [run.ids[~mask] for run, mask in zip(chosen, masks)]
            or [np.empty(0, dtype=np.int64)]
        )
        if consumed.shape[0]:
            consumed.sort()
            self._deleted_ids = self._deleted_ids[
                ~isin_sorted(consumed, self._deleted_ids)
            ]
            self.stats.purged_tombstones += int(consumed.shape[0])

        position_set = set(positions)
        new_runs = [run for pos, run in enumerate(self._runs) if pos not in position_set]
        if len(merged):
            # A merge whose inputs were entirely tombstoned produces nothing;
            # keeping a zero-length run would misreport num_runs and make
            # every snapshot iterate a dead segment.
            new_runs.insert(min(positions), merged)
        self._runs = new_runs
        self.stats.compactions += 1
        self.stats.compacted_entries += sum(len(run) for run in chosen)

    # ------------------------------------------------------------------ #
    # index registry
    # ------------------------------------------------------------------ #
    @property
    def registry(self):
        """The attached :class:`~repro.api.registry.IndexRegistry` (lazy).

        Snapshots cache the polygon index of their ACT joins here, so a
        serving workload builds it once per store state instead of once per
        query; flush and compaction invalidate it.
        """
        if self._registry is None:
            # Imported lazily: repro.api imports the store (for the
            # facade's isinstance dispatch), so a module-level import here
            # would be circular.
            from repro.api.registry import IndexRegistry

            self._registry = IndexRegistry()
        return self._registry

    def attach_registry(self, registry) -> None:
        """Share an external registry (e.g. a dataset's) with this store."""
        self._registry = registry

    def _invalidate_registry(self) -> None:
        # Flush/compaction change the *point* state only — polygon-suite
        # indexes (ACT, shape index) are functions of the regions and frame
        # alone, so only point-scoped registry entries are dropped.
        if self._registry is not None:
            self._registry.invalidate(scope="points")

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def snapshot(self) -> StoreSnapshot:
        """A stable read view of the current state.

        Runs and the tombstone array are immutable and captured by
        reference; the memtable tail is consolidated into fresh arrays.  The
        snapshot keeps answering from this exact state no matter how much
        the store ingests, flushes or compacts afterwards.
        """
        with self._lock:
            mem_ids, mem_xs, mem_ys, mem_values = self._memtable.live_arrays()
            return StoreSnapshot(
                self.frame,
                self.level,
                tuple(self._runs),
                self._deleted_ids,
                mem_ids,
                mem_xs,
                mem_ys,
                mem_values,
                registry=self.registry,
            )

    # Convenience: run each query path against a fresh snapshot.
    def count_in_ranges(self, ranges) -> int:
        return self.snapshot().count_in_ranges(ranges)

    def raster_count(self, region, cells_per_polygon, **kwargs) -> int:
        return self.snapshot().raster_count(region, cells_per_polygon, **kwargs)

    def act_join(self, regions, **kwargs):
        return self.snapshot().act_join(regions, **kwargs)

    def estimate_count_range(self, region, epsilon):
        return self.snapshot().estimate_count_range(region, epsilon)

    def live_points(self) -> PointSet:
        return self.snapshot().live_points()

    def rebuilt(self, **kwargs) -> "SpatialStore":
        """A from-scratch store over the current live point set (the oracle)."""
        return SpatialStore.from_points(
            self.live_points(), self.frame, self.level, **kwargs
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    #: Manifest schema version written by :meth:`save`.
    MANIFEST_VERSION = 1

    def save(self, directory=None) -> Path:
        """Checkpoint the store into ``directory``; returns the path.

        The memtable is flushed first, so the persisted state is exactly
        runs + tombstones: every run goes to one ``.npz`` file (the
        :meth:`Run.save` round trip) and a JSON manifest records the run
        list, the frame, the next insertion id, the tombstone ids and the
        store configuration.

        The layout is crash-safe: run files carry a per-checkpoint
        generation prefix and are individually fsynced; the manifest is
        written to a tmp file, fsynced, swapped in with ``os.replace`` and
        the parent directory fsynced on both sides of the swap — only then
        is the checkpoint durable.  A crash mid-save leaves the previous
        manifest pointing at its own intact generation; orphaned run files
        of the aborted generation are garbage-collected by the next
        :meth:`open` (and the next successful save).

        A durable store (one with a WAL) defaults ``directory`` to its own
        root and, once the new manifest is durable, truncates the log and
        advances the WAL epoch — the record of everything the checkpoint
        now contains.  Saving a durable store *elsewhere* writes a plain
        checkpoint copy and leaves the WAL untouched.
        """
        with self._lock:
            if directory is None:
                if self._directory is None:
                    raise StoreError("save() needs a directory for a non-durable store")
                directory = self._directory
            directory = Path(directory)
            truncate_wal = self._wal is not None and directory == self._directory
            self.flush()
            directory.mkdir(parents=True, exist_ok=True)
            manifest_path = directory / "manifest.json"
            generation = 0
            if manifest_path.exists():
                try:
                    generation = (
                        int(json.loads(manifest_path.read_text()).get("generation", 0)) + 1
                    )
                except (ValueError, json.JSONDecodeError):
                    generation = 1

            run_files = []
            for pos, run in enumerate(self._runs):
                name = f"gen{generation:05d}_run{pos:05d}.npz"
                run.save(directory / name)
                faults.fsync_path(directory / name)
                run_files.append(name)
            manifest = {
                "format_version": self.MANIFEST_VERSION,
                "generation": generation,
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
                    "min_runs": self.compaction.min_runs,
                    "tier_base": self.compaction.tier_base,
                },
                "runs": run_files,
                "tombstones": [int(i) for i in self._deleted_ids],
                # The WAL epoch whose records post-date this checkpoint.
                # Replay filters segments by it, so an older epoch's
                # stragglers (or a checkpoint that never became durable)
                # can never double-apply.
                "wal_epoch": self._wal.epoch + 1 if truncate_wal else 0,
            }
            tmp_path = directory / "manifest.json.tmp"
            with open(tmp_path, "w") as handle:
                handle.write(json.dumps(manifest, indent=2))
                handle.flush()
                faults.fsync_fileno(handle.fileno())
            faults.fsync_dir(directory)
            faults.replace(tmp_path, manifest_path)
            faults.fsync_dir(directory)

            # The new manifest is durable: drop the log it subsumes and
            # prune run files of previous generations.
            if truncate_wal:
                self._wal.truncate()
            keep = set(run_files)
            for stale in directory.glob("gen*_run*.npz"):
                if stale.name not in keep:
                    stale.unlink()
            return directory

    @classmethod
    def open(
        cls,
        directory,
        registry=None,
        durable: bool | None = None,
        sync: bool = True,
        _replay_limit=None,
    ) -> "SpatialStore":
        """Restore a store checkpointed with :meth:`save`.

        Runs come back bit-identical (the ``.npz`` round trip), insertion
        ids continue after the persisted ``next_id``, and tombstones are
        restored.  When the directory has a write-ahead log (or
        ``durable=True`` asks for one), every logged mutation since the
        checkpoint is replayed through the same code paths that produced
        it — the recovered store, memtable included, answers every query
        exactly like the pre-crash one — and the WAL stays attached for
        further mutations.  ``_replay_limit`` is the sharded commit-log cut
        (see :class:`~repro.durable.wal.CommitLog`).  Lifetime ``stats``
        counters restart at zero — they describe a process, not the data.
        """
        directory = Path(directory)
        manifest_path = directory / "manifest.json"
        if not manifest_path.exists():
            raise StoreError(f"no store manifest in {directory}")
        manifest = json.loads(manifest_path.read_text())
        version = int(manifest.get("format_version", -1))
        if version != cls.MANIFEST_VERSION:
            raise StoreError(
                f"unsupported store manifest version {version} "
                f"(this build reads version {cls.MANIFEST_VERSION})"
            )
        frame = GridFrame.from_raw(
            manifest["frame"]["origin_x"],
            manifest["frame"]["origin_y"],
            manifest["frame"]["size"],
        )
        compaction = SizeTieredCompaction(
            min_runs=int(manifest["compaction"]["min_runs"]),
            tier_base=float(manifest["compaction"]["tier_base"]),
        )
        store = cls(
            frame,
            int(manifest["level"]),
            attributes=tuple(manifest["attributes"]),
            memtable_capacity=int(manifest["memtable_capacity"]),
            compaction=compaction,
            auto_compact=bool(manifest["auto_compact"]),
            incremental_compaction=bool(manifest.get("incremental_compaction", False)),
            compaction_budget_bytes=manifest.get("compaction_budget_bytes"),
            registry=registry,
        )
        store._directory = directory
        # A crashed save can leave run files of an aborted generation (and
        # a stale manifest tmp) behind; the manifest names everything that
        # is live, so the rest is garbage.
        keep = set(manifest["runs"])
        for stale in directory.glob("gen*_run*.npz"):
            if stale.name not in keep:
                _log.info("pruning orphaned run file from a crashed save: %s", stale.name)
                stale.unlink()
        stale_tmp = directory / "manifest.json.tmp"
        if stale_tmp.exists():
            stale_tmp.unlink()
        store._runs = [Run.load(directory / name) for name in manifest["runs"]]
        store._deleted_ids = np.asarray(manifest["tombstones"], dtype=np.int64)
        store._next_id = int(manifest["next_id"])
        store._memtable.clear(next_first_id=store._next_id)

        wal_dir = directory / "wal"
        if durable is None:
            durable = wal_dir.exists()
        if durable:
            with trace.timed("store.recover") as recover_span:
                wal, scan = walog.WriteAheadLog.open(
                    wal_dir,
                    epoch=int(manifest.get("wal_epoch", 0)),
                    sync=sync,
                    limit=_replay_limit,
                )
                report = store._replay(scan)
            report.seconds = recover_span.seconds
            recover_span.annotate(records=report.records, torn=report.torn)
            store._wal = wal
            store.last_recovery = report
            if report.records:
                _log.info(
                    "store recovery: records=%d inserts=%d deletes=%d flushes=%d "
                    "torn=%d rolled_back=%d seconds=%.6f",
                    report.records, report.inserts, report.deletes, report.flushes,
                    report.torn, report.rolled_back, report.seconds,
                )
        return store

    def _replay(self, scan: "walog.WalScan") -> "walog.RecoveryReport":
        """Re-apply logged mutations through the WAL-free internal paths.

        Inserts land in the memtable with their original explicit ids and
        **no** capacity check — flush boundaries come from the logged FLUSH
        records (capacity-triggered flushes logged one too), so the replay
        reproduces the exact run layout, memtable tail and tombstone set of
        the pre-crash store.
        """
        report = walog.RecoveryReport(
            segments=scan.segments, torn=scan.torn, rolled_back=scan.rolled_back
        )
        for rtype, payload in scan.records:
            report.records += 1
            if rtype == walog.INSERT:
                ids, xs, ys, columns = walog.decode_insert(payload)
                if len(columns) != len(self.attributes):
                    raise WalError(
                        f"insert record carries {len(columns)} attribute columns; "
                        f"the store schema has {len(self.attributes)}"
                    )
                values = dict(zip(self.attributes, columns))
                self._memtable.append(ids, xs, ys, values)
                if ids.shape[0]:
                    self._next_id = int(ids[-1]) + 1
                self.stats.inserts += int(ids.shape[0])
                report.inserts += 1
                report.inserted_points += int(ids.shape[0])
            elif rtype == walog.DELETE:
                self._delete_locked(walog.decode_delete(payload))
                report.deletes += 1
            elif rtype == walog.FLUSH:
                self._flush_locked()
                report.flushes += 1
            elif rtype == walog.COMPACT:
                full, max_merges, byte_budget = walog.decode_compact(payload)
                self._compact_locked(full, max_merges, byte_budget)
                report.compactions += 1
            else:
                raise WalError(f"unexpected record type {rtype} in a store WAL")
        return report

    def close(self) -> None:
        """Flush the WAL to disk and release its file handle (if attached)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()

    @property
    def wal(self) -> "walog.WriteAheadLog | None":
        """The attached write-ahead log (``None`` for a non-durable store)."""
        return self._wal

    @property
    def directory(self) -> "Path | None":
        return self._directory

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_live(self) -> int:
        with self._lock:
            total = self._memtable.num_live
            for run in self._runs:
                total += int(np.count_nonzero(run.live_mask(self._deleted_ids)))
            return total

    @property
    def num_runs(self) -> int:
        return len(self._runs)

    @property
    def num_tombstones(self) -> int:
        return int(self._deleted_ids.shape[0])

    @property
    def memtable_size(self) -> int:
        return len(self._memtable)

    def memory_bytes(self) -> int:
        total = self._memtable.memory_bytes() + int(self._deleted_ids.nbytes)
        for run in self._runs:
            total += run.memory_bytes()
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SpatialStore(live={self.num_live}, runs={self.num_runs}, "
            f"memtable={self.memtable_size}, tombstones={self.num_tombstones})"
        )
