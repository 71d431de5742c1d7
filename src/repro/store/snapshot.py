"""Stable read views over the updatable store.

A :class:`StoreSnapshot` freezes one consistent state of the store — the run
list, the tombstone set and a consolidated copy of the live memtable buffer —
and serves every query path against it.  Snapshots are cheap (runs and the
tombstone array are immutable, so they are captured by reference; only the
small memtable tail is copied) and remain valid while the store keeps
ingesting, flushing and compacting underneath.

Every query fans out across the segments (memtable + runs) through the
batch probe kernels and merges the partial results with the fused
``np.add.at`` / ``np.bincount`` aggregation:

* :meth:`count_in_ranges` / :meth:`raster_count` — each run answers through
  its sorted code array (minus an exact tombstone correction), the memtable
  through a code array encoded on the fly; integer partial counts sum
  exactly.
* :meth:`act_join` — each segment's points probe the ACT index through
  its ``lookup_points_batch``; the match pairs are tagged with
  global insertion ids, merged into ascending-id order and aggregated with
  one unbuffered scatter-add.  Because the pair sequence equals the one a
  single probe over the live point set (in insertion order) produces, the
  float aggregates are **bit-identical** to a from-scratch rebuild — the
  store's core correctness contract.
* :meth:`estimate_count_range` — the uniform-raster coverage counts are
  integers per segment and sum exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import PointSet
from repro.index.sorted_array import SortedCodeArray
from repro.obs import trace
from repro.query.engine import count_ranges
from repro.query.join_mm import JoinResult
from repro.query.range_estimation import coverage_counts, range_from_counts
from repro.query.spec import AggregationQuery
from repro.store.run import Run, encode_points_at

__all__ = ["StoreSnapshot"]


class StoreSnapshot:
    """One frozen, queryable state of a :class:`~repro.store.store.SpatialStore`."""

    __slots__ = (
        "frame",
        "level",
        "runs",
        "deleted_ids",
        "mem_ids",
        "mem_xs",
        "mem_ys",
        "mem_values",
        "_mem_index",
        "_run_live",
        "_run_dead_positions",
        "_segment_cache",
        "_registry",
    )

    def __init__(
        self,
        frame,
        level: int,
        runs: tuple[Run, ...],
        deleted_ids: np.ndarray,
        mem_ids: np.ndarray,
        mem_xs: np.ndarray,
        mem_ys: np.ndarray,
        mem_values: dict[str, np.ndarray],
        registry=None,
    ) -> None:
        self.frame = frame
        self.level = level
        self.runs = runs
        self.deleted_ids = deleted_ids
        self.mem_ids = mem_ids
        self.mem_xs = mem_xs
        self.mem_ys = mem_ys
        self.mem_values = mem_values
        self._mem_index: SortedCodeArray | None = None
        self._run_live: dict[int, np.ndarray] = {}
        self._run_dead_positions: dict[int, np.ndarray] = {}
        self._segment_cache = None
        # Optional IndexRegistry (shared with the owning store / a dataset):
        # act_join fetches its polygon index through it instead of building
        # one per call.
        self._registry = registry

    # ------------------------------------------------------------------ #
    # segment plumbing
    # ------------------------------------------------------------------ #
    def _live_mask(self, run_pos: int) -> np.ndarray:
        """Cached tombstone-survivor mask of one run."""
        mask = self._run_live.get(run_pos)
        if mask is None:
            mask = self.runs[run_pos].live_mask(self.deleted_ids)
            self._run_live[run_pos] = mask
        return mask

    def _dead_positions(self, run_pos: int) -> np.ndarray:
        """Sorted positions of tombstoned entries in a run's sorted code view."""
        dead = self._run_dead_positions.get(run_pos)
        if dead is None:
            dead = self.runs[run_pos].dead_code_positions(self._live_mask(run_pos))
            self._run_dead_positions[run_pos] = dead
        return dead

    def _memtable_index(self) -> SortedCodeArray | None:
        """Code index over the snapshot's in-frame memtable points (cached)."""
        if self._mem_index is None:
            if self.mem_ids.shape[0] == 0:
                return None
            in_frame = self.frame.contains_points(self.mem_xs, self.mem_ys)
            codes = encode_points_at(
                self.frame, self.level, self.mem_xs[in_frame], self.mem_ys[in_frame]
            )
            self._mem_index = SortedCodeArray(np.sort(codes), assume_sorted=True)
        return self._mem_index

    def _segments(
        self,
    ) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]]":
        """Live ``(ids, xs, ys, values)`` arrays of every segment, runs first.

        Cached: a snapshot is a serving handle that typically answers many
        queries, and the tombstone-filtered gathers are O(live points).
        """
        if self._segment_cache is not None:
            return self._segment_cache
        segments = []
        for pos, run in enumerate(self.runs):
            mask = self._live_mask(pos)
            if not mask.any():
                continue
            segments.append(
                (
                    run.ids[mask],
                    run.xs[mask],
                    run.ys[mask],
                    {name: col[mask] for name, col in run.values.items()},
                )
            )
        if self.mem_ids.shape[0]:
            segments.append((self.mem_ids, self.mem_xs, self.mem_ys, self.mem_values))
        self._segment_cache = segments
        return segments

    # ------------------------------------------------------------------ #
    # point-set views
    # ------------------------------------------------------------------ #
    @property
    def num_live(self) -> int:
        """Number of live points visible to this snapshot."""
        total = int(self.mem_ids.shape[0])
        for pos in range(len(self.runs)):
            total += int(np.count_nonzero(self._live_mask(pos)))
        return total

    def live_ids(self) -> np.ndarray:
        """Sorted insertion ids of every live point."""
        chunks = [run.ids[self._live_mask(pos)] for pos, run in enumerate(self.runs)]
        chunks.append(self.mem_ids)
        return np.sort(np.concatenate(chunks))

    def live_points(self) -> PointSet:
        """The live point set in ascending insertion-id order.

        This is the canonical point order of the store: a from-scratch
        rebuild ingests exactly this set in exactly this order, which is why
        every snapshot query is bit-identical to the rebuild.
        """
        segments = self._segments()
        if not segments:
            return PointSet(
                np.empty(0), np.empty(0), {name: np.empty(0) for name in self.mem_values}
            )
        ids = np.concatenate([seg[0] for seg in segments])
        xs = np.concatenate([seg[1] for seg in segments])
        ys = np.concatenate([seg[2] for seg in segments])
        order = np.argsort(ids, kind="stable")
        values = {
            name: np.concatenate([seg[3][name] for seg in segments])[order]
            for name in self.mem_values
        }
        return PointSet(xs[order], ys[order], values)

    # ------------------------------------------------------------------ #
    # query paths
    # ------------------------------------------------------------------ #
    def count_in_ranges(self, ranges) -> int:
        """Total live points whose cell code falls in the ``[lo, hi)`` ranges.

        Each run is probed through the batch range-count kernel over its
        immutable sorted code array; tombstoned entries are subtracted
        with an exact positional correction (two binary searches over the
        run's dead positions per range).  The memtable contributes through a
        code array encoded at query time.  All partials are integers, so the
        fan-out sums to exactly the count a single consolidated code array
        would report.
        """
        total = 0
        for pos, run in enumerate(self.runs):
            total += count_ranges(run.index, ranges)
            total -= self._dead_in_ranges(pos, ranges)
        mem_index = self._memtable_index()
        if mem_index is not None:
            total += count_ranges(mem_index, ranges)
        return int(total)

    def _dead_in_ranges(self, run_pos: int, ranges) -> int:
        """Tombstoned entries of one run inside the query ranges."""
        dead_pos = self._dead_positions(run_pos)
        if dead_pos.shape[0] == 0:
            return 0
        ranges_arr = np.asarray(ranges, dtype=np.uint64).reshape(-1, 2)
        codes = self.runs[run_pos].codes
        los = np.searchsorted(codes, ranges_arr[:, 0], side="left")
        his = np.searchsorted(codes, ranges_arr[:, 1], side="left")
        return int(
            (np.searchsorted(dead_pos, his) - np.searchsorted(dead_pos, los)).sum()
        )

    def raster_count(
        self,
        region,
        cells_per_polygon: int,
        conservative: bool = True,
    ) -> int:
        """Approximate count of live points in ``region`` via query cells.

        The polygon decomposes into key ranges at the store's linearization
        level exactly as in :func:`repro.query.containment.raster_count`;
        the ranges then hit every segment through :meth:`count_in_ranges`.
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

    def act_join(
        self,
        regions,
        epsilon: float = 4.0,
        query: AggregationQuery | None = None,
        trie=None,
    ) -> JoinResult:
        """Approximate ACT aggregation join over the snapshot's live points.

        The probe phase fans out: every segment probes the polygon index in
        one batch, tagging matches with global insertion ids.  The pairs are
        then merged into ascending-id order and aggregated with one
        unbuffered ``np.add.at`` — the same additions, in the same order, as
        one probe pass over :meth:`live_points`, so the aggregates match a
        from-scratch rebuild bit for bit.

        When no prebuilt ``trie`` is passed, the polygon index comes from
        the snapshot's :class:`~repro.api.registry.IndexRegistry` (shared
        with the owning store): one build serves every join over an
        unchanged store, and the store invalidates the cache on flush /
        compaction.
        """
        from repro.index.flat_act import FlatACT

        query = query or AggregationQuery()

        with trace.timed("snapshot.build", runs=len(self.runs)) as build_span:
            registry_hit = False
            if trie is None:
                if self._registry is not None:
                    misses_before = self._registry.stats.misses
                    trie = self._registry.act_index(regions, self.frame, epsilon=epsilon)
                    registry_hit = self._registry.stats.misses == misses_before
                else:
                    trie = FlatACT.build(regions, self.frame, epsilon)
            index_memory = trie.memory_bytes()
            flat = trie.flattened()
            if flat is not trie:
                index_memory += flat.memory_bytes()
        build_seconds = build_span.seconds

        with trace.timed("snapshot.probe", runs=len(self.runs)) as probe_phase:
            num_regions = len(regions)
            id_chunks: list[np.ndarray] = []
            pid_chunks: list[np.ndarray] = []
            val_chunks: list[np.ndarray] = []
            probes = 0
            for segment_pos, (ids, xs, ys, values) in enumerate(self._segments()):
                with trace.span("segment.probe", segment=segment_pos):
                    points = PointSet(xs, ys, values)
                    if query.point_filter is not None:
                        mask = np.asarray(query.point_filter(points), dtype=bool)
                        if mask.shape[0] != len(points):
                            raise QueryError(
                                "point_filter must return one boolean per point"
                            )
                        points = points.select(mask)
                        ids = ids[mask]
                    vals = query.values(points)
                    offsets, pids = trie.lookup_points_batch(points.xs, points.ys)
                    probes += len(points)
                    if pids.shape[0] == 0:
                        continue
                    point_idx = np.repeat(
                        np.arange(len(points), dtype=np.int64), np.diff(offsets)
                    )
                    id_chunks.append(ids[point_idx])
                    pid_chunks.append(pids)
                    val_chunks.append(vals[point_idx])

            with trace.span("snapshot.scatter"):
                sums = np.zeros(num_regions, dtype=np.float64)
                counts = np.zeros(num_regions, dtype=np.int64)
                if pid_chunks:
                    pair_ids = np.concatenate(id_chunks)
                    pair_pids = np.concatenate(pid_chunks)
                    pair_vals = np.concatenate(val_chunks)
                    # Merge the per-segment pair streams into ascending
                    # insertion-id order (stable, so each point's
                    # coarse-to-fine match order survives); the scatter-add
                    # then replays the exact addition sequence of a
                    # single-probe pass over the live point set.
                    order = np.argsort(pair_ids, kind="stable")
                    pair_pids = pair_pids[order]
                    np.add.at(sums, pair_pids, pair_vals[order])
                    counts = np.bincount(pair_pids, minlength=num_regions).astype(
                        np.int64
                    )
        probe_seconds = probe_phase.seconds

        return JoinResult(
            aggregates=query.finalize(sums, counts),
            counts=counts,
            pip_tests=0,
            index_probes=probes,
            build_seconds=build_seconds,
            probe_seconds=probe_seconds,
            index_memory_bytes=index_memory,
            extra={
                "num_cells": trie.num_cells,
                "epsilon": epsilon,
                "num_runs": len(self.runs),
                "memtable_points": int(self.mem_ids.shape[0]),
                "registry_hit": registry_hit,
            },
        )

    def estimate_count_range(self, region, epsilon: float):
        """Certain result interval for the COUNT of live points in ``region``.

        One conservative uniform-raster approximation is built per query; the
        coverage counts fan out over the segments and sum exactly (they are
        integers over disjoint point subsets).
        """
        from repro.approx.uniform_raster import UniformRasterApproximation

        if epsilon <= 0:
            raise QueryError("epsilon must be positive")
        approx = UniformRasterApproximation(region, epsilon=epsilon, conservative=True)
        alpha = 0
        beta = 0
        for _, xs, ys, _ in self._segments():
            a, b = coverage_counts(approx, xs, ys)
            alpha += a
            beta += b
        return range_from_counts(float(alpha), float(beta))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StoreSnapshot(runs={len(self.runs)}, memtable={self.mem_ids.shape[0]}, "
            f"tombstones={self.deleted_ids.shape[0]})"
        )
