"""Exact merge of per-shard partial results (the "gather" half).

Every sharded query path follows the same shape: route (done at ingest or
partition time), probe each shard independently, merge the partials
**exactly**.  The merge rules per path:

* **ACT join** — each shard's match pairs are tagged with global point ids;
  the pair streams are merged into ascending-id order with one stable
  argsort and aggregated with one unbuffered ``np.add.at``.  That replays
  the exact addition sequence of a single probe pass over the unsharded
  point set, so float aggregates are bit-identical to the unsharded
  kernels — the same discipline :meth:`repro.store.snapshot.StoreSnapshot.act_join`
  uses to merge its memtable and run segments.
* **Raster count / range estimation** — the per-shard partials are integer
  counts over disjoint point subsets, so plain summation is exact; the
  query-side artefact (key ranges, uniform-raster approximation) is built
  **once** and shared by every shard so no shard can disagree about the
  query geometry.

Every shard is probed in-process, in shard order, against the one resolved
index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import PointSet
from repro.obs import trace
from repro.query.join_mm import JoinResult
from repro.query.range_estimation import coverage_counts, range_from_counts
from repro.query.spec import AggregationQuery

__all__ = [
    "ShardSegment",
    "sharded_act_join",
    "sharded_estimate_count_range",
]


class ShardSegment:
    """One probe-ready point block of a shard: global ids + coordinates."""

    __slots__ = ("ids", "xs", "ys", "values")

    def __init__(self, ids, xs, ys, values) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.values = values

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def _filtered(segment: ShardSegment, query: AggregationQuery):
    """Apply the query's point filter and value selection to one segment."""
    points = PointSet(segment.xs, segment.ys, segment.values)
    ids = segment.ids
    if query.point_filter is not None:
        mask = np.asarray(query.point_filter(points), dtype=bool)
        if mask.shape[0] != len(points):
            raise QueryError("point_filter must return one boolean per point")
        points = points.select(mask)
        ids = ids[mask]
    return ids, points, query.values(points)


def sharded_act_join(
    shard_segments,
    regions,
    frame,
    epsilon: float = 4.0,
    query: AggregationQuery | None = None,
    trie=None,
    registry=None,
) -> JoinResult:
    """ACT aggregation join over sharded points, bit-identical to unsharded.

    ``shard_segments`` is one list of :class:`ShardSegment` per shard (a
    static shard has one segment; a store shard has one per run plus the
    memtable).  The index is resolved once — prebuilt ``trie``, then
    ``registry``, then a fresh build — and probed per segment; pairs merge
    on global ids as described in the module docstring.
    """
    from repro.index.flat_act import FlatACT

    query = query or AggregationQuery()

    with trace.timed("gather.build", shards=len(shard_segments)) as build_span:
        registry_hit = False
        if trie is None:
            if registry is not None:
                misses_before = registry.stats.misses
                trie = registry.act_index(regions, frame, epsilon=epsilon)
                registry_hit = registry.stats.misses == misses_before
            else:
                trie = FlatACT.build(regions, frame, epsilon)
        index_memory = trie.memory_bytes()
        flat = trie.flattened()
        if flat is not trie:
            index_memory += flat.memory_bytes()
    build_seconds = build_span.seconds

    with trace.timed("gather.probe", shards=len(shard_segments)) as probe_phase:
        # Segment order within a shard and point order within a segment are
        # preserved, so the global-id merge below sees the same pair stream
        # as an unsharded probe.
        filtered = [
            [_filtered(seg, query) for seg in segments] for segments in shard_segments
        ]

        num_regions = len(regions)
        id_chunks: list[np.ndarray] = []
        pid_chunks: list[np.ndarray] = []
        val_chunks: list[np.ndarray] = []
        probes = 0
        shard_seconds = []
        for shard, segments in enumerate(filtered):
            with trace.timed("shard.probe", shard=shard) as shard_span:
                for ids, points, vals in segments:
                    probes += len(points)
                    if len(points) == 0:
                        continue
                    offsets, pids = trie.lookup_points_batch(points.xs, points.ys)
                    if pids.shape[0] == 0:
                        continue
                    point_idx = np.repeat(
                        np.arange(len(points), dtype=np.int64), np.diff(offsets)
                    )
                    id_chunks.append(ids[point_idx])
                    pid_chunks.append(pids)
                    val_chunks.append(vals[point_idx])
            shard_seconds.append(shard_span.seconds)

        with trace.span("gather.scatter", pairs=int(sum(c.shape[0] for c in pid_chunks))):
            sums = np.zeros(num_regions, dtype=np.float64)
            counts = np.zeros(num_regions, dtype=np.int64)
            if pid_chunks:
                pair_ids = np.concatenate(id_chunks)
                pair_pids = np.concatenate(pid_chunks)
                pair_vals = np.concatenate(val_chunks)
                # Stable merge into ascending global-id order: each point's
                # coarse-to-fine match order survives, and the scatter-add
                # replays the exact addition sequence of the unsharded kernel.
                order = np.argsort(pair_ids, kind="stable")
                pair_pids = pair_pids[order]
                np.add.at(sums, pair_pids, pair_vals[order])
                counts = np.bincount(pair_pids, minlength=num_regions).astype(np.int64)
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
            "shards": len(shard_segments),
            "shard_seconds": shard_seconds,
            "registry_hit": registry_hit,
        },
    )


def sharded_estimate_count_range(shard_coords, region, epsilon: float):
    """Certain COUNT interval over sharded points.

    One conservative uniform-raster approximation serves every shard; the
    per-shard ``(alpha, beta)`` coverage counts are integers over disjoint
    subsets and sum exactly, so the interval equals the unsharded one.
    """
    from repro.approx.uniform_raster import UniformRasterApproximation

    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    approx = UniformRasterApproximation(region, epsilon=epsilon, conservative=True)
    alpha = 0
    beta = 0
    for xs, ys in shard_coords:
        a, b = coverage_counts(approx, xs, ys)
        alpha += a
        beta += b
    return range_from_counts(float(alpha), float(beta))
