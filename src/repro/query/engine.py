"""Batch probe kernels: the probe phase of every query strategy.

Every query strategy in this library boils down to the same probe phase —
"for each point, which indexed regions match?" followed by a fused
aggregation.  The functions here run that phase for all points at once
through the batch index APIs (:meth:`FlatACT.lookup_points`,
:meth:`RStarTree.query_points`, :meth:`ShapeIndex.query_points`,
:meth:`CodeIndex.count_ranges_batch`) and fuse the aggregation over the CSR
match lists with ``np.add.at`` / ``np.bincount``.

The per-point index-nested loops these kernels replaced are kept as the test
oracle (``tests/oracles/probe_loop.py``), and the kernels reproduce its
accumulation **bit for bit**: the CSR match lists are point-major, so for
every polygon the float additions happen in ascending point order — the same
order the per-point loop uses — and ``np.add.at`` applies them unbuffered in
sequence.  For the ACT join (no geometric tests) the parity is therefore
exact by construction.  The exact joins additionally rely on the scalar and
vectorized point-in-polygon predicates agreeing, which holds except for
points within a rounding error of an edge's on-boundary threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProbeOutcome",
    "count_ranges",
    "probe_act",
    "probe_rtree",
    "probe_shape_index",
]


@dataclass(slots=True)
class ProbeOutcome:
    """Result of one probe-and-aggregate phase over a point batch."""

    sums: np.ndarray
    counts: np.ndarray
    pip_tests: int = 0
    index_probes: int = 0
    extra: dict = field(default_factory=dict)


def probe_act(trie, xs, ys, values, num_regions) -> ProbeOutcome:
    """Approximate probe of the ACT index (no PIP tests).

    ``trie`` is either the pointer :class:`~repro.index.act.AdaptiveCellTrie`
    or a bulk-loaded :class:`~repro.index.flat_act.FlatACT` — both expose
    ``lookup_points_batch``.  ``xs``/``ys``/``values`` are equal-length
    arrays of the (already filtered) probe points and their aggregation
    values; ``num_regions`` sizes the output groups.
    """
    offsets, polygon_ids = trie.lookup_points_batch(xs, ys)
    point_idx = np.repeat(np.arange(xs.shape[0], dtype=np.int64), np.diff(offsets))
    sums = np.zeros(num_regions, dtype=np.float64)
    # Unbuffered scatter-add in point-major order: bitwise identical to the
    # per-point loop because each polygon receives its additions in the same
    # (ascending point) order.
    np.add.at(sums, polygon_ids, values[point_idx])
    counts = np.bincount(polygon_ids, minlength=num_regions).astype(np.int64)
    return ProbeOutcome(
        sums=sums, counts=counts, pip_tests=0, index_probes=int(xs.shape[0])
    )


def probe_rtree(tree, regions, xs, ys, values) -> ProbeOutcome:
    """Exact filter-and-refine probe: R-tree MBR candidates + PIP."""
    offsets, candidate_ids = tree.query_points(xs, ys)
    return _refine_and_aggregate(regions, offsets, candidate_ids, xs, ys, values)


def probe_shape_index(shape_index, regions, xs, ys, values) -> ProbeOutcome:
    """Exact probe: coarse-covering candidates + PIP refinement."""
    offsets, candidate_ids = shape_index.query_points(xs, ys)
    return _refine_and_aggregate(regions, offsets, candidate_ids, xs, ys, values)


def _refine_and_aggregate(regions, offsets, candidate_ids, xs, ys, values) -> ProbeOutcome:
    """Fused PIP refinement + aggregation over CSR candidate lists.

    The candidate pairs are regrouped by polygon so each polygon runs one
    vectorised PIP pass over all of its candidate points; the surviving
    pairs are then scattered into the aggregates in point-major order,
    which keeps the float accumulation identical to the per-point loop.
    """
    n = int(offsets.shape[0]) - 1
    num_pairs = int(candidate_ids.shape[0])
    sums = np.zeros(len(regions), dtype=np.float64)
    counts = np.zeros(len(regions), dtype=np.int64)
    if num_pairs == 0:
        return ProbeOutcome(sums=sums, counts=counts, pip_tests=0, index_probes=n)
    point_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))

    # Group pairs by polygon (stable: point order survives inside groups).
    order = np.argsort(candidate_ids, kind="stable")
    grouped_ids = candidate_ids[order]
    grouped_pts = point_idx[order]
    boundaries = np.flatnonzero(np.diff(grouped_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [num_pairs]))

    inside_grouped = np.empty(num_pairs, dtype=bool)
    for start, stop in zip(starts, stops):
        polygon_id = int(grouped_ids[start])
        pts = grouped_pts[start:stop]
        inside_grouped[start:stop] = regions[polygon_id].contains_points(xs[pts], ys[pts])

    # Back to point-major order, keep survivors, fuse the aggregation.
    inside = np.empty(num_pairs, dtype=bool)
    inside[order] = inside_grouped
    kept_ids = candidate_ids[inside]
    kept_pts = point_idx[inside]
    np.add.at(sums, kept_ids, values[kept_pts])
    counts = np.bincount(kept_ids, minlength=len(regions)).astype(np.int64)
    return ProbeOutcome(
        sums=sums, counts=counts, pip_tests=num_pairs, index_probes=n
    )


def count_ranges(index, ranges) -> int:
    """Total point count of a code index over query-cell key ranges."""
    ranges = np.asarray(ranges, dtype=np.uint64).reshape(-1, 2)
    return index.count_ranges_batch(ranges)
