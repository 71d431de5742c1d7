"""Main-memory spatial aggregation joins (§5.1 / Figure 6).

Three strategies join a point set with a polygon suite and aggregate per
polygon:

* :func:`act_approximate_join` — the paper's proposal: index the polygons'
  distance-bounded hierarchical raster approximations in an Adaptive Cell
  Trie and run an index-nested-loop join probing the trie with every point.
  **No point-in-polygon test is performed**; the result is approximate within
  the distance bound.
* :func:`rtree_exact_join` — the classic filter-and-refine baseline: an
  R*-tree over the polygons' MBRs produces candidate polygons per point,
  every candidate is verified with an exact point-in-polygon test.
* :func:`shape_index_exact_join` — the S2ShapeIndex-like baseline: a coarse
  (not distance-bounded) hierarchical covering narrows the candidates further
  than MBRs, but exact refinement is still required.

Each strategy runs its probe phase through the batch kernels of
:mod:`repro.query.engine`: all points are probed at once through the batch
index APIs and the aggregation is fused with ``np.add.at`` /
``np.bincount``.

All three return a :class:`JoinResult` with per-polygon aggregates and
operation counters, so benchmarks can report both time and the number of
exact geometric tests that each strategy performed (the quantity the paper
argues should be driven to zero).

.. note::
   These free functions are the execution kernels.  For application code,
   prefer the session-style facade in :mod:`repro.api`
   (:class:`~repro.api.SpatialDataset`): it owns the frame, the optimizer
   configuration and a polygon-index cache, plans the strategy with the
   optimizer, and dispatches to these same kernels — bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame
from repro.index.act import AdaptiveCellTrie
from repro.index.flat_act import FlatACT
from repro.index.rstar import RStarTree
from repro.index.shape_index import ShapeIndex
from repro.obs import trace
from repro.query.engine import probe_act, probe_rtree, probe_shape_index
from repro.query.spec import AggregationQuery

__all__ = ["JoinResult", "act_approximate_join", "rtree_exact_join", "shape_index_exact_join"]

Region = Polygon | MultiPolygon


@dataclass(slots=True)
class JoinResult:
    """Per-polygon aggregates plus execution counters of one join run."""

    aggregates: np.ndarray
    counts: np.ndarray
    pip_tests: int = 0
    index_probes: int = 0
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    index_memory_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.probe_seconds

    @property
    def probe_throughput(self) -> float:
        """Probe rate in points per second (0 when nothing was probed)."""
        if self.index_probes == 0 or self.probe_seconds <= 0:
            return 0.0
        return self.index_probes / self.probe_seconds


def _prepare(points: PointSet, query: AggregationQuery) -> tuple[PointSet, np.ndarray]:
    filtered = query.filtered_points(points)
    return filtered, query.values(filtered)


def act_approximate_join(
    points: PointSet,
    regions: list[Region],
    frame: GridFrame,
    epsilon: float = 4.0,
    query: AggregationQuery | None = None,
    trie: "AdaptiveCellTrie | FlatACT | None" = None,
) -> JoinResult:
    """Approximate index-nested-loop join using the Adaptive Cell Trie.

    The polygons are approximated with HR approximations satisfying
    ``epsilon`` (the paper uses a 4 m bound) and indexed in ACT; every point
    is then probed against the index and contributes its value to every
    matching polygon.  The aggregation is fused with the join so the join
    result is never materialised.

    Without a prebuilt index the polygons are bulk-loaded into a
    :class:`~repro.index.flat_act.FlatACT` from their approximations' cell
    arrays.  ``trie`` accepts either index form; the probe treats them
    identically.
    """
    query = query or AggregationQuery()
    filtered, values = _prepare(points, query)

    with trace.timed("join.build", kernel="act") as build_span:
        if trie is None:
            trie = FlatACT.build(regions, frame, epsilon)
        index_memory = trie.memory_bytes()
        # Flattening is part of the (one-off) build cost, and the flat
        # arrays are the index the kernel actually probes — charge them
        # too (a bulk-loaded FlatACT already *is* its flat representation).
        flat = trie.flattened()
        if flat is not trie:
            index_memory += flat.memory_bytes()
    build_seconds = build_span.seconds

    with trace.timed("join.probe", kernel="act", points=len(filtered)) as probe_span:
        outcome = probe_act(trie, filtered.xs, filtered.ys, values, len(regions))
    probe_seconds = probe_span.seconds

    return JoinResult(
        aggregates=query.finalize(outcome.sums, outcome.counts),
        counts=outcome.counts,
        pip_tests=outcome.pip_tests,
        index_probes=outcome.index_probes,
        build_seconds=build_seconds,
        probe_seconds=probe_seconds,
        index_memory_bytes=index_memory,
        extra={"num_cells": trie.num_cells, "epsilon": epsilon},
    )


def rtree_exact_join(
    points: PointSet,
    regions: list[Region],
    query: AggregationQuery | None = None,
) -> JoinResult:
    """Exact filter-and-refine join: R*-tree over polygon MBRs + PIP refinement."""
    query = query or AggregationQuery()
    filtered, values = _prepare(points, query)

    with trace.timed("join.build", kernel="rtree") as build_span:
        tree = RStarTree.bulk_load_boxes([region.bounds() for region in regions])
        # Materialise the batch probe arrays inside the build window and
        # charge them, mirroring the ACT flattening accounting.
        boxes, items = tree.batch_arrays()
        batch_bytes = int(boxes.nbytes + items.nbytes)
    build_seconds = build_span.seconds

    with trace.timed("join.probe", kernel="rtree", points=len(filtered)) as probe_span:
        outcome = probe_rtree(tree, regions, filtered.xs, filtered.ys, values)
    probe_seconds = probe_span.seconds

    return JoinResult(
        aggregates=query.finalize(outcome.sums, outcome.counts),
        counts=outcome.counts,
        pip_tests=outcome.pip_tests,
        index_probes=outcome.index_probes,
        build_seconds=build_seconds,
        probe_seconds=probe_seconds,
        index_memory_bytes=tree.memory_bytes() + batch_bytes,
    )


def shape_index_exact_join(
    points: PointSet,
    regions: list[Region],
    frame: GridFrame,
    max_cells_per_shape: int = 32,
    query: AggregationQuery | None = None,
    index: "ShapeIndex | None" = None,
) -> JoinResult:
    """Exact join using an S2ShapeIndex-like coarse covering plus PIP refinement.

    ``index`` accepts a prebuilt :class:`~repro.index.shape_index.ShapeIndex`
    over the same regions (e.g. from the :class:`repro.api.IndexRegistry`
    cache), skipping the covering construction.
    """
    query = query or AggregationQuery()
    filtered, values = _prepare(points, query)

    with trace.timed("join.build", kernel="shape-index") as build_span:
        if index is None:
            index = ShapeIndex(regions, frame, max_cells_per_shape=max_cells_per_shape)
    build_seconds = build_span.seconds

    with trace.timed("join.probe", kernel="shape-index", points=len(filtered)) as probe_span:
        outcome = probe_shape_index(index, regions, filtered.xs, filtered.ys, values)
    probe_seconds = probe_span.seconds

    return JoinResult(
        aggregates=query.finalize(outcome.sums, outcome.counts),
        counts=outcome.counts,
        pip_tests=outcome.pip_tests,
        index_probes=outcome.index_probes,
        build_seconds=build_seconds,
        probe_seconds=probe_seconds,
        index_memory_bytes=index.memory_bytes(),
        extra={"covering_cells": index.num_cells},
    )


def exact_join_reference(
    points: PointSet,
    regions: list[Region],
    query: AggregationQuery | None = None,
) -> JoinResult:
    """Brute-force exact join (vectorised PIP per polygon) used as ground truth."""
    query = query or AggregationQuery()
    filtered, values = _prepare(points, query)
    sums = np.zeros(len(regions), dtype=np.float64)
    counts = np.zeros(len(regions), dtype=np.int64)
    with trace.timed("join.probe", kernel="reference", points=len(filtered)) as probe_span:
        for polygon_id, region in enumerate(regions):
            mask = region.contains_points(filtered.xs, filtered.ys)
            counts[polygon_id] = int(mask.sum())
            sums[polygon_id] = float(values[mask].sum())
    probe_seconds = probe_span.seconds
    return JoinResult(
        aggregates=query.finalize(sums, counts),
        counts=counts,
        pip_tests=len(filtered) * len(regions),
        index_probes=0,
        build_seconds=0.0,
        probe_seconds=probe_seconds,
    )
