"""Per-layer probes of the traced run.

The rungs time what a user sees; these probes time single layers by calling
their public functions directly, each under a benchmark-side span named
``<layer>.<call>``.  They run only with ``--trace 1`` and feed only per-layer
metrics.  ``README.md`` says which end-to-end metric each should move.
"""

from __future__ import annotations

import numpy as np

from repro.approx.build_engine import get_build_engine
from repro.approx.distance_bound import cell_side_for_bound
from repro.grid.rasterizer import rasterize_points, rasterize_polygon
from repro.grid.uniform_grid import UniformGrid
from repro.index.flat_act import FlatACT, concat_cell_arrays
from repro.query import act_approximate_join, bounded_raster_join
from repro.shard.gather import sharded_act_join
from repro.shard.partition import StaticShards

from workloads import (
    CANVAS_EPSILON, KINDS, PATCH_EPSILON, SHARDS, SUITES, WARM_EPSILONS, Ladder, kind_p50,
    query_spec,
)

#: Polygons replaced before the delta-segment probe slowdown is measured.
DELTA_SEGMENTS = 8


def run_probes(ladder: Ladder) -> None:
    indexes = _build_layers(ladder)
    _query_layers(ladder, indexes)
    _grid_layers(ladder)
    _shard_layers(ladder, indexes)
    # Last: it swaps polygons inside one of the probe indexes.
    _index_mutation(ladder, indexes["neighborhoods", PATCH_EPSILON])


def _build_layers(ladder: Ladder) -> dict:
    """``approx`` then ``index``: the two halves of every registry miss.

    Builds the six indexes the warm kinds use (the coarse and the fine end of
    the cold sweep's ladder); the later probes run on them.
    """
    engine = get_build_engine(None)
    frame = ladder.frame
    indexes = {}
    cells = boundary = index_bytes = 0
    for epsilon in WARM_EPSILONS:
        max_level = frame.level_for_cell_side(cell_side_for_bound(epsilon))
        for suite in SUITES:
            regions = ladder.suites[suite]
            approxes = ladder.timed("approx.build", "approx.build_s", 1.0,
                                    lambda: engine.build_bound_batch(regions, frame, epsilon))
            cells += sum(a.num_cells for a in approxes)
            boundary += sum(a.num_boundary_cells for a in approxes)
            index = ladder.timed(
                "index.load", "index.load_s", 1.0,
                lambda: FlatACT.from_cells(frame, max_level, *concat_cell_arrays(approxes),
                                           num_polygons=len(regions)))
            index_bytes += index.memory_bytes()
            indexes[suite, epsilon] = index
    ladder.layer["approx.cells"] = cells
    ladder.layer["approx.boundary_cell_ratio"] = boundary / cells
    ladder.layer["index.bytes"] = index_bytes
    return indexes


def _index_mutation(ladder: Ladder, index: FlatACT) -> None:
    """Patch, probe through delta segments, consolidate, probe again."""
    points = ladder.warm_points
    count = min(DELTA_SEGMENTS, len(ladder.alt))
    new_cells = get_build_engine(None).build_cell_arrays(
        ladder.alt[:count], ladder.frame, PATCH_EPSILON)
    for position, cell_arrays in enumerate(new_cells):
        ladder.timed("index.patch", "index.patch_ms", 1e3,
                     lambda: index.replace_polygon(position, cell_arrays))
    probe = lambda: index.lookup_points(points.xs, points.ys)  # noqa: E731
    ladder.timed("index.probe_delta", "index.probe_delta_s", 1.0, probe)
    ladder.timed("index.consolidate", "index.consolidate_ms", 1e3, index.consolidate)
    for _ in range(3):
        offsets, polygon_ids = ladder.timed("index.probe", "index.probe_s", 1.0, probe)
    ladder.layer["index.pairs_per_point"] = polygon_ids.shape[0] / len(points)
    ladder.layer["index.delta_probe_slowdown"] = (
        ladder.samples["index.probe_delta_s"][0] / float(np.median(ladder.samples["index.probe_s"]))
    )
    ladder.layer["index.probe_mpts_per_s"] = (
        len(points) / float(np.median(ladder.samples["index.probe_s"])) / 1e6
    )


def _query_layers(ladder: Ladder, indexes: dict) -> None:
    """The kernel under ``dataset.query``, kind by kind, and the probe under it."""
    points, frame = ladder.warm_points, ladder.frame
    for k, kind in enumerate(KINDS):
        suite, epsilon, _ = kind
        spec = query_spec(*kind)
        index = indexes[suite, epsilon]
        ladder.timed("query.plan", "query.plan_ms", 1e3, lambda: ladder.warm.plan(spec))
        ladder.timed("query.act_join", f"query.act_join_ms:{k}", 1e3,
                     lambda: act_approximate_join(points, ladder.suites[suite], frame,
                                                  epsilon=epsilon, query=spec, trie=index))
        ladder.timed("index.probe", f"query.probe_ms:{k}", 1e3,
                     lambda: index.lookup_points(points.xs, points.ys))
    for suite in SUITES:
        ladder.timed("query.brj_join", "query.brj_join_ms", 1e3,
                     lambda: bounded_raster_join(points, ladder.suites[suite], CANVAS_EPSILON,
                                                 extent=ladder.extent))
    join = kind_p50(ladder.samples, "query.act_join_ms")
    ladder.layer["query.act_join_ms"] = join
    ladder.layer["query.aggregate_share"] = (
        join - kind_p50(ladder.samples, "query.probe_ms")) / join
    ladder.layer["query.facade_overhead_ms"] = kind_p50(ladder.samples, "warm_query_ms") - join


def _grid_layers(ladder: Ladder) -> None:
    """The two canvas kernels under the ``brj`` strategy."""
    grid = UniformGrid.from_cell_size(ladder.extent, cell_side_for_bound(CANVAS_EPSILON))
    regions = ladder.suites["neighborhoods"]
    ladder.timed("grid.rasterize", "grid.rasterize_s", 1.0,
                 lambda: [rasterize_polygon(region, grid) for region in regions])
    points = ladder.warm_points
    ladder.timed("grid.rasterize_points", "grid.rasterize_points_s", 1.0,
                 lambda: rasterize_points(points.xs, points.ys, grid))


def _shard_layers(ladder: Ladder, indexes: dict) -> None:
    points, frame = ladder.warm_points, ladder.frame
    shards = ladder.timed("shard.partition", "shard.partition_s", 1.0,
                          lambda: StaticShards.build(points, frame, SHARDS))
    sizes = [len(part) for part in shards.parts]
    ladder.layer["shard.imbalance"] = max(sizes) / (sum(sizes) / len(sizes))
    segments = shards.segments()
    #: Every query fans out over every shard that holds points.
    ladder.layer["shard.fanout"] = sum(1 for size in sizes if size)
    for kind in KINDS:
        suite, epsilon, _ = kind
        ladder.timed("shard.join", "shard.join_ms", 1e3,
                     lambda: sharded_act_join(segments, ladder.suites[suite], frame,
                                              epsilon=epsilon, query=query_spec(*kind),
                                              trie=indexes[suite, epsilon]))
