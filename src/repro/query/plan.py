"""Query plans over the canvas algebra and the point-probe kernels.

Section 4 argues that representing spatial data uniformly as rasterized
canvases turns spatial query processing into compositions of a small set of
geometry-agnostic operators (rasterize, blend, mask, reduce), which gives the
optimizer *multiple alternative plans* for the same ad-hoc query instead of a
single monolithic filter-and-refine operator.

This module provides a small explicit plan representation.  A plan is a tree
of :class:`PlanNode` objects; :func:`run_plan` interprets it against a
:class:`PlanContext` holding the inputs and dispatches each plan shape to the
corresponding execution kernel.  The recognised plans, each with a
constructor:

* :func:`raster_aggregation_plan` — the approximate canvas plan
  (rasterize points, rasterize polygons, mask, reduce → Bounded Raster Join),
* :func:`act_join_plan` — the approximate point-probe plan (distance-bounded
  HR approximations indexed in ACT, index-nested-loop probe, fused reduce),
* :func:`filter_refine_plan` — the classic exact plan on the device model
  (grid-index filter, PIP refinement, aggregate),
* :func:`rtree_join_plan` — the exact R\\*-tree filter-and-refine plan,
* :func:`shape_index_join_plan` — the exact coarse-covering plan,
* :func:`raster_count_plan` — per-region approximate counts through query
  cells over a linearized point code index, and
* :func:`range_estimate_plan` — per-region certain result intervals from a
  conservative uniform raster.

The optimizer in :mod:`repro.query.optimizer` chooses between the
aggregation-join plans based on the distance bound and estimated costs;
:class:`repro.api.SpatialDataset` executes the choice through
:func:`run_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.obs import trace
from repro.query.spec import AggregationQuery

__all__ = [
    "PlanNode",
    "PlanContext",
    "raster_aggregation_plan",
    "filter_refine_plan",
    "act_join_plan",
    "rtree_join_plan",
    "shape_index_join_plan",
    "raster_count_plan",
    "range_estimate_plan",
    "scatter_gather_plan",
    "execute_plan",
    "run_plan",
    "explain",
]

Region = Polygon | MultiPolygon


@dataclass(frozen=True)
class PlanNode:
    """One operator in a query plan tree.

    ``cost`` is the optimizer's estimate for the subtree in its relative cost
    units (``None`` when the plan was constructed directly rather than
    chosen); :func:`explain` renders it alongside the operator.
    """

    operator: str
    params: dict[str, Any] = field(default_factory=dict)
    children: tuple["PlanNode", ...] = ()
    cost: float | None = None

    def with_child(self, child: "PlanNode") -> "PlanNode":
        return PlanNode(self.operator, dict(self.params), self.children + (child,), self.cost)

    def with_cost(self, cost: float) -> "PlanNode":
        """The same plan annotated with the optimizer's cost estimate."""
        return PlanNode(self.operator, dict(self.params), self.children, float(cost))


@dataclass
class PlanContext:
    """Inputs a plan executes against.

    ``points``, ``regions`` and ``query`` are the declarative query; the
    remaining fields are execution resources a caller may provide — the
    :class:`~repro.api.SpatialDataset` facade fills them from its
    :class:`~repro.api.EngineConfig` and :class:`~repro.api.IndexRegistry` so
    prebuilt indexes are reused instead of rebuilt per call.  When they are
    left unset the kernels build what they need on the fly.
    """

    points: PointSet
    regions: list[Region]
    query: AggregationQuery
    extent: BoundingBox | None = None
    #: Grid hierarchy shared with approximations/indexes (ACT, ShapeIndex,
    #: raster counts).  Derived from the extent when unset.
    frame: Any = None
    #: Prebuilt ACT index (AdaptiveCellTrie or FlatACT) for act plans.
    trie: Any = None
    #: Prebuilt ShapeIndex for shape-index plans.
    shape_index: Any = None
    #: Simulated device for the canvas plans.
    gpu: Any = None
    #: Prebuilt LinearizedPoints + CodeIndex for raster-count plans.
    linearized: Any = None
    code_index: Any = None
    #: Sharded execution state for scatter_gather plans: a
    #: :class:`~repro.shard.partition.StaticShards` (static datasets) or a
    #: :class:`~repro.shard.store.ShardedSnapshot` (sharded stores).
    shards: Any = None
    #: Worker count or executor instance for the scatter fan-out
    #: (``None``/``0``/``1`` → the serial in-process executor).
    executor: Any = None


# --------------------------------------------------------------------------- #
# plan constructors
# --------------------------------------------------------------------------- #
def raster_aggregation_plan(epsilon: float) -> PlanNode:
    """The approximate canvas plan: rasterize → blend → mask → reduce."""
    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    point_canvas = PlanNode("rasterize_points", {"epsilon": epsilon})
    polygon_canvas = PlanNode("rasterize_polygons", {"epsilon": epsilon})
    masked = PlanNode("mask_blend", {}, (point_canvas, polygon_canvas))
    return PlanNode("group_reduce", {"epsilon": epsilon}, (masked,))


def filter_refine_plan(grid_resolution: int = 1024) -> PlanNode:
    """The exact device plan: grid-index filter → PIP refinement → aggregate."""
    scan = PlanNode("grid_filter", {"grid_resolution": grid_resolution})
    refine = PlanNode("pip_refine", {}, (scan,))
    return PlanNode("aggregate", {}, (refine,))


def act_join_plan(epsilon: float) -> PlanNode:
    """The approximate point-probe plan: ACT index → probe → fused reduce."""
    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    index = PlanNode("act_index", {"epsilon": epsilon})
    probe = PlanNode("act_probe", {}, (index,))
    return PlanNode("act_aggregate", {"epsilon": epsilon}, (probe,))


def rtree_join_plan() -> PlanNode:
    """The exact R*-tree plan: MBR filter → PIP refinement → aggregate."""
    scan = PlanNode("rtree_filter", {})
    refine = PlanNode("pip_refine", {}, (scan,))
    return PlanNode("rtree_aggregate", {}, (refine,))


def shape_index_join_plan(max_cells_per_shape: int = 32) -> PlanNode:
    """The exact coarse-covering plan: covering filter → PIP → aggregate."""
    scan = PlanNode("covering_filter", {"max_cells_per_shape": max_cells_per_shape})
    refine = PlanNode("pip_refine", {}, (scan,))
    return PlanNode("shape_aggregate", {"max_cells_per_shape": max_cells_per_shape}, (refine,))


def raster_count_plan(cells_per_polygon: int, conservative: bool = True) -> PlanNode:
    """Per-region approximate counts: query cells → key ranges → code index."""
    if cells_per_polygon < 1:
        raise QueryError("cells_per_polygon must be at least 1")
    ranges = PlanNode(
        "polygon_ranges",
        {"cells_per_polygon": cells_per_polygon, "conservative": conservative},
    )
    return PlanNode("range_count", {"cells_per_polygon": cells_per_polygon}, (ranges,))


def range_estimate_plan(epsilon: float) -> PlanNode:
    """Per-region certain intervals from a conservative uniform raster."""
    if epsilon <= 0:
        raise QueryError("epsilon must be positive")
    raster = PlanNode("conservative_raster", {"epsilon": epsilon})
    counts = PlanNode("coverage_counts", {}, (raster,))
    return PlanNode("result_range", {"epsilon": epsilon}, (counts,))


def scatter_gather_plan(subplan: PlanNode, shards: int, workers: int = 0) -> PlanNode:
    """Fan a per-shard subplan out over K shards and merge the partials exactly.

    The merge node the optimizer emits when the dataset is sharded: the
    child runs once per shard (serially or on a process pool with
    ``workers`` workers) and the root merges the partial aggregates —
    stable global-id scatter-add for joins, integer summation for the
    raster-count and range-estimation paths — so the result is
    bit-identical to the unsharded subplan.
    """
    if shards < 1:
        raise QueryError("scatter_gather needs at least one shard")
    return PlanNode(
        "scatter_gather", {"shards": int(shards), "workers": int(workers)}, (subplan,)
    )


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def run_plan(plan: PlanNode, context: PlanContext):
    """Interpret a plan tree and return the kernel's full result object.

    Each recognised root operator dispatches to the corresponding execution
    kernel with the context's prebuilt resources, so the result —
    :class:`~repro.query.join_mm.JoinResult`,
    :class:`~repro.query.join_brj.BRJResult`, per-region count arrays,
    :class:`~repro.query.range_estimation.ResultRange` lists — is exactly
    what the direct kernel call would produce.
    """
    with trace.span(f"plan.{plan.operator}"):
        return _run_plan_root(plan, context)


def _run_plan_root(plan: PlanNode, context: PlanContext):
    root = plan.operator
    if root == "group_reduce":
        from repro.query.join_brj import bounded_raster_join

        kwargs = {}
        if context.gpu is not None:
            kwargs["gpu"] = context.gpu
        return bounded_raster_join(
            context.points,
            context.regions,
            epsilon=float(plan.params["epsilon"]),
            extent=context.extent,
            query=context.query,
            **kwargs,
        )
    if root == "aggregate":
        from repro.query.join_gpu_baseline import gpu_baseline_join

        refine = plan.children[0]
        scan = refine.children[0]
        kwargs = {}
        if context.gpu is not None:
            kwargs["gpu"] = context.gpu
        return gpu_baseline_join(
            context.points,
            context.regions,
            extent=context.extent,
            grid_resolution=int(scan.params.get("grid_resolution", 1024)),
            query=context.query,
            **kwargs,
        )
    if root == "act_aggregate":
        from repro.query.join_mm import act_approximate_join

        return act_approximate_join(
            context.points,
            context.regions,
            _require_frame(context),
            epsilon=float(plan.params["epsilon"]),
            query=context.query,
            trie=context.trie,
        )
    if root == "rtree_aggregate":
        from repro.query.join_mm import rtree_exact_join

        return rtree_exact_join(context.points, context.regions, query=context.query)
    if root == "shape_aggregate":
        from repro.query.join_mm import shape_index_exact_join

        return shape_index_exact_join(
            context.points,
            context.regions,
            _require_frame(context),
            max_cells_per_shape=int(plan.params.get("max_cells_per_shape", 32)),
            query=context.query,
            index=context.shape_index,
        )
    if root == "range_count":
        from repro.query.containment import LinearizedPoints, raster_count

        ranges_node = plan.children[0]
        linearized = context.linearized
        if linearized is None:
            linearized = LinearizedPoints.build(
                context.query.filtered_points(context.points), _require_frame(context), 12
            )
        index = context.code_index
        if index is None:
            from repro.index.sorted_array import SortedCodeArray

            index = SortedCodeArray(linearized.codes, assume_sorted=True)
        return np.array(
            [
                raster_count(
                    region,
                    linearized,
                    index,
                    cells_per_polygon=int(ranges_node.params["cells_per_polygon"]),
                    conservative=bool(ranges_node.params.get("conservative", True)),
                )
                for region in context.regions
            ],
            dtype=np.int64,
        )
    if root == "result_range":
        from repro.query.range_estimation import estimate_count_range

        points = context.query.filtered_points(context.points)
        return [
            estimate_count_range(points, region, epsilon=float(plan.params["epsilon"]))
            for region in context.regions
        ]
    if root == "scatter_gather":
        return _run_scatter_gather(plan, context)
    raise QueryError(f"unknown plan root operator {root!r}")


def _run_scatter_gather(plan: PlanNode, context: PlanContext):
    """Fan the child plan out across the context's shards and merge exactly.

    ``context.shards`` carries the sharded execution state: a
    ``StaticShards`` partition (per-shard subsets of a static point set) or
    a ``ShardedSnapshot`` (per-shard store snapshots, which route through
    their registry-aware query methods).  Every merge is exact, so the
    result is bit-identical to running the child plan unsharded.
    """
    shards = context.shards
    if shards is None:
        raise QueryError("a scatter_gather plan needs PlanContext.shards")
    child = plan.children[0]
    op = child.operator
    trace.annotate(
        subplan=op,
        shards=int(plan.params.get("shards", 0)),
        workers=int(plan.params.get("workers", 0)),
    )

    if op == "act_aggregate":
        epsilon = float(child.params["epsilon"])
        if hasattr(shards, "act_join"):  # sharded store snapshot
            return shards.act_join(
                context.regions,
                epsilon=epsilon,
                query=context.query,
                trie=context.trie,
                executor=context.executor,
            )
        from repro.shard.gather import sharded_act_join

        return sharded_act_join(
            shards.segments(),
            context.regions,
            _require_frame(context),
            epsilon=epsilon,
            query=context.query,
            trie=context.trie,
            executor=context.executor,
        )

    if op == "range_count":
        ranges_node = child.children[0]
        cells = int(ranges_node.params["cells_per_polygon"])
        conservative = bool(ranges_node.params.get("conservative", True))
        if hasattr(shards, "raster_count"):  # sharded store snapshot
            return np.array(
                [
                    shards.raster_count(
                        region,
                        cells,
                        conservative=conservative,
                    )
                    for region in context.regions
                ],
                dtype=np.int64,
            )
        from repro.query.containment import LinearizedPoints, polygon_query_ranges
        from repro.shard.gather import sharded_count_ranges

        frame = _require_frame(context)
        level = context.linearized.level if context.linearized is not None else 12
        indexes = _static_shard_indexes(shards, context, frame, level)
        # One range decomposition per region (identical to the unsharded
        # plan's); every shard counts against the same key ranges.
        empty = LinearizedPoints(frame=frame, level=level, codes=np.empty(0, dtype=np.uint64))
        return np.array(
            [
                sharded_count_ranges(
                    indexes,
                    polygon_query_ranges(region, empty, cells, conservative),
                )
                for region in context.regions
            ],
            dtype=np.int64,
        )

    if op == "result_range":
        epsilon = float(child.params["epsilon"])
        if hasattr(shards, "estimate_count_range"):  # sharded store snapshot
            return [
                shards.estimate_count_range(region, epsilon) for region in context.regions
            ]
        from repro.shard.gather import sharded_estimate_count_range

        coords = []
        for part in shards.parts:
            points = context.query.filtered_points(part.points)
            coords.append((points.xs, points.ys))
        return [
            sharded_estimate_count_range(coords, region, epsilon)
            for region in context.regions
        ]

    raise QueryError(f"scatter_gather cannot fan out a {op!r} subplan")


def _static_shard_indexes(shards, context: PlanContext, frame, level: int):
    """Per-shard code indexes for a static partition, honouring point filters."""
    if context.query.point_filter is None:
        return shards.code_indexes(level)
    from repro.index.sorted_array import SortedCodeArray

    indexes = []
    for part in shards.parts:
        points = context.query.filtered_points(part.points)
        in_frame = frame.contains_points(points.xs, points.ys)
        xs, ys = points.xs[in_frame], points.ys[in_frame]
        if xs.shape[0] == 0:
            indexes.append(None)
            continue
        codes = frame.points_to_codes(xs, ys, level)
        indexes.append(SortedCodeArray(np.sort(codes), assume_sorted=True))
    return indexes


def execute_plan(plan: PlanNode, context: PlanContext) -> np.ndarray:
    """Interpret a plan tree and return the per-region aggregates.

    Thin wrapper over :func:`run_plan` that reduces the kernel result to the
    per-region aggregate array (the SQL template's SELECT list); kept for
    callers that only need the numbers.
    """
    result = run_plan(plan, context)
    aggregates = getattr(result, "aggregates", None)
    if aggregates is not None:
        return aggregates
    if isinstance(result, list):  # result_range plans
        return np.asarray([estimate.expected for estimate in result], dtype=np.float64)
    return np.asarray(result)


def _require_frame(context: PlanContext):
    """The context's grid frame, derived from the inputs when unset."""
    if context.frame is not None:
        return context.frame
    from repro.grid.uniform_grid import GridFrame

    extent = context.extent
    if extent is None:
        boxes = [region.bounds() for region in context.regions]
        if len(context.points):
            min_x, min_y, max_x, max_y = context.points.bounds()
            boxes.append(BoundingBox(min_x, min_y, max_x, max_y))
        if not boxes:
            raise QueryError("cannot derive a grid frame from empty inputs")
        extent = boxes[0]
        for box in boxes[1:]:
            extent = extent.union(box)
    return GridFrame(extent)


def explain(plan: PlanNode, indent: int = 0) -> str:
    """Readable, indented rendering of a plan tree (like EXPLAIN output)."""
    pad = "  " * indent
    params = ", ".join(f"{k}={v}" for k, v in sorted(plan.params.items()))
    line = f"{pad}{plan.operator}" + (f" [{params}]" if params else "")
    if plan.cost is not None:
        line += f"  (cost≈{plan.cost:,.0f})"
    lines = [line]
    for child in plan.children:
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
