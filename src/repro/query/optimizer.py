"""A small cost-based optimizer for the spatial aggregation query.

Section 4 of the paper: "the optimizer can choose different query plans based
on the query parameters, the distance bound (i.e., the resolution of the
rasterized canvas), and the estimated selectivity."

The optimizer prices every execution strategy the library implements with
simple cost models that capture the paper's observed behaviour and returns a
:class:`PlanChoice` whose plan tree executes through
:func:`repro.query.plan.run_plan`:

* ``raster`` — the canvas plan (Bounded Raster Join); cost grows with the
  canvas resolution, i.e. with ``(extent / epsilon)^2``, plus one pass per
  device tile once the resolution exceeds the device limit;
* ``act`` — the approximate point-probe plan; cost is one distance-bounded
  boundary refinement per region (≈ boundary length / cell side cells) plus
  one index probe per point, and **no** PIP tests;
* ``exact`` — the grid-filter + PIP device plan; cost grows with the number
  of candidate points times the average polygon complexity;
* ``rtree`` — the R*-tree filter-and-refine plan (same candidate model);
* ``shape-index`` — the coarse-covering exact plan: the covering narrows the
  candidate set below the MBR filter, so the PIP share shrinks by the
  covering-tightness factor, at the price of building the covering.

Callers pick the competition: the default ``candidates=None`` keeps the
original two-way choice between the canvas plan and the exact device plan
(``raster`` vs ``exact``); the :class:`repro.api.SpatialDataset` facade
passes the full strategy set.  When the query demands exact results
(``epsilon is None``) only exact strategies compete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.approx.distance_bound import canvas_shape, cell_side_for_bound
from repro.errors import QueryError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.hardware.gpu import DeviceSpec
from repro.query.plan import (
    PlanNode,
    act_join_plan,
    filter_refine_plan,
    raster_aggregation_plan,
    rtree_join_plan,
    scatter_gather_plan,
    shape_index_join_plan,
)
from repro.query.spec import AggregationQuery

__all__ = ["PlanChoice", "CostModel", "STRATEGIES", "choose_plan"]

Region = Polygon | MultiPolygon

#: Every strategy the optimizer knows how to price and plan.  ``raster`` and
#: ``act`` are approximate (they require a distance bound); the rest are
#: exact.
STRATEGIES = ("raster", "act", "exact", "rtree", "shape-index")

#: Strategies that honour a distance bound instead of running PIP tests.
_APPROXIMATE = frozenset({"raster", "act"})

#: The original two-way competition (canvas plan vs. exact device plan).
_LEGACY_CANDIDATES = ("raster", "exact")


@dataclass(frozen=True, slots=True)
class CostModel:
    """Cost constants of the optimizer (relative units, not seconds)."""

    #: Cost of touching one canvas pixel (rasterization + blending).
    pixel_cost: float = 1.0
    #: Fixed cost of one extra aggregation pass (canvas tile).
    pass_cost: float = 5e4
    #: Cost of one point-in-polygon test per polygon vertex.
    pip_vertex_cost: float = 12.0
    #: Cost of routing one point through the grid filter.
    filter_cost: float = 1.0
    #: Cost of classifying one boundary cell during an ACT index build.
    act_cell_cost: float = 4.0
    #: Cost of probing one point through the ACT index.
    act_probe_cost: float = 2.0
    #: Fraction of the MBR candidate set that survives a coarse covering
    #: filter (S2ShapeIndex-like; < 1 because the covering hugs the shape).
    covering_tightness: float = 0.35
    #: Cost of building one covering cell (shape-index construction).
    covering_cell_cost: float = 6.0


@dataclass(frozen=True, slots=True)
class PlanChoice:
    """The optimizer's decision with its cost estimates.

    ``raster_cost`` and ``exact_cost`` summarise the two families (cheapest
    approximate and cheapest exact competitor); ``costs`` holds the estimate
    of every strategy that competed.
    """

    plan: PlanNode
    strategy: str
    raster_cost: float
    exact_cost: float
    costs: dict[str, float] = field(default_factory=dict)

    @property
    def chose_raster(self) -> bool:
        return self.strategy == "raster"

    @property
    def chose_approximate(self) -> bool:
        """True when an approximate (distance-bounded) strategy won."""
        return self.strategy in _APPROXIMATE


def _estimate_raster_cost(
    extent: BoundingBox, epsilon: float, num_points: int, device: DeviceSpec, model: CostModel
) -> float:
    nx, ny = canvas_shape(extent, epsilon)
    pixels = nx * ny
    tiles_x = -(-nx // device.max_texture_size)
    tiles_y = -(-ny // device.max_texture_size)
    passes = tiles_x * tiles_y
    return pixels * model.pixel_cost + passes * model.pass_cost + num_points * model.filter_cost


def _estimate_exact_cost(
    regions: list[Region], num_points: int, extent: BoundingBox, model: CostModel
) -> float:
    if not regions:
        return 0.0
    total_area = max(extent.area, 1e-12)
    cost = num_points * model.filter_cost
    for region in regions:
        # Candidate points of a region ~ points falling in its MBR.
        selectivity = min(1.0, region.bounds().area / total_area)
        candidates = num_points * selectivity
        cost += candidates * region.num_vertices * model.pip_vertex_cost
    return cost


def _boundary_cells(regions: list[Region], epsilon: float) -> float:
    """Rough boundary-cell count of a suite's distance-bounded approximations.

    A distance-bounded HR approximation refines only along the boundary, so
    its cell count is roughly the total boundary length over the cell side at
    the bound's level.  The MBR perimeter is used as the boundary-length
    proxy — cheap, and monotone in the real complexity.
    """
    cell_side = max(cell_side_for_bound(epsilon), 1e-12)
    perimeter = 0.0
    for region in regions:
        box = region.bounds()
        perimeter += 2.0 * (box.width + box.height)
    return perimeter / cell_side


def _estimate_act_cost(
    regions: list[Region], num_points: int, epsilon: float, model: CostModel
) -> float:
    build = _boundary_cells(regions, epsilon) * model.act_cell_cost
    return build + num_points * model.act_probe_cost


def _estimate_shape_index_cost(
    regions: list[Region],
    num_points: int,
    exact: float,
    model: CostModel,
    max_cells_per_shape: int = 32,
) -> float:
    """Covering-plan cost from the suite's exact cost (``_estimate_exact_cost``)."""
    if not regions:
        return 0.0
    pip_share = exact - num_points * model.filter_cost
    build = len(regions) * max_cells_per_shape * model.covering_cell_cost
    return num_points * model.filter_cost + pip_share * model.covering_tightness + build


def choose_plan(
    points: PointSet,
    regions: list[Region],
    query: AggregationQuery,
    extent: BoundingBox | None = None,
    device: DeviceSpec | None = None,
    model: CostModel | None = None,
    candidates: "tuple[str, ...] | None" = None,
    num_points: "int | None" = None,
    shards: "int | None" = None,
) -> PlanChoice:
    """Pick the cheapest plan among ``candidates`` for the given query.

    ``candidates`` defaults to the original two-way competition between the
    canvas plan and the exact device plan; pass a subset of
    :data:`STRATEGIES` to widen (or force) the field.  Approximate
    strategies only compete when the query carries a distance bound.
    ``num_points`` overrides ``len(points)`` so callers that know the
    cardinality without materialising the point set (the updatable store)
    can plan cheaply; with it and an explicit ``extent``, ``points`` is
    never touched.

    ``shards`` marks the point source as a sharded store: a winning ``act``
    plan is wrapped in a :func:`~repro.query.plan.scatter_gather_plan`
    merge node.  Sharding never changes the cost competition — the merge is
    exact, so the sharded plan computes the same result as its subplan.
    """
    device = device or DeviceSpec()
    model = model or CostModel()
    candidates = _LEGACY_CANDIDATES if candidates is None else tuple(candidates)
    unknown = [name for name in candidates if name not in STRATEGIES]
    if unknown:
        raise QueryError(
            f"unknown plan strategies {unknown!r} (expected a subset of {STRATEGIES})"
        )
    if query.epsilon is None:
        exact_only = tuple(name for name in candidates if name not in _APPROXIMATE)
        if not exact_only:
            raise QueryError(
                f"strategies {candidates!r} require a distance bound (query.epsilon is None)"
            )
        candidates = exact_only
    if not candidates:
        raise QueryError("choose_plan needs at least one candidate strategy")

    if extent is None:
        min_x, min_y, max_x, max_y = points.bounds()
        extent = BoundingBox(min_x, min_y, max_x, max_y)
        for region in regions:
            extent = extent.union(region.bounds())

    n = len(points) if num_points is None else int(num_points)
    # Every exact-family strategy prices the same per-region PIP loop, and the
    # report below wants it even when none of them competes: run it once.
    exact = _estimate_exact_cost(regions, n, extent, model)
    costs: dict[str, float] = {}
    for name in candidates:
        if name == "raster":
            costs[name] = _estimate_raster_cost(extent, query.epsilon, n, device, model)
        elif name == "act":
            costs[name] = _estimate_act_cost(regions, n, query.epsilon, model)
        elif name in ("exact", "rtree"):
            costs[name] = exact
        elif name == "shape-index":
            costs[name] = _estimate_shape_index_cost(regions, n, exact, model)

    # The exact device cost is always worth reporting, even when no exact
    # strategy competes (the legacy two-way report shows both numbers).
    exact_cost = min(
        (costs[name] for name in costs if name not in _APPROXIMATE),
        default=exact,
    )
    raster_cost = min(
        (costs[name] for name in costs if name in _APPROXIMATE),
        default=float("inf"),
    )

    # Stable tie-break: candidate order decides among equal costs, so the
    # legacy ("raster", "exact") competition keeps preferring the canvas
    # plan at equality, exactly as before.
    strategy = min(candidates, key=lambda name: costs[name])
    builders = {
        "raster": lambda: raster_aggregation_plan(query.epsilon),
        "act": lambda: act_join_plan(query.epsilon),
        "exact": filter_refine_plan,
        "rtree": rtree_join_plan,
        "shape-index": shape_index_join_plan,
    }
    plan = builders[strategy]().with_cost(costs[strategy])
    if shards is not None and shards >= 1 and strategy == "act":
        # The act probe phase is what shards: the index is built (or fetched)
        # once and every shard probes it independently.  Other strategies
        # keep their unsharded plans and execute over the merged point set.
        plan = scatter_gather_plan(plan, shards).with_cost(costs[strategy])
    return PlanChoice(
        plan=plan,
        strategy=strategy,
        raster_cost=raster_cost,
        exact_cost=exact_cost,
        costs=costs,
    )
