"""The :class:`SpatialDataset` facade — one session-style entry point.

The paper's pitch (§4) is that one declarative spatial aggregation query
should be *planned*; the library's kernels
(:func:`~repro.query.join_mm.act_approximate_join`,
:func:`~repro.query.join_brj.bounded_raster_join`, the exact joins, raster
counts and range estimation) are the alternatives the planner chooses among.
``SpatialDataset`` ties the pieces together:

* it owns the shared :class:`~repro.grid.uniform_grid.GridFrame`, a point
  source — a static :class:`~repro.geometry.point.PointSet` **or** a live
  :class:`~repro.store.store.SpatialStore` — and named polygon suites,
* a default :class:`~repro.api.config.EngineConfig` (cost model, device),
  overridable per query,
* an :class:`~repro.api.registry.IndexRegistry` caching the polygon indexes
  every query needs, shared with the backing store's snapshots, and
* :meth:`query` = plan → execute → result: the optimizer's
  :class:`~repro.query.optimizer.PlanChoice` is executed through
  :func:`~repro.query.plan.run_plan`, dispatching to exactly the kernel the
  free-function call would run — **bit-identically**.

Quick start::

    from repro import NYCWorkload
    from repro.api import SpatialDataset
    from repro.query import AggregationQuery

    workload = NYCWorkload()
    dataset = (
        SpatialDataset(workload.taxi_points(100_000), frame=workload.frame(),
                       extent=workload.extent)
        .add_suite("neighborhoods", workload.neighborhoods(count=64))
    )
    result = dataset.query(AggregationQuery(epsilon=4.0, suite="neighborhoods"))
    print(result.strategy, result.counts)
    print(result.explain())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.errors import QueryError
from repro.obs import trace
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import PointSet
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame
from repro.api.config import EngineConfig
from repro.api.fingerprint import (
    SuiteDelta,
    combine_fingerprints,
    diff_suites,
    entry_fingerprints,
    region_fingerprint,
    removal_delta,
)
from repro.api.registry import IndexRegistry, suite_fingerprint
from repro.query.optimizer import PlanChoice, choose_plan
from repro.query.plan import (
    PlanContext,
    explain as explain_plan,
    range_estimate_plan,
    raster_count_plan,
    run_plan,
)
from repro.query.spec import AggregationQuery
from repro.shard.store import ShardedStore
from repro.store.store import SpatialStore

__all__ = ["DatasetResult", "PolygonSuite", "SpatialDataset"]

Region = Polygon | MultiPolygon

#: Strategies the facade's planner lets compete by default, in tie-break
#: order.  The grid-filter device plan stays available via ``strategy=`` but
#: does not compete naturally (its cost model duplicates the R*-tree's).
DEFAULT_CANDIDATES = ("act", "raster", "shape-index", "rtree")

#: Aliases accepted by ``strategy=`` on top of the optimizer's names.
_STRATEGY_ALIASES = {"brj": "raster", "gpu-baseline": "exact"}


@dataclass(frozen=True, slots=True)
class PolygonSuite:
    """A named, fingerprinted polygon suite registered with a dataset.

    ``fingerprint`` is the order-sensitive combination of
    :attr:`entry_fingerprints` (one blake2b content hash per polygon), so a
    suite delta can be computed from the fingerprints alone — unchanged
    polygons are never rehashed, let alone rebuilt.
    """

    name: str
    regions: tuple[Region, ...]
    fingerprint: str
    #: Per-polygon content fingerprints, in suite order.
    entry_fingerprints: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.regions)


@dataclass(slots=True)
class DatasetResult:
    """One executed dataset query: the plan choice plus the kernel result.

    ``result`` is exactly the object the dispatched kernel returned
    (:class:`~repro.query.join_mm.JoinResult`,
    :class:`~repro.query.join_brj.BRJResult`, …); ``aggregates`` / ``counts``
    pass through to it, so downstream code reads one shape regardless of the
    strategy that ran.
    """

    choice: PlanChoice
    result: Any
    suite: str
    seconds: float
    #: Registry cache traffic caused by this query (hits, misses) and the
    #: seconds the registry spent building indexes on its behalf (0 on hits).
    registry_hits: int = 0
    registry_misses: int = 0
    registry_build_seconds: float = 0.0
    #: Per-stage wall seconds: ``plan``, ``registry_build``, ``execute``,
    #: plus ``shard_execute`` (a per-shard list) for scatter-gather plans.
    stage_seconds: dict = field(default_factory=dict)
    #: Registry traffic split by entry scope (suite vs points) plus patch
    #: counters, as deltas caused by this query.
    registry_scoped: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: Root :class:`repro.obs.trace.Span` of this query's subtree when a
    #: tracer was active, ``None`` otherwise.  The stage timings above are
    #: views over the same measurements.
    spans: Any = None

    @property
    def strategy(self) -> str:
        return self.choice.strategy

    @property
    def aggregates(self) -> np.ndarray:
        return self.result.aggregates

    @property
    def counts(self) -> np.ndarray:
        return self.result.counts

    def explain(self) -> str:
        """EXPLAIN-style rendering: choice summary, plan tree, stage timings."""
        costs = ", ".join(
            f"{name}={cost:,.0f}" for name, cost in sorted(self.choice.costs.items())
        )
        header = f"strategy {self.strategy!r} over suite {self.suite!r} (costs: {costs})"
        lines = [header, explain_plan(self.choice.plan, indent=1)]
        scalar_stages = ", ".join(
            f"{name}={value:.6f}s"
            for name, value in self.stage_seconds.items()
            if not isinstance(value, (list, tuple))
        )
        if scalar_stages:
            lines.append(f"  stages: {scalar_stages}")
        shard_execute = self.stage_seconds.get("shard_execute")
        if shard_execute:
            rendered = ", ".join(
                f"shard{i}={sec:.6f}s" for i, sec in enumerate(shard_execute)
            )
            lines.append(f"  shard execute: {rendered}")
        scoped = self.registry_scoped
        if scoped:
            lines.append(
                "  registry: suite hits={suite_hits} misses={suite_misses} "
                "invalidations={suite_invalidations} | point hits={point_hits} "
                "misses={point_misses} invalidations={point_invalidations} | "
                "patches={patches} patched_polygons={patched_polygons}".format(**scoped)
            )
        if self.spans is not None:
            lines.append("  spans:")
            lines.extend("    " + line for line in trace.render_tree(self.spans))
        return "\n".join(lines)


def _validated_shards(shards) -> int:
    """``shards`` as a positive int; bools, floats and strings are refused."""
    if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
        raise QueryError(f"shards must be an integer, got {shards!r}")
    if shards < 1:
        raise QueryError("shards must be >= 1")
    return int(shards)


class SpatialDataset:
    """Session facade over one point source and its polygon suites.

    Parameters
    ----------
    source:
        The point side: a static :class:`PointSet` or a live
        :class:`SpatialStore`.  Store-backed datasets answer every query
        from a fresh snapshot, and the ACT join path fans out across the
        store's segments (bit-identical to a from-scratch rebuild).
    frame:
        Shared grid hierarchy.  Mandatory for a static source (the store
        brings its own).
    extent:
        Canvas / planning extent; defaults to the frame's box.
    suites:
        Optional ``{name: regions}`` mapping registered at construction.
    config:
        Default :class:`EngineConfig`; individual queries override fields.
    registry:
        Polygon-index cache.  Defaults to a fresh registry — or, for a
        store-backed dataset, the store's registry, so flush / compaction
        invalidation reaches queries made through the facade.
    level:
        Linearization level of a static source's cached points: the code
        index backing :meth:`raster_count` and the cell runs the ACT probe
        walks (for every epsilon whose index is no finer than this level).
    shards:
        Shard count: ``None`` or an integer >= 1.  A sharded store source
        brings its own count — passing a conflicting value is an error —
        and its ACT plans scatter over the member stores and gather exactly
        (see :mod:`repro.shard`).  A plain :class:`SpatialStore` cannot be
        sharded after the fact (construct a
        :class:`~repro.shard.store.ShardedStore` instead).  On a **static**
        source the count is validated and recorded but changes no
        execution: every query takes the unsharded path, whose answers the
        scatter-gather merge reproduces bit for bit anyway.
    """

    def __init__(
        self,
        source: "PointSet | SpatialStore | ShardedStore",
        *,
        frame: GridFrame | None = None,
        extent: BoundingBox | None = None,
        suites: "dict[str, list[Region]] | None" = None,
        config: EngineConfig | None = None,
        registry: IndexRegistry | None = None,
        level: int = 12,
        shards: "int | None" = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.level = int(level)
        self._suites: dict[str, PolygonSuite] = {}
        self._linearized = None
        self._code_index = None
        if shards is not None:
            shards = _validated_shards(shards)
        if isinstance(source, (SpatialStore, ShardedStore)):
            self._store: "SpatialStore | ShardedStore | None" = source
            self._points: PointSet | None = None
            if frame is not None and frame is not source.frame:
                raise QueryError("a store-backed dataset uses the store's frame")
            self.frame = source.frame
            if registry is not None:
                source.attach_registry(registry)
            self.registry = source.registry
            if isinstance(source, ShardedStore):
                if shards is not None and shards != source.num_shards:
                    raise QueryError(
                        f"shards={shards} conflicts with the sharded store's "
                        f"{source.num_shards} shards"
                    )
                self.shards: "int | None" = source.num_shards
            else:
                if shards is not None:
                    raise QueryError(
                        "a SpatialStore cannot be sharded after the fact; "
                        "construct a ShardedStore instead"
                    )
                self.shards = None
        else:
            self._store = None
            self._points = source
            if frame is None:
                raise QueryError("a static dataset needs an explicit grid frame")
            self.frame = frame
            self.registry = registry if registry is not None else IndexRegistry()
            self.shards = shards
        self.extent = extent if extent is not None else self.frame.frame_box()
        for name, regions in (suites or {}).items():
            self.add_suite(name, regions)

    # ------------------------------------------------------------------ #
    # suites
    # ------------------------------------------------------------------ #
    def add_suite(self, name: str, regions: "list[Region]") -> "SpatialDataset":
        """Register (or replace) a named polygon suite; returns ``self``.

        Replacing a suite drops its cached indexes from the registry only if
        the geometry actually changed (the fingerprint is content-based).
        For delta-only rebuilds of an already-registered suite, use
        :meth:`apply_suite` / :meth:`replace_polygon` and friends instead —
        they patch the cached indexes rather than dropping them.
        """
        entry_fps = entry_fingerprints(regions)
        suite = PolygonSuite(
            str(name), tuple(regions), combine_fingerprints(entry_fps), entry_fps
        )
        previous = self._suites.get(suite.name)
        if previous is not None and previous.fingerprint != suite.fingerprint:
            self.registry.invalidate(previous.fingerprint)
        self._suites[suite.name] = suite
        return self

    # ------------------------------------------------------------------ #
    # live-suite mutations (delta-only index rebuilds)
    # ------------------------------------------------------------------ #
    def apply_suite(self, name: str, regions: "list[Region]") -> dict:
        """Diff a suite against new geometry and patch only what changed.

        Fingerprints every entry of ``regions``, compares position by
        position against the registered suite, and pushes the resulting
        delta through the registry: unchanged polygons are skipped entirely
        (a modify-to-identical is a no-op), changed ones get exactly their
        postings rebuilt inside every cached FlatACT.  Returns a summary
        dict (``noop``, ``replaced`` / ``added`` / ``removed`` counts,
        patched / dropped registry entries and fingerprints).
        """
        target = self.suite(name)
        new_entry_fps = entry_fingerprints(regions)
        delta = diff_suites(target.entry_fingerprints, new_entry_fps)
        return self._apply_delta(target, delta, tuple(regions), new_entry_fps)

    def add_polygons(self, name: str, regions: "list[Region]") -> dict:
        """Append polygons to a registered suite (delta-only index patch)."""
        target = self.suite(name)
        added_fps = entry_fingerprints(regions)
        new_entry_fps = target.entry_fingerprints + added_fps
        delta = SuiteDelta(
            old_fingerprint=target.fingerprint,
            new_fingerprint=combine_fingerprints(new_entry_fps),
            added=tuple(range(len(target.regions), len(new_entry_fps))),
            unchanged=len(target.regions),
        )
        return self._apply_delta(
            target, delta, target.regions + tuple(regions), new_entry_fps
        )

    def remove_polygons(self, name: str, positions) -> dict:
        """Remove polygons by position (survivors renumber downwards)."""
        target = self.suite(name)
        delta = removal_delta(target.entry_fingerprints, positions)
        dropped = set(delta.removed)
        new_regions = tuple(
            region for i, region in enumerate(target.regions) if i not in dropped
        )
        new_entry_fps = tuple(
            fp for i, fp in enumerate(target.entry_fingerprints) if i not in dropped
        )
        return self._apply_delta(target, delta, new_regions, new_entry_fps)

    def replace_polygon(self, name: str, position: int, region: Region) -> dict:
        """Swap one polygon's geometry in place (same position, same ids)."""
        target = self.suite(name)
        position = int(position)
        if not 0 <= position < len(target.regions):
            raise QueryError(
                f"replace position {position} out of range for suite "
                f"{name!r} of {len(target.regions)} polygons"
            )
        new_fp = region_fingerprint(region)
        new_entry_fps = list(target.entry_fingerprints)
        replaced = () if new_fp == new_entry_fps[position] else (position,)
        new_entry_fps[position] = new_fp
        new_entry_fps = tuple(new_entry_fps)
        delta = SuiteDelta(
            old_fingerprint=target.fingerprint,
            new_fingerprint=combine_fingerprints(new_entry_fps),
            replaced=replaced,
            unchanged=len(new_entry_fps) - len(replaced),
        )
        new_regions = list(target.regions)
        new_regions[position] = region
        return self._apply_delta(target, delta, tuple(new_regions), new_entry_fps)

    def _apply_delta(
        self,
        target: PolygonSuite,
        delta: SuiteDelta,
        new_regions: tuple,
        new_entry_fps: tuple,
    ) -> dict:
        """Push one suite delta through the registry and swap the suite in."""
        summary = {
            "suite": target.name,
            "noop": delta.is_noop,
            "old_fingerprint": delta.old_fingerprint,
            "new_fingerprint": delta.new_fingerprint,
            "replaced": len(delta.replaced),
            "added": len(delta.added),
            "removed": len(delta.removed),
            "unchanged": delta.unchanged,
            "patched_entries": 0,
            "dropped_entries": 0,
        }
        if delta.is_noop:
            return summary
        patch = self.registry.patch_suite(delta, list(new_regions))
        self._suites[target.name] = PolygonSuite(
            target.name, new_regions, delta.new_fingerprint, new_entry_fps
        )
        summary["patched_entries"] = patch["patched"]
        summary["dropped_entries"] = patch["dropped"]
        summary["patch_seconds"] = patch["seconds"]
        return summary

    @property
    def suite_names(self) -> tuple[str, ...]:
        return tuple(self._suites)

    def suite(self, name: str) -> PolygonSuite:
        try:
            return self._suites[name]
        except KeyError:
            known = ", ".join(self._suites) or "none registered"
            raise QueryError(f"unknown polygon suite {name!r} ({known})") from None

    def _resolve_suite(self, spec: AggregationQuery | None, suite: "str | None") -> PolygonSuite:
        name = suite or (spec.suite if spec is not None else None)
        if name is None:
            if len(self._suites) == 1:
                return next(iter(self._suites.values()))
            raise QueryError(
                "query names no polygon suite (pass suite=... or set AggregationQuery.suite)"
            )
        return self.suite(name)

    # ------------------------------------------------------------------ #
    # point side
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> "SpatialStore | None":
        """The backing store (``None`` for a static dataset)."""
        return self._store

    @property
    def num_points(self) -> int:
        """Live point count (store-backed datasets count through a snapshot)."""
        if self._store is not None:
            return self._store.num_live
        return len(self._points)

    def points(self) -> PointSet:
        """The current point set (materialised from a snapshot for stores)."""
        if self._store is not None:
            return self._store.snapshot().live_points()
        return self._points

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(
        self,
        spec: AggregationQuery | None = None,
        *,
        suite: "str | None" = None,
        strategy: "str | None" = None,
        candidates: "tuple[str, ...] | None" = None,
        **overrides,
    ) -> PlanChoice:
        """The optimizer's choice for the query, without executing it.

        ``strategy`` forces one strategy (accepting the CLI aliases ``brj``
        and ``gpu-baseline``); ``candidates`` narrows the natural
        competition, which defaults to :data:`DEFAULT_CANDIDATES`.
        """
        spec = spec or AggregationQuery()
        target = self._resolve_suite(spec, suite)
        config = self.config.merged(**overrides)
        if strategy is not None:
            strategy = _STRATEGY_ALIASES.get(strategy, strategy)
            candidates = (strategy,)
        elif candidates is None:
            candidates = DEFAULT_CANDIDATES
        return choose_plan(
            self._points,
            list(target.regions),
            spec,
            extent=self.extent,
            device=config.resolved_device(),
            model=config.resolved_cost_model(),
            candidates=candidates,
            num_points=self.num_points,
            shards=self.shards if self._store is not None else None,
        )

    def explain(
        self,
        spec: AggregationQuery | None = None,
        *,
        suite: "str | None" = None,
        strategy: "str | None" = None,
        **overrides,
    ) -> str:
        """EXPLAIN without executing: choice summary plus plan tree."""
        spec = spec or AggregationQuery()
        target = self._resolve_suite(spec, suite)
        choice = self.plan(spec, suite=target.name, strategy=strategy, **overrides)
        costs = ", ".join(f"{name}={cost:,.0f}" for name, cost in sorted(choice.costs.items()))
        header = f"strategy {choice.strategy!r} over suite {target.name!r} (costs: {costs})"
        return header + "\n" + explain_plan(choice.plan, indent=1)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def query(
        self,
        spec: AggregationQuery | None = None,
        *,
        suite: "str | None" = None,
        strategy: "str | None" = None,
        candidates: "tuple[str, ...] | None" = None,
        gpu=None,
        **overrides,
    ) -> DatasetResult:
        """Plan the aggregation query, execute the choice, return the result.

        The executed kernel and any prebuilt index are exactly what a direct
        kernel call would use, so the aggregates (floats included) are
        bit-identical to calling the kernel by hand — the facade adds
        planning and index reuse, never a different answer.
        """
        spec = spec or AggregationQuery()
        target = self._resolve_suite(spec, suite)
        with trace.span("dataset.query", suite=target.name) as query_span:
            with trace.timed("query.plan") as plan_span:
                choice = self.plan(
                    spec,
                    suite=target.name,
                    strategy=strategy,
                    candidates=candidates,
                    **overrides,
                )
            plan_seconds = plan_span.seconds
            query_span.annotate(strategy=choice.strategy)
            stats = self.registry.stats
            hits0, misses0, build0 = stats.hits, stats.misses, stats.build_seconds
            scoped0 = stats.as_dict()

            with trace.timed("query.execute", strategy=choice.strategy) as execute_span:
                if self._store is not None and choice.strategy == "act":
                    # The store's fan-out join is bit-identical to one probe
                    # pass over the live point set and never materialises it.
                    # The index is fetched here (with the suite's precomputed
                    # fingerprint, so cache hits skip rehashing the geometry)
                    # and threaded through.
                    trie = self.registry.act_index(
                        list(target.regions),
                        self.frame,
                        epsilon=float(spec.epsilon),
                        fingerprint=target.fingerprint,
                    )
                    result = self._store.snapshot().act_join(
                        list(target.regions),
                        epsilon=float(spec.epsilon),
                        query=spec,
                        trie=trie,
                    )
                else:
                    result = run_plan(
                        choice.plan,
                        self._context(spec, target, choice.strategy, gpu),
                    )
            seconds = execute_span.seconds

            stage_seconds = {
                "plan": plan_seconds,
                "registry_build": stats.build_seconds - build0,
                "execute": seconds,
            }
            extra = getattr(result, "extra", None)
            if extra and extra.get("shard_seconds"):
                stage_seconds["shard_execute"] = list(extra["shard_seconds"])

            return DatasetResult(
                choice=choice,
                result=result,
                suite=target.name,
                seconds=seconds,
                registry_hits=stats.hits - hits0,
                registry_misses=stats.misses - misses0,
                registry_build_seconds=stats.build_seconds - build0,
                stage_seconds=stage_seconds,
                registry_scoped={
                    key: stats.as_dict()[key] - scoped0[key]
                    for key in (
                        "suite_hits",
                        "suite_misses",
                        "suite_invalidations",
                        "point_hits",
                        "point_misses",
                        "point_invalidations",
                        "patches",
                        "patched_polygons",
                    )
                },
                spans=query_span if trace.enabled() else None,
            )

    def join(
        self,
        suite: "str | None" = None,
        *,
        strategy: "str | None" = None,
        epsilon: "float | None" = None,
        spec: AggregationQuery | None = None,
        **kwargs,
    ) -> DatasetResult:
        """Convenience wrapper: an aggregation join with an explicit strategy.

        ``epsilon`` overrides the spec's distance bound; ``strategy=None``
        lets the optimizer choose.
        """
        spec = spec or AggregationQuery()
        if epsilon is not None and spec.epsilon != epsilon:
            spec = replace(spec, epsilon=epsilon)
        return self.query(spec, suite=suite, strategy=strategy, **kwargs)

    def _context(
        self,
        spec: AggregationQuery,
        target: PolygonSuite,
        strategy: str,
        gpu,
    ) -> PlanContext:
        """Execution context with the registry's prebuilt index plugged in.

        A static source's ACT query also gets the dataset's cached
        point linearization when it can walk it: no ``point_filter`` (the
        cache holds every point) and a level no coarser than the index's
        ``max_level``.  Otherwise the kernel linearizes per call.
        """
        regions = list(target.regions)
        trie = None
        shape_index = None
        linearized = None
        if strategy == "act":
            trie = self.registry.act_index(
                regions,
                self.frame,
                epsilon=float(spec.epsilon),
                fingerprint=target.fingerprint,
            )
            if (
                self._store is None
                and spec.point_filter is None
                and self.level >= trie.max_level
            ):
                linearized = self._linearization()
        elif strategy == "shape-index":
            shape_index = self.registry.shape_index(
                regions,
                self.frame,
                fingerprint=target.fingerprint,
            )
        return PlanContext(
            points=self.points(),
            regions=regions,
            query=spec,
            extent=self.extent,
            frame=self.frame,
            trie=trie,
            shape_index=shape_index,
            gpu=gpu,
            linearized=linearized,
            level=self.level,
        )

    # ------------------------------------------------------------------ #
    # non-join query paths
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        suite: "str | None" = None,
        *,
        epsilon: float,
        spec: AggregationQuery | None = None,
    ) -> list:
        """Certain COUNT intervals per region (result-range estimation, §6).

        A ``spec`` with a ``point_filter`` estimates over the filtered
        points on either source (the store path materialises the live set
        first — the snapshot fan-out cannot filter per segment cheaply).
        """
        spec = spec or AggregationQuery()
        target = self._resolve_suite(spec, suite)
        if self._store is not None and spec.point_filter is None:
            snapshot = self._store.snapshot()
            return [
                snapshot.estimate_count_range(region, epsilon) for region in target.regions
            ]
        context = self._context(spec, target, "estimate", None)
        return run_plan(range_estimate_plan(epsilon), context)

    def raster_count(
        self,
        suite: "str | None" = None,
        *,
        cells_per_polygon: int,
        conservative: bool = True,
        spec: AggregationQuery | None = None,
    ) -> np.ndarray:
        """Approximate per-region counts via query cells over the code index.

        A ``spec`` with a ``point_filter`` counts only the filtered points;
        that path linearizes the filtered set per call instead of using the
        dataset's cached code index (and, for a store source, materialises
        the live points, since the per-run code arrays cannot be filtered).
        """
        spec = spec or AggregationQuery()
        target = self._resolve_suite(spec, suite)
        if self._store is not None and spec.point_filter is None:
            snapshot = self._store.snapshot()
            return np.array(
                [
                    snapshot.raster_count(
                        region,
                        cells_per_polygon,
                        conservative=conservative,
                    )
                    for region in target.regions
                ],
                dtype=np.int64,
            )
        context = self._context(spec, target, "raster-count", None)
        if spec.point_filter is None:
            context.linearized, context.code_index = self._point_index()
        else:
            # The cached index is built over the unfiltered point set; a
            # filtered query gets its own linearization (at the dataset's
            # level) over exactly the filtered points.
            from repro.index.sorted_array import SortedCodeArray
            from repro.query.containment import LinearizedPoints

            filtered = spec.filtered_points(context.points)
            context.linearized = LinearizedPoints.build(filtered, self.frame, self.level)
            context.code_index = SortedCodeArray(
                context.linearized.codes, assume_sorted=True
            )
        return run_plan(raster_count_plan(cells_per_polygon, conservative=conservative), context)

    def _linearization(self):
        """The cached point linearization of a static source, pyramid filled.

        Built on first use from one sort of the points; every coarser level's
        cell runs are derived up front, so concurrent queries only read it.
        It lives on the dataset, not in the registry: it is point-side state
        of this source, not a polygon index.
        """
        if self._linearized is None:
            from repro.query.containment import LinearizedPoints

            self._linearized = LinearizedPoints.build(
                self._points, self.frame, self.level
            ).fill_pyramid()
        return self._linearized

    def _point_index(self):
        """Cached (LinearizedPoints, SortedCodeArray) of a static source."""
        if self._code_index is None:
            from repro.index.sorted_array import SortedCodeArray

            self._code_index = SortedCodeArray(self._linearization().codes, assume_sorted=True)
        return self._linearization(), self._code_index

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, **kwargs):
        """A started :class:`~repro.serve.server.QueryServer` over this dataset.

        Keyword arguments (``max_batch``, ``max_wait_ms``, …)
        pass through to the server.  Use as a context manager::

            with dataset.serve(max_batch=32) as server:
                response = server.submit_join(epsilon=4.0).result()
        """
        # Imported lazily: repro.serve imports this module for the facade
        # types, so a module-level import would be circular.
        from repro.serve.server import QueryServer

        return QueryServer(self, **kwargs).start()

    # ------------------------------------------------------------------ #
    # persistence (whole-session checkpoints)
    # ------------------------------------------------------------------ #
    def save(self, directory, *, sync: bool = True):
        """Checkpoint the whole session under ``directory``.

        Persists the point side (the store's durable checkpoint, or the
        static point set), every registered suite as fingerprint-verified
        WKT, and the execution configuration — everything :meth:`open` needs
        to bring an identical, restartable session back.  See
        :mod:`repro.durable.checkpoint` for the layout and crash-safety
        story.  Returns the session directory.
        """
        # Lazy: repro.durable.checkpoint imports this module.
        from repro.durable.checkpoint import save_session

        return save_session(self, directory, sync=sync)

    @classmethod
    def open(
        cls,
        directory,
        *,
        registry=None,
        config: EngineConfig | None = None,
        durable: "bool | None" = None,
        sync: bool = True,
    ) -> "SpatialDataset":
        """Restore a session checkpointed with :meth:`save`.

        Store-backed sessions replay their write-ahead logs here (the
        store's ``last_recovery`` reports what came back); suite geometry
        is verified against the stored content fingerprints.  ``config``
        overrides the persisted execution configuration wholesale.
        """
        from repro.durable.checkpoint import open_session

        return open_session(
            directory, registry=registry, config=config, durable=durable, sync=sync
        )

    # ------------------------------------------------------------------ #
    # index lifecycle
    # ------------------------------------------------------------------ #
    def act_index(self, suite: str, epsilon: float):
        """The (cached) probe-ready ACT index of a suite at a distance bound."""
        target = self.suite(suite)
        return self.registry.act_index(
            list(target.regions),
            self.frame,
            epsilon=float(epsilon),
            fingerprint=target.fingerprint,
        )

    def registry_stats(self) -> dict:
        """The registry's lifetime hit / miss / invalidation counters."""
        return self.registry.stats.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        source = "store" if self._store is not None else "points"
        sharding = f", shards={self.shards}" if self.shards is not None else ""
        return (
            f"SpatialDataset(source={source}, points={self.num_points}, "
            f"suites={list(self._suites)}{sharding})"
        )
