"""Tests for the plan representation and the cost-based optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.geometry import BoundingBox, PointSet, Polygon
from repro.hardware import DeviceSpec, SimulatedGPU
from repro.query import (
    AggregationQuery,
    PlanContext,
    bounded_raster_join,
    choose_plan,
    exact_join_reference,
    execute_plan,
    explain,
    filter_refine_plan,
    median_relative_error,
    raster_aggregation_plan,
)
from repro.query.optimizer import CostModel, _estimate_raster_cost


class TestPlans:
    def test_raster_plan_structure(self):
        plan = raster_aggregation_plan(epsilon=5.0)
        assert plan.operator == "group_reduce"
        rendered = explain(plan)
        assert "rasterize_points" in rendered
        assert "mask_blend" in rendered

    def test_filter_refine_plan_structure(self):
        plan = filter_refine_plan(grid_resolution=512)
        rendered = explain(plan)
        assert "grid_filter" in rendered
        assert "pip_refine" in rendered

    def test_invalid_epsilon(self):
        with pytest.raises(QueryError):
            raster_aggregation_plan(epsilon=0.0)

    def test_execute_unknown_plan(self, taxi_points, neighborhoods):
        from repro.query.plan import PlanNode

        context = PlanContext(points=taxi_points, regions=neighborhoods, query=AggregationQuery())
        with pytest.raises(QueryError):
            execute_plan(PlanNode("bogus"), context)


class TestOptimizer:
    def test_exact_required_chooses_exact_plan(self, taxi_points, neighborhoods):
        choice = choose_plan(taxi_points, neighborhoods, AggregationQuery(epsilon=None))
        assert choice.strategy == "exact"

    def test_loose_bound_chooses_raster_plan(self, taxi_points, neighborhoods, workload):
        choice = choose_plan(
            taxi_points, neighborhoods, AggregationQuery(epsilon=10.0), extent=workload.extent
        )
        assert choice.strategy == "raster"
        assert choice.chose_raster

    def test_extremely_tight_bound_prefers_exact_plan(self, taxi_points, neighborhoods, workload):
        """When the bound forces a canvas far beyond the device resolution,
        the exact plan becomes cheaper (the Figure 7 crossover)."""
        choice = choose_plan(
            taxi_points,
            neighborhoods,
            AggregationQuery(epsilon=0.001),
            extent=workload.extent,
            device=DeviceSpec(max_texture_size=1024),
        )
        assert choice.strategy == "exact"

    def test_costs_reported(self, taxi_points, neighborhoods, workload):
        choice = choose_plan(
            taxi_points, neighborhoods, AggregationQuery(epsilon=10.0), extent=workload.extent
        )
        assert choice.raster_cost > 0
        assert choice.exact_cost > 0

    def test_exact_loop_priced_once_for_all_candidates(
        self, taxi_points, neighborhoods, workload, monkeypatch
    ):
        """The per-region PIP loop runs once; every consumer gets its float."""
        from repro.query import optimizer

        real = optimizer._estimate_exact_cost
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(optimizer, "_estimate_exact_cost", spy)
        choice = choose_plan(
            taxi_points,
            neighborhoods,
            AggregationQuery(epsilon=10.0),
            extent=workload.extent,
            candidates=optimizer.STRATEGIES,
        )
        assert len(calls) == 1
        exact = real(*calls[0])
        model = optimizer.CostModel()
        filtered = len(taxi_points) * model.filter_cost
        covering = len(neighborhoods) * 32 * model.covering_cell_cost
        assert choice.costs["exact"] == choice.costs["rtree"] == exact
        assert choice.costs["shape-index"] == (
            filtered + (exact - filtered) * model.covering_tightness + covering
        )
        assert choice.exact_cost == min(exact, choice.costs["shape-index"])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_raster_pass_count_matches_brj(self, k):
        """Just over ``k`` textures wide the canvas needs ``k + 1`` tile
        columns; the planner must charge the passes BRJ actually runs."""
        device = DeviceSpec(max_texture_size=16)
        epsilon = 2.0**0.5  # one-unit pixels
        extent = BoundingBox(0.0, 0.0, k * 16 + 0.5, 10.0)
        passes_only = CostModel(pixel_cost=0.0, pass_cost=1.0, filter_cost=0.0)
        planned = _estimate_raster_cost(extent, epsilon, 0, device, passes_only)
        square = Polygon([(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)])
        result = bounded_raster_join(
            PointSet([2.0], [2.0]), [square], epsilon, extent=extent, gpu=SimulatedGPU(device)
        )
        assert result.num_passes == k + 1
        assert planned == result.num_passes

    def test_chosen_plans_execute_and_agree_with_reference(
        self, taxi_points, neighborhoods, workload
    ):
        reference = exact_join_reference(taxi_points, neighborhoods)
        query = AggregationQuery(epsilon=10.0)
        choice = choose_plan(taxi_points, neighborhoods, query, extent=workload.extent)
        context = PlanContext(
            points=taxi_points, regions=neighborhoods, query=query, extent=workload.extent
        )
        result = execute_plan(choice.plan, context)
        assert median_relative_error(np.asarray(result), reference.counts.astype(float)) < 0.02
