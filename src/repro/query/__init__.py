"""Query layer: containment queries, joins, range estimation and optimization."""

from repro.query.accuracy import (
    PrecisionRecall,
    max_distance_to_boundary,
    median_relative_error,
    precision_recall,
    relative_errors,
)
from repro.query.containment import (
    LinearizedPoints,
    exact_count,
    mbr_filter_count,
    polygon_query_ranges,
    raster_count,
)
from repro.query.engine import ProbeOutcome
from repro.query.join_brj import BRJResult, bounded_raster_join
from repro.query.join_gpu_baseline import GPUBaselineResult, gpu_baseline_join
from repro.query.join_mm import (
    JoinResult,
    act_approximate_join,
    exact_join_reference,
    rtree_exact_join,
    shape_index_exact_join,
)
from repro.query.optimizer import STRATEGIES, CostModel, PlanChoice, choose_plan
from repro.query.plan import (
    PlanContext,
    PlanNode,
    act_join_plan,
    execute_plan,
    explain,
    filter_refine_plan,
    range_estimate_plan,
    raster_aggregation_plan,
    raster_count_plan,
    rtree_join_plan,
    run_plan,
    shape_index_join_plan,
)
from repro.query.range_estimation import ResultRange, estimate_count_range
from repro.query.selectivity import (
    PointHistogram,
    SelectivityEstimate,
    area_selectivity,
    histogram_selectivity,
)
from repro.query.spec import Aggregate, AggregationQuery

__all__ = [
    "Aggregate",
    "AggregationQuery",
    "BRJResult",
    "CostModel",
    "ProbeOutcome",
    "GPUBaselineResult",
    "JoinResult",
    "LinearizedPoints",
    "PlanChoice",
    "PlanContext",
    "PlanNode",
    "PointHistogram",
    "PrecisionRecall",
    "ResultRange",
    "STRATEGIES",
    "SelectivityEstimate",
    "act_approximate_join",
    "act_join_plan",
    "area_selectivity",
    "bounded_raster_join",
    "choose_plan",
    "estimate_count_range",
    "exact_count",
    "exact_join_reference",
    "execute_plan",
    "explain",
    "filter_refine_plan",
    "gpu_baseline_join",
    "histogram_selectivity",
    "max_distance_to_boundary",
    "mbr_filter_count",
    "median_relative_error",
    "polygon_query_ranges",
    "precision_recall",
    "range_estimate_plan",
    "raster_aggregation_plan",
    "raster_count",
    "raster_count_plan",
    "relative_errors",
    "rtree_exact_join",
    "rtree_join_plan",
    "run_plan",
    "shape_index_exact_join",
    "shape_index_join_plan",
]
