"""repro — distance-bounded spatial approximations.

A from-scratch Python reproduction of *"The Case for Distance-Bounded Spatial
Approximations"* (CIDR 2021): approximate spatial query processing that skips
exact geometric tests and answers queries on fine-grained raster
approximations whose error is bounded by a user-chosen Hausdorff distance.

The public API re-exports the most commonly used pieces; the sub-packages are

* :mod:`repro.api` — the session facade: datasets, execution config, index registry,
* :mod:`repro.geometry` — geometry kernel (points, polygons, exact predicates),
* :mod:`repro.approx` — MBR family and distance-bounded raster approximations,
* :mod:`repro.curves` — Morton / Hilbert linearization and hierarchical cell ids,
* :mod:`repro.grid` — uniform grids, rasterizer, canvas algebra,
* :mod:`repro.hardware` — simulated GPU device model,
* :mod:`repro.index` — ACT, RadixSpline and the baseline index zoo,
* :mod:`repro.query` — containment queries, joins, range estimation, optimizer,
* :mod:`repro.store` — LSM-style updatable point store with snapshot queries,
* :mod:`repro.data` — synthetic NYC-like workloads.

Quick example::

    from repro import NYCWorkload, AggregationQuery, SpatialDataset

    workload = NYCWorkload()
    dataset = SpatialDataset(
        workload.taxi_points(50_000),
        frame=workload.frame(),
        extent=workload.extent,
        suites={"neighborhoods": workload.neighborhoods(count=16)},
    )
    result = dataset.query(AggregationQuery(epsilon=4.0))
    print(result.strategy, result.counts)
"""

from repro.api import EngineConfig, IndexRegistry, SpatialDataset
from repro.approx import (
    DistanceBound,
    HierarchicalRasterApproximation,
    MBRApproximation,
    UniformRasterApproximation,
)
from repro.data import NYCWorkload
from repro.errors import ReproError
from repro.geometry import BoundingBox, MultiPolygon, Point, PointSet, Polygon
from repro.grid import Canvas, GridFrame, UniformGrid
from repro.hardware import SimulatedGPU
from repro.index import AdaptiveCellTrie, RadixSpline, SortedCodeArray
from repro.query import (
    Aggregate,
    AggregationQuery,
    act_approximate_join,
    bounded_raster_join,
    choose_plan,
    estimate_count_range,
    gpu_baseline_join,
    rtree_exact_join,
    shape_index_exact_join,
)
from repro.store import SizeTieredCompaction, SpatialStore

__version__ = "1.0.0"

__all__ = [
    "AdaptiveCellTrie",
    "Aggregate",
    "AggregationQuery",
    "BoundingBox",
    "Canvas",
    "DistanceBound",
    "EngineConfig",
    "GridFrame",
    "HierarchicalRasterApproximation",
    "IndexRegistry",
    "MBRApproximation",
    "MultiPolygon",
    "NYCWorkload",
    "Point",
    "PointSet",
    "Polygon",
    "RadixSpline",
    "ReproError",
    "SimulatedGPU",
    "SizeTieredCompaction",
    "SortedCodeArray",
    "SpatialDataset",
    "SpatialStore",
    "UniformGrid",
    "UniformRasterApproximation",
    "act_approximate_join",
    "bounded_raster_join",
    "choose_plan",
    "estimate_count_range",
    "gpu_baseline_join",
    "rtree_exact_join",
    "shape_index_exact_join",
    "__version__",
]
