"""Public query facade: datasets, execution configuration, index lifecycle.

This package is the recommended entry point for applications.  One
:class:`SpatialDataset` session owns the grid frame, a point source (static
point set or live updatable store), named polygon suites, an
:class:`EngineConfig` with the optimizer knobs and sharded fan-out, and an
:class:`IndexRegistry` caching the polygon indexes; ``dataset.query(spec)``
plans the declarative :class:`~repro.query.spec.AggregationQuery` with the
cost-based optimizer and executes the chosen plan on the batch kernels —
bit-identical to calling the kernels directly.

The free functions in :mod:`repro.query` remain available as the underlying
execution kernels.
"""

from repro.api.config import EngineConfig
from repro.api.dataset import DatasetResult, PolygonSuite, SpatialDataset
from repro.api.fingerprint import (
    SuiteDelta,
    diff_suites,
    entry_fingerprints,
    region_fingerprint,
)
from repro.api.registry import IndexRegistry, RegistryStats, suite_fingerprint

__all__ = [
    "DatasetResult",
    "EngineConfig",
    "IndexRegistry",
    "PolygonSuite",
    "RegistryStats",
    "SpatialDataset",
    "SuiteDelta",
    "diff_suites",
    "entry_fingerprints",
    "region_fingerprint",
    "suite_fingerprint",
]
