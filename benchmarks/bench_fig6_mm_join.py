"""FIG6 — main-memory spatial aggregation join (Figure 6).

The paper joins 1.2B taxi points with three NYC polygon suites (Boroughs,
Neighborhoods, Census) and compares

* ACT — the approximate index-nested-loop join over distance-bounded
  hierarchical raster approximations (4 m bound, no PIP tests),
* the Boost R*-tree exact filter-and-refine join (MBR filter + PIP), and
* an S2ShapeIndex-like exact join (coarse covering + PIP).

Expected shape: ACT wins everywhere; the gap is largest for Boroughs (complex
polygons make each PIP test expensive) and smallest for Census (simple
polygons), and ACT pays for its speed with a much larger index.

The ACT *build* phase (suite-wide HR frontier sweep + FlatACT bulk load) is
measured on its own, and every join probes its prebuilt index through the
batch kernels.  Each run appends a JSON record with its ``build_seconds`` /
``probe_seconds`` split and probe throughput (points/sec) so the perf
trajectory across PRs stays comparable.

The joins execute through the :class:`repro.api.SpatialDataset` facade — one
dataset owns the suites and the polygon-index registry, every measurement is
a planned ``dataset.join``, and the registry's hit/miss counters land in the
run records (the index is warmed per suite, so probe measurements run
against a cache hit, exactly like the prebuilt-trie setup they replace).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import SpatialDataset
from repro.approx import get_build_engine
from repro.bench import append_run_record, is_smoke_run, run_record
from repro.query import (
    AggregationQuery,
    act_approximate_join,
    exact_join_reference,
    median_relative_error,
)

#: The paper's distance bound for ACT (metres).  The CI smoke run loosens it:
#: the bound sets the refinement depth (and thus the cell count) regardless
#: of the suite scale, and the smoke job only needs every build/probe path to
#: execute, not the paper's precision.
ACT_EPSILON = 32.0 if is_smoke_run() else 4.0

SUITES = ("boroughs", "neighborhoods", "census")


def _emit(name: str, suite: str, outcome) -> None:
    """Append the JSON run record of one facade join measurement."""
    result = outcome.result
    append_run_record(
        run_record(
            "fig6",
            f"{name}:{suite}",
            result.probe_seconds,
            num_points=result.index_probes,
            build_seconds=result.build_seconds + outcome.registry_build_seconds,
            probe_seconds=result.probe_seconds,
            metrics={
                "pip_tests": result.pip_tests,
                "index_memory_bytes": result.index_memory_bytes,
                "registry_hits": outcome.registry_hits,
                "registry_misses": outcome.registry_misses,
            },
        )
    )


@pytest.fixture(scope="module")
def polygon_suites(boroughs, neighborhoods, census):
    return {"boroughs": boroughs, "neighborhoods": neighborhoods, "census": census}


@pytest.fixture(scope="module")
def reference_counts(join_points, polygon_suites):
    return {
        name: exact_join_reference(join_points, regions).counts
        for name, regions in polygon_suites.items()
    }


@pytest.fixture(scope="module")
def dataset(join_points, polygon_suites, frame, workload):
    """One facade session over the fig6 workload, ACT indexes warmed per
    suite (the paper also reports query time over a pre-built index)."""
    ds = SpatialDataset(
        join_points, frame=frame, extent=workload.extent, suites=polygon_suites
    )
    for name in polygon_suites:
        ds.act_index(name, ACT_EPSILON)
    return ds


@pytest.mark.parametrize("suite", SUITES)
def test_fig6_act_build(
    benchmark, suite, join_points, polygon_suites, frame, reference_counts
):
    """ACT build phase: suite-wide HR approximations + FlatACT bulk load.

    The built index must drive the join to the paper's approximate answer;
    the ``build_seconds`` records track the construction cost.
    """
    regions = polygon_suites[suite]
    builder = get_build_engine(None)

    start = time.perf_counter()
    index = benchmark.pedantic(
        builder.load_act,
        args=(regions, frame),
        kwargs={"epsilon": ACT_EPSILON},
        rounds=1,
        iterations=1,
    )
    build_seconds = time.perf_counter() - start

    # The built index must drive the join to the same approximate answer.
    result = act_approximate_join(
        join_points, regions, frame, epsilon=ACT_EPSILON, trie=index
    )
    error = median_relative_error(result.counts, reference_counts[suite])
    benchmark.extra_info.update(
        {
            "suite": suite,
            "num_cells": index.num_cells,
            "index_memory_bytes": index.memory_bytes(),
            "median_rel_error": round(error, 4),
        }
    )
    append_run_record(
        run_record(
            "fig6",
            f"act_build:{suite}",
            build_seconds,
            build_seconds=build_seconds,
            probe_seconds=0.0,
            metrics={
                "num_cells": index.num_cells,
                "index_memory_bytes": index.memory_bytes(),
            },
        )
    )
    assert error < 0.05


@pytest.mark.parametrize("suite", SUITES)
def test_fig6_act_approximate_join(
    benchmark, suite, dataset, reference_counts
):
    outcome = benchmark.pedantic(
        dataset.join,
        args=(suite,),
        kwargs={"strategy": "act", "epsilon": ACT_EPSILON},
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    error = median_relative_error(result.counts, reference_counts[suite])
    benchmark.extra_info.update(
        {
            "suite": suite,
            "pip_tests": result.pip_tests,
            "median_rel_error": round(error, 4),
            "index_memory_bytes": result.index_memory_bytes,
            "points_per_second": round(result.probe_throughput),
            "registry_hits": outcome.registry_hits,
        }
    )
    _emit("act", suite, outcome)
    assert result.pip_tests == 0
    # The warmed registry serves the probe: no rebuild inside the measurement.
    assert outcome.registry_misses == 0
    assert error < 0.05


@pytest.mark.parametrize("suite", SUITES)
def test_fig6_rstar_exact_join(
    benchmark, suite, dataset, reference_counts
):
    outcome = benchmark.pedantic(
        dataset.join,
        args=(suite,),
        kwargs={"strategy": "rtree"},
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    benchmark.extra_info.update(
        {
            "suite": suite,
            "pip_tests": result.pip_tests,
            "index_memory_bytes": result.index_memory_bytes,
            "points_per_second": round(result.probe_throughput),
        }
    )
    _emit("rtree", suite, outcome)
    assert (result.counts == reference_counts[suite]).all()


@pytest.mark.parametrize("suite", SUITES)
def test_fig6_shape_index_exact_join(
    benchmark, suite, dataset, reference_counts
):
    outcome = benchmark.pedantic(
        dataset.join,
        args=(suite,),
        kwargs={"strategy": "shape-index"},
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    benchmark.extra_info.update(
        {
            "suite": suite,
            "pip_tests": result.pip_tests,
            "index_memory_bytes": result.index_memory_bytes,
            "points_per_second": round(result.probe_throughput),
        }
    )
    _emit("shape_index", suite, outcome)
    assert (result.counts == reference_counts[suite]).all()


@pytest.mark.parametrize("suite", ("neighborhoods",))
def test_fig6_facade_registry_sweep(
    benchmark, suite, join_points, polygon_suites, frame, workload, reference_counts
):
    """One fig6 config through the full facade path: plan → registry → kernel.

    A fresh dataset (cold registry) answers the same planned query twice:
    the first execution builds the suite's ACT index (one miss), the second
    is a pure cache hit, and both answers are bit-identical.  The CI
    bench-smoke job sweeps this at tiny scale, so a regression in the
    facade/registry wiring fails fast.
    """
    ds = SpatialDataset(
        join_points,
        frame=frame,
        extent=workload.extent,
        suites={suite: polygon_suites[suite]},
    )
    spec = AggregationQuery(epsilon=ACT_EPSILON, suite=suite)

    cold = ds.query(spec, strategy="act")
    warm = benchmark.pedantic(ds.query, args=(spec,), kwargs={"strategy": "act"},
                              rounds=1, iterations=1)
    assert (cold.registry_hits, cold.registry_misses) == (0, 1)
    assert (warm.registry_hits, warm.registry_misses) == (1, 0)
    assert np.array_equal(cold.counts, warm.counts)
    assert np.array_equal(cold.aggregates, warm.aggregates)

    # The facade answer equals the direct kernel call, bit for bit.
    direct = act_approximate_join(
        join_points, polygon_suites[suite], frame, epsilon=ACT_EPSILON
    )
    assert np.array_equal(warm.counts, direct.counts)
    assert np.array_equal(warm.aggregates, direct.aggregates)
    error = median_relative_error(warm.counts, reference_counts[suite])
    append_run_record(
        run_record(
            "fig6",
            f"facade:{suite}",
            warm.result.probe_seconds,
            num_points=warm.result.index_probes,
            build_seconds=cold.registry_build_seconds,
            probe_seconds=warm.result.probe_seconds,
            metrics={
                "strategy": warm.strategy,
                "registry_hits": warm.registry_hits,
                "registry_misses": cold.registry_misses,
                "median_rel_error": round(error, 4),
            },
        )
    )
    assert error < 0.05
