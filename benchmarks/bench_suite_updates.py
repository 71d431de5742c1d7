"""SUITE — delta-only polygon updates vs full index rebuilds.

Live polygon suites turn an index rebuild into a patch: replacing one
polygon fingerprints the suite, skips every unchanged entry, rebuilds only
the changed polygon's cell arrays and splices them into the cached
:class:`~repro.index.FlatACT`.  This benchmark sweeps suite sizes up to the
fig6 scale and measures the single-polygon update latency of the patch path
against a from-scratch rebuild of the whole suite, asserting both:

* **bit parity**, unconditionally at every scale — after each patch the
  patched index answers the fig6 aggregation join byte-identically (floats
  included) to an index built from scratch over the mutated suite;
* **>=10x patch speedup** at the full-scale suite size (skipped in CI smoke
  runs, whose suites are too small for the asymmetry to fully develop).

Each JSON run record carries the ``patched_polygons`` and
``rebuild_speedup`` fields the CI smoke job greps for.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import SpatialDataset
from repro.bench import append_run_record, is_smoke_run, print_table, run_record
from repro.query import AggregationQuery

ACT_EPSILON = 32.0 if is_smoke_run() else 4.0
ROUNDS = 2 if is_smoke_run() else 3


def _suite_sizes(scale):
    """Swept suite sizes, ending at the fig6 neighborhood count."""
    full = scale.num_neighborhoods
    if is_smoke_run():
        return [max(full // 2, 2), full]
    return sorted({max(full // 4, 2), max(full // 2, 2), full})


@pytest.fixture(scope="module")
def spec():
    return AggregationQuery(epsilon=ACT_EPSILON)


def _best_of(rounds, fn):
    best, value = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_single_polygon_update_vs_rebuild(workload, join_points, frame, scale, spec):
    full_size = scale.num_neighborhoods
    rows = []
    speedups = {}
    for size in _suite_sizes(scale):
        regions = workload.neighborhoods(count=size)
        dataset = SpatialDataset(
            join_points,
            frame=frame,
            extent=workload.extent,
            suites={"hood": regions},
        )
        dataset.act_index("hood", ACT_EPSILON)  # the patch target

        # Patch path: replace one polygon in place.  Each round moves the
        # polygon again (every mutation is a real delta, never a
        # fingerprint skip), so best-of-N measures the patch, not a no-op.
        moved = regions[0]
        def patch():
            nonlocal moved
            moved = moved.translated(25.0, -15.0)
            return dataset.replace_polygon("hood", 0, moved)

        patch_seconds, info = _best_of(ROUNDS, patch)
        assert not info["noop"] and info["patched_entries"] == 1

        # Rebuild path: from-scratch index over the exact post-patch suite.
        from repro.approx.build_engine import get_build_engine

        current = list(dataset.suite("hood").regions)
        builder = get_build_engine(None)
        rebuild_seconds, rebuilt = _best_of(
            ROUNDS,
            lambda: builder.load_act(current, frame, epsilon=ACT_EPSILON),
        )

        # Bit parity, asserted at every scale: the patched cached index and
        # the from-scratch rebuild answer the join identically.
        patched_result = dataset.query(spec, suite="hood", strategy="act")
        fresh = SpatialDataset(
            join_points,
            frame=frame,
            extent=workload.extent,
            suites={"hood": current},
        )
        fresh_result = fresh.query(spec, suite="hood", strategy="act")
        assert np.array_equal(patched_result.counts, fresh_result.counts)
        assert np.array_equal(patched_result.aggregates, fresh_result.aggregates)

        speedup = rebuild_seconds / max(patch_seconds, 1e-12)
        speedups[size] = speedup
        stats = dataset.registry_stats()
        rows.append(
            [
                size,
                round(patch_seconds * 1e3, 3),
                round(rebuild_seconds * 1e3, 3),
                f"{speedup:.1f}x",
                stats["patches"],
            ]
        )
        record = run_record(
            "suite-updates",
            f"replace1-of-{size}:neighborhoods",
            patch_seconds,
            num_points=len(join_points),
            build_seconds=rebuild_seconds,
            metrics={
                "suite_size": size,
                "patched_polygons": 1,
                "patch_seconds": patch_seconds,
                "rebuild_seconds": rebuild_seconds,
                "rebuild_speedup": round(speedup, 3),
                # Registry-side cumulative patch time (spans measure it now).
                "registry_patch_seconds": stats["patch_seconds"],
            },
        )
        # The CI smoke job greps the JSONL for these fields; fail fast here
        # if the record shape regresses.
        assert record["metrics"]["patched_polygons"] == 1
        assert record["metrics"]["rebuild_speedup"] > 0
        assert record["metrics"]["registry_patch_seconds"] > 0
        append_run_record(record)

    print_table(
        ["suite size", "patch ms", "rebuild ms", "speedup", "patches"],
        rows,
        title=(
            f"SUITE  single-polygon update vs full rebuild "
            f"({len(join_points):,} points, eps={ACT_EPSILON} m)"
        ),
    )

    if not is_smoke_run():
        # The acceptance target: patching 1 of the fig6-scale suite's
        # polygons beats rebuilding the whole index by >= 10x.
        assert speedups[full_size] >= 10.0, (
            f"full-scale patch speedup {speedups[full_size]:.1f}x < 10x"
        )
