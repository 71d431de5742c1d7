"""Live geofences: mutate polygon boundaries under a continuously served join.

A fleet-monitoring scenario: taxi-like points stream through a
`SpatialDataset` whose "geofences" suite is **live** — an operator moves a
fence, retires another and draws a new one while count queries keep running.
Every mutation goes through the delta-only path: each polygon carries a
blake2b content fingerprint, unchanged fences are skipped entirely, and the
cached `FlatACT` index is patched in place (only the changed fence's cell
postings are rebuilt) instead of being thrown away and rebuilt from scratch.

The script prints, per mutation, what the delta contained, how long the
patch took versus a from-scratch index rebuild, and finally verifies the
paper-grade guarantee: the patched index answers the aggregation join
**bit-identically** to a dataset built directly on the final geometry.

Run with::

    python examples/live_geofence.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import AggregationQuery, NYCWorkload, SpatialDataset
from repro.approx.build_engine import get_build_engine
from repro.bench import print_table

EPSILON = 4.0


def main() -> None:
    workload = NYCWorkload(seed=11)
    points = workload.taxi_points(100_000)
    fences = workload.neighborhoods(count=24)
    dataset = SpatialDataset(
        points,
        frame=workload.frame(),
        extent=workload.extent,
        suites={"geofences": fences},
    )
    spec = AggregationQuery(epsilon=EPSILON, suite="geofences")
    dataset.act_index("geofences", EPSILON)  # warm the patch target
    builder = get_build_engine(None)

    print(f"{len(points):,} pickup points, {len(fences)} live geofences")
    baseline = dataset.query(spec)
    print(f"initial query: strategy={baseline.strategy}, counts[:4]={baseline.counts[:4]}")

    # The operator's session: move fence 0, retire fence 3, draw a new one,
    # and re-submit fence 5 unchanged (a fingerprint-skipped no-op).
    mutations = [
        ("move fence 0", lambda: dataset.replace_polygon(
            "geofences", 0, dataset.suite("geofences").regions[0].translated(30.0, -20.0)
        )),
        ("retire fence 3", lambda: dataset.remove_polygons("geofences", [3])),
        ("draw a new fence", lambda: dataset.add_polygons(
            "geofences", [workload.neighborhoods(count=25)[24]]
        )),
        ("re-submit fence 5 unchanged", lambda: dataset.replace_polygon(
            "geofences", 5, dataset.suite("geofences").regions[5]
        )),
    ]

    rows = []
    for label, mutate in mutations:
        start = time.perf_counter()
        info = mutate()
        patch_ms = (time.perf_counter() - start) * 1e3
        current = list(dataset.suite("geofences").regions)
        start = time.perf_counter()
        builder.load_act(current, dataset.frame, epsilon=EPSILON)
        rebuild_ms = (time.perf_counter() - start) * 1e3
        rows.append(
            [
                label,
                "skip (identical)" if info["noop"]
                else f"{info['replaced']}r / {info['added']}a / {info['removed']}d",
                round(patch_ms, 2),
                round(rebuild_ms, 2),
                f"{rebuild_ms / max(patch_ms, 1e-9):.0f}x",
            ]
        )

    print()
    print_table(
        ["mutation", "delta", "patch ms", "full rebuild ms", "speedup"],
        rows,
        title="Delta-only patches vs from-scratch rebuilds",
    )

    # Rebuild parity: the patched cached index answers exactly like a fresh
    # dataset over the final geometry — floats included.
    final_regions = list(dataset.suite("geofences").regions)
    patched = dataset.query(spec)
    fresh = SpatialDataset(
        points,
        frame=workload.frame(),
        extent=workload.extent,
        suites={"geofences": final_regions},
    ).query(spec)
    assert np.array_equal(patched.counts, fresh.counts)
    assert np.array_equal(patched.aggregates, fresh.aggregates)

    stats = dataset.registry_stats()
    print()
    print(
        f"registry: {stats['patches']} patches over {stats['patched_polygons']} "
        f"polygons, {stats['suite_hits']} suite hits / {stats['suite_misses']} misses"
    )
    print("rebuild parity: patched index == from-scratch build, bit for bit")


if __name__ == "__main__":
    main()
