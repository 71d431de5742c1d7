"""Command-line interface.

``python -m repro.cli <command>`` exposes the main entry points of the library
without writing any code: generating workloads, running the aggregation query
under each execution strategy, and reproducing individual paper experiments at
a chosen scale.

Commands
--------

``info``
    Print the library version and the available sub-systems.
``workload``
    Generate a synthetic workload and print its summary statistics.
``join``
    Run the spatial aggregation query with one or all strategies and report
    times, accuracy and index sizes.
``estimate``
    Result-range estimation for every region of a suite.
``plan``
    Show which plan the optimizer picks for a given distance bound;
    ``--execute`` additionally runs the chosen plan and reports the result.
``store``
    Stream the workload into the LSM-style updatable store — batched
    inserts/deletes with interleaved joins — and verify that every query
    matches a from-scratch rebuild.  ``--wal DIR`` makes the store durable
    (every mutation is write-ahead logged and fsync'd before acking);
    ``--incremental-compaction`` / ``--compaction-budget-bytes`` bound the
    per-flush compaction work.
``recover``
    Replay a durable store directory's write-ahead log, print the recovery
    report, and (``--verify``) check a join against a from-scratch rebuild.
``serve-bench``
    Drive the concurrent serving layer with closed-loop clients under
    live ingest and compare serial dispatch against micro-batched query
    coalescing (QPS, p50/p99 latency, batch occupancy).
``suite``
    Apply a scripted sequence of live polygon-suite mutations (move /
    scale / add / remove / noop) through the delta-only patch path and
    report patch-vs-rebuild timings plus the rebuild-parity verdict.
``trace``
    Run any other command under the span tracer and export the span tree
    as Chrome trace-event JSON, viewable in Perfetto
    (https://ui.perfetto.dev): ``repro trace join --points 20000``.

``--verbose`` (before the command) attaches a stderr handler to the
``repro`` logger hierarchy, surfacing server lifecycle, registry
invalidation, flush and compaction events.

Every query command routes through the :class:`repro.api.SpatialDataset`
facade: one dataset owns the workload's frame, the polygon suite, the shard
configuration and the polygon-index registry, and each strategy executes as
a planned query over it.

Examples
--------

::

    python -m repro.cli join --strategy act --points 50000 --regions 32 --epsilon 4
    python -m repro.cli plan --points 100000 --regions 64 --epsilon 10 --execute
    python -m repro.cli estimate --points 50000 --suite boroughs --epsilon 10
    python -m repro.cli store --points 100000 --batches 10 --delete-fraction 0.05
    python -m repro.cli serve-bench --points 20000 --clients 8 --duration 2 --max-batch 32
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro import __version__
from repro.api import EngineConfig, SpatialDataset
from repro.bench import print_table
from repro.data import NYCWorkload
from repro.geometry.measures import complexity_summary
from repro.query import (
    AggregationQuery,
    exact_join_reference,
    explain,
    median_relative_error,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distance-bounded spatial approximations (CIDR 2021 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log repro.* events (lifecycle, invalidation, compaction) to stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="print version and sub-system overview")

    workload = subparsers.add_parser("workload", help="generate and summarise a synthetic workload")
    _add_workload_arguments(workload)

    join = subparsers.add_parser("join", help="run the spatial aggregation join")
    _add_workload_arguments(join)
    join.add_argument(
        "--strategy",
        choices=("act", "rtree", "shape-index", "brj", "gpu-baseline", "all"),
        default="all",
        help="execution strategy to run",
    )
    join.add_argument("--epsilon", type=float, default=4.0, help="distance bound in metres")
    _add_shard_arguments(join)

    estimate = subparsers.add_parser("estimate", help="result-range estimation per region")
    _add_workload_arguments(estimate)
    estimate.add_argument("--epsilon", type=float, default=10.0, help="distance bound in metres")

    plan = subparsers.add_parser("plan", help="show the optimizer's plan choice")
    _add_workload_arguments(plan)
    plan.add_argument("--epsilon", type=float, default=None, help="distance bound (omit for exact)")
    plan.add_argument(
        "--execute",
        action="store_true",
        help="run the chosen plan and print the result summary and timing",
    )
    _add_shard_arguments(plan)

    store = subparsers.add_parser(
        "store", help="stream the workload through the updatable spatial store"
    )
    _add_workload_arguments(store)
    store.add_argument("--epsilon", type=float, default=4.0, help="distance bound in metres")
    store.add_argument("--batches", type=int, default=8, help="number of ingest batches")
    store.add_argument(
        "--delete-fraction",
        type=float,
        default=0.05,
        help="fraction of live points deleted after each batch",
    )
    store.add_argument(
        "--level", type=int, default=12, help="linearization level of the store runs"
    )
    store.add_argument(
        "--memtable-capacity", type=int, default=8192, help="buffered entries per flush"
    )
    store.add_argument(
        "--no-compact",
        action="store_true",
        help="disable size-tiered compaction (runs accumulate per flush)",
    )
    store.add_argument(
        "--wal",
        metavar="DIR",
        default=None,
        help=(
            "make the store durable: create it in DIR with a write-ahead "
            "log (recover later with 'repro recover DIR')"
        ),
    )
    store.add_argument(
        "--incremental-compaction",
        action="store_true",
        help="bound auto-compaction to one tier merge per flush",
    )
    store.add_argument(
        "--compaction-budget-bytes",
        type=int,
        default=None,
        metavar="N",
        help="bound auto-compaction to ~N merged bytes per flush",
    )
    _add_shard_arguments(store)

    recover = subparsers.add_parser(
        "recover",
        help="replay a durable store's write-ahead log and report what came back",
    )
    recover.add_argument("directory", help="store directory written by 'repro store --wal'")
    recover.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after recovery, compare an aggregation join against a "
            "from-scratch rebuild of the live point set (bit-exact)"
        ),
    )

    serve = subparsers.add_parser(
        "serve-bench",
        help="closed-loop serving benchmark: serial dispatch vs micro-batched coalescing",
    )
    _add_workload_arguments(serve)
    serve.add_argument("--epsilon", type=float, default=4.0, help="distance bound in metres")
    serve.add_argument(
        "--clients", type=int, default=8, help="closed-loop client threads"
    )
    serve.add_argument(
        "--duration", type=float, default=2.0, help="measured seconds per configuration"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="coalescing window size (requests fused per kernel call)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="how long the dispatcher holds a batch open for stragglers",
    )
    serve.add_argument(
        "--ingest-batch",
        type=int,
        default=200,
        help="points per concurrent writer insert (0 disables the writer)",
    )
    serve.add_argument(
        "--serial-baseline",
        dest="serial_baseline",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also run the max_batch=1 serial-dispatch baseline for comparison",
    )
    serve.add_argument(
        "--level", type=int, default=12, help="linearization level of the store runs"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool workers for the fused probe (0 = serial in-process)",
    )
    serve.add_argument(
        "--trace",
        nargs="?",
        const="serve-trace.json",
        default=None,
        metavar="PATH",
        help=(
            "run the benchmark under the span tracer and write Chrome "
            "trace-event JSON (default path: serve-trace.json)"
        ),
    )

    trace_cmd = subparsers.add_parser(
        "trace",
        help="run another command under the span tracer and export a Perfetto trace",
    )
    trace_cmd.add_argument(
        "--output",
        "-o",
        default="trace.json",
        help="Chrome trace-event JSON output path (open in https://ui.perfetto.dev)",
    )
    trace_cmd.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        metavar="command",
        help="the command line to trace, e.g. 'join --points 20000'",
    )

    suite_cmd = subparsers.add_parser(
        "suite",
        help="apply live suite mutations via delta-only patches and verify parity",
    )
    _add_workload_arguments(suite_cmd)
    suite_cmd.add_argument("--epsilon", type=float, default=4.0, help="distance bound in metres")
    suite_cmd.add_argument(
        "--script",
        default="move:0:120,80;scale:1:1.15;add:2;remove:0;noop:1",
        help=(
            "semicolon-separated mutation ops: move:POS:DX,DY | "
            "scale:POS:FACTOR | add:N | remove:POS | noop:POS "
            "(noop re-applies a polygon unchanged — the fingerprint skip)"
        ),
    )

    return parser


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "partition the point side into N rectangular tiles and run "
            "scatter-gather plans over them (exact merge, identical results)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "process-pool workers for the sharded fan-out "
            "(0 = serial in-process, the default)"
        ),
    )


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=int, default=50_000, help="number of taxi-like points")
    parser.add_argument(
        "--regions", type=int, default=32, help="number of regions (neighborhood/census suites)"
    )
    parser.add_argument(
        "--suite",
        choices=("neighborhoods", "census", "boroughs"),
        default="neighborhoods",
        help="polygon suite to query",
    )


def _build_workload(args: argparse.Namespace):
    workload = NYCWorkload(seed=args.seed)
    points = workload.taxi_points(args.points)
    if args.suite == "neighborhoods":
        regions = workload.neighborhoods(count=args.regions)
    elif args.suite == "census":
        side = max(2, int(round(args.regions**0.5)))
        regions = workload.census(rows=side, cols=side)
    else:
        regions = workload.boroughs(count=max(args.regions, 2))
    return workload, points, regions


def _build_dataset(args: argparse.Namespace):
    """The workload wrapped in a :class:`SpatialDataset` facade session."""
    workload, points, regions = _build_workload(args)
    config = EngineConfig(workers=getattr(args, "workers", 0))
    dataset = SpatialDataset(
        points,
        frame=workload.frame(),
        extent=workload.extent,
        suites={args.suite: regions},
        config=config,
        shards=getattr(args, "shards", None),
    )
    return workload, points, regions, dataset


# --------------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------------- #
def _cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} — distance-bounded spatial approximations")
    print_table(
        ["sub-system", "purpose"],
        [
            ["repro.geometry", "geometry kernel and exact predicates"],
            ["repro.approx", "MBR family + distance-bounded rasters"],
            ["repro.curves", "Morton / Hilbert linearization, cell ids"],
            ["repro.grid", "uniform grids, rasterizer, canvas algebra"],
            ["repro.hardware", "simulated GPU device model"],
            ["repro.index", "ACT, RadixSpline and baseline indexes"],
            ["repro.query", "joins, containment, range estimation, optimizer"],
            ["repro.data", "synthetic NYC-like workloads"],
        ],
    )
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    workload, points, regions = _build_workload(args)
    summary = complexity_summary(regions)
    print_table(
        ["property", "value"],
        [
            ["extent", f"{workload.extent.width/1000:.1f} km x {workload.extent.height/1000:.1f} km"],
            ["points", len(points)],
            ["point attributes", ", ".join(points.attribute_names)],
            ["regions", int(summary["count"])],
            ["mean vertices / region", round(summary["mean_vertices"], 1)],
            ["max vertices / region", int(summary["max_vertices"])],
            ["total region area (km^2)", round(summary["total_area"] / 1e6, 2)],
        ],
        title=f"Synthetic workload (suite={args.suite}, seed={args.seed})",
    )
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    _, points, regions, dataset = _build_dataset(args)
    reference = exact_join_reference(points, regions)

    strategies = ("act", "rtree", "shape-index", "brj", "gpu-baseline")
    chosen = strategies if args.strategy == "all" else (args.strategy,)
    spec = AggregationQuery(epsilon=args.epsilon)

    rows = []
    for name in chosen:
        outcome = dataset.join(args.suite, strategy=name, spec=spec)
        result = outcome.result
        build = getattr(result, "build_seconds", 0.0) + outcome.registry_build_seconds
        if hasattr(result, "probe_seconds") and not hasattr(result, "wall_seconds"):
            seconds = result.build_seconds + result.probe_seconds + outcome.registry_build_seconds
            pip = result.pip_tests
        else:
            seconds = result.wall_seconds
            pip = getattr(result, "pip_tests", 0)
        error = median_relative_error(result.counts, reference.counts)
        rows.append([name, round(seconds, 3), round(build, 3), pip, f"{error:.3%}"])
    sharding = f", shards={args.shards} workers={args.workers}" if args.shards else ""
    print_table(
        ["strategy", "seconds", "build s", "exact tests", "median rel. error"],
        rows,
        title=(
            f"Spatial aggregation join ({len(points):,} points x {len(regions)} regions, "
            f"eps={args.epsilon} m{sharding})"
        ),
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    _, points, regions, dataset = _build_dataset(args)
    estimates = dataset.estimate(args.suite, epsilon=args.epsilon)
    rows = []
    failures = 0
    for region_id, (region, estimate) in enumerate(zip(regions, estimates)):
        exact = int(region.contains_points(points.xs, points.ys).sum())
        holds = estimate.contains(exact)
        failures += 0 if holds else 1
        rows.append(
            [
                region_id,
                exact,
                f"[{estimate.lower:.0f}, {estimate.upper:.0f}]",
                f"{estimate.expected:.0f}",
                "yes" if holds else "NO",
            ]
        )
    print_table(
        ["region", "exact", "certain interval", "expected", "holds"],
        rows,
        title=f"Result-range estimation (eps={args.epsilon} m)",
    )
    return 1 if failures else 0


def _cmd_plan(args: argparse.Namespace) -> int:
    _, _, _, dataset = _build_dataset(args)
    query = AggregationQuery(epsilon=args.epsilon)
    choice = dataset.plan(query, suite=args.suite)
    costs = ", ".join(f"{name} {cost:,.0f}" for name, cost in sorted(choice.costs.items()))
    print(f"optimizer chose the {choice.strategy!r} plan (costs: {costs})")
    print(explain(choice.plan, indent=1))
    if not args.execute:
        return 0

    outcome = dataset.query(query, suite=args.suite)
    result = outcome.result
    counts = np.asarray(result.counts)
    print()
    print(
        f"executed {outcome.strategy!r} in {outcome.seconds:.3f}s "
        f"(index build {outcome.registry_build_seconds:.3f}s, "
        f"{getattr(result, 'pip_tests', 0)} exact tests)"
    )
    print(
        f"result: {counts.shape[0]} regions, total count {int(counts.sum()):,}, "
        f"max {int(counts.max()) if counts.size else 0:,}"
    )
    shard_seconds = outcome.stage_seconds.get("shard_execute")
    if shard_seconds:
        fan_out = ", ".join(
            f"shard{i} {sec * 1e3:.2f}ms" for i, sec in enumerate(shard_seconds)
        )
        print(f"fan-out ({len(shard_seconds)} shards, workers={args.workers}): {fan_out}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Streaming-ingest simulation over the updatable store.

    Points arrive in batches with a configurable delete rate; an ACT
    aggregation join runs through the dataset facade against a store
    snapshot after every batch.  The polygon index comes from the store's
    :class:`~repro.api.IndexRegistry` — built on first use, served from
    cache until a flush or compaction invalidates it.  The final join is
    checked for exact equality against a from-scratch rebuild over the live
    point set — the store's core guarantee.
    """
    import time

    from repro.store import SpatialStore

    workload, points, regions = _build_workload(args)
    frame = workload.frame()
    rng = np.random.default_rng(args.seed)

    store_kwargs = dict(
        attributes=points.attribute_names,
        memtable_capacity=args.memtable_capacity,
        auto_compact=not args.no_compact,
        incremental_compaction=args.incremental_compaction,
        compaction_budget_bytes=args.compaction_budget_bytes,
    )
    if args.shards:
        from repro.shard import ShardedStore

        if args.wal:
            store = ShardedStore.create(
                args.wal, frame, args.level, args.shards, **store_kwargs
            )
        else:
            store = ShardedStore(frame, args.level, args.shards, **store_kwargs)
    elif args.wal:
        store = SpatialStore.create(args.wal, frame, args.level, **store_kwargs)
    else:
        store = SpatialStore(frame, args.level, **store_kwargs)
    dataset = SpatialDataset(
        store,
        suites={args.suite: regions},
        config=EngineConfig(workers=args.workers),
    )
    spec = AggregationQuery(epsilon=args.epsilon, suite=args.suite)

    batch_bounds = np.linspace(0, len(points), args.batches + 1, dtype=np.int64)
    rows = []
    ingest_seconds = 0.0
    for batch_id in range(args.batches):
        batch = points.select(np.arange(batch_bounds[batch_id], batch_bounds[batch_id + 1]))
        # Sample the delete targets outside the timed window — picking ids is
        # harness work, not ingest (the streaming benchmark precomputes its
        # whole op script the same way).
        kill = np.empty(0, dtype=np.int64)
        if args.delete_fraction > 0:
            live = store.snapshot().live_ids()
            kill = rng.choice(
                live, size=int(args.delete_fraction * live.shape[0]), replace=False
            )
        start = time.perf_counter()
        store.insert(batch)
        deleted = store.delete(kill) if kill.shape[0] else 0
        batch_ingest = time.perf_counter() - start
        ingest_seconds += batch_ingest

        outcome = dataset.query(spec, strategy="act")
        rows.append(
            [
                batch_id,
                len(batch),
                deleted,
                store.num_runs,
                round(batch_ingest * 1e3, 2),
                round(outcome.result.probe_seconds * 1e3, 2),
                "hit" if outcome.registry_hits else "build",
            ]
        )

    start = time.perf_counter()
    store.flush()
    store.compact(full=True)
    ingest_seconds += time.perf_counter() - start

    # One index instance serves both sides of the parity check, so the
    # comparison isolates the store's fan-out from index construction.
    trie = dataset.act_index(args.suite, args.epsilon)
    final = store.act_join(regions, epsilon=args.epsilon, trie=trie)
    reference = store.rebuilt().act_join(regions, epsilon=args.epsilon, trie=trie)
    parity = bool(
        np.array_equal(final.counts, reference.counts)
        and np.array_equal(final.aggregates, reference.aggregates)
    )

    registry = dataset.registry_stats()
    print_table(
        ["batch", "inserted", "deleted", "runs", "ingest ms", "join ms", "index"],
        rows,
        title=(
            f"Streaming ingest (eps={args.epsilon} m, level={args.level})"
        ),
    )
    summary = [
        ["shards", getattr(store, "num_shards", 1)],
        ["live points", store.num_live],
        ["runs after full compaction", store.num_runs],
        ["flushes / compactions", f"{store.stats.flushes} / {store.stats.compactions}"],
        ["ingest points/sec", f"{store.stats.inserts / max(ingest_seconds, 1e-9):,.0f}"],
        [
            "index registry hits / misses",
            f"{registry['hits']} / {registry['misses']}",
        ],
        ["matches from-scratch rebuild", "yes" if parity else "NO"],
    ]
    if args.wal:
        summary.append(["durable store directory", str(store.directory)])
        summary.append(
            ["compaction debt bytes", f"{store.stats.compaction_debt_bytes:,}"]
        )
        store.close()
    print_table(["property", "value"], summary, title="Store summary")
    if args.wal:
        print(f"recover with: python -m repro.cli recover {args.wal}")
    return 0 if parity else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durable store directory and report the WAL replay.

    Detects the layout (``sharded.json`` vs ``manifest.json``), replays
    whatever the last process left in the write-ahead logs, and prints the
    :class:`~repro.durable.wal.RecoveryReport`.  ``--verify`` additionally
    runs an aggregation join over a probe suite spanning the store's frame
    and checks it bit-exactly against a from-scratch rebuild of the live
    point set — the recovered LSM structure and a clean one must answer
    identically.
    """
    from pathlib import Path

    from repro.geometry.polygon import Polygon
    from repro.store import SpatialStore

    directory = Path(args.directory)
    if (directory / "sharded.json").exists():
        from repro.shard import ShardedStore

        store = ShardedStore.open(directory)
    elif (directory / "manifest.json").exists():
        store = SpatialStore.open(directory)
    else:
        print(f"no store manifest in {directory}", file=sys.stderr)
        return 1

    report = store.last_recovery.as_dict() if store.last_recovery else {}
    print_table(
        ["property", "value"],
        [
            ["shards", getattr(store, "num_shards", 1)],
            ["live points", store.num_live],
            ["runs", store.num_runs],
            ["replayed records", report.get("records", 0)],
            [
                "inserts / deletes",
                f"{report.get('inserts', 0)} ({report.get('inserted_points', 0)} points)"
                f" / {report.get('deletes', 0)}",
            ],
            [
                "flushes / compactions",
                f"{report.get('flushes', 0)} / {report.get('compactions', 0)}",
            ],
            ["torn records dropped", report.get("torn", 0)],
            ["uncommitted records rolled back", report.get("rolled_back", 0)],
            ["replay seconds", f"{report.get('seconds', 0.0):.4f}"],
        ],
        title=f"Recovered {directory}",
    )
    if not args.verify:
        store.close()
        return 0

    # Probe suite: a 3x3 grid of boxes over the frame, overlapping enough
    # to exercise runs, memtable and tombstones on every segment.
    frame = store.frame
    side = frame.size / 3.0
    regions = []
    for ix in range(3):
        for iy in range(3):
            x0 = frame.origin_x + ix * side
            y0 = frame.origin_y + iy * side
            regions.append(
                Polygon(
                    np.array(
                        [
                            [x0, y0],
                            [x0 + side * 0.9, y0],
                            [x0 + side * 0.9, y0 + side * 0.9],
                            [x0, y0 + side * 0.9],
                        ]
                    )
                )
            )
    recovered = store.act_join(regions, epsilon=4.0)
    rebuilt = store.rebuilt().act_join(regions, epsilon=4.0)
    parity = bool(
        np.array_equal(recovered.counts, rebuilt.counts)
        and np.array_equal(recovered.aggregates, rebuilt.aggregates)
    )
    print(
        "verify: recovered join matches from-scratch rebuild"
        if parity
        else "verify: MISMATCH against from-scratch rebuild"
    )
    store.close()
    return 0 if parity else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Closed-loop serving benchmark: serial dispatch vs micro-batching.

    Each configuration gets its own freshly bulk-loaded store (the
    concurrent writer mutates it), served by a :class:`QueryServer` under
    ``--clients`` closed-loop join clients for ``--duration`` seconds.
    """
    from repro.obs import trace
    from repro.serve import run_serving_load
    from repro.store import SpatialStore

    workload, points, regions = _build_workload(args)
    tracer = trace.enable() if args.trace else None

    def fresh_dataset():
        store = SpatialStore.from_points(points, workload.frame(), args.level)
        return SpatialDataset(store, extent=workload.extent, suites={args.suite: regions})

    modes = [("coalesced", args.max_batch)]
    if args.serial_baseline:
        modes.insert(0, ("serial", 1))

    rows = []
    qps = {}
    for mode, max_batch in modes:
        try:
            report = run_serving_load(
                fresh_dataset(),
                clients=args.clients,
                duration_seconds=args.duration,
                max_batch=max_batch,
                max_wait_ms=args.max_wait_ms,
                workers=args.workers,
                suite=args.suite,
                epsilon=args.epsilon,
                ingest_batch=args.ingest_batch,
            )
        finally:
            if tracer is not None and mode == modes[-1][0]:
                trace.disable()
                tracer.write_chrome(args.trace)
        if report.errors:
            print(f"{mode}: {report.errors} client(s) failed", file=sys.stderr)
            return 1
        qps[mode] = report.qps
        rows.append(
            [
                mode,
                max_batch,
                report.responses,
                f"{report.qps:,.1f}",
                round(report.latency_p50_ms, 2),
                round(report.latency_p99_ms, 2),
                round(report.mean_batch_requests, 2),
                f"{report.ingested_points:,}",
            ]
        )

    print_table(
        ["mode", "max batch", "responses", "qps", "p50 ms", "p99 ms", "mean batch", "ingested"],
        rows,
        title=(
            f"Serving layer ({len(points):,} points x {len(regions)} regions, "
            f"{args.clients} clients, {args.duration}s, eps={args.epsilon} m)"
        ),
    )
    if "serial" in qps:
        speedup = qps["coalesced"] / max(qps["serial"], 1e-12)
        print(f"micro-batched coalescing sustained {speedup:.1f}x the serial-dispatch QPS")
    if tracer is not None:
        spans = sum(1 for _ in tracer.walk())
        print(
            f"wrote Chrome trace-event JSON to {args.trace} ({spans} spans) — "
            "open in https://ui.perfetto.dev"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a wrapped command under the span tracer and export the trace.

    The remainder of the command line is re-parsed and dispatched as if it
    had been invoked directly, with a fresh tracer active for its whole
    run.  The span tree is written as Chrome trace-event JSON (viewable in
    Perfetto) and summarised per root: wall seconds and the sum of
    self-times over the subtree, which account for the same wall clock.
    """
    from repro.obs import trace

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit("repro trace: missing the command to trace")
    if rest[0] == "trace":
        raise SystemExit("repro trace: cannot trace itself")
    inner = build_parser().parse_args(rest)
    tracer = trace.enable()
    try:
        code = _COMMANDS[inner.command](inner)
    finally:
        trace.disable()
    tracer.write_chrome(args.output)
    spans = sum(1 for _ in tracer.walk())
    print()
    print(
        f"wrote Chrome trace-event JSON to {args.output} "
        f"({spans} spans, {len(tracer.roots)} roots) — open in https://ui.perfetto.dev"
    )
    for root in tracer.roots:
        self_sum = sum(item.self_seconds for item in root.walk())
        share = self_sum / root.seconds if root.seconds > 0 else 0.0
        print(
            f"  {root.name}: wall {root.seconds:.6f}s, "
            f"self-time sum {self_sum:.6f}s ({share:.1%})"
        )
    return code


def _parse_suite_script(script: str):
    """Parse the ``suite`` command's mutation DSL into (op, args) tuples."""
    ops = []
    for raw in script.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split(":")
        op = parts[0]
        if op == "move" and len(parts) == 3:
            dx, dy = (float(v) for v in parts[2].split(","))
            ops.append(("move", int(parts[1]), dx, dy))
        elif op == "scale" and len(parts) == 3:
            ops.append(("scale", int(parts[1]), float(parts[2])))
        elif op == "add" and len(parts) == 2:
            ops.append(("add", int(parts[1])))
        elif op == "remove" and len(parts) == 2:
            ops.append(("remove", int(parts[1])))
        elif op == "noop" and len(parts) == 2:
            ops.append(("noop", int(parts[1])))
        else:
            raise SystemExit(f"unparseable suite mutation op: {raw!r}")
    return ops


def _cmd_suite(args: argparse.Namespace) -> int:
    """Scripted live-suite mutations: delta patches vs full rebuilds.

    Each op mutates the registered suite through the dataset's delta-only
    path (patching the cached FlatACT in place) and, for comparison, times a
    from-scratch index rebuild over the same post-mutation suite.  After the
    whole script, the patched index's join is checked bit for bit against a
    fresh dataset built directly on the final geometry — the rebuild-parity
    verdict.
    """
    import time

    from repro.index.flat_act import FlatACT

    workload, points, regions, dataset = _build_dataset(args)
    ops = _parse_suite_script(args.script)
    spec = AggregationQuery(epsilon=args.epsilon, suite=args.suite)
    dataset.act_index(args.suite, args.epsilon)  # prebuild the patch target

    rows = []
    for op in ops:
        current = list(dataset.suite(args.suite).regions)
        name, position = op[0], op[1]
        if name == "move":
            summary_op = f"move {position} by ({op[2]:g}, {op[3]:g})"
            mutate = lambda: dataset.replace_polygon(
                args.suite, position, current[position].translated(op[2], op[3])
            )
        elif name == "scale":
            summary_op = f"scale {position} x{op[2]:g}"
            mutate = lambda: dataset.replace_polygon(
                args.suite, position, current[position].scaled(op[2])
            )
        elif name == "add":
            extra = workload.neighborhoods(count=len(current) + position)[len(current):]
            summary_op = f"add {len(extra)}"
            mutate = lambda: dataset.add_polygons(args.suite, extra)
        elif name == "remove":
            summary_op = f"remove {position}"
            mutate = lambda: dataset.remove_polygons(args.suite, [position])
        else:
            summary_op = f"noop {position}"
            mutate = lambda: dataset.replace_polygon(
                args.suite, position, current[position]
            )
        start = time.perf_counter()
        info = mutate()
        patch_ms = (time.perf_counter() - start) * 1e3
        after = list(dataset.suite(args.suite).regions)
        start = time.perf_counter()
        FlatACT.build(after, dataset.frame, args.epsilon)
        rebuild_ms = (time.perf_counter() - start) * 1e3
        rows.append(
            [
                summary_op,
                "skip" if info["noop"] else f"{info['replaced']}r/{info['added']}a/{info['removed']}d",
                round(patch_ms, 2),
                round(rebuild_ms, 2),
                f"{rebuild_ms / max(patch_ms, 1e-9):.1f}x",
            ]
        )

    final_regions = list(dataset.suite(args.suite).regions)
    patched = dataset.query(spec, strategy="act")
    fresh = SpatialDataset(
        points,
        frame=workload.frame(),
        extent=workload.extent,
        suites={args.suite: final_regions},
        config=dataset.config,
    ).query(spec, strategy="act")
    parity = bool(
        np.array_equal(patched.counts, fresh.counts)
        and np.array_equal(patched.aggregates, fresh.aggregates)
    )
    stats = dataset.registry_stats()
    print_table(
        ["mutation", "delta", "patch ms", "rebuild ms", "speedup"],
        rows,
        title=(
            f"Live suite mutations ({len(points):,} points, "
            f"{len(regions)} -> {len(final_regions)} regions, eps={args.epsilon} m)"
        ),
    )
    print_table(
        ["property", "value"],
        [
            ["registry patches / patched polygons", f"{stats['patches']} / {stats['patched_polygons']}"],
            ["registry suite hits / misses", f"{stats['suite_hits']} / {stats['suite_misses']}"],
            ["patch seconds total", f"{stats['patch_seconds']:.4f}"],
            ["parity vs from-scratch rebuild", "yes" if parity else "NO"],
        ],
        title="Suite summary",
    )
    return 0 if parity else 1


_COMMANDS = {
    "info": _cmd_info,
    "workload": _cmd_workload,
    "join": _cmd_join,
    "estimate": _cmd_estimate,
    "plan": _cmd_plan,
    "store": _cmd_store,
    "recover": _cmd_recover,
    "serve-bench": _cmd_serve_bench,
    "suite": _cmd_suite,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        from repro.obs import configure_verbose

        configure_verbose()
    np.set_printoptions(suppress=True)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
