"""The four rungs of the ladder and the inputs they run on.

One run climbs **all four rungs** — ``explore_cold``, ``explore_warm``,
``ingest_recover``, ``serve_churn`` — because the benchmark contract says of
the line a run prints: "With ``--trace 0`` the metrics are every
``end_to_end`` metric".  The ``--workload`` argument names the *home* rung: it
runs with :data:`HOME` repetitions, the other three with the short
:data:`VISIT` repetitions.  Sizes (:class:`Sizes`) are the same on every
workload, so a metric means the same thing everywhere and only its sample
count differs; read a metric on its home workload first.

The program is driven only through its public functions; everything is
generated from the seed; every timed call sits inside a benchmark-side span
(:mod:`spans`) that is a no-op in the untraced run.
"""

from __future__ import annotations

import gc
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.api import IndexRegistry, SpatialDataset
from repro.data import NYCWorkload
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import PointSet
from repro.query import act_approximate_join, bounded_raster_join
from repro.query.spec import Aggregate, AggregationQuery
from repro.serve import QueryServer
from repro.store.store import SpatialStore

from check import Gate, ScratchIndexes, exact_membership
from spans import Recorder

WORKLOADS = ("explore_cold", "explore_warm", "serve_churn", "ingest_recover")
SUITES = ("boroughs", "neighborhoods", "census")
COLD_EPSILONS = (16.0, 8.0, 4.0)
WARM_EPSILONS = (16.0, 4.0)
CANVAS_EPSILON = 10.0
READ_EPSILON = 16.0
PATCH_EPSILON = 4.0
STORE_LEVEL = 12
SHARDS = 4
#: A served response later than this (or failed, or refused) misses.
LATENCY_LIMIT_S = 0.250
#: Every tenth served request is a point lookup, the rest are joins.
LOOKUP_EVERY = 10
#: Patches (each followed by one query) after every cold sweep.  Fixed, not a
#: repetition count: patches pile up delta segments, so their number changes
#: what a patched query costs.
PATCHES = 24
#: Times the set-up is repeated; ``setup_s`` is their median.
SETUP_REPS = 3
#: (suite, epsilon) whose answers the gate checks on an index it builds from
#: scratch (``check.ScratchIndexes``); the others are checked against the
#: kernel called by hand on the run's own index.  Building all nine from
#: scratch would cost a second cold sweep (~4 s) in every run.
FROM_SCRATCH = frozenset({(suite, 16.0) for suite in SUITES} | {("neighborhoods", 4.0)})


@dataclass(frozen=True)
class Sizes:
    """Input sizes; identical on all four workloads of a run."""

    extent_m: float
    boroughs: int
    borough_vertices: float
    neighborhoods: int
    census_side: int
    cold_points: int
    warm_points: int
    serve_points: int
    ingest_batches: int
    ingest_batch: int
    #: An insert is followed by deleting the batch from this many earlier.
    ingest_lag: int
    read_every: int
    serve_qps: float
    #: Lengths of the three serving phases.
    ro_seconds: float
    rw_seconds: float
    sat_seconds: float
    #: The writer submits one single-polygon suite update per period.
    update_period: float
    writer_batch: int
    writer_batches_per_s: float
    writer_lag: int
    window: int
    lookup_points: int


FULL = Sizes(
    extent_m=8_000.0, boroughs=5, borough_vertices=663.0, neighborhoods=64, census_side=14,
    cold_points=20_000, warm_points=100_000, serve_points=10_000,
    ingest_batches=500, ingest_batch=256, ingest_lag=100, read_every=25,
    serve_qps=40.0, ro_seconds=2.0, rw_seconds=2.5, sat_seconds=1.5, update_period=1.0,
    writer_batch=200, writer_batches_per_s=100.0, writer_lag=20,
    window=32, lookup_points=256,
)
#: Hard-coded 1/20 scale for the smoke test; records carry ``smoke``.
SMOKE = Sizes(
    extent_m=1_000.0, boroughs=2, borough_vertices=60.0, neighborhoods=8, census_side=3,
    cold_points=1_000, warm_points=5_000, serve_points=500,
    ingest_batches=40, ingest_batch=32, ingest_lag=8, read_every=10,
    serve_qps=80.0, ro_seconds=0.15, rw_seconds=0.15, sat_seconds=0.15, update_period=0.05,
    writer_batch=20, writer_batches_per_s=50.0, writer_lag=5,
    window=8, lookup_points=16,
)


@dataclass(frozen=True)
class Reps:
    """How often each rung repeats (the only thing a workload changes)."""

    cold_reps: int
    warm_cycles: int
    sharded: int
    canvas: int
    serve_cycles: int
    ingest_reps: int


VISIT = Reps(cold_reps=1, warm_cycles=3, sharded=24, canvas=12, serve_cycles=1, ingest_reps=3)
HOME = {
    "explore_cold": replace(VISIT, cold_reps=2),
    "explore_warm": replace(VISIT, warm_cycles=6, sharded=36, canvas=18),
    "serve_churn": replace(VISIT, serve_cycles=2),
    "ingest_recover": replace(VISIT, ingest_reps=6),
}
#: The traced run: the direct-call probes take the time the rungs give up.
TRACED = Reps(cold_reps=1, warm_cycles=1, sharded=12, canvas=3, serve_cycles=1, ingest_reps=1)
SMOKE_REPS = Reps(cold_reps=1, warm_cycles=1, sharded=6, canvas=3, serve_cycles=1, ingest_reps=1)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def pooled(samples: dict, series: str) -> list[float]:
    """All samples of a series recorded per query kind (``series:kind``)."""
    return [value for name, values in samples.items()
            if name.startswith(series + ":") for value in values]


def kind_p50(samples: dict, series: str) -> float:
    """Per-kind median, averaged over the kinds.

    The rotation mixes kinds whose costs differ severalfold, so the median of
    the pooled samples sits in the gap between two kinds and jumps with the
    slightest shift; the per-kind medians are steady and every kind counts.
    """
    return float(np.mean([np.median(values) for name, values in samples.items()
                          if name.startswith(series + ":")]))


def query_spec(suite: str, epsilon: float, aggregate: str = "count") -> AggregationQuery:
    if aggregate == "sum":
        return AggregationQuery(
            aggregate=Aggregate.SUM, attribute="fare", epsilon=epsilon, suite=suite
        )
    return AggregationQuery(epsilon=epsilon, suite=suite)


#: The fixed rotation of 12 query kinds of the warm and serving rungs.
KINDS = tuple(
    (suite, epsilon, aggregate)
    for suite in SUITES
    for epsilon in WARM_EPSILONS
    for aggregate in ("count", "sum")
)


def _wait_until(target: float) -> None:
    while True:
        remaining = target - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


def _batch(points: PointSet, index: int, size: int) -> PointSet:
    start, stop = index * size, (index + 1) * size
    return PointSet(
        points.xs[start:stop],
        points.ys[start:stop],
        {name: points.attribute(name)[start:stop] for name in points.attribute_names},
    )


class Ladder:
    """One run: generated inputs, the shared set-up, four rungs, samples."""

    def __init__(self, seed: int, sizes: Sizes, reps: Reps, rec: Recorder, gate: Gate,
                 workdir: Path) -> None:
        self.seed = int(seed)
        self.sizes = sizes
        self.reps = reps
        self.rec = rec
        self.gate = gate
        self.workdir = workdir
        #: Timing samples per metric (ms or s as the metric's unit says).
        self.samples: dict[str, list[float]] = {}
        #: Scalars read off public stats objects, per-layer metric name → value.
        self.layer: dict[str, float] = {}
        self.strategies: set[str] = set()

    def add(self, series: str, value: float) -> None:
        self.samples.setdefault(series, []).append(float(value))

    def timed(self, span: str, series: str, scale: float, call, op=None):
        """Run ``call`` inside a span; its seconds x ``scale`` join ``series``."""
        with self.rec.span(span, op):
            begin = time.perf_counter()
            result = call()
            took = time.perf_counter() - begin
        self.add(series, took * scale)
        return result

    # ------------------------------------------------------------------ #
    # inputs and set-up
    # ------------------------------------------------------------------ #
    def generate(self) -> None:
        """Every input of the run, from the seed alone."""
        sizes, seed = self.sizes, self.seed
        extent = BoundingBox(0.0, 0.0, sizes.extent_m, sizes.extent_m)
        city = NYCWorkload(extent=extent, seed=seed)
        self.frame = city.frame()
        self.extent = city.extent
        self.suites = {
            "boroughs": city.boroughs(sizes.boroughs, mean_vertices=sizes.borough_vertices),
            "neighborhoods": city.neighborhoods(sizes.neighborhoods),
            "census": city.census(sizes.census_side, sizes.census_side),
        }
        #: Replacement geometry for patches and served suite updates.
        self.alt = NYCWorkload(extent=extent, seed=seed + 1000).neighborhoods(
            sizes.neighborhoods
        )
        points = lambda offset, n: NYCWorkload(  # noqa: E731
            extent=extent, seed=seed + offset
        ).taxi_points(n)
        self.cold_points = points(11, sizes.cold_points)
        self.warm_points = points(12, sizes.warm_points)
        self.serve_points = points(13, sizes.serve_points)
        self.ingest_points = points(14, sizes.ingest_batches * sizes.ingest_batch)
        #: The writer cycles through these batches.
        self.writer_points = points(15, 256 * sizes.writer_batch)
        self.rng = np.random.default_rng([seed, 0x1ADD])

    def setup(self) -> None:
        """The datasets of the static rungs, over one shared, empty registry."""
        self.registry = IndexRegistry()
        common = dict(frame=self.frame, extent=self.extent, suites=self.suites,
                      registry=self.registry)
        self.cold = SpatialDataset(self.cold_points, **common)
        self.warm = SpatialDataset(self.warm_points, **common)
        self.sharded = SpatialDataset(self.warm_points, shards=SHARDS, **common)
        self.served = self._served_dataset()

    def _served_dataset(self) -> SpatialDataset:
        store = SpatialStore.from_points(self.serve_points, self.frame, STORE_LEVEL)
        return SpatialDataset(store, suites=self.suites, registry=self.registry)

    def warm_up(self) -> None:
        """Lazy per-dataset state (linearised points, the shard partition) is
        paid here, as set-up, not by the first timed query of a later rung."""
        spec = query_spec(*KINDS[0])
        for dataset in (self.warm, self.sharded, self.served):
            dataset.query(spec)

    def run(self) -> None:
        """Generate, set up and climb the rungs, one after the other.

        The ladder is a ladder: the first cold sweep fills the shared
        registry, and the later rungs find every index prebuilt there — so a
        run builds each index once, and set-up time holds no index build
        (``cold_sweep_s`` is where a build shows).
        """
        for _ in range(SETUP_REPS):
            with self.rec.span("setup.generate"):
                begin = time.perf_counter()
                self.generate()
                self.add("data.gen_s", time.perf_counter() - begin)
            with self.rec.span("setup.datasets"):
                self.setup()
                self.add("setup_s", time.perf_counter() - begin)
        self.scratch = ScratchIndexes(self.frame)
        self._rung(self.explore_cold)
        with self.rec.span("setup.warmup"):
            begin = time.perf_counter()
            self.warm_up()
            tail = time.perf_counter() - begin
        self.samples["setup_s"] = [head + tail for head in self.samples["setup_s"]]
        for rung in (self.explore_warm, self.ingest_recover, self.serve_churn):
            self._rung(rung)

    def _rung(self, rung) -> None:
        gc.collect()
        with self.rec.span(f"rung.{rung.__name__}"):
            rung()

    def _reference_index(self, dataset, suite: str, epsilon: float, regions=None):
        """The index a reference answer runs on: built from scratch by the gate
        where :data:`FROM_SCRATCH` says so, else the run's own."""
        if (suite, epsilon) in FROM_SCRATCH:
            return self.scratch.get(self.suites[suite] if regions is None else regions, epsilon)
        return dataset.act_index(suite, epsilon)

    def _restore_neighborhoods(self, dataset, epsilons) -> None:
        """Undo patches: the original suite back, delta segments spliced into
        the base arrays, so the registry again holds from-scratch indexes."""
        with self.rec.span("setup.restore"):
            dataset.apply_suite("neighborhoods", self.suites["neighborhoods"])
            for epsilon in epsilons:
                dataset.act_index("neighborhoods", epsilon).consolidate()

    # ------------------------------------------------------------------ #
    # rung 1: explore_cold
    # ------------------------------------------------------------------ #
    def explore_cold(self) -> None:
        gate = self.gate
        order = self.rng.permutation(self.sizes.neighborhoods)
        patch_spec = query_spec("neighborhoods", PATCH_EPSILON)
        for rep in range(self.reps.cold_reps):
            last = rep == self.reps.cold_reps - 1
            # The first sweep runs on the shared registry and leaves it full
            # for the later rungs; further repetitions get their own.
            dataset = self.cold if rep == 0 else SpatialDataset(
                self.cold_points, frame=self.frame, extent=self.extent, suites=self.suites,
                registry=IndexRegistry())
            answers = {}
            sweep = 0.0
            for epsilon in COLD_EPSILONS:
                for suite in SUITES:
                    answers[suite, epsilon] = self.timed(
                        "dataset.first_query", "first_query_s", 1.0,
                        lambda: dataset.query(query_spec(suite, epsilon)),
                        op=f"cold{rep}:{suite}@{epsilon}")
                    sweep += self.samples["first_query_s"][-1]
            gate.attempt(len(answers))
            self.add("cold_sweep_s", sweep)
            self.add("registry.build_s", dataset.registry_stats()["build_seconds"])
            self.add("index_mib", dataset.registry.memory_bytes() / 2**20)
            if last:
                with self.rec.span("check.cold_sweep"):
                    self._check_cold_sweep(dataset, answers)

            def patch_and_query(position):
                dataset.replace_polygon("neighborhoods", position, self.alt[position])
                return dataset.query(patch_spec)

            #: What the suite must hold after the patches.
            regions = list(self.suites["neighborhoods"])
            for step in range(PATCHES):
                position = int(order[step % len(order)])
                regions[position] = self.alt[position]
                patched = self.timed("dataset.patch_query", "patch_query_ms", 1e3,
                                     lambda: patch_and_query(position),
                                     op=f"cold{rep}:patch{step}")
            gate.attempt(PATCHES)
            self.add("registry.patch_s", dataset.registry_stats()["patch_seconds"])
            if last:
                with self.rec.span("check.cold_patch"):
                    want = act_approximate_join(
                        self.cold_points, regions, self.frame, epsilon=PATCH_EPSILON,
                        trie=self._reference_index(dataset, "neighborhoods", PATCH_EPSILON,
                                                   regions))
                    gate.identical("cold patched answer", patched, want)
            if rep == 0:
                self._restore_neighborhoods(dataset, COLD_EPSILONS)

    def _check_cold_sweep(self, dataset, answers) -> None:
        """Bit identity, the distance bound and result ranges after a sweep."""
        gate, points = self.gate, self.cold_points
        errors = []
        for suite in SUITES:
            regions = self.suites[suite]
            exact = exact_membership(points, regions)
            for epsilon in COLD_EPSILONS:
                answer = answers[suite, epsilon]
                self.strategies.add(answer.strategy)
                want = act_approximate_join(
                    points, regions, self.frame, epsilon=epsilon,
                    trie=self._reference_index(dataset, suite, epsilon))
                gate.identical(f"cold {suite}@{epsilon}", answer, want)
                # The guarantee is the program's: checked on the run's index.
                errors.append(gate.distance_bound(
                    f"bound {suite}@{epsilon}", dataset.act_index(suite, epsilon), points,
                    regions, epsilon, exact))
            exact_counts = np.bincount(exact // len(points), minlength=len(regions))
            gate.ranges_contain(f"estimate {suite}",
                                dataset.estimate(suite, epsilon=READ_EPSILON), exact_counts)
        self.layer["query.count_rel_err_p50"] = float(np.median(errors))

    # ------------------------------------------------------------------ #
    # rung 2: explore_warm
    # ------------------------------------------------------------------ #
    def explore_warm(self) -> None:
        reps = self.reps
        before = self.warm.registry_stats()
        first: dict = {}
        for cycle in range(reps.warm_cycles):
            for k, kind in enumerate(KINDS):
                answer = self.timed("dataset.query", f"warm_query_ms:{k}", 1e3,
                                    lambda: self.warm.query(query_spec(*kind)),
                                    op=f"warm{cycle}:{kind}")
                first.setdefault(("plain", kind), answer)
        for i in range(reps.sharded):
            k = i % len(KINDS)
            kind = KINDS[k]
            answer = self.timed("dataset.sharded_query", f"sharded_query_ms:{k}", 1e3,
                                lambda: self.sharded.query(query_spec(*kind)),
                                op=f"sharded{i}:{kind}")
            first.setdefault(("sharded", kind), answer)
        for i in range(reps.canvas):
            suite = SUITES[i % len(SUITES)]
            answer = self.timed(
                "dataset.canvas_query", f"canvas_query_ms:{suite}", 1e3,
                lambda: self.warm.query(query_spec(suite, CANVAS_EPSILON), strategy="brj"),
                op=f"canvas{i}:{suite}")
            first.setdefault(("canvas", suite), answer)
        self.gate.attempt(len(KINDS) * reps.warm_cycles + reps.sharded + reps.canvas)
        after = self.warm.registry_stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        self.layer["registry.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        with self.rec.span("check.warm"):
            self._check_warm(first)

    def _check_warm(self, first: dict) -> None:
        gate = self.gate
        for (path, kind), answer in first.items():
            self.strategies.add(answer.strategy)
            if path == "canvas":
                want = bounded_raster_join(self.warm_points, self.suites[kind], CANVAS_EPSILON,
                                           extent=self.extent)
            elif path == "sharded":
                # Scatter-gather must reproduce the unsharded answer, itself
                # checked against the kernel below.
                want = first["plain", kind]
            else:
                suite, epsilon, _ = kind
                want = act_approximate_join(
                    self.warm_points, self.suites[suite], self.frame, epsilon=epsilon,
                    query=query_spec(*kind),
                    trie=self._reference_index(self.warm, suite, epsilon))
            gate.identical(f"warm {path} {kind}", answer, want)

    # ------------------------------------------------------------------ #
    # rung 3: ingest_recover
    # ------------------------------------------------------------------ #
    def ingest_recover(self) -> None:
        gate, sizes = self.gate, self.sizes
        regions = self.suites["neighborhoods"]
        read_spec = query_spec("neighborhoods", READ_EPSILON)
        invalidations = self.registry.stats.point_invalidations
        for rep in range(self.reps.ingest_reps):
            last = rep == self.reps.ingest_reps - 1
            directory = self.workdir / f"store{rep}"
            store = SpatialStore.create(directory, self.frame, STORE_LEVEL, sync=True,
                                        attributes=self.ingest_points.attribute_names)
            dataset = SpatialDataset(store, suites={"neighborhoods": regions},
                                     registry=self.registry)
            inserted_ids: deque = deque()
            wal_bytes = wal_records = 0
            runs_at_read = []
            write_ms = 0.0
            for b in range(sizes.ingest_batches):
                batch = _batch(self.ingest_points, b, sizes.ingest_batch)
                inserted_ids.append(self.timed("store.insert", "insert_ms", 1e3,
                                               lambda: store.insert(batch),
                                               op=f"ingest{rep}:{b}"))
                write_ms += self.samples["insert_ms"][-1]
                if len(inserted_ids) > sizes.ingest_lag:
                    self.timed("store.delete", "store.delete_ms", 1e3,
                               lambda: store.delete(inserted_ids.popleft()),
                               op=f"ingest{rep}:{b}")
                    write_ms += self.samples["store.delete_ms"][-1]
                if b % sizes.read_every == sizes.read_every - 1:
                    runs_at_read.append(store.num_runs)
                    read = self.timed("dataset.read", "read_ms", 1e3,
                                      lambda: dataset.query(read_spec), op=f"ingest{rep}:{b}")
                    if self.rec.enabled:
                        self._probe_snapshot(dataset, regions)
                if b == sizes.ingest_batches // 2 - 1:
                    wal_bytes += sum(p.stat().st_size for p in store.wal.segment_paths())
                    wal_records += store.wal.record_count
                    self.timed("durable.checkpoint", "durable.checkpoint_s", 1.0, store.save,
                               op=f"ingest{rep}")
            points = sizes.ingest_batches * sizes.ingest_batch
            self.add("ingest_kpts_per_s", points / write_ms)
            wal_bytes += sum(p.stat().st_size for p in store.wal.segment_paths())
            wal_records += store.wal.record_count
            gate.attempt(2 * sizes.ingest_batches - sizes.ingest_lag
                         + sizes.ingest_batches // sizes.read_every + 2)

            # The store is abandoned un-closed, as a crash would leave it.
            recovered = self.timed("durable.recover", "recover_s", 1.0,
                                   lambda: SpatialStore.open(directory), op=f"ingest{rep}")
            report = recovered.last_recovery
            self.add("durable.replay_records_per_s", report.records / report.seconds)
            if last:
                self.strategies.add(read.strategy)
                stats = store.stats.as_dict()
                self.layer.update({
                    "store.flushes": stats["flushes"],
                    "store.flush_s": stats["flush_seconds"],
                    "store.compactions": stats["compactions"],
                    "store.compaction_s": stats["compaction_seconds"],
                    "store.compacted_per_inserted": stats["compacted_entries"] / points,
                    "store.runs_at_read": float(np.mean(runs_at_read)),
                    "durable.wal_bytes_per_point": wal_bytes / points,
                    "durable.wal_records": wal_records,
                })
                with self.rec.span("check.ingest"):
                    self._check_recovery(store, recovered, dataset, read, regions)
                if self.rec.enabled:
                    self._twin_stream(write_ms / 1e3)
            recovered.close()
            store.close()
            shutil.rmtree(directory)
        self.layer["registry.invalidations"] = (
            self.registry.stats.point_invalidations - invalidations
        )

    def _check_recovery(self, store, recovered, dataset, read, regions) -> None:
        """The recovered store against its never-crashed twin (the original)."""
        gate = self.gate
        twin, back = store.snapshot(), recovered.snapshot()
        gate.same_array("recovered live ids", back.live_ids(), twin.live_ids())
        index = self._reference_index(dataset, "neighborhoods", READ_EPSILON)
        join = lambda snapshot: snapshot.act_join(  # noqa: E731
            regions, epsilon=READ_EPSILON, trie=index)
        gate.identical("recovered join", join(back), join(twin))
        # The last interleaved read saw the stream's final state too.
        gate.identical("ingest read", read, act_approximate_join(
            twin.live_points(), regions, self.frame, epsilon=READ_EPSILON, trie=index))

    def _probe_snapshot(self, dataset, regions) -> None:
        """The two halves of a read, timed apart (traced run only)."""
        index = dataset.act_index("neighborhoods", READ_EPSILON)
        snapshot = self.timed("store.snapshot", "store.snapshot_us", 1e6,
                              dataset.store.snapshot)
        self.timed("store.snapshot_join", "store.join_ms", 1e3,
                   lambda: snapshot.act_join(regions, epsilon=READ_EPSILON, trie=index))

    def _twin_stream(self, durable_seconds: float) -> None:
        """The same writes into an unlogged in-memory store (traced run only)."""
        sizes = self.sizes
        twin = SpatialStore(self.frame, STORE_LEVEL,
                            attributes=self.ingest_points.attribute_names)
        inserted_ids: deque = deque()
        with self.rec.span("store.twin_stream"):
            begin = time.perf_counter()
            for b in range(sizes.ingest_batches):
                inserted_ids.append(twin.insert(
                    _batch(self.ingest_points, b, sizes.ingest_batch)))
                if len(inserted_ids) > sizes.ingest_lag:
                    twin.delete(inserted_ids.popleft())
            plain_seconds = time.perf_counter() - begin
        self.layer["durable.wal_overhead_ratio"] = durable_seconds / plain_seconds

    # ------------------------------------------------------------------ #
    # rung 4: serve_churn
    # ------------------------------------------------------------------ #
    def serve_churn(self) -> None:
        for cycle in range(self.reps.serve_cycles):
            if cycle:
                self.served = self._served_dataset()
            self._serve_cycle(cycle)

    def _serve_cycle(self, cycle: int) -> None:
        """ro, rw and sat phases on a fresh store, dataset and server."""
        sizes, gate = self.sizes, self.gate
        #: Region lists of ``neighborhoods`` by version; updates append.
        self.versions = [list(self.suites["neighborhoods"])]
        self.update_futures: list = []
        self.responses: list = []
        self.writer_batches = 0
        self.writer_error = None
        self.traffic = np.random.default_rng([self.seed, 0x7AFF1C, cycle])
        timing: list = []
        with QueryServer(self.served) as server:
            ro = self._open_loop(server, f"ro{cycle}", sizes.ro_seconds, timing)
            stop = threading.Event()
            writer = threading.Thread(target=self._writer, args=(server, stop),
                                      name="ladder-writer")
            writer.start()
            try:
                rw = self._open_loop(server, f"rw{cycle}", sizes.rw_seconds, timing)
                good, elapsed = self._closed_window(server, f"sat{cycle}", sizes.sat_seconds,
                                                    timing)
            finally:
                stop.set()
                writer.join()
            gate.attempt(len(self.update_futures) + self.writer_batches)
            if self.writer_error is not None:
                gate.fail(f"serve writer, cycle {cycle}", repr(self.writer_error))
            updates = []
            for future in self.update_futures:
                try:
                    updates.append(future.result(timeout=60))
                except Exception as exc:  # noqa: BLE001 - any failure is a failed operation
                    gate.fail(f"serve suite update, cycle {cycle}", repr(exc))
            stats = server.stats
        if len(updates) == len(self.update_futures):
            with self.rec.span("check.serve"):
                self._check_served(updates)
        # Every cycle starts from pristine indexes.
        self._restore_neighborhoods(self.served, WARM_EPSILONS)
        self.add("serve_goodput_qps", good / elapsed)
        self.add("serve.batch_requests_mean", stats.mean_batch_requests)
        self.add("serve.batches", stats.batches)
        for name, values in (
            ("serve_ro_ms", ro),
            ("serve_rw_ms", rw),
            ("serve.queue_wait_ms", [t.queue_wait_seconds * 1e3 for t in timing]),
            ("serve.kernel_ms", [t.kernel_seconds * 1e3 for t in timing]),
            ("serve.suite_update_ms", [u.timing.kernel_seconds * 1e3 for u in updates]),
        ):
            self.samples.setdefault(name, []).extend(values)

    def _request(self, i: int) -> tuple:
        """Request ``i`` of the script: the 12 kinds in rotation, every tenth
        a point lookup on the kind's suite and epsilon."""
        kind = KINDS[i % len(KINDS)]
        if i % LOOKUP_EVERY == LOOKUP_EVERY - 1:
            n = self.sizes.lookup_points
            xs = self.traffic.uniform(self.extent.min_x, self.extent.max_x, n)
            ys = self.traffic.uniform(self.extent.min_y, self.extent.max_y, n)
            return ("lookup", kind, xs, ys)
        return ("join", kind, None, None)

    @staticmethod
    def _submit(server, request):
        what, kind, xs, ys = request
        if what == "lookup":
            return server.submit_lookup(xs, ys, kind[0], epsilon=kind[1])
        return server.submit_join(spec=query_spec(*kind))

    def _open_loop(self, server, phase: str, seconds: float, timing: list) -> list[float]:
        """Poisson arrivals on a fixed schedule; latency runs from the due time.

        Returns the milliseconds of every answered request.
        """
        rec, sizes = self.rec, self.sizes
        gaps = self.traffic.exponential(
            1.0 / sizes.serve_qps, int(sizes.serve_qps * seconds * 2) + 16)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        requests = [self._request(i) for i in range(len(due))]
        done = [0.0] * len(due)
        stamped = threading.Semaphore(0)

        def finished(_, i):
            done[i] = time.perf_counter()
            stamped.release()

        futures = []
        origin = time.perf_counter() + 0.01
        for i, request in enumerate(requests):
            target = origin + due[i]
            with rec.span("loadgen.wait"):
                _wait_until(target)
            self.add("serve.lateness_ms", (time.perf_counter() - target) * 1e3)
            with rec.span("server.submit", op=f"{phase}:{i}"):
                future = self._submit(server, request)
            future.add_done_callback(lambda f, i=i: finished(f, i))
            futures.append(future)
        with rec.span("server.drain", op=phase):
            latencies = self._collect(phase, requests, futures, stamped, done,
                                      origin + due, timing)
        return [value * 1e3 for value in latencies if value != float("inf")]

    def _closed_window(self, server, phase: str, seconds: float, timing: list):
        """A closed window of requests in flight; returns (good, elapsed)."""
        rec = self.rec
        window = threading.Semaphore(self.sizes.window)
        stamped = threading.Semaphore(0)
        submitted, done, futures, requests = [], [], [], []

        def finished(_, i):
            done[i] = time.perf_counter()
            window.release()
            stamped.release()

        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            with rec.span("loadgen.wait"):
                window.acquire()
            i = len(futures)
            request = self._request(i)
            submitted.append(time.perf_counter())
            done.append(0.0)
            with rec.span("server.submit", op=f"{phase}:{i}"):
                future = self._submit(server, request)
            future.add_done_callback(lambda f, i=i: finished(f, i))
            futures.append(future)
            requests.append(request)
        with rec.span("server.drain", op=phase):
            latencies = self._collect(phase, requests, futures, stamped, done, submitted, timing)
        elapsed = max(done) - begin
        good = sum(1 for value in latencies if value <= LATENCY_LIMIT_S)
        return good, elapsed

    def _collect(self, phase, requests, futures, stamped, done, started, timing) -> list[float]:
        """Wait for every response; a failure counts as a miss and a failed op.

        A future wakes its waiters *before* it runs its callbacks, so the
        completion stamps in ``done`` are awaited through ``stamped`` (one
        permit per callback that ran), not through ``Future.result``.
        Latency is ``done[i] - started[i]``.
        """
        gate = self.gate
        gate.attempt(len(futures))
        deadline = time.perf_counter() + 60.0
        for _ in futures:
            if not stamped.acquire(timeout=max(0.0, deadline - time.perf_counter())):
                break
        latencies = []
        for i, future in enumerate(futures):
            if not future.done() or done[i] == 0.0:
                gate.fail(f"serve {phase} request {i}", "no response within 60 s")
                latencies.append(float("inf"))
                continue
            try:
                response = future.result()
            except Exception as exc:  # noqa: BLE001 - any failure is a failed operation
                gate.fail(f"serve {phase} request {i}", repr(exc))
                latencies.append(float("inf"))
                continue
            latencies.append(done[i] - started[i])
            timing.append(response.timing)
            self.responses.append((phase, requests[i], response))
        return latencies

    def _check_served(self, updates: list) -> None:
        """A 1-in-20 sample of responses against solo runs on their snapshots.

        Runs once the writer has stopped.  A ``neighborhoods`` response is
        replayed on the suite version it saw: the number of suite updates
        whose request id precedes its own (the server's fence order) indexes
        ``self.versions``, and the gate assembles that version's index from
        scratch (the server's own patched indexes of older versions are gone).
        """
        gate = self.gate
        update_ids = sorted(update.request_id for update in updates)
        for phase, request, response in self.responses[::20]:
            what, (suite, epsilon, _), xs, ys = request
            if suite == "neighborhoods":
                regions = self.versions[int(np.searchsorted(update_ids, response.request_id))]
            else:
                regions = self.suites[suite]
            index = self._reference_index(self.served, suite, epsilon, regions)
            label = f"serve {phase} {what} #{response.request_id}"
            if what == "lookup":
                offsets, region_ids = index.lookup_points(xs, ys)
                gate.same_array(label, response.result.offsets, offsets)
                gate.same_array(label, response.result.region_ids, region_ids)
            else:
                solo = response.snapshot.act_join(regions, epsilon=epsilon,
                                                  query=response.spec, trie=index)
                gate.identical(label, response, solo)

    def _writer(self, server, stop: threading.Event) -> None:
        """The writer thread; what it raises is reported once it is joined."""
        try:
            self._write(server, stop)
        except Exception as exc:  # noqa: BLE001 - the thread must not die silently
            self.writer_error = exc

    def _write(self, server, stop: threading.Event) -> None:
        """Paced inserts, lagged deletes and one suite update per period."""
        sizes = self.sizes
        store = self.served.store
        period = 1.0 / sizes.writer_batches_per_s
        batches = len(self.writer_points) // sizes.writer_batch
        order = np.random.default_rng([self.seed, 0x5EED]).permutation(sizes.neighborhoods)
        inserted_ids: deque = deque()
        origin = time.perf_counter()
        next_update = sizes.update_period / 2
        while not stop.is_set():
            k = self.writer_batches
            delay = origin + k * period - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            inserted_ids.append(store.insert(
                _batch(self.writer_points, k % batches, sizes.writer_batch)))
            if len(inserted_ids) > sizes.writer_lag:
                store.delete(inserted_ids.popleft())
            if time.perf_counter() - origin >= next_update:
                position = int(order[len(self.update_futures) % len(order)])
                regions = list(self.versions[-1])
                regions[position] = self.alt[position]
                self.versions.append(regions)
                self.update_futures.append(server.submit_suite_update("neighborhoods", regions))
                next_update += sizes.update_period
            self.writer_batches = k + 1
