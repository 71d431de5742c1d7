"""Experiment harness shared by the ``benchmarks/`` modules.

Each paper figure is reproduced by a benchmark module that (a) builds the
workload through :class:`~repro.data.nyc.NYCWorkload`, (b) runs every
competitor, and (c) prints a table with the same rows / series the paper
reports.  The harness centralises timing, scaling knobs (via environment
variables so CI can run tiny versions) and the result records written to
``EXPERIMENTS.md``-friendly text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import trace

__all__ = [
    "BenchScale",
    "Measurement",
    "is_smoke_run",
    "measure",
    "scale_from_env",
]

#: Scale factor applied to every workload knob when ``REPRO_BENCH_SMOKE`` is
#: set: big enough to exercise every code path, small enough for a CI job.
SMOKE_FACTOR = 0.05


@dataclass(frozen=True, slots=True)
class BenchScale:
    """Workload scale used by the benchmark modules.

    The defaults reproduce the figures at laptop scale; the ``REPRO_BENCH_*``
    environment variables shrink or grow the workload without touching the
    benchmark code (e.g. ``REPRO_BENCH_POINTS=20000`` for a quick run).
    """

    num_points: int = 300_000
    num_query_polygons: int = 60
    num_neighborhoods: int = 64
    census_rows: int = 14
    census_cols: int = 14
    brj_points: int = 120_000
    mm_join_points: int = 25_000
    ingest_points: int = 150_000
    ingest_batches: int = 80

    def scaled(self, factor: float) -> "BenchScale":
        """A proportionally smaller / larger scale (at least 1 everywhere)."""
        return BenchScale(
            num_points=max(1, int(self.num_points * factor)),
            num_query_polygons=max(1, int(self.num_query_polygons * factor)),
            num_neighborhoods=max(1, int(self.num_neighborhoods * factor)),
            census_rows=max(1, int(self.census_rows * factor)),
            census_cols=max(1, int(self.census_cols * factor)),
            brj_points=max(1, int(self.brj_points * factor)),
            mm_join_points=max(1, int(self.mm_join_points * factor)),
            ingest_points=max(1, int(self.ingest_points * factor)),
            # The batch count is the shape of the streaming workload, not its
            # size — the smoke run keeps the same number of (tiny) batches so
            # every flush/compact transition still executes.
            ingest_batches=self.ingest_batches,
        )


def is_smoke_run() -> bool:
    """True when ``REPRO_BENCH_SMOKE`` requests the tiny CI smoke scale."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def scale_from_env() -> BenchScale:
    """Build the benchmark scale from ``REPRO_BENCH_*`` environment variables.

    ``REPRO_BENCH_SMOKE=1`` shrinks every knob by :data:`SMOKE_FACTOR` (the
    CI smoke job uses this to catch build/probe-path regressions in seconds);
    explicit ``REPRO_BENCH_*`` variables still override individual knobs.
    """
    base = BenchScale()
    if is_smoke_run():
        base = base.scaled(SMOKE_FACTOR)
    return BenchScale(
        num_points=int(os.environ.get("REPRO_BENCH_POINTS", base.num_points)),
        num_query_polygons=int(
            os.environ.get("REPRO_BENCH_QUERY_POLYGONS", base.num_query_polygons)
        ),
        num_neighborhoods=int(
            os.environ.get("REPRO_BENCH_NEIGHBORHOODS", base.num_neighborhoods)
        ),
        census_rows=int(os.environ.get("REPRO_BENCH_CENSUS_ROWS", base.census_rows)),
        census_cols=int(os.environ.get("REPRO_BENCH_CENSUS_COLS", base.census_cols)),
        brj_points=int(os.environ.get("REPRO_BENCH_BRJ_POINTS", base.brj_points)),
        mm_join_points=int(os.environ.get("REPRO_BENCH_MM_JOIN_POINTS", base.mm_join_points)),
        ingest_points=int(os.environ.get("REPRO_BENCH_INGEST_POINTS", base.ingest_points)),
        ingest_batches=int(os.environ.get("REPRO_BENCH_INGEST_BATCHES", base.ingest_batches)),
    )


@dataclass(slots=True)
class Measurement:
    """A named measurement: elapsed wall-clock time plus arbitrary metrics."""

    name: str
    seconds: float
    metrics: dict[str, float] = field(default_factory=dict)

    def row(self, *metric_names: str) -> list[object]:
        """Row for :func:`repro.bench.reporting.format_table`."""
        cells: list[object] = [self.name, self.seconds]
        for metric in metric_names:
            cells.append(self.metrics.get(metric, float("nan")))
        return cells


def measure(name: str, fn: Callable[[], object], **metrics: float) -> tuple[Measurement, object]:
    """Time one callable and wrap the result in a :class:`Measurement`.

    The timing is a :func:`repro.obs.trace.timed` span, so with a tracer
    active each benchmark measurement appears in the exported trace under
    ``bench.measure``.
    """
    with trace.timed("bench.measure", bench=name) as span:
        result = fn()
    return Measurement(name=name, seconds=span.seconds, metrics=dict(metrics)), result
