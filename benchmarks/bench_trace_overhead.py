"""TRACE — disabled-tracer overhead of the observability layer.

The span API is designed so that instrumented hot paths cost almost nothing
when no tracer is installed: ``trace.span(...)`` returns a shared null
singleton without reading the clock or allocating, and only ``trace.timed``
sites (which feed existing timing fields) pay two ``perf_counter`` calls.

This benchmark pins that contract down with two measurements:

* **micro** — a tight loop entering/exiting a disabled ``trace.span`` versus
  an empty-``with`` baseline loop; the per-iteration overhead must stay
  under a microsecond (it is tens of nanoseconds in practice);
* **macro** — the fig6 aggregation join run with tracing disabled versus
  enabled; the disabled run must not be meaningfully slower than the
  enabled run (the enabled run does strictly more work).

Each JSON run record carries the ``span_overhead_ns`` and
``disabled_enabled_ratio`` fields the CI smoke job checks.
"""

from __future__ import annotations

import contextlib
import time

from repro.api import SpatialDataset
from repro.bench import append_run_record, is_smoke_run, print_table, run_record
from repro.obs import trace
from repro.query import AggregationQuery

ACT_EPSILON = 32.0 if is_smoke_run() else 4.0
MICRO_ITERATIONS = 50_000 if is_smoke_run() else 200_000
MACRO_ROUNDS = 3 if is_smoke_run() else 5


@contextlib.contextmanager
def _noop():
    yield


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_span_overhead_micro():
    """Per-iteration cost of a disabled span vs an empty context manager."""
    assert not trace.enabled()
    noop = _noop

    def baseline():
        for _ in range(MICRO_ITERATIONS):
            with noop():
                pass

    def disabled_span():
        for _ in range(MICRO_ITERATIONS):
            with trace.span("bench.overhead"):
                pass

    base_seconds = _best_of(MACRO_ROUNDS, baseline)
    span_seconds = _best_of(MACRO_ROUNDS, disabled_span)
    overhead_ns = max(span_seconds - base_seconds, 0.0) / MICRO_ITERATIONS * 1e9

    record = run_record(
        "trace-overhead",
        "disabled-span:micro",
        span_seconds,
        metrics={
            "iterations": MICRO_ITERATIONS,
            "baseline_seconds": base_seconds,
            "span_overhead_ns": round(overhead_ns, 1),
        },
    )
    # A disabled span must cost well under a microsecond per entry; the
    # bound is deliberately loose (CI machines are noisy) while still
    # catching an accidental allocation or clock read on the null path.
    assert record["metrics"]["span_overhead_ns"] < 1000.0, record
    append_run_record(record)

    print_table(
        ["path", "seconds", "ns/iter"],
        [
            ["empty with-block", round(base_seconds, 6), round(base_seconds / MICRO_ITERATIONS * 1e9, 1)],
            ["disabled span", round(span_seconds, 6), round(span_seconds / MICRO_ITERATIONS * 1e9, 1)],
        ],
        title=f"TRACE  disabled-span micro overhead ({MICRO_ITERATIONS:,} iterations)",
    )


def test_disabled_vs_enabled_join_macro(workload, join_points, neighborhoods, frame):
    """A traced join does strictly more work; the untraced one must not be
    meaningfully slower than it (instrumentation is free when off)."""
    dataset = SpatialDataset(
        join_points, frame=frame, extent=workload.extent
    ).add_suite("neighborhoods", neighborhoods)
    spec = AggregationQuery(epsilon=ACT_EPSILON)
    dataset.query(spec, suite="neighborhoods", strategy="act")  # warm the registry

    def run():
        dataset.query(spec, suite="neighborhoods", strategy="act")

    disabled_seconds = _best_of(MACRO_ROUNDS, run)
    trace.enable()
    try:
        enabled_seconds = _best_of(MACRO_ROUNDS, run)
    finally:
        trace.disable()

    ratio = disabled_seconds / max(enabled_seconds, 1e-12)
    record = run_record(
        "trace-overhead",
        "disabled-vs-enabled:join",
        disabled_seconds,
        num_points=len(join_points),
        metrics={
            "enabled_seconds": enabled_seconds,
            "disabled_enabled_ratio": round(ratio, 3),
        },
    )
    # Generous bound: the disabled run may not be >2x the enabled run (any
    # real regression on the null path shows up orders of magnitude below).
    assert record["metrics"]["disabled_enabled_ratio"] < 2.0, record
    append_run_record(record)

    print_table(
        ["tracing", "best ms"],
        [
            ["disabled", round(disabled_seconds * 1e3, 3)],
            ["enabled", round(enabled_seconds * 1e3, 3)],
        ],
        title=f"TRACE  fig6 join, tracing off vs on ({len(join_points):,} points)",
    )
