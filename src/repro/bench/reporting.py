"""Plain-text and JSON reporting helpers for the benchmark harness.

Every benchmark prints the rows / series of the corresponding paper figure so
that EXPERIMENTS.md can quote them directly.  The helpers here render small
aligned tables and ratio summaries without pulling in any plotting
dependencies.

Benchmarks additionally emit one machine-readable **run record** per
measurement (:func:`run_record` + :func:`append_run_record`).  Each record
carries the probe throughput in points per second, so the performance
trajectory stays comparable across PRs.  Records are appended as JSON lines to
the path in ``REPRO_BENCH_JSON`` (default ``.benchmarks/runs.jsonl``).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Iterable, Mapping, Sequence

__all__ = [
    "format_table",
    "format_ratio",
    "print_table",
    "run_record",
    "append_run_record",
    "default_records_path",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as an aligned monospace table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> None:
    """Print :func:`format_table` output (convenience for benchmarks)."""
    print()
    print(format_table(headers, rows, title=title))


def format_ratio(value: float, reference: float) -> str:
    """Render ``reference / value`` as a speedup factor string (e.g. ``"8.5x"``)."""
    if value <= 0:
        return "inf"
    return f"{reference / value:.1f}x"


def default_records_path() -> str:
    """Destination of the JSON-lines run records (``REPRO_BENCH_JSON`` env var)."""
    return os.environ.get("REPRO_BENCH_JSON", os.path.join(".benchmarks", "runs.jsonl"))


#: Identifier shared by every record of one benchmark process, so appended
#: lines from different runs stay distinguishable.  Override with
#: ``REPRO_BENCH_RUN_ID`` (e.g. a commit sha in CI).
_RUN_ID = os.environ.get("REPRO_BENCH_RUN_ID") or uuid.uuid4().hex[:12]


def run_record(
    bench: str,
    name: str,
    seconds: float,
    *,
    num_points: int | None = None,
    build_seconds: float | None = None,
    probe_seconds: float | None = None,
    latency_p50_ms: float | None = None,
    latency_p99_ms: float | None = None,
    qps: float | None = None,
    metrics: Mapping[str, object] | None = None,
) -> dict:
    """One machine-readable measurement of a benchmark run.

    Parameters
    ----------
    bench, name:
        Benchmark module / figure id and the individual measurement name
        (e.g. ``"fig6"`` and ``"act:neighborhoods"``).
    seconds:
        Probe (or wall) time of the measurement.
    num_points:
        Number of probe points; together with ``seconds`` it yields the
        ``points_per_second`` throughput field.
    build_seconds, probe_seconds:
        Phase split of the measurement: one-off index/approximation
        construction time vs. per-query probe time.  Recorded as separate
        top-level fields so the build-path and probe-path performance
        trajectories stay independently comparable across PRs.
    latency_p50_ms, latency_p99_ms, qps:
        Serving-shape measurements (the serving benchmark and any future
        concurrent benchmark): median / tail response latency in
        milliseconds and the sustained queries per second over the run.
        ``None`` for solo-kernel benchmarks.
    metrics:
        Extra metrics copied into the record verbatim.
    """
    throughput = None
    if num_points is not None and seconds > 0:
        throughput = num_points / seconds
    record: dict = {
        "run_id": _RUN_ID,
        "unix_time": time.time(),
        "bench": bench,
        "name": name,
        "seconds": seconds,
        "build_seconds": build_seconds,
        "probe_seconds": probe_seconds,
        "num_points": num_points,
        "points_per_second": throughput,
        "latency_p50_ms": latency_p50_ms,
        "latency_p99_ms": latency_p99_ms,
        "qps": qps,
    }
    if metrics:
        record["metrics"] = dict(metrics)
    return record


def append_run_record(record: Mapping[str, object], path: str | None = None) -> str:
    """Append one record as a JSON line; returns the path written to."""
    path = path or default_records_path()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 1e-3 or abs(cell) >= 1e6):
            return f"{cell:.3e}"
        return f"{cell:,.4g}"
    return str(cell)
