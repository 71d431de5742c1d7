"""Benchmark harness helpers (scaling, timing, plain-text + JSON reporting)."""

from repro.bench.harness import (
    BenchScale,
    Measurement,
    is_smoke_run,
    measure,
    scale_from_env,
)
from repro.bench.reporting import (
    append_run_record,
    default_records_path,
    format_ratio,
    format_table,
    print_table,
    run_record,
)

__all__ = [
    "BenchScale",
    "Measurement",
    "append_run_record",
    "default_records_path",
    "format_ratio",
    "format_table",
    "is_smoke_run",
    "measure",
    "print_table",
    "run_record",
    "scale_from_env",
]
