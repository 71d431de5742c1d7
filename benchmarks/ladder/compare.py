"""Compare sets of ladder runs: ``compare.py A.jsonl [B.jsonl ...]``.

Each file holds the records ``run.py -o`` appended: one set of runs of one
commit.  Untraced records are compared on the end-to-end metrics, traced ones
on the per-layer metrics (no bound, so never a verdict).

* One file: the spread table.  Per workload x metric the median, the
  quartiles (``statistics.quantiles(values, n=4)``) and the spread — the
  distance between the quartiles as a share of the median — against the bound
  ``BENCHMARK.json`` fixes.  ``steady`` means the spread is within the bound.
* Two or more files: every further file against the first (the base).  Per
  workload x metric both medians and quartiles, the ratio *with its base*, the
  bound, and a verdict: ``worse`` when the candidate's median is worse than
  the base's by more than the bound, ``better`` when it is better by more
  than the bound, ``unresolved`` when either side's spread is wider than the
  bound, otherwise ``same``.

Exits 1 on any ``worse`` (or, with one file, any end-to-end spread beyond its
bound), 2 on unusable input: smoke records, runs that failed their checks, a
file that mixes commits or ``seconds``, and files whose runs do not pair up
(the same seeds, as often, on every workload, and the same ``seconds``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _refuse(message: str):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> tuple[dict, dict]:
    """One file: ``{(workload, metric): [values]}`` (traced and untraced
    records name different metrics) and what a file compared with it must
    share — ``seconds`` and the sorted seeds per (workload, trace)."""
    series: dict = {}
    seeds: dict = {}
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    if not records:
        _refuse(f"{path} holds no records")
    for field in ("git_sha", "seconds"):
        if len({record[field] for record in records}) > 1:
            _refuse(f"{path} mixes runs of different {field}")
    for record in records:
        if record.get("smoke"):
            _refuse(f"{path} holds smoke records; they measure nothing")
        if not record.get("correct"):
            _refuse(f"{path} holds a run that failed its checks")
        seeds.setdefault((record["workload"], record["trace"]), []).append(record["seed"])
        for name, entry in record["metrics"].items():
            series.setdefault((record["workload"], name), []).append(entry["value"])
    shape = {"seconds": records[0]["seconds"],
             "seeds": {key: sorted(values) for key, values in seeds.items()}}
    return series, shape


def summary(values: list) -> tuple:
    """(median, q1, q3, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def spread_table(series: dict, declared: dict) -> int:
    wide = 0
    print(f"{'workload':15s} {'metric':30s} {'n':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for (workload, name), values in sorted(series.items()):
        median, q1, q3, spread = summary(values)
        bound = declared.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread <= bound else "WIDE"
            # The contract exempts set-up time from the spread rule.
            wide += verdict == "WIDE" and name != "setup_s"
        print(f"{workload:15s} {name:30s} {len(values):3d} {_fmt(median):>10s} {_fmt(q1):>10s} "
              f"{_fmt(q3):>10s} {spread:7.3f} {'' if bound is None else bound:>6}  {verdict}")
    return 1 if wide else 0


def compare_table(base: dict, candidate: dict, declared: dict, label: str) -> int:
    worse = 0
    print(f"== {label}")
    print(f"{'workload':15s} {'metric':30s} {'base median [q1, q3]':>34s} "
          f"{'candidate median [q1, q3]':>34s} {'ratio':>24s} {'bound':>6s}  verdict")
    for key in sorted(set(base) & set(candidate)):
        workload, name = key
        b_med, b_q1, b_q3, b_spread = summary(base[key])
        c_med, c_q1, c_q3, c_spread = summary(candidate[key])
        ratio = c_med / b_med if b_med else float("inf")
        entry = declared.get(name, {})
        bound = entry.get("bound")
        verdict = ""
        if bound is not None:
            change = ratio - 1.0 if entry["better"] == "lower" else 1.0 - ratio
            if max(b_spread, c_spread) > bound and name != "setup_s":
                verdict = "unresolved"
            elif change > bound:
                verdict = "WORSE"
                worse += 1
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
        print(f"{workload:15s} {name:30s} "
              f"{f'{_fmt(b_med)} [{_fmt(b_q1)}, {_fmt(b_q3)}]':>34s} "
              f"{f'{_fmt(c_med)} [{_fmt(c_q1)}, {_fmt(c_q3)}]':>34s} "
              f"{f'{ratio:.3f}x of base {_fmt(b_med)}':>24s} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    return 1 if worse else 0


def main(argv) -> int:
    if not argv:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    (base, base_shape), *candidates = [load(path) for path in argv]
    if not candidates:
        return spread_table(base, declared)
    status = 0
    for path, (candidate, shape) in zip(argv[1:], candidates):
        if shape != base_shape:
            _refuse(f"{path} and {argv[0]} do not pair up: seeds per workload or seconds differ")
        status |= compare_table(base, candidate, declared, f"{path} against base {argv[0]}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
