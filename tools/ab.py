"""Paired parent/change ladder runs, written down as ratios.

    python3 tools/ab.py --parent <sha> --pr <n> [--change <sha>] \
        [--workload explore_warm ...] [--seed 20210111 --seed 7919] \
        [--pairs 10] [--traced] [--scratch DIR] [-o BENCH_<n>.json]

The parent (and the change, when ``--change`` names a commit) is checked out
into a fresh clone under ``--scratch``; without ``--change`` the change side
is this checkout's working tree as it stands, so an uncommitted change can be
measured.  Clones rather than ``git worktree``s: a clone leaves nothing in
this repository's ``.git``, so an interrupted run leaves no stale worktree
entry behind.

Per seed and workload the tool runs ``--pairs`` pairs of
``benchmarks/ladder/run.py`` (one process at a time, alternating which side
goes first), hands each seed's two JSONL files to
``benchmarks/ladder/compare.py`` and prints its table.  It then writes
``BENCH_<pr>.json``: per workload, seed and end-to-end metric the **paired
ratios** change / parent — median and quartiles over the pairs — the number
of pairs the change won, and whether the change passes the claim rule (it
wins at least nine pairs in ten, and its median beats the parent's by more
than the parent's interquartile range).  Absolute medians are kept beside
the ratios for information only: on a shared host the same code reads
1.3-1.7x apart from one day to the next, so only the ratios compare across
changes.  ``--traced`` adds one ``--trace 1`` run a side per seed and
workload and records its per-layer metrics the same way (one pair, so no
rule).

Exit code: that of the last ``compare.py`` call that failed (1 on a
``worse`` verdict, 2 on unusable runs), else 0.  A ladder run whose checks
fail stops the tool with that run's output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LADDER = Path("benchmarks") / "ladder"


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def _checkout(sha: str, into: Path) -> Path:
    subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT), str(into)], check=True)
    _git("checkout", "-q", sha, cwd=into)
    return into


def _run(side_root: Path, workload: str, seed: int, trace: int, output: Path) -> None:
    command = [
        sys.executable, str(LADDER / "run.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "-o", str(output),
    ]
    done = subprocess.run(command, cwd=side_root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"ab: {' '.join(command)} failed in {side_root}")


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def paired_ratios(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """Per metric: ratios over the pairs, wins and the claim rule.

    ``parent[i]`` and ``change[i]`` are the records of pair ``i``."""
    out = {}
    for entry in declared:
        name, better = entry["name"], entry["better"]
        base = [record["metrics"][name]["value"] for record in parent]
        new = [record["metrics"][name]["value"] for record in change]
        ratios = [n / b if b else float("inf") for b, n in zip(base, new)]
        wins = sum((n < b) if better == "lower" else (n > b) for b, n in zip(base, new))
        r_med, r_q1, r_q3 = _quartiles(ratios)
        b_med, b_q1, b_q3 = _quartiles(base)
        n_med, n_q1, n_q3 = _quartiles(new)
        gain = (b_med - n_med) if better == "lower" else (n_med - b_med)
        out[name] = {
            "better": better,
            "bound": entry.get("bound"),
            "ratio_median": r_med,
            "ratio_q1": r_q1,
            "ratio_q3": r_q3,
            "wins": wins,
            "pairs": len(ratios),
            "claim_holds": len(ratios) >= 2
            and wins * 10 >= 9 * len(ratios)
            and gain > (b_q3 - b_q1),
            "parent": {"median": b_med, "q1": b_q1, "q3": b_q3},
            "change": {"median": n_med, "q1": n_q1, "q3": n_q3},
        }
    return out


def _format(value, indent: int = 0) -> str:
    """JSON with one line per metric: a dict nesting no dict two levels down
    is written on one line, the rest one key per line."""
    shallow = all(
        not isinstance(v, dict) or not any(isinstance(x, dict) for x in v.values())
        for v in value.values()
    ) if isinstance(value, dict) else True
    if shallow:
        return json.dumps(value)
    pad = " " * (indent + 1)
    items = ",\n".join(f"{pad}{json.dumps(k)}: {_format(v, indent + 1)}" for k, v in value.items())
    return "{\n" + items + "\n" + " " * indent + "}"


def _host() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--change", default=None,
                        help="commit of the change (default: this working tree as it stands)")
    parser.add_argument("--pr", required=True, type=int, help="names the BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", default=None,
                        help="repeatable; default explore_warm")
    parser.add_argument("--seed", action="append", type=int, default=None,
                        help="repeatable; default 20210111 and the held-out 7919")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run a side per seed and workload")
    parser.add_argument("--scratch", default=None, help="directory for the clones and JSONL")
    parser.add_argument("-o", "--output", default=None, help="default BENCH_<pr>.json here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = args.workload or ["explore_warm"]
    seeds = args.seed or [20210111, 7919]
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="ab-"))
    scratch.mkdir(parents=True, exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    parent_sha = _git("rev-parse", args.parent)
    sides = {"parent": _checkout(parent_sha, scratch / "parent")}
    if args.change is None:
        sides["change"] = ROOT
        change_sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    else:
        change_sha = _git("rev-parse", args.change)
        sides["change"] = _checkout(change_sha, scratch / "change")
        dirty = False

    status = 0
    results: dict = {}
    for workload in workloads:
        for seed in seeds:
            files = {side: scratch / f"{side}-{workload}-{seed}.jsonl" for side in sides}
            for path in files.values():
                path.unlink(missing_ok=True)
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    _run(sides[side], workload, seed, 0, files[side])
                print(f"ab: {workload} seed {seed}: pair {i + 1}/{args.pairs} done", flush=True)
            compared = subprocess.run(
                [sys.executable, str(ROOT / LADDER / "compare.py"),
                 str(files["parent"]), str(files["change"])],
                capture_output=True, text=True,
            )
            print(compared.stdout + compared.stderr, flush=True)
            status = compared.returncode or status
            entry = {
                "end_to_end": paired_ratios(
                    _records(files["parent"]), _records(files["change"]),
                    declared["end_to_end"],
                ),
            }
            if args.traced:
                traced = {side: scratch / f"{side}-{workload}-{seed}-traced.jsonl"
                          for side in sides}
                for side, path in traced.items():
                    path.unlink(missing_ok=True)
                    _run(sides[side], workload, seed, 1, path)
                entry["per_layer"] = paired_ratios(
                    _records(traced["parent"]), _records(traced["change"]),
                    [dict(layer, bound=None) for layer in declared["per_layer"]],
                )
                for layer in entry["per_layer"].values():
                    layer.pop("claim_holds")
            results.setdefault(workload, {})[str(seed)] = entry

    output = Path(args.output) if args.output else ROOT / f"BENCH_{args.pr}.json"
    output.write_text(_format({
        "pr": args.pr,
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        "change_uncommitted": dirty,
        "host": _host(),
        "pairs": args.pairs,
        "seeds": seeds,
        "note": "ratio = change / parent per pair; absolutes are for information only",
        "workloads": results,
    }) + "\n")
    print(f"ab: wrote {output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
