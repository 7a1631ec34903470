#!/usr/bin/env python3
"""Benchmark a change against its parent in interleaved pairs; write BENCH_<n>.json.

    python scripts/bench_pairs.py --parent REV --number N \\
        --pairs sim-grid=10 --pairs large-n=3 --pairs small-n=3 --seconds 30 --seed 1100

The change is the working tree this script belongs to, or --change REV; each
REV is exported with `git archive` into a temporary directory (TMPDIR
chooses where).  The script has no timing code of its own.  Pair i of a
workload runs `perfbench/run.py --trace 0` with seed SEED + i once in each
checkout, the parent first in even pairs and the change first in odd ones,
so that a slow phase of the machine does not fall on one side only.  Then
the change's `scripts/time_layers.py` runs LAYER_RUNS times with each
side's package on PYTHONPATH, the sides alternating in the same way, for
the layer table, the simulator and enumeration lines and the footprint line.

BENCH_<n>.json, at the repository root, holds the run metadata, each run's
end-to-end metrics (the ones BENCHMARK.json lists), the median and
quartiles of each metric per side, how many pairs the change won, every
time_layers run's lines, and the median and range of each number those
runs timed, per side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LAYER_RUNS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: the working tree)")
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT",
                        help="pairs to run on a workload; repeat for several workloads")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0, help="seed of each workload's first pair")
    args = parser.parse_args(argv)
    try:
        args.pairs = [(name, int(count)) for name, count in
                      (item.split("=", 1) for item in args.pairs)]
    except ValueError:
        parser.error("--pairs takes WORKLOAD=COUNT")
    return args


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The files of commit `rev`, unpacked under `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def perfbench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one perfbench run: its JSON summary."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    return {"failed": summary["failed"],
            **{name: m["value"] for name, m in summary["metrics"].items()}}


def time_layers(checkout: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "time_layers.py")],
                         env=env, check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line]


def layer_summary(runs: list[dict]) -> dict:
    """The median and range of each timed number over each side's runs, read
    off the JSON line that ends each time_layers run."""
    out = {}
    for side in SIDES:
        numbers = [json.loads(run[side][-1]) for run in runs]
        for name, (_, unit) in numbers[0].items():
            values = [run[name][0] for run in numbers if name in run]
            out.setdefault(name, {"unit": unit})[side] = {
                "median": statistics.median(values), "min": min(values), "max": max(values),
                "runs": len(values)}
    return out


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [run[side][name] for run in runs] for side in SIDES}
        won = sum((c < p) if lower else (c > p) for p, c in zip(*values.values()))
        out[name] = {"unit": m["unit"], "better": m["better"],
                     **{side: spread(values[side]) for side in SIDES},
                     "change_won": won, "pairs": len(runs)}
    return out


def main(argv=None) -> None:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    # resolved before the runs, so that a commit made meanwhile is not recorded
    parent = git("rev-parse", args.parent)
    change = git("rev-parse", args.change) if args.change else {
        "working_tree_of": git("rev-parse", "HEAD"),
        "uncommitted": bool(git("status", "--porcelain"))}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {"parent": export(parent, Path(tmp) / "parent"),
                     "change": export(change, Path(tmp) / "change") if args.change else ROOT}
        workloads = {}
        for workload, count in args.pairs:
            runs = []
            for i in range(count):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = perfbench(checkouts[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {run[side]}", file=sys.stderr)
                runs.append(run)
            workloads[workload] = {"summary": summarize(runs, metrics), "runs": runs}
        layer_runs = []
        for i in range(LAYER_RUNS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            layer_runs.append({"first": order[0],
                               **{side: time_layers(checkouts[side]) for side in order}})
    record = {
        "meta": {
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "parent": parent,
            "change": change,
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": 1,   # perfbench/run.py and time_layers.py pin it
            "seconds": args.seconds,
            "command": "python scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        },
        "workloads": workloads,
        "time_layers": {"summary": layer_summary(layer_runs), "runs": layer_runs},
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
