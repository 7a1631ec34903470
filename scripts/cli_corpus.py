#!/usr/bin/env python3
"""Run one fixed list of CLI invocations on a parent and on this working tree,
and report every difference in their outputs.

    python scripts/cli_corpus.py --parent REV

REV is exported with `git archive` into a temporary directory (TMPDIR
chooses where), as `scripts/bench_pairs.py` does.  Each invocation runs as
`python -m stockrationing ...` in a subprocess, with the tree's `src` on
PYTHONPATH and a fresh working directory per tree that holds the configs
below, so that relative paths read the same on both sides.  An `{out}` in an
invocation becomes a file name in that directory.  The list covers every
command's help, every command, every `reproduce` target with and without
`--out`, sweeps over each variable with and without `--with-theta-star`,
`solve --shift` at 2.5, 1e20, inf and nan and, space-separated from the
flag, at -1e20 and -3e2, and the rejected inputs, `--penalty -1e2` among them.

A difference is any in stdout, in stderr after each tree's and working
directory's path is masked, in the exit code, or in the bytes of the `--out`
file.  The script prints each one and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = sorted(p.stem for p in (ROOT / "src" / "stockrationing" / "fixtures").glob("*.json"))

EX1 = {"lambda": 3, "mu1": 4, "mu2": 2, "capacity_n": 100, "threshold_k": 15, "c_hold": 1,
       "c_lost1": 4, "c_lost2": 1, "c_buy": 5, "c_opp": 1, "price_r": 15, "penalty_p": 10}
SMALL = {**EX1, "lambda": 1, "mu1": 1, "mu2": 1, "capacity_n": 2, "threshold_k": 1,
         "penalty_p": 0}
CONFIGS = {
    "ex1": {"params": EX1},
    "small": {"params": SMALL},
    # both coefficients of the margin at state 3 of (0, 0, 1) are about 1e-13: an infinite root
    "degenerate": {"params": {**EX1, "lambda": 2, "mu1": 1, "mu2": 1e13, "capacity_n": 5,
                              "threshold_k": 3, "penalty_p": 2}},
    "upward": {"params": {**EX1, "lambda": 9, "capacity_n": 60, "threshold_k": 12},
               "policy": [0] * 6 + [1] * 6},
    "table2": {"params": {**EX1, "capacity_n": 15, "threshold_k": 10, "price_r": 20}},
    "reversed": {"params": {**EX1, "c_lost1": 1, "c_lost2": 4}},
    "negative-rate": {"params": {**EX1, "mu1": -4}},
    "k-above-n": {"params": {**EX1, "capacity_n": 10}},
    "missing-key": {"params": {k: v for k, v in EX1.items() if k != "mu2"}},
    "negative-cost": {"params": {**EX1, "c_hold": -1}},
    "fractional-n": {"params": {**EX1, "capacity_n": 100.5}},
}


def _cmd(command: str, config: str, *rest: str) -> list[str]:
    return [command, "--config", f"{config}.json", *rest]


INVOCATIONS = [
    ["--help"], ["--version"],
    *([command, "--help"] for command in ("solve", "optimize", "sweep", "simulate", "reproduce")),
    # solve
    _cmd("solve", "ex1", "--policy", "ones"),
    _cmd("solve", "ex1", "--policy", "zeros", "--format", "csv"),
    _cmd("solve", "ex1", "--policy", "1,0,1,0,1,0,1,0,1,0,1,0,1,0,1", "--penalty", "2.5"),
    _cmd("solve", "ex1", "--policy", "ones", "--out", "{out}"),
    _cmd("solve", "ex1", "--policy", "zeros", "--format", "csv", "--out", "{out}"),
    _cmd("solve", "small", "--policy", "zeros"),
    _cmd("solve", "degenerate", "--policy", "0,0,1"),
    _cmd("solve", "degenerate", "--policy", "0,0,1", "--format", "csv"),
    _cmd("solve", "upward"),
    _cmd("solve", "table2", "--policy", "[0,0,0,0,0,1,1,1,1,1]"),
    _cmd("solve", "ex1", "--policy", "ones", "--shift", "2.5"),
    _cmd("solve", "ex1", "--policy", "ones", "--shift", "1e20"),
    _cmd("solve", "ex1", "--policy", "ones", "--shift=inf"),
    _cmd("solve", "ex1", "--policy", "ones", "--shift=nan", "--format", "csv"),
    _cmd("solve", "ex1", "--policy", "ones", "--shift", "2.5", "--out", "{out}"),
    # a negative value written with an exponent, space-separated from its flag
    _cmd("solve", "ex1", "--policy", "ones", "--shift", "-1e20"),
    _cmd("solve", "ex1", "--policy", "ones", "--shift", "-3e2", "--format", "csv"),
    _cmd("solve", "ex1", "--policy", "ones", "--penalty", "-1e2"),
    # optimize
    _cmd("optimize", "ex1"),
    _cmd("optimize", "ex1", "--oracle"),
    _cmd("optimize", "ex1", "--penalty", "3", "--oracle", "--out", "{out}"),
    _cmd("optimize", "upward", "--penalty", "0.5"),
    # sweep
    _cmd("sweep", "ex1", "--var", "theta"),
    _cmd("sweep", "ex1", "--var", "theta", "--grid", "1:15:8", "--with-theta-star"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid", "0:50:11", "--policy", "ones"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid", "0,0.1,2.5,10,1e6", "--policy",
         "zeros", "--with-theta-star"),
    _cmd("sweep", "degenerate", "--var", "penalty", "--grid", "0:4:5", "--policy", "0,0,1",
         "--out", "{out}"),
    _cmd("sweep", "small", "--var", "lambda", "--grid", "0.5,1.0,1.5", "--policy", "ones"),
    _cmd("sweep", "ex1", "--var", "lambda", "--grid", "1:11:6", "--policy", "zeros",
         "--with-theta-star"),
    # simulate
    _cmd("simulate", "ex1", "--policy", "ones", "--horizon", "2000", "--replications", "4"),
    _cmd("simulate", "small", "--policy", "zeros", "--horizon", "5000", "--replications", "3",
         "--seed", "7", "--format", "csv"),
    # reproduce
    *(["reproduce", target] for target in TARGETS),
    *(["reproduce", target, "--out", "{out}"] for target in TARGETS),
    # rejected input
    _cmd("solve", "negative-rate", "--policy", "ones"),
    _cmd("solve", "k-above-n", "--policy", "ones"),
    _cmd("solve", "ex1", "--policy", "1,0"),
    _cmd("solve", "ex1", "--policy", "2,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid", "0,1", "--policy",
         "0,2,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    _cmd("solve", "missing-key", "--policy", "ones"),
    _cmd("sweep", "ex1", "--var", "theta", "--grid", "0"),
    _cmd("sweep", "ex1", "--var", "theta", "--grid", "17"),
    _cmd("sweep", "ex1", "--var", "theta", "--grid", "1,17"),
    _cmd("simulate", "small", "--policy", "zeros", "--replications", "1"),
    _cmd("simulate", "small", "--policy", "zeros", "--replications", "0"),
    _cmd("sweep", "ex1", "--var", "lambda", "--grid", "1,-1", "--policy", "ones"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid", "1,-1", "--policy", "ones"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid=-1,1", "--policy", "1,0"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid", "1,-1", "--policy", "1,0"),
    _cmd("sweep", "ex1", "--var", "penalty", "--grid", "1:2:0", "--policy", "ones"),
    _cmd("solve", "negative-cost", "--policy", "ones"),
    _cmd("solve", "fractional-n", "--policy", "ones"),
    _cmd("solve", "reversed", "--policy", "ones", "--format", "csv"),
    ["solve", "--policy", "ones"],
    _cmd("solve", "no-such-config", "--policy", "ones"),
]


def export(rev: str, into: Path) -> Path:
    """The files of commit `rev`, unpacked under `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_all(tree: Path, workdir: Path) -> list[tuple]:
    """(exit code, stdout, masked stderr, --out bytes or None) of each invocation."""
    workdir.mkdir()
    for name, config in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    results = []
    for i, argv in enumerate(INVOCATIONS):
        out = workdir / f"out-{i}"
        proc = subprocess.run([sys.executable, "-m", "stockrationing",
                               *(arg.replace("{out}", out.name) for arg in argv)],
                              cwd=workdir, env=env, capture_output=True)
        # the working directory first: the parent's tree path is a prefix of it
        err = proc.stderr.replace(str(workdir).encode(), b"<workdir>")
        err = err.replace(str(tree).encode(), b"<tree>")
        results.append((proc.returncode, proc.stdout, err,
                        out.read_bytes() if out.exists() else None))
    return results


def describe(field: str, parent, change) -> str:
    if field == "exit code":
        return f"  exit code: {parent} -> {change}"
    if parent is None or change is None:
        return f"  --out file: {'absent' if parent is None else 'present'} -> " \
               f"{'absent' if change is None else 'present'}"
    lines = difflib.unified_diff(parent.decode(errors="replace").splitlines(),
                                 change.decode(errors="replace").splitlines(),
                                 "parent", "change", n=1, lineterm="")
    return f"  {field}:\n" + "\n".join(f"    {line}" for line in list(lines)[:20])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli_corpus-") as tmp:
        tmp = Path(tmp)
        parent = run_all(export(args.parent, tmp / "parent"), tmp / "parent-run")
        change = run_all(ROOT, tmp / "change-run")
    fields = ("exit code", "stdout", "stderr", "--out file")
    differing = 0
    for argv, old, new in zip(INVOCATIONS, parent, change):
        report = [describe(field, a, b) for field, a, b in zip(fields, old, new) if a != b]
        if report:
            differing += 1
            print(f"DIFFERS: stockrationing {' '.join(argv)}", *report, sep="\n")
    codes = sorted({old[0] for old in parent})
    print(f"{len(INVOCATIONS)} invocations against {args.parent} (parent exit codes {codes}): "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
