"""Self-check of the benchmark harness: python3 perfbench/selfcheck.py

Runs every workload, untraced and traced, on a shrunken op set, and asserts
that each run emits every metric named in BENCHMARK.json with its unit, plus
the per-op-kind metrics each workload reports, the fingerprint, the run
metadata, and spans with parent links.  Last, it checks that the benchmark
exits non-zero without printing a result when the package source is absent.
Takes about a minute; exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run        # noqa: E402
import workloads  # noqa: E402

KIND_METRICS = {
    "solve": ["solve_ms_p50", "solve_ms_p90"],
    "optimize": ["optimize_ms_p50", "optimize_ms_p90"],
    "oracle": ["oracle_ms_p50", "oracle_ms_p90"],
    "table2": ["table2_s"],
    "simulate": ["simulate_ms_p50", "sim_events_per_s"],
}
META_KEYS = ("python", "numpy", "nproc", "blas_threads", "commit", "src_lines")


def shrink() -> None:
    workloads.LARGE_STRATA = 1
    workloads.SMALL_COUNT = 20
    workloads.SIM_COUNT = 3
    workloads.SIM_HORIZON = 500.0


def check_run(workload: str, trace: int, bench: dict) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    where = f"{workload} trace={trace}"
    assert rc == 0, f"{where}: exit {rc}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], where
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
        line = f"metric {m['name']} {got['value']!r} {m['unit']}"
        assert line in lines, f"{where}: no report line {line!r}"
    reported = {ln.split()[1]: ln.split(maxsplit=3)[3] for ln in lines if ln.startswith("report ")}
    kind_metrics = [m for kind in workloads.KINDS[workload] for m in KIND_METRICS[kind]]
    for name in ["failed_frac", "op_ms_p90", *kind_metrics]:
        assert reported.get(name), f"{where}: {name} not reported with a unit"
    meta = next(ln for ln in lines if ln.startswith("meta "))
    for key in META_KEYS:
        assert f" {key}=" in meta, f"{where}: metadata lacks {key}"
    prints = [ln for ln in lines if ln.startswith("fingerprint ")]
    assert len(prints) == 7, f"{where}: {len(prints)} fingerprint lines"
    if trace:
        with open(run.OUT / f"{workload}.spans.jsonl", encoding="utf-8") as fh:
            spans = [json.loads(ln) for ln in fh]
        ids = {s[0] for s in spans}
        assert any(s[1] is not None for s in spans), f"{where}: no span has a parent"
        assert all(s[1] is None or s[1] in ids for s in spans), f"{where}: dangling parent"
        assert all(s[2] is not None for s in spans), f"{where}: span without op id"
    print(f"ok {where}: {len(result['metrics'])} metrics, {result['attempted']} ops")


def check_without_source(bench_json: Path) -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench_json, bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small-n", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the package source"
    assert '"metrics"' not in proc.stdout, "printed a result without the package source"
    print("ok without package source: exit", proc.returncode)


def main() -> int:
    bench_json = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_json.read_text())
    shrink()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, bench)
    check_without_source(bench_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
