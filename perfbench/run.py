"""Benchmark of the stockrationing package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
NAME is one of large-n, small-n, sim-grid (see perfbench/README.md).  The
process is single-threaded with BLAS pinned to one thread.

A run times a fixed op set made from the seed: one pass, with every op's
output checked (untimed) as it comes, then the ops again in turn until S
seconds have passed.  Each op's latency is the best of its timings (as
timeit reports): on a shared 2-vCPU VM, Python's speed drops by up to
a half for seconds to minutes at a time, and the other timings mostly
measure that.  An op that fails keeps its time in the sample.  Fresh-process
set-ups (setup_s) run between ops at even intervals over the same S
seconds; see SetupProbes.  With --trace 1 the passes after the first
alternate between traced and untraced ones, the per-layer numbers come
from the traced passes only, and no set-up is timed.

Stdout holds a report (metrics with units, failures with their instance,
fingerprint, run metadata) and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: BENCHMARK.json's end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1.  The full
record goes to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # before numpy is imported, here and in child processes

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("large-n", "small-n", "sim-grid")
# setup_s: SETUP_ROUNDS x SETUP_PER_ROUND fresh-process set-ups per run.
SETUP_ROUNDS = 3
SETUP_PER_ROUND = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="import the package, warm up each op kind once and exit "
                             "(what setup_s times, in a fresh process)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


class SetupProbes:
    """Fresh processes that import the package and warm up, timed from outside.

    The set-ups are spread evenly over the run's timed window, between ops:
    the VM's speed changes in phases of seconds to a minute, and set-ups
    made back to back all land in one phase.  Set-up j belongs to round j % SETUP_ROUNDS,
    so every round spans the window.  setup_s is the median over rounds of
    each round's best set-up, the best as for op latencies.
    """

    def __init__(self, workload: str, seconds: float, start: float):
        count = SETUP_ROUNDS * SETUP_PER_ROUND
        self.cmd = [sys.executable, str(Path(__file__)), "--probe", "--workload", workload]
        self.due = [start + seconds * j / count for j in range(count)]
        self.times: list[float] = []

    def poll(self) -> None:
        """Run the next set-up if its time has come."""
        if len(self.times) < len(self.due) and perf_counter() >= self.due[len(self.times)]:
            self._probe()

    def finish(self) -> None:
        """Run the set-ups a short window left out."""
        while len(self.times) < len(self.due):
            self._probe()

    def _probe(self) -> None:
        t0 = perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
        self.times.append(perf_counter() - t0)

    def setup_s(self) -> float:
        return statistics.median(min(self.times[r::SETUP_ROUNDS]) for r in range(SETUP_ROUNDS))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Checker:
    """Collects failed ops (index -> reason); checks outputs when asked to."""

    def __init__(self, checks, workloads):
        self.checks = checks
        self.workloads = workloads
        self.failures: dict[int, str] = {}
        self.oracle_eta: dict[str, float] = {}
        self.events: dict[int, float] = {}

    def raised(self, idx, exc) -> None:
        self.failures.setdefault(idx, f"raised {type(exc).__name__}: {exc}")

    def check(self, idx, op, out) -> None:
        try:
            reason = self._check(idx, op, out)
        except Exception as exc:  # a check that cannot run fails its op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.setdefault(idx, reason)

    def _check(self, idx, op, out):
        c = self.checks
        if op.kind == "table2":
            return c.check_table2(out)
        p, policy = op.instance.params, op.instance.policy
        if op.kind == "solve":
            return c.check_solve(p, policy, out)
        if op.kind == "oracle":
            self.oracle_eta[op.instance.name] = out[1]
            return c.check_policy_eta(p, out[0], out[1])
        if op.kind == "optimize":
            oracle_eta = None
            if p.threshold <= c.ENUMERATION_CAP:
                oracle_eta = self.oracle_eta.get(op.instance.name)
                if oracle_eta is None:
                    oracle_eta = self.workloads.oracle(p)[1]
            return c.check_optimize(p, out, oracle_eta)
        if op.kind == "simulate":
            rates = c.event_rates(p, policy)
            self.events[idx] = out.replications * out.horizon * float(out.occupancy @ rates)
            return c.check_simulate(p, policy, out)
        raise ValueError(f"unknown op kind {op.kind}")


def time_op(idx, op, checker, check: bool) -> float:
    t0 = perf_counter()
    try:
        out, err = op.call(), None
    except Exception as exc:  # a raising op is a failed op; the run goes on
        out, err = None, exc
    elapsed = perf_counter() - t0
    if err is not None:
        checker.raised(idx, err)
    elif check:
        checker.check(idx, op, out)
    return elapsed


def run_pass(ops, checker, check: bool, tracer=None, probes=None) -> list[float]:
    times = []
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = idx
        if probes is not None:
            probes.poll()
        times.append(time_op(idx, op, checker, check))
    return times


def measure(ops, checker, seconds: int, trace: bool, tracing, workload: str):
    """Time the op set for `seconds`: a first pass that also checks outputs, then

    - untraced: further ops, cycling through the set, with the set-up probes
      between them, until the time is used;
    - traced: alternate traced and untraced passes while the next pair fits
      (at least one traced pass).

    Returns per-op samples, untraced pass totals, (traced pass total, tracer)
    pairs and the set-up probes (None when traced).
    """
    samples = [[] for _ in ops]
    pass_s, traced = [], []
    start = perf_counter()
    probes = None if trace else SetupProbes(workload, seconds, start)

    def untraced_pass(check):
        times = run_pass(ops, checker, check, probes=probes)
        for sample, t in zip(samples, times):
            sample.append(t)
        pass_s.append(sum(times))

    untraced_pass(check=True)
    if not trace:
        idx = 0
        while perf_counter() - start < seconds:
            probes.poll()
            samples[idx].append(time_op(idx, ops[idx], checker, check=False))
            idx = (idx + 1) % len(ops)
        probes.finish()
        return samples, pass_s, traced, probes
    while True:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append((sum(run_pass(ops, checker, check=False, tracer=tracer)), tracer))
        finally:
            tracer.uninstall()
        if perf_counter() - start + pass_s[-1] + traced[-1][0] > seconds:
            return samples, pass_s, traced, probes
        untraced_pass(check=False)


def op_metrics(ops, samples, checker, instances) -> tuple[dict, dict]:
    """(BENCHMARK.json end-to-end metrics without setup_s, per-kind report metrics)."""
    import numpy as np

    lat = np.array([min(s) for s in samples])
    inst_idx = [i for i, op in enumerate(ops) if op.instance is not None]
    failed_names = {ops[i].instance.name for i in checker.failures if ops[i].instance}
    passed = sum(1 for inst in instances if inst.name not in failed_names)
    failed_frac = len(checker.failures) / len(ops)
    e2e = {
        "passed_frac": 1.0 - failed_frac,
        "instances_per_s": passed / float(lat.sum()),
        "op_ms_p50": float(np.percentile(lat[inst_idx], 50)) * 1e3,
    }
    report = {"failed_frac": (failed_frac, "1"),
              "op_ms_p90": (float(np.percentile(lat[inst_idx], 90)) * 1e3, "ms")}
    for kind in dict.fromkeys(op.kind for op in ops):
        idx = [i for i, op in enumerate(ops) if op.kind == kind]
        sample = lat[idx]
        if kind == "table2":
            report["table2_s"] = (float(sample[0]), "s")
            continue
        report[f"{kind}_ms_p50"] = (float(np.percentile(sample, 50)) * 1e3, "ms")
        if kind != "simulate":
            report[f"{kind}_ms_p90"] = (float(np.percentile(sample, 90)) * 1e3, "ms")
        else:
            events = sum(checker.events.values())
            report["sim_events_per_s"] = (events / float(sample.sum()), "1/s (computed)")
        report[f"{kind}_ops"] = (len(idx), "count")
    return e2e, report


def layer_metrics(pass_s, traced) -> dict:
    per_pass = [tracer.layer_metrics() for _, tracer in traced]
    out = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    out["trace_overhead_frac"] = (
        statistics.median(t for t, _ in traced) / statistics.median(pass_s) - 1.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stockrationing" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")    # NaN/overflow warnings are read off outputs instead

    import checks
    import fingerprint
    import tracing
    import workloads

    if args.probe:
        workloads.warm_up(args.workload)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.warm_up(args.workload)
    instances = workloads.make_instances(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, instances)
    checker = Checker(checks, workloads)
    samples, pass_s, traced, probes = measure(ops, checker, args.seconds, bool(args.trace),
                                              tracing, args.workload)
    prints = fingerprint.fingerprint()

    e2e, report = op_metrics(ops, samples, checker, instances)
    if args.trace:
        values = layer_metrics(pass_s, traced)
        wanted = bench["per_layer"]
    else:
        e2e["setup_s"] = probes.setup_s()
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = e2e
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = [
        {"op": i, "kind": ops[i].kind,
         "instance": ops[i].instance.name if ops[i].instance else None,
         "params": ops[i].instance.params.to_json_dict() if ops[i].instance else None,
         "reason": reason}
        for i, reason in sorted(checker.failures.items())
    ]
    meta = metadata()

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": meta,
        "timed_ops": sum(map(len, samples)), "traced_passes": len(traced), "metrics": metrics,
        "setup_probes_s": probes.times if probes else None,
        "all_metrics": values, "report": {k: v[0] for k, v in report.items()},
        "failures": failures, "fingerprint": prints,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if traced:
        traced[0][1].write(OUT / f"{args.workload}.spans.jsonl")

    print(f"# stockrationing benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"timed ops={sum(map(len, samples))} traced_passes={len(traced)} ops_per_pass={len(ops)} "
          f"instances={len(instances)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in report.items():
        print(f"report {name} {value!r} {unit}")
    for f in failures:
        print(f"failed {f['kind']} {f['instance']}: {f['reason']}")
    for rec in prints:
        status = "ok" if fingerprint.healthy(rec) else "DEFECT"
        body = {k: v for k, v in rec.items() if k not in ("name", "params")}
        print(f"fingerprint {rec['name']} [{status}] {json.dumps(body)}")
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
