#!/usr/bin/env python3
"""Time the solver's layers across capacities and drifts; print a Markdown table.

Each cell is the best of 3 wall-clock timings (time.perf_counter) of one
call at example-1 service rates (mu1=4, mu2=2) and costs, K=15, P=5; the
layers that take a policy use the all-ones policy.  The `profit_linear_form`
row reads the split's eta inside the timed call, because a chain record
computes it when first read.  The `solve` row times perfbench's solve op
on that policy as one: `stationary_distribution`, `profit_linear_form`,
`solve_poisson` and `penalty_roots` (its fifth call returns its argument).  The chain keeps the last policy's record; the kept record
is dropped before each timed call, outside the timed interval, so that
every cell times a solve and not a lookup.  The first four columns
use example 1's supply rate, lam=3, so lam/(mu1+mu2) = 0.5; the next three
take N=1e5 at lam/(mu1+mu2) = 0.8, 1 and 1.2.  The last two take the shape
of perfbench's large-n instances, N=3,162 at lam/(mu1+mu2) = 0.95 and 1.05:
the only columns whose potential g has entries in the series band next to
N or K (see `ChainRecord.g`), and where a record's fixed cost per call
shows beside its O(N) work.  A cell reads "raises" when
the call raises StockRationingError.  A line below the table gives the
simulator's speed: events per second of `simulate` at example 1 (N=100,
all-ones policy, horizon 2e4, 4 replications), best of 3, with the events
counted as perfbench counts them, replications x horizon x the mean jump
rate under the estimated occupancy.  A second simulator line takes the
shape of perfbench's sim-grid ops: horizon 5000 and 10 replications at
example 1 with N=20, every rate scaled to a mean jump rate of 2, so that a
replication walks about 10,000 steps, as sim-grid's lowest-rate ops do.
The all-ones policy gives the jump chain one up-probability inside (0, 1);
a third line runs that shape under the threshold-9 policy, whose two, like
most sim-grid policies', halve the steps the simulator takes per table
lookup.  Every line takes each state's jump rate from lam and
`service_rates`, which every version of the package exports.  Before the
table, each layer is called WARMUP_CALLS times untimed at the first column,
so that the first cell is not timed cold.  The next line times the
enumeration oracle: `brute_force_optimal` at example-1 rates and costs,
P=5, N=2K, at K=16, 20, 22 and 24 (the enumeration cap), best of 3.  The
line after it times `global_optimal` where the weights on states 0..K span
many blocks: at example-1 rates and costs, P=5, K=N=2,000 and K=N=1e5, best
of 3, with each run's policy-iteration steps.  The `record` line times a
chain record's fixed cost at the shape of perfbench's large-n instances
(lam=6.3, mu1=4, mu2=2, N=3,162, example-1 costs, P=5) with K=15 and 40:
`chain_record` with its `roots`, `signs(P)` and `eta(P)` read, on a mixed
policy (serving where i is not a multiple of 3) with the kept record
dropped first, and on the two-row stack of the all-zeros and all-ones
rows that `global_optimal` gates on, each the best of RECORD_REPEATS
calls.  The
last line gives the package's size: the lines of its modules (as
`wc -l src/stockrationing/*.py` counts them), the number of names it
exports, and how many parameters of the exported functions have a default.
Times print to three significant digits.  The output ends with one JSON line
that holds every timed number at full precision as [value, unit], in ms or
M events/s, keyed by name: "<layer> <column>" for a table cell, "simulator
(<label>)" for a simulator line and "enumeration K=<k>" for an enumeration
cell, "global_optimal K=N=<k>" for a large-K cell and "record K=<k>" and
"gates K=<k>" for the record line; a cell that raises has no entry.  Each
table cell and each record-line cell also has
"<layer> <column> / reference": its time over the best of 3 of
`reference_call`, a fixed call that touches no package code, timed in the
same process right before the cell, so that a ratio moves less than a raw
time with the machine's speed.  Run from the repository root:

    PYTHONPATH=src python scripts/time_layers.py

BLAS runs on one thread, as in perfbench: on a 2-vCPU VM a threaded
OpenBLAS dot product at N >= 1e4 took several milliseconds of thread
hand-off in some processes and none in others.
"""

import contextlib
import dataclasses
import inspect
import json
import math
import os
import time
import warnings
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # before numpy is imported

import numpy as np  # noqa: E402

import stockrationing  # noqa: E402
from stockrationing import (  # noqa: E402
    Policy,
    StockRationingError,
    SystemParams,
    average_profit,
    brute_force_optimal,
    chain_record,
    global_optimal,
    optimal_static_threshold,
    penalty_roots,
    profit_linear_form,
    service_rates,
    simulate,
    solve_poisson,
    stationary_distribution,
)

COLUMNS = [(0.5, n) for n in (100, 1_000, 10_000, 100_000)] + [
    (beta, 100_000) for beta in (0.8, 1.0, 1.2)
] + [(beta, 3_162) for beta in (0.95, 1.05)]
REPEATS = 3
# Untimed calls of each layer before the table.  After one, the first column
# still read 25-45% above the next in a probe; after ten, about 5-10%.
WARMUP_CALLS = 10
# A package without a kept record has nothing to drop.
forget_record = getattr(stockrationing.chain, "_forget_last_record", lambda: None)
ENUMERATION_KS = (16, 20, 22, 24)
LARGE_KS = (2_000, 100_000)
RECORD_KS = (15, 40)
RECORD_REPEATS = 300    # microsecond calls: the best of many
SIM_GRID_JUMP_RATE = 2.0
THRESHOLD_9 = Policy(tuple(int(i >= 9) for i in range(1, 16)))


def best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        forget_record()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def reference_call() -> float:
    """A fixed call that touches no package code, timed right before each
    table cell: about as many small numpy calls as a small-N layer makes,
    and one pass over an array of 10,000 floats."""
    x = np.linspace(1.0, 2.0, 16)
    for _ in range(60):
        x = np.sqrt(x * x + 1.0)
    return float(np.cumsum(np.arange(10_000.0))[-1] + x.sum())


def fmt(seconds: float) -> str:
    """Three significant digits, in ms below one second."""
    value, unit = (seconds, "s") if seconds >= 1.0 else (seconds * 1e3, "ms")
    return f"{value:.{max(0, 2 - math.floor(math.log10(value)))}f} {unit}"


def timed_or_none(call) -> float | None:
    try:
        return best_time(call)
    except StockRationingError:
        return None


def params(beta: float, n: int) -> SystemParams:
    return SystemParams(lam=6.0 * beta, mu1=4.0, mu2=2.0, capacity=n, threshold=15,
                        c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1,
                        price=15, penalty=5.0)


def jump_rates(p: SystemParams, pol: Policy) -> np.ndarray:
    """Total event rate of each state 0..N: lam below N plus the service rate above 0."""
    return np.append(np.full(p.capacity, p.lam), 0.0) + np.append(0.0, service_rates(p, pol))


def simulator_speed(p: SystemParams, pol: Policy, policy_name: str, horizon: float,
                    replications: int, label: str, timed: dict) -> str:
    def run():
        return simulate(p, pol, horizon=horizon, replications=replications, seed=0)

    seconds = best_time(run)
    est = run()
    events = est.replications * est.horizon * float(est.occupancy @ jump_rates(p, pol))
    name = f"({label}, {policy_name} policy, horizon {horizon:g}, {replications} replications)"
    timed["simulator " + name] = [events / seconds / 1e6, "M events/s"]
    return f"simulator: {events / seconds / 1e6:.2f} M events/s {name}"


def sim_grid_shape(pol: Policy) -> SystemParams:
    """Example 1 at N=20, every rate scaled so that the mean jump rate under
    `pol` is 2."""
    p = params(0.5, 20)
    c = SIM_GRID_JUMP_RATE / float(stationary_distribution(p, pol).pi @ jump_rates(p, pol))
    return dataclasses.replace(p, lam=p.lam * c, mu1=p.mu1 * c, mu2=p.mu2 * c)


def enumeration_speed(timed: dict) -> str:
    cells = []
    for k in ENUMERATION_KS:
        p = dataclasses.replace(params(0.5, 2 * k), threshold=k)
        seconds = best_time(lambda: brute_force_optimal(p))
        timed[f"enumeration K={k}"] = [seconds * 1e3, "ms"]
        cells.append(f"K={k} {fmt(seconds)}")
    return "enumeration: " + ", ".join(cells) + " (example-1 rates, N=2K, best of 3)"


def large_k_speed(timed: dict) -> str:
    cells = []
    for k in LARGE_KS:
        p = dataclasses.replace(params(0.5, k), threshold=k)
        seconds = best_time(lambda: global_optimal(p))
        timed[f"global_optimal K=N={k}"] = [seconds * 1e3, "ms"]
        cells.append(f"K=N={k:,} {fmt(seconds)} ({global_optimal(p).iterations} steps)")
    return "global_optimal: " + ", ".join(cells) + " (example-1 rates, best of 3)"


def record_speed(timed: dict) -> str:
    cells = []
    for k in RECORD_KS:
        p = SystemParams(lam=6.3, mu1=4.0, mu2=2.0, capacity=3_162, threshold=k,
                         c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5.0)
        mixed = Policy(tuple(int(i % 3 != 0) for i in range(1, k + 1)))
        gates = np.arange(2.0)[:, None].repeat(k, axis=1)
        for name, arg in (("record", mixed), ("gates", gates)):
            def call(arg=arg):
                record = chain_record(p, arg)
                return record.roots, record.signs(p.penalty), record.eta(p.penalty)

            reference = best_time(reference_call)
            seconds = best_time(call, RECORD_REPEATS)
            timed[f"{name} K={k}"] = [seconds * 1e3, "ms"]
            timed[f"{name} K={k} / reference"] = [seconds / reference, "ratio"]
            cells.append(f"{name} K={k} {seconds * 1e6:.1f} µs")
    return ("record: " + ", ".join(cells)
            + f" (lam=6.3, mu1=4, mu2=2, N=3,162, P=5, best of {RECORD_REPEATS})")


def footprint() -> str:
    modules = sorted(Path(stockrationing.__file__).parent.glob("*.py"))
    lines = sum(path.read_text().count("\n") for path in modules)
    exports = [value for name, value in vars(stockrationing).items()
               if not name.startswith("_") and not inspect.ismodule(value)]
    defaulted = sum(param.default is not param.empty
                    for fn in exports if inspect.isfunction(fn)
                    for param in inspect.signature(fn).parameters.values())
    return (f"src/: {lines:,} lines in {len(modules)} modules; "
            f"stockrationing exports {len(exports)} names; "
            f"its functions have {defaulted} defaulted parameters")


def main():
    warnings.simplefilter("ignore", RuntimeWarning)
    layers = {
        "average_profit": lambda p, pol: average_profit(p, pol),
        "profit_linear_form": lambda p, pol: profit_linear_form(p, pol).eta(p.penalty),
        "solve_poisson": lambda p, pol: solve_poisson(p, pol),
        "penalty_roots": lambda p, pol: penalty_roots(p, pol),
        "solve": lambda p, pol: (stationary_distribution(p, pol), profit_linear_form(p, pol),
                                 solve_poisson(p, pol), penalty_roots(p, pol)),
        "optimal_static_threshold": lambda p, pol: optimal_static_threshold(p),
        "global_optimal": lambda p, pol: global_optimal(p),
    }
    columns = [f"β={b:g} N={n:,}" for b, n in COLUMNS]
    timed = {}    # every timed number at full precision, by name
    for call in layers.values():
        for _ in range(WARMUP_CALLS):
            forget_record()
            with contextlib.suppress(StockRationingError):
                call(params(*COLUMNS[0]), Policy.all_ones(15))
    print("| layer | " + " | ".join(columns) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for name, call in layers.items():
        cells = []
        for (beta, n), column in zip(COLUMNS, columns):
            p, pol = params(beta, n), Policy.all_ones(15)
            reference = best_time(reference_call)
            seconds = timed_or_none(lambda: call(p, pol))
            if seconds is None:
                cells.append("raises")
                continue
            cells.append(fmt(seconds))
            timed[f"{name} {column}"] = [seconds * 1e3, "ms"]
            timed[f"{name} {column} / reference"] = [seconds / reference, "ratio"]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    print()
    ones = Policy.all_ones(15)
    print(simulator_speed(params(0.5, 100), ones, "all-ones", 2e4, 4, "example 1", timed))
    sim_grid = f"sim-grid shape: example 1 at N=20, jump rate {SIM_GRID_JUMP_RATE:g}"
    for name, pol in (("all-ones", ones), ("threshold-9", THRESHOLD_9)):
        print(simulator_speed(sim_grid_shape(pol), pol, name, 5000.0, 10, sim_grid, timed))
    print(enumeration_speed(timed))
    print(large_k_speed(timed))
    print(record_speed(timed))
    print(footprint())
    print(json.dumps(timed))


if __name__ == "__main__":
    main()
