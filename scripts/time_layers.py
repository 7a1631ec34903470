#!/usr/bin/env python3
"""Time the solver's layers across capacities and print a Markdown table.

Each cell is the best of 3 wall-clock timings (time.perf_counter) of one
call at example-1 rates (lam=3, mu1=4, mu2=2) and costs, K=15, P=5; the
first three layers use the all-ones policy.  Run from the repository root:

    PYTHONPATH=src python scripts/time_layers.py

At N=1e4 and above these rates underflow the stationary weights, so the
potential has a non-finite tail (a known defect); the timings still stand
for the work done.  BLAS runs on one thread, as in perfbench: on a 2-vCPU
VM a threaded OpenBLAS dot product at N >= 1e4 took several milliseconds
of thread hand-off in some processes and none in others.
"""

import os
import time
import warnings

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # before numpy is imported

from stockrationing import (  # noqa: E402
    Policy,
    SystemParams,
    average_profit,
    global_optimal,
    penalty_roots,
    solve_poisson,
)

CAPACITIES = (100, 1_000, 10_000, 100_000)
REPEATS = 3


def best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fmt(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    ms = seconds * 1e3
    return f"{ms:.2f} ms" if ms < 1 else f"{ms:.3g} ms"


def main():
    warnings.simplefilter("ignore", RuntimeWarning)
    layers = {
        "average_profit": lambda p, pol: average_profit(p, pol),
        "solve_poisson": lambda p, pol: solve_poisson(p, pol),
        "penalty_roots": lambda p, pol: penalty_roots(p, pol),
        "global_optimal": lambda p, pol: global_optimal(p),
    }
    print("| layer | " + " | ".join(f"N={n:,}" for n in CAPACITIES) + " |")
    print("|---" * (len(CAPACITIES) + 1) + "|")
    for name, call in layers.items():
        cells = []
        for n in CAPACITIES:
            p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=n, threshold=15,
                             c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1,
                             price=15, penalty=5.0)
            pol = Policy.all_ones(15)
            cells.append(fmt(best_time(lambda: call(p, pol))))
        print(f"| `{name}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
