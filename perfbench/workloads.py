"""Workload inputs and the operations ("ops") the benchmark times.

Every input is made from the workload seed.  Instance properties that set
an op's cost (N, K, drift, penalty class) are stratified, so each seed
draws the same mix and only the jitter inside each stratum changes; that
keeps latency quantiles comparable across seeds.

Ops call the package through module attributes (``chain.stationary_distribution``
and so on), looked up at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from stockrationing import chain, cli, model, optimizer, poisson, sensitivity, sim

import checks

WORKLOADS = ("large-n", "small-n", "sim-grid")

# Cost set of the paper's example 1; the large-n rate sets reuse it.
EX1_COSTS = dict(c_hold=1.0, c_lost1=4.0, c_lost2=1.0, c_buy=5.0, c_opp=1.0, price=15.0)
EX1 = model.SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=100, threshold=15,
                         penalty=10.0, **EX1_COSTS)

# large-n: example-1 service rates with lambda/(mu1+mu2) = 0.95, 1 and 1.05.
# Stronger drifts break the package at N <= 1e4 (see fingerprint.py); these
# keep every op correct at the parent commit while the per-state work above
# K, which does not depend on the drift, stays the same.
DRIFTS = {"down": (5.7, 4.0, 2.0), "balanced": (6.0, 4.0, 2.0), "up": (6.3, 4.0, 2.0)}
LARGE_K = (15, 40)
LARGE_STRATA = 9
# Penalty classes, cycled over the N strata: with the example-1 costs they
# land in LowPenalty, Middle and HighPenalty depending on the drift.
PENALTY_CLASSES = ((0.05, 1.0), (2.0, 6.0), (20.0, 200.0))

SMALL_K_MAX = 18
SMALL_COUNT = 100
# Few enough ops that each is timed five to ten times in a 30 s run.
SIM_COUNT = 33           # plus the example-1 instance
SIM_HORIZON = 5000.0
SIM_REPLICATIONS = 10
# Stationary mean jump rate of the sim-grid instances, stratified (see
# _sim_grid).  The simulator draws 32768 steps at a time, so a replication
# costs one block below a rate of about 6.5 here and two above: a quarter
# of the ops take two blocks, which keeps the op-time median and p90 away
# from that step.
SIM_JUMP_RATE = (2.0, 8.0)


@dataclass(frozen=True)
class Instance:
    name: str
    params: model.SystemParams
    policy: model.Policy
    sim_seed: int = 0


@dataclass(frozen=True)
class Op:
    """One timed call; `instance` is None for ops not tied to an instance (table2)."""

    kind: str
    instance: Instance | None
    call: Callable[[], object]


def _random_policy(rng, k: int) -> model.Policy:
    return model.Policy(tuple(int(b) for b in rng.integers(0, 2, k)))


def _large_n(rng) -> list[Instance]:
    out = []
    for drift, (lam, mu1, mu2) in DRIFTS.items():
        for k in LARGE_K:
            for j in range(LARGE_STRATA):
                # jitter over the middle half of the stratum: op cost tracks N
                n = int(round(10 ** (3 + (j + 0.25 + 0.5 * rng.uniform()) / LARGE_STRATA)))
                lo, hi = PENALTY_CLASSES[j % 3]
                pen = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                params = model.SystemParams(lam=lam, mu1=mu1, mu2=mu2, capacity=n,
                                            threshold=k, penalty=pen, **EX1_COSTS)
                out.append(Instance(
                    name=f"large-n/{drift}/K{k}/N{n}/P{pen:.4g}",
                    params=params, policy=_random_policy(rng, k),
                ))
    return out


def _stratified(rng, count: int, lo: float, hi: float, dims: int) -> np.ndarray:
    """(count, dims) values in [lo, hi], one draw per stratum of each column
    (Latin hypercube), so the mix barely moves between seeds."""
    cells = np.stack([rng.permutation(count) for _ in range(dims)], axis=1)
    return lo + (hi - lo) * (cells + rng.uniform(size=(count, dims))) / count


def _random_params(rng, rates, k: int, n: int, penalty: float) -> model.SystemParams:
    """Criterion-04 style draw: rates as given, costs and price in [0, 10]."""
    lam, mu1, mu2 = rates
    c = rng.uniform(0.0, 10.0, 5)
    return model.SystemParams(
        lam=float(lam), mu1=float(mu1), mu2=float(mu2), capacity=n, threshold=k,
        c_hold=float(c[0]), c_lost1=float(c[1]), c_lost2=float(c[2]),
        c_buy=float(c[3]), c_opp=float(c[4]), price=float(rng.uniform(0.0, 10.0)),
        penalty=penalty,
    )


def _small_n(rng) -> list[Instance]:
    out = []
    rates = _stratified(rng, SMALL_COUNT, 0.5, 5.0, dims=3)
    for j in range(SMALL_COUNT):
        k = 1 + j % SMALL_K_MAX
        n = k if j % 5 == 0 else k + int(rng.integers(1, k + 1))
        pen = (0.0, rng.uniform(0, 2), rng.uniform(0, 20), rng.uniform(0, 200))[j % 4]
        params = _random_params(rng, rates[j], k, n, float(pen))
        tag = ""
        if j % 7 == 3:       # alpha = lam/mu1 = 1: staticpol's fallback path
            params = replace(params, lam=params.mu1)
            tag = "/lam=mu1"
        elif j % 7 == 5:     # beta = lam/(mu1+mu2) = 1: the same fallback
            params = replace(params, lam=params.mu1 + params.mu2)
            tag = "/lam=mu1+mu2"
        out.append(Instance(
            name=f"small-n/{j}/K{k}/N{n}/P{params.penalty:.4g}{tag}",
            params=params, policy=_random_policy(rng, k),
        ))
    return out


def _sim_grid(rng) -> list[Instance]:
    out = []
    rates = _stratified(rng, SIM_COUNT, 0.5, 5.0, dims=3)
    jump_rates = _stratified(rng, SIM_COUNT, *SIM_JUMP_RATE, dims=1)[:, 0]
    for j in range(SIM_COUNT):
        k = 1 + j % 10
        n = k + int(rng.integers(0, 21 - k))
        params = _random_params(rng, rates[j], k, n, float(rng.uniform(0.0, 20.0)))
        policy = _random_policy(rng, k)
        # Scaling every rate by one factor keeps the jump chain and only
        # rescales time; it sets the stationary mean jump rate to the draw.
        mean_rate = float(checks.stationary(params, policy) @ checks.event_rates(params, policy))
        c = float(jump_rates[j]) / mean_rate
        params = replace(params, lam=params.lam * c, mu1=params.mu1 * c, mu2=params.mu2 * c)
        out.append(Instance(
            name=f"sim-grid/{j}/K{k}/N{n}", params=params,
            policy=policy, sim_seed=int(rng.integers(2**31)),
        ))
    out.append(Instance(name="sim-grid/example1", params=EX1,
                        policy=_random_policy(rng, EX1.threshold),
                        sim_seed=int(rng.integers(2**31))))
    return out


def make_instances(workload: str, seed: int) -> list[Instance]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(workload))))
    return {"large-n": _large_n, "small-n": _small_n, "sim-grid": _sim_grid}[workload](rng)


# ---------------------------------------------------------------------------
# op kinds


def solve(params, policy):
    """The library calls behind `stockrationing solve` for one (instance, policy)."""
    dist = chain.stationary_distribution(params, policy)
    form = chain.profit_linear_form(params, policy)
    sol = poisson.solve_poisson(params, policy)
    factors = poisson.realization_factors_from_potential(sol)
    profile = sensitivity.penalty_roots(params, policy)
    return dist, form, sol, factors, profile


def optimize(params):
    return optimizer.global_optimal(params)


def oracle(params):
    return optimizer.brute_force_optimal(params)


def table2():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["reproduce", "table2"])
    return rc, buf.getvalue()


def simulate(params, policy, seed):
    return sim.simulate(params, policy, SIM_HORIZON, replications=SIM_REPLICATIONS, seed=seed)


KINDS = {
    "large-n": ("solve", "optimize"),
    "small-n": ("solve", "oracle", "optimize", "table2"),   # oracle first: optimize's check reads it
    "sim-grid": ("simulate",),
}


def _instance_op(kind: str, inst: Instance) -> Op:
    p, pol = inst.params, inst.policy
    call = {
        "solve": lambda: solve(p, pol),
        "optimize": lambda: optimize(p),
        "oracle": lambda: oracle(p),
        "simulate": lambda: simulate(p, pol, inst.sim_seed),
    }[kind]
    return Op(kind, inst, call)


def make_ops(workload: str, instances: list[Instance]) -> list[Op]:
    """The fixed op set of one pass, in execution order."""
    kinds = KINDS[workload]
    ops = [_instance_op(kind, inst) for inst in instances for kind in kinds if kind != "table2"]
    if "table2" in kinds:
        ops.append(Op("table2", None, table2))
    return ops


def warm_up(workload: str) -> None:
    """One untimed call of each of the workload's op kinds on a fixed small input.

    table2 is warmed up through the same CLI path with `reproduce example3`,
    which takes milliseconds: table2 itself is a second of computation that
    table2_s already times, and it would swamp set-up in small-n's setup_s.
    """
    small = model.SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=15, threshold=10,
                               penalty=5.0, **EX1_COSTS)
    for kind in KINDS[workload]:
        if kind == "solve":
            solve(EX1, model.Policy.all_ones(EX1.threshold))
        elif kind == "optimize":
            optimize(EX1)
        elif kind == "oracle":
            oracle(small)
        elif kind == "table2":
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["reproduce", "example3"])
        elif kind == "simulate":
            sim.simulate(EX1, model.Policy.all_ones(EX1.threshold), 100.0,
                         replications=SIM_REPLICATIONS, seed=0)
