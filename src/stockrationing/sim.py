"""Pathwise simulation of the rationing queue as an independent statistical check.

The chain is simulated through its embedded jump chain: every sojourn is an
exponential at the state's total event rate and the reward is a rate, so
the profit integral is accumulated exactly as reward-rate times sojourn
(clipped to the measurement window).  No approximation enters anywhere;
the only noise is statistical.

Replication r draws from its own generator seeded by the pair
(master_seed, r), so estimates are reproducible bit-for-bit and streams
are independent by construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .chain import build_generator
from .model import InvalidParameter, Policy, StockRationingError, SystemParams, reward_structure

CHUNK = 1 << 15


@dataclass(frozen=True)
class SimEstimate:
    eta_hat: float
    std_err: float
    replications: int
    horizon: float
    seed: int
    rep_estimates: np.ndarray
    occupancy: np.ndarray          # mean time fraction per state
    occupancy_std_err: np.ndarray


def _replication_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _run_replication(
    rng: np.random.Generator,
    pup: list[float],
    inv_rate: np.ndarray,
    n_states: int,
    warmup: float,
    total: float,
) -> np.ndarray:
    """Occupancy time per state over [warmup, total), starting empty at t=0."""
    occupancy = np.zeros(n_states)
    t = 0.0
    state = 0
    while t < total:
        draws = rng.standard_exponential(CHUNK)
        u = rng.random(CHUNK).tolist()
        states = []
        push = states.append
        s = state
        for uk in u:
            push(s)
            s = s + 1 if uk < pup[s] else s - 1
        visited = np.asarray(states, dtype=np.intp)
        sojourns = draws * inv_rate[visited]
        ends = t + np.cumsum(sojourns)
        starts = ends - sojourns
        stop = int(np.searchsorted(ends, total))
        if stop < CHUNK:
            visited = visited[: stop + 1]
            sojourns = sojourns[: stop + 1]
            ends = ends[: stop + 1]
            starts = starts[: stop + 1]
        clipped = np.minimum(ends, total) - np.maximum(starts, warmup)
        np.maximum(clipped, 0.0, out=clipped)
        occupancy += np.bincount(visited, weights=clipped, minlength=n_states)
        if stop < CHUNK:
            break
        t = float(ends[-1])
        state = s
    return occupancy


def simulate(
    params: SystemParams,
    policy: Policy,
    horizon: float,
    replications: int,
    seed: int,
    warmup_fraction: float = 0.01,
) -> SimEstimate:
    """Estimate the average profit from independent finite-horizon replications.

    Each replication integrates the reward rate over a window of length
    `horizon` after discarding a warmup of warmup_fraction * horizon; the
    reported standard error is the sample standard deviation of the
    per-replication means divided by sqrt(replications).  The seed must be
    a nonnegative integer, as numpy's SeedSequence requires.
    """
    if not 0 < horizon < np.inf:
        raise InvalidParameter(f"horizon must be positive and finite, got {horizon}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed!r}")
    if replications < 2:
        raise StockRationingError(
            f"need at least 2 replications for a standard error, got {replications}"
        )
    gen = build_generator(params, policy)
    f = reward_structure(params, policy).f_values
    n = params.capacity
    rate = -gen.diag
    # up-rate over total rate; the full state N never moves up
    pup = np.append(gen.sup / rate[:-1], 0.0).tolist()
    inv_rate = 1.0 / rate

    warmup = warmup_fraction * horizon
    total = warmup + horizon
    etas = np.empty(replications)
    occ = np.empty((replications, n + 1))
    for rep in range(replications):
        rng = _replication_rng(seed, rep)
        occupancy = _run_replication(rng, pup, inv_rate, n + 1, warmup, total)
        etas[rep] = float(occupancy @ f) / horizon
        occ[rep] = occupancy / horizon
    std_err = float(etas.std(ddof=1) / np.sqrt(replications))
    return SimEstimate(
        eta_hat=float(etas.mean()),
        std_err=std_err,
        replications=replications,
        horizon=horizon,
        seed=seed,
        rep_estimates=etas,
        occupancy=occ.mean(axis=0),
        occupancy_std_err=occ.std(axis=0, ddof=1) / np.sqrt(replications),
    )
