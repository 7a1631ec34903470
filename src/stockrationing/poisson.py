"""Potential (relative-value) solutions and perturbation realization factors.

The Poisson equation -B g = f - eta*e fixes the potential vector g only up
to additive structure: drop the first row and column and the remaining
tridiagonal block is invertible, which yields a special solution with
g(0) = 0 plus one free constant: the g(0)-direction vector is the all-ones
vector, so choosing g(0) is a uniform shift.  Realization factors
G(i) = g(i-1) - g(i) are what every downstream formula consumes, and they
are invariant to the shift.

G comes from differences of a solved potential in the cut-flow form of the
equation: the policy's chain record on states 1..K+1 and a closed form
above.  The tests check it against a dense solve, the forward recurrence
read off the equation rows and that recurrence's unrolled sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Policy, SystemParams, reward_structure, service_rates
from .chain import (
    ChainRecord,
    _exp,
    _log_beta,
    _segment_reward,
    _tail_sums,
    chain_record,
)


@dataclass(frozen=True)
class PoissonSolution:
    """Potential vector with the free uniform shift it was built with.

    residual is the infinity norm of (-B g) - (f - eta*e); offset_b is the
    reward margin R + c_lost2 - P that accompanies G in every comparison
    formula.
    """

    g: np.ndarray
    shift: float
    residual: float
    eta: float
    offset_b: float


@dataclass(frozen=True)
class RealizationFactors:
    """g_diff[i-1] holds G(i) = g(i-1) - g(i) for i = 1..N."""

    g_diff: np.ndarray


def _poisson_residual(params, policy, g, f_values, eta) -> float:
    # -B g - (f - eta), where B g = lam * (g(i+1) - g(i)) + v_i * (g(i-1) - g(i))
    dg = g[1:] - g[:-1]
    r = eta - f_values
    r[:-1] -= params.lam * dg
    r[1:] += service_rates(params, policy) * dg
    return float(np.max(np.abs(r)))


def potential_for_reward(record: ChainRecord) -> np.ndarray:
    """Special potential (first entry zero) of -B g = f - eta*e for the
    record's policy and its own reward.

    G(i) = g(i-1) - g(i) on 1..min(K+1, N) comes from the record.  Above
    that, the cut-flow identity

        lam * xi_{i-1} * G(i) = sum_{j<i} xi_j * (f_j - eta)
                              = -sum_{j>=i} xi_j * (f_j - eta)

    sums a segment above K in closed form: for beta <= 1 the states i..N,
    whose weights fall away from i - 1; for beta > 1 the states K+1..i-1
    below it, plus the cut at K+1 carried up by beta**-(i-1-K).  g is then
    one running sum.
    """
    p = record.params
    k, n = p.threshold, p.capacity
    eta = record.form.eta(p.penalty)
    g_diff = np.empty(n)
    cut_b, cut_a = record.cut_factors()
    g_diff[: len(cut_b)] = cut_b - p.penalty * cut_a
    r = np.arange(1.0, n - k)          # G(K+1+r) for r = 1..N-K-1
    if len(r) and _log_beta(p) <= 0:
        sums = _tail_sums(p, n - k - r)
        g_diff[k + 1 :] = (eta * sums[0] - _segment_reward(p, k + r, sums, True)) / p.lam
    elif len(r):
        sums = _tail_sums(p, r)
        g_diff[k + 1 :] = _exp(-r * _log_beta(p)) * g_diff[k] + (
            _segment_reward(p, k, sums, False) - eta * sums[0]) / p.lam
    g = np.zeros(n + 1)
    np.cumsum(-g_diff, out=g[1:])
    return g


def solve_poisson(params: SystemParams, policy: Policy, shift: float = 0.0) -> PoissonSolution:
    """General solution of the policy-based Poisson equation.

    Returns the special solution (zero first entry) plus a uniform shift,
    which is g(0); it moves every entry of g equally, so no realization
    factor depends on it.
    """
    record = chain_record(params, policy)
    eta = record.form.eta(params.penalty)
    g = potential_for_reward(record)
    # The g(0)-direction vector (1, v(d_1) * inv(-reduced B) @ e_1) is the
    # all-ones vector identically: the reduced matrix maps ones to
    # v(d_1) * e_1 because all other row sums vanish.
    if shift != 0.0:
        g = g + shift
    residual = _poisson_residual(params, policy, g, reward_structure(params, policy).f_values, eta)
    return PoissonSolution(
        g=g,
        shift=shift,
        residual=residual,
        eta=eta,
        offset_b=params.price + params.c_lost2 - params.penalty,
    )


def realization_factors_from_potential(sol: PoissonSolution) -> RealizationFactors:
    return RealizationFactors(g_diff=sol.g[:-1] - sol.g[1:])
