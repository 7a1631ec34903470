"""Potential (relative-value) solutions and perturbation realization factors.

The Poisson equation -B g = f - eta*e fixes the potential vector g only up
to additive structure: drop the first row and column and the remaining
tridiagonal block is invertible, which yields a special solution with
g(0) = 0 plus one free constant: the g(0)-direction vector is the all-ones
vector, so choosing g(0) is a uniform shift.  Realization factors
G(i) = g(i-1) - g(i) are what every downstream formula consumes, and they
are invariant to the shift.

Three mutually checking routes compute G:

* differences of a solved potential (the cut-flow form of the equation,
  the stable production path, computed with whole-array compensated prefix
  sums and no per-state loop),
* the first-order forward recurrence read off the equation rows,
* the unrolled closed-form sum of that recurrence.

The forward recurrence amplifies rounding by (v/lam) per state, so the
latter two routes are trustworthy only while (max(v)/lam)**N stays small;
the terminal-row consistency check below catches the blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Policy, StockRationingError, SystemParams, reward_structure, service_rates
from .chain import _stationary_weights, average_profit, build_generator, stationary_distribution


class SingularSystem(StockRationingError):
    pass


class InconsistentTermination(StockRationingError):
    pass


class IndexOutOfRange(StockRationingError):
    pass


TERMINAL_RTOL = 1e-6


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
    offset_b: float

    def value(self, i: int) -> float:
        if not 1 <= i <= len(self.g_diff):
            raise IndexOutOfRange(f"state index {i} outside 1..{len(self.g_diff)}")
        return float(self.g_diff[i - 1])


def _tridiag_matvec(sub, diag, sup, x):
    y = diag * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def _poisson_residual(params, policy, g, f_values, eta) -> float:
    gen = build_generator(params, policy)
    lhs = -_tridiag_matvec(gen.sub, gen.diag, gen.sup, g)
    return float(np.max(np.abs(lhs - (f_values - eta))))


def potential_for_reward(
    params: SystemParams, policy: Policy, reward: np.ndarray, average: float | tuple[float, ...]
) -> np.ndarray:
    """Special potential (first entry zero) of -B g = reward - average*e.

    Built from the cut-flow identity of the birth-death equation: summing
    rows 0..i-1 telescopes to

        lam * xi_{i-1} * (g(i-1) - g(i)) = sum_{j<i} xi_j * (reward_j - average),

    so every potential difference is a ratio of stationary-weight sums.
    This is exact for any drift; eliminating state 0 and solving the reduced
    tridiagonal system is equivalent algebra but its pivots underflow once
    the arrival rate dominates the service rates over many states, which is
    why the elimination route is not used here.  Each edge takes the deficit
    sum from whichever end of the chain carries less absolute mass; both
    ends come from one compensated prefix-sum pass over the whole array.

    `reward` is one vector over states 0..N with a scalar `average`, or a
    stack of m such vectors, shape (m, N+1), with m averages; the result has
    the shape of `reward`, and all rows share one set of weights.
    """
    xi = _stationary_weights(params, policy)
    w = xi * (reward.reshape(-1, len(xi)) - np.asarray(average).reshape(-1, 1))
    # Re-center so the deficits sum to zero exactly up to second-order
    # rounding; keeps prefix and suffix cuts mutually consistent.  The
    # weights are positive, so their plain sum is already accurate.
    w -= xi * (_compensated_cumsum(w)[:, -1:] / xi.sum())
    # The prefix below state i carries less absolute mass than the suffix
    # from i exactly when it holds at most half of the total.  The first m
    # runs sum -w, the negated prefix cuts; the last m run from state N
    # down, and their entries -2::-1 are the suffix sums from i = 1..N.
    m = len(w)
    mass = np.abs(w).cumsum(axis=1)
    runs = _compensated_cumsum(np.concatenate((-w, w[:, ::-1])))
    neg_cut = runs[m:, -2::-1]
    np.copyto(neg_cut, runs[:m, :-1], where=mass[:, :-1] <= 0.5 * mass[:, -1:])
    g = np.zeros(w.shape)
    (neg_cut / (params.lam * xi[:-1])).cumsum(axis=1, out=g[:, 1:])
    return g.reshape(reward.shape)


def _compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Compensated running sums along the last axis.

    A plain running sum s = cumsum(a) rounds once per step.  TwoSum (Knuth;
    Ogita, Rump and Oishi, Accurate Sum and Dot Product, 2005) recovers each
    step's rounding error (s_{j-1} + a_j) - s_j exactly from s and a, and
    adding the running sum of those errors back to s keeps every prefix
    within a few ulps of its absolute sum instead of an error that grows
    with the length.  All of it is whole-array arithmetic.
    """
    s = a.cumsum(axis=-1)
    prev, t = s[..., :-1], s[..., 1:]
    z = t - prev
    err = (prev - (t - z)) + (a[..., 1:] - z)
    t += err.cumsum(axis=-1)
    return s


def solve_poisson(params: SystemParams, policy: Policy, shift: float = 0.0) -> PoissonSolution:
    """General solution of the policy-based Poisson equation.

    Returns the special solution (zero first entry) plus a uniform shift,
    which is g(0); it moves every entry of g equally, so no realization
    factor depends on it.
    """
    rewards = reward_structure(params, policy)
    dist = stationary_distribution(params, policy)
    eta = float(dist.pi @ rewards.f_values)
    g = potential_for_reward(params, policy, rewards.f_values, eta)
    # The g(0)-direction vector (1, v(d_1) * inv(-reduced B) @ e_1) is the
    # all-ones vector identically: the reduced matrix maps ones to
    # v(d_1) * e_1 because all other row sums vanish.
    if shift != 0.0:
        g = g + shift
    residual = _poisson_residual(params, policy, g, rewards.f_values, eta)
    return PoissonSolution(
        g=g,
        shift=shift,
        residual=residual,
        eta=eta,
        offset_b=params.price + params.c_lost2 - params.penalty,
    )


def solve_poisson_normalized(params: SystemParams, policy: Policy) -> PoissonSolution:
    """Potential normalized so that its stationary mean equals eta.

    Adding the rank-one term e*pi to -B makes the system nonsingular; the
    unique solution differs from any solve_poisson output by a constant
    shift, so all realization factors agree.
    """
    rewards = reward_structure(params, policy)
    dist = stationary_distribution(params, policy)
    eta = float(dist.pi @ rewards.f_values)
    gen = build_generator(params, policy)
    a = -gen.dense() + np.outer(np.ones(params.capacity + 1), dist.pi)
    try:
        g = np.linalg.solve(a, rewards.f_values)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    residual = _poisson_residual(params, policy, g, rewards.f_values, eta)
    return PoissonSolution(
        g=g,
        shift=float(g[0]),
        residual=residual,
        eta=eta,
        offset_b=params.price + params.c_lost2 - params.penalty,
    )


def realization_factors_from_potential(sol: PoissonSolution) -> RealizationFactors:
    return RealizationFactors(g_diff=sol.g[:-1] - sol.g[1:], offset_b=sol.offset_b)


def realization_factors_recurrence(
    params: SystemParams, policy: Policy, eta: float | None = None
) -> RealizationFactors:
    """Forward recurrence for G with the terminal row as a consistency gate.

    The system has one more equation than unknowns; the spare terminal row
    must be satisfied up to TERMINAL_RTOL or the forward sweep (or the eta
    fed to it) cannot be trusted, and InconsistentTermination is raised.
    """
    if eta is None:
        eta = average_profit(params, policy)
    f = reward_structure(params, policy).f_values
    v = service_rates(params, policy)
    n = params.capacity
    g_diff = np.empty(n)
    g_diff[0] = (f[0] - eta) / params.lam
    for i in range(1, n):
        g_diff[i] = (v[i - 1] * g_diff[i - 1] + f[i] - eta) / params.lam
    terminal_gap = abs(v[n - 1] * g_diff[n - 1] - (eta - f[n]))
    if terminal_gap > TERMINAL_RTOL * max(1.0, abs(eta)):
        raise InconsistentTermination(
            f"terminal row off by {terminal_gap:.3e}; eta wrong or forward sweep unstable"
        )
    return RealizationFactors(
        g_diff=g_diff, offset_b=params.price + params.c_lost2 - params.penalty
    )


def realization_factor_closed_form(
    params: SystemParams, policy: Policy, eta: float, i: int
) -> float:
    """Explicit sum for a single G(i): every visited reward gap weighted by
    the product of down-rates over arrival rates between it and state i.

    Empty products are one and empty sums zero, so i = 1 reduces to
    (f(0) - eta)/lam.
    """
    if not 1 <= i <= params.capacity:
        raise IndexOutOfRange(f"state index {i} outside 1..{params.capacity}")
    f = reward_structure(params, policy).f_values
    v = service_rates(params, policy)
    # prods[r] = product of v over states r+1 .. i-1
    prods = np.ones(i)
    for r in range(i - 2, -1, -1):
        prods[r] = prods[r + 1] * v[r]
    terms = [
        (f[r] - eta) * params.lam ** float(r - i) * prods[r]
        for r in range(i)
    ]
    return math.fsum(terms)
