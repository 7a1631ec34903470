"""Potential (relative-value) solutions and perturbation realization factors.

The Poisson equation -B g = f - eta*e fixes the potential vector g only up
to additive structure: drop the first row and column and the remaining
tridiagonal block is invertible, which yields a special solution with
g(0) = 0 plus two free constants (the choice of g(0) and a uniform shift).
Realization factors G(i) = g(i-1) - g(i) are what every downstream formula
consumes, and they are invariant to both constants.

Three mutually checking routes compute G:

* differences of a solved potential (the cut-flow form of the equation,
  the stable production path),
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
from .chain import average_profit, stationary_distribution, build_generator


class SingularSystem(StockRationingError):
    pass


class InconsistentTermination(StockRationingError):
    pass


class IndexOutOfRange(StockRationingError):
    pass


TERMINAL_RTOL = 1e-6


@dataclass(frozen=True)
class PoissonSolution:
    """Potential vector with the two free constants it was built with.

    residual is the infinity norm of (-B g) - (f - eta*e); offset_b is the
    reward margin R + c_lost2 - P that accompanies G in every comparison
    formula.
    """

    g: np.ndarray
    free_im: float
    free_xi: float
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
    params: SystemParams, policy: Policy, reward: np.ndarray, average: float
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
    sum from whichever end of the chain carries less absolute mass.
    """
    n = params.capacity
    v = service_rates(params, policy)
    xi = np.empty(n + 1)
    xi[0] = 1.0
    for i in range(1, n + 1):
        xi[i] = xi[i - 1] * (params.lam / v[i - 1])
    w = xi * (reward - average)
    # Re-center so the deficits sum to zero exactly up to second-order
    # rounding; keeps prefix and suffix cuts mutually consistent.
    w = w - xi * (math.fsum(w) / math.fsum(xi))
    prefix = _compensated_cumsum(w)
    suffix = _compensated_cumsum(w[::-1])[::-1]
    prefix_abs = np.cumsum(np.abs(w))
    suffix_abs = np.cumsum(np.abs(w)[::-1])[::-1]
    g = np.empty(n + 1)
    g[0] = 0.0
    for i in range(1, n + 1):
        if prefix_abs[i - 1] <= suffix_abs[i]:
            cut = prefix[i - 1]
        else:
            cut = -suffix[i]
        g[i] = g[i - 1] - cut / (params.lam * xi[i - 1])
    return g


def _compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Kahan-compensated running sums; keeps the rounding of long prefixes
    at a few ulps instead of growing with the length."""
    out = np.empty(len(a))
    total = 0.0
    carry = 0.0
    for j, x in enumerate(a.tolist()):
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[j] = total
    return out


def solve_poisson(
    params: SystemParams, policy: Policy, im: float = 0.0, xi_shift: float = 0.0
) -> PoissonSolution:
    """General solution of the policy-based Poisson equation.

    Returns the special solution (zero first entry) plus im times the
    g(0)-direction vector plus a uniform xi_shift.  Both free constants move
    every entry of g equally, so no realization factor depends on them.
    """
    rewards = reward_structure(params, policy)
    dist = stationary_distribution(params, policy)
    eta = float(dist.pi @ rewards.f_values)
    g = potential_for_reward(params, policy, rewards.f_values, eta)
    # The g(0)-direction vector (1, v(d_1) * inv(-reduced B) @ e_1) is the
    # all-ones vector identically: the reduced matrix maps ones to
    # v(d_1) * e_1 because all other row sums vanish.
    if im != 0.0:
        g = g + im
    if xi_shift != 0.0:
        g = g + xi_shift
    residual = _poisson_residual(params, policy, g, rewards.f_values, eta)
    return PoissonSolution(
        g=g,
        free_im=im,
        free_xi=xi_shift,
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
        free_im=float(g[0]),
        free_xi=0.0,
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
