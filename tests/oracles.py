"""Reference routes for the tests, independent of the package's kernel.

The realization-factor routes (forward recurrence, its unrolled sum, the
normalized dense solve), the general performance difference and the
class-property check are test-only references on top of the public API.
`log_weight_reference` rebuilds one policy's chain from the model's
definition with numpy and `math.fsum` only: stationary weights from
log-ratios summed from the heavier end and shifted by their maximum, so
nothing overflows or underflows at any N, the reward split f = B - P*A, and
the flip-margin coefficients G(i) + b = num - P*den on positions 1..K from
the cut-flow identity, each cut summed exactly from the end with less mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stockrationing import (
    IndexOutOfRange,
    Policy,
    PoissonSolution,
    RealizationFactors,
    StockRationingError,
    SystemParams,
    average_profit,
    build_generator,
    difference_set,
    penalty_roots,
    reward_structure,
    service_rates,
    solve_poisson,
    stationary_distribution,
)
from stockrationing.poisson import _poisson_residual
from stockrationing.sensitivity import SIGN_ZERO_BAND


@dataclass(frozen=True)
class ChainReference:
    pi: np.ndarray
    d_coef: float
    f_coef: float
    num: np.ndarray
    den: np.ndarray


def reward_split(p, decisions) -> tuple[np.ndarray, np.ndarray]:
    """Penalty-free reward B and penalty coefficient A on states 0..N."""
    n, k = p.capacity, p.threshold
    serve = np.ones(n + 1)
    serve[1 : k + 1] = decisions
    i = np.arange(n + 1)
    b = (p.price * (p.mu1 + p.mu2 * serve) - p.c_hold * i
         - p.c_lost2 * p.mu2 * (1 - serve) - p.c_buy * p.lam)
    b[0] = -p.c_lost1 * p.mu1 - p.c_lost2 * p.mu2 - p.c_buy * p.lam
    b[n] += (p.c_buy - p.c_opp) * p.lam
    a = np.zeros(n + 1)
    a[1 : k + 1] = p.mu2 * np.asarray(decisions, dtype=float)
    return b, a


def log_weights(p, decisions) -> np.ndarray:
    """log xi_i - max_j log xi_j, summed from whichever end weighs more."""
    v = np.full(p.capacity, p.mu1 + p.mu2)
    v[: p.threshold] = p.mu1 + p.mu2 * np.asarray(decisions, dtype=float)
    steps = math.log(p.lam) - np.log(v)
    up = np.concatenate(([0.0], np.cumsum(steps)))
    down = np.concatenate((-np.cumsum(steps[::-1])[::-1], [0.0]))
    logw = up if up[0] >= up[-1] else down
    return logw - logw.max()


def log_weight_reference(p, decisions) -> ChainReference:
    k = p.threshold
    logw = log_weights(p, decisions)
    w = np.exp(logw)
    b, a = reward_split(p, decisions)
    total = math.fsum(w)
    d_coef = math.fsum(w * b) / total
    f_coef = math.fsum(w * a) / total
    # G is a ratio of weight sums, so the cuts take the head's own scale; a
    # segment that outweighs it past float range is never the lighter end,
    # and the end masses only choose the end, so plain sums do.
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(logw - logw[: k + 1].max())
        devs = (w * (b - d_coef), w * (a - f_coef))
        # b_j - D rounds at eps (|b_j| + |D|): weighted, an end's error bound
        bounds = (w * (np.abs(b) + abs(d_coef)), w * (a + f_coef))
        masses = [np.nan_to_num(bound.sum(), nan=np.inf) for bound in bounds]
    cuts = []
    for dev, bound, mass in zip(devs, bounds, masses):
        row = []
        for i in range(1, k + 1):
            below = dev[:i]
            if 2 * bound[:i].sum() <= mass:
                cut = math.fsum(below)
            else:
                cut = -math.fsum(dev[i:])
            row.append(cut / (p.lam * w[i - 1]))
        cuts.append(np.array(row))
    return ChainReference(
        pi=np.exp(logw) / total, d_coef=d_coef, f_coef=f_coef,
        num=p.price + p.c_lost2 + cuts[0], den=1.0 + cuts[1],
    )


class SingularSystem(StockRationingError):
    pass


class InconsistentTermination(StockRationingError):
    pass


TERMINAL_RTOL = 1e-6


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


def difference_general(params: SystemParams, d: Policy, d_prime: Policy) -> float:
    """eta(d') - eta(d) through the reference potential, no second solve of eta(d').

    Evaluates pi' @ ((B' - B) g + (f' - f)) literally; materializing the
    dense generators is cheap at these state-space sizes.
    """
    g = solve_poisson(params, d).g
    b_d = build_generator(params, d).dense()
    b_dp = build_generator(params, d_prime).dense()
    f_d = reward_structure(params, d).f_values
    f_dp = reward_structure(params, d_prime).f_values
    pi_prime = stationary_distribution(params, d_prime).pi
    return float(pi_prime @ ((b_dp - b_d) @ g + (f_dp - f_d)))


@dataclass(frozen=True)


class ClassPropertyReport:
    regime: str                      # "high", "low" or "outside"
    positions: tuple[int, ...]
    g_plus_b: np.ndarray             # G^(c)(i) + b for i in positions
    signs_ok: bool
    ratio_max_residual: float
    ok: bool


def class_property_check(
    params: SystemParams, d: Policy, c: Policy, penalty: float
) -> ClassPropertyReport:
    """Verify the inherited sign of G + b on every position where c differs from d.

    With the penalty at or above the reference policy's high critical value,
    every disagreeing position of any policy c must have G^(c)(i) + b <= 0;
    symmetrically for the low range.  The report also checks the
    step-by-step ratio identity along an adjacent chain from d to c, which
    is how the inheritance propagates.
    """
    work = params.with_penalty(penalty)
    s = difference_set(d, c)
    profile = penalty_roots(work, d)
    if penalty >= profile.p_high:
        regime = "high"
    elif profile.p_low > 0 and 0 <= penalty <= profile.p_low:
        regime = "low"
    else:
        regime = "outside"
    if len(s) == 0:
        return ClassPropertyReport(regime, (), np.array([]), True, 0.0, True)

    c_profile = penalty_roots(work, c)
    values = np.array([c_profile.num[i - 1] - penalty * c_profile.den[i - 1] for i in s.positions])
    tol = SIGN_ZERO_BAND * max(1.0, float(np.max(np.abs(values))))
    if regime == "high":
        signs_ok = bool(np.all(values <= tol))
    elif regime == "low":
        signs_ok = bool(np.all(values >= -tol))
    else:
        signs_ok = True

    # Ratio identity along one adjacent chain: each flip rescales the
    # surviving margin by the stationary-probability ratio at that position.
    max_resid = 0.0
    prev, prev_profile = d, profile
    pi_prev = stationary_distribution(work, prev).pi
    for pos in s.positions:
        cur = prev.flip(pos)
        cur_profile = penalty_roots(work, cur)
        pi_cur = stationary_distribution(work, cur).pi
        lhs = cur_profile.num[pos - 1] - penalty * cur_profile.den[pos - 1]
        rhs = (pi_cur[pos] / pi_prev[pos]) * (
            prev_profile.num[pos - 1] - penalty * prev_profile.den[pos - 1])
        max_resid = max(max_resid, abs(lhs - rhs) / max(1.0, abs(lhs)))
        prev, prev_profile, pi_prev = cur, cur_profile, pi_cur

    ratio_ok = max_resid <= 1e-9
    return ClassPropertyReport(
        regime=regime,
        positions=s.positions,
        g_plus_b=values,
        signs_ok=signs_ok,
        ratio_max_residual=max_resid,
        ok=signs_ok and ratio_ok,
    )
