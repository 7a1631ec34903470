"""Reference routes for the tests, independent of the package's kernel.

The realization-factor routes (forward recurrence, its unrolled sum, the
normalized dense solve), the general and single-flip performance
differences, the static-threshold sign margins and the class-property check
are test-only references on top of the public API.  `exact_chain` evaluates
the documented model in exact rationals: pi, the profit split D and F, and
through the cut-flow identity the split G_B, G_A of the realization factors
on every state and the flip-margin coefficients num and den; `decimal_chain`
gives pi, D, F, num and den in 60-digit decimals at any K and N.
`log_weight_reference` rebuilds one policy's chain from the model's
definition with numpy and `math.fsum` only: stationary weights from
log-ratios summed from the heavier end and shifted by their maximum, so
nothing overflows or underflows at any N, the reward split f = B - P*A, and
the flip-margin coefficients G(i) + b = num - P*den on positions 1..K from
the cut-flow identity, each cut summed exactly from the end with less mass.
`reference_profit` gives eta by the exact route up to N = 40 and from the
log weights above.  `factor_residual` takes the Poisson residual with f and
the service rates rebuilt on 0..N from the public `reward_structure` and
`service_rates`, the independent check of the record's residual view.  `reference_global_optimal` is policy iteration built on
the public `penalty_roots`, one profile per gate and per step, and
`gain_bounds` brackets the optimal gain by one Bellman step of the
uniformised MDP.  `reference_simulate` walks the simulator's jump chain
one step per Python iteration on the package's own draws, the walk that
`sim` blocks into table lookups, so the two must agree bit for bit.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from stockrationing import (
    OptimizerResult,
    Policy,
    PoissonSolution,
    StockRationingError,
    SystemParams,
    average_profit,
    penalty_roots,
    reward_structure,
    service_rates,
    solve_poisson,
    stationary_distribution,
)
from stockrationing.chain import SIGN_ZERO_BAND
from stockrationing.sim import CHUNK, WARMUP_FRACTION, _replication_rng


@dataclass(frozen=True)
class ReferenceFactors:
    """g_diff[i-1] holds a reference route's G(i) = g(i-1) - g(i), i = 1..N."""

    g_diff: np.ndarray


@dataclass(frozen=True)
class ChainReference:
    pi: np.ndarray
    d_coef: float
    f_coef: float
    num: np.ndarray
    den: np.ndarray
    size: np.ndarray | None = None    # (2, K): the sizes num's and den's rounding scales with


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


def jump_rates(params: SystemParams, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Up-rate and total event rate of each state 0..N: lam below N, and lam
    plus the service rate v_i above 0."""
    n = params.capacity
    v = service_rates(params, policy)
    up = np.append(np.full(n, params.lam), 0.0)
    rate = np.empty(n + 1)
    rate[0] = params.lam
    rate[1:n] = params.lam + v[:-1]
    rate[n] = v[-1]
    return up, rate


def dense_generator(params: SystemParams, policy: Policy) -> np.ndarray:
    """The tridiagonal generator over states 0..N as a dense matrix."""
    up, rate = jump_rates(params, policy)
    return np.diag(-rate) + np.diag(service_rates(params, policy), -1) + np.diag(up[:-1], 1)


def factor_residual(params, policy, g_diff, f, eta) -> float:
    """max |(-B g) - (f - eta)| over states 0..N from G = g_diff, f being the
    policy's `reward_structure` and v its `service_rates`, both rebuilt on
    0..N: row i is lam G(i+1) - v_i G(i) - (f_i - eta), negated in f's
    buffer, which is overwritten."""
    r = np.subtract(f, eta, out=f)
    r[:-1] -= params.lam * g_diff
    r[1:] += service_rates(params, policy) * g_diff
    return float(np.abs(r, out=r).max())


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
    f = reward_structure(params, policy)
    dist = stationary_distribution(params, policy)
    eta = float(dist.pi @ f)
    a = -dense_generator(params, policy) + np.outer(np.ones(params.capacity + 1), dist.pi)
    try:
        g = np.linalg.solve(a, f)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    g_diff = g[:-1] - g[1:]
    residual = factor_residual(params, policy, g_diff, f, eta)
    return PoissonSolution(
        g=g,
        shift=float(g[0]),
        residual=residual,
        eta=eta,
        offset_b=params.price + params.c_lost2 - params.penalty,
        g_diff=g_diff,
    )


def realization_factors_recurrence(
    params: SystemParams, policy: Policy, eta: float | None = None
) -> ReferenceFactors:
    """Forward recurrence for G with the terminal row as a consistency gate.

    The system has one more equation than unknowns; the spare terminal row
    must be satisfied up to TERMINAL_RTOL or the forward sweep (or the eta
    fed to it) cannot be trusted, and InconsistentTermination is raised.
    """
    if eta is None:
        eta = average_profit(params, policy)
    f = reward_structure(params, policy)
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
    return ReferenceFactors(g_diff=g_diff)


def realization_factor_closed_form(
    params: SystemParams, policy: Policy, eta: float, i: int
) -> float:
    """Explicit sum for a single G(i): every visited reward gap weighted by
    the product of down-rates over arrival rates between it and state i.

    Empty products are one and empty sums zero, so i = 1 reduces to
    (f(0) - eta)/lam.
    """
    f = reward_structure(params, policy)
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
    b_d = dense_generator(params, d)
    b_dp = dense_generator(params, d_prime)
    f_d = reward_structure(params, d)
    f_dp = reward_structure(params, d_prime)
    pi_prime = stationary_distribution(params, d_prime).pi
    return float(pi_prime @ ((b_dp - b_d) @ g + (f_dp - f_d)))


def single_flip_difference(params: SystemParams, d: Policy, i: int) -> float:
    """eta(d') - eta(d) for d' = d with position i flipped, from d's own flip
    margin and the flipped policy's law: mu2 * pi'(i) * (d'_i - d_i) * (G(i) + b)."""
    profile = penalty_roots(params, d)
    d_prime = d.flip(i)
    pi_prime = stationary_distribution(params, d_prime).pi
    margin = profile.num[i - 1] - params.penalty * profile.den[i - 1]
    return float(params.mu2 * pi_prime[i] * (d_prime[i - 1] - d[i - 1]) * margin)


def reference_global_optimal(params: SystemParams) -> OptimizerResult:
    """Howard policy iteration on one `penalty_roots` profile per policy.

    The all-zeros profile's p_high and, below it, the all-ones profile's
    p_low pick the region and the start; each step serves where the start's
    margin is positive, withholds where it is negative, keeps the decision
    in the zero band and profiles the improved policy afresh.
    """
    k, p = params.threshold, params.penalty
    policy = Policy.all_zeros(k)
    profile = penalty_roots(params, policy)
    region = "HighPenalty"
    if p < profile.p_high:
        ones = penalty_roots(params, Policy.all_ones(k))
        region = "Middle"
        if ones.p_low > 0 and p <= ones.p_low:
            region, policy, profile = "LowPenalty", Policy.all_ones(k), ones
    iterations = 0
    while True:
        labels = profile.signs(p)
        improved = Policy(tuple(d if lab == 0 else int(lab > 0)
                                for d, lab in zip(policy.decisions, labels)))
        if improved == policy:
            break
        policy, profile = improved, penalty_roots(params, improved)
        iterations += 1
    return OptimizerResult(
        policy=policy, eta=profile.eta(p), region=region,
        n0=int(np.sum(profile.roots < p)) if region == "Middle" else None,
        sort_perm=profile.sort_perm, iterations=iterations)


def _reference_h(z: np.ndarray) -> np.ndarray:
    """1/expm1(z) - 1/z for z >= 0, by its series below z = 0.15."""
    def series(z):
        z2 = z * z
        return -0.5 + z * (1 / 12 - z2 * (1 / 720 - z2 * (1 / 30240 - z2 / 1209600)))

    big = np.maximum(z, 0.15)
    h = 1.0 / np.expm1(np.minimum(big, 700.0)) - 1.0 / big
    small = z < 0.15
    h[small] = series(z[small])
    return h


def reference_segment_g(params: SystemParams, policy: Policy) -> np.ndarray:
    """G(i) on i = K+2..N, entry by entry from the cut-flow identity, the
    route the chain record took before its power table.

    For each i, the weight sum, the offset-weighted sum and the top weight
    of the segment that the identity sums, N - i + 1 states above i - 1 for
    beta <= 1 and i - 1 - K states above K for beta > 1, come from expm1 of
    the count times x = -|log beta| and from _reference_h, and give the
    segment's reward sum; beta > 1 adds the cut at K+1 carried up by
    beta**-(i-1-K).  eta and G(K+1) are the package's.
    """
    p = params
    k, n = p.threshold, p.capacity
    log_beta = math.log(p.lam / (p.mu1 + p.mu2))
    x = -abs(log_beta)
    eta = average_profit(p, policy)
    cut = solve_poisson(p, policy).g_diff[k]
    level = p.price * (p.mu1 + p.mu2) - p.c_buy * p.lam
    r = np.arange(1.0, n - k)
    counts = n - k - r if log_beta <= 0 else r
    nx = counts * x
    e0 = counts * 1.0 if x == 0.0 else np.expm1(nx) / math.expm1(x)
    e1 = e0 * (_reference_h(np.array([-x]))[0] - counts * _reference_h(-nx))
    if log_beta <= 0:
        beta = math.exp(x)
        w_sum, m_sum, top = beta * e0, beta * (e0 + e1), np.exp(nx)
        reward = ((level - p.c_hold * (k + r)) * w_sum - p.c_hold * m_sum
                  + (p.c_buy - p.c_opp) * p.lam * top)
        return (eta * w_sum - reward) / p.lam
    reward = (level - p.c_hold * k) * e0 - p.c_hold * (counts * e0 - e1)
    return np.exp(-r * log_beta) * cut + (reward - eta * e0) / p.lam


def gain_bounds(params: SystemParams, h: np.ndarray) -> tuple[float, float]:
    """Bounds Lam*min(Th - h) <= eta* <= Lam*max(Th - h) on the optimal gain
    from one Bellman step T at any h on states 0..N (MacQueen 1966; Odoni 1969).

    Uniformised at Lam = lam + mu1 + mu2, a step from state i earns f(i, a)/Lam
    and moves up with probability lam/Lam below N and down with v(i, a)/Lam,
    a being to serve or withhold Class 2 on 1..K.  So Th - h is
    max_a (f_a + Q_a h)/Lam with the generator Q_a, taken on the differences
    of h so that h's own size does not cancel.
    """
    k = params.threshold
    lam_total = params.lam + params.mu1 + params.mu2
    steps = []
    for policy in (Policy.all_zeros(k), Policy.all_ones(k)):
        up, _ = jump_rates(params, policy)
        down = np.append(0.0, service_rates(params, policy))
        diff = np.diff(h)
        q_h = up * np.append(diff, 0.0) - down * np.append(0.0, diff)
        steps.append((reward_structure(params, policy) + q_h) / lam_total)
    step = np.maximum(*steps)
    return lam_total * float(step.min()), lam_total * float(step.max())


@dataclass(frozen=True)
class ColdGain:
    """A bracket lo <= eta* <= hi of the optimal gain after `sweeps` sweeps;
    each bound is exact up to `rounding`.  `stalled` says that the width
    stopped shrinking before it reached 2 * rounding."""

    lo: float
    hi: float
    rounding: float
    sweeps: int
    stalled: bool


def rvi_gain(params: SystemParams, max_sweeps: int = 200_000) -> ColdGain:
    """The optimal gain by relative value iteration from h = 0, bracketed by
    the MacQueen-Odoni bounds of `gain_bounds` at every sweep (MacQueen 1966;
    Odoni 1969; Puterman 1994, 8.5).

    It assumes no product form and no structure of the optimum.  A sweep
    takes the Bellman step of the uniformised MDP, Lam (Th - h) = max_a
    (f_a + Q_a h) with actions serve or withhold on 1..K, and moves h to
    Th - (Th)(0).  Each entry of Lam (Th - h) rounds at most at
    8 eps (max|f| + Lam max|h|): its differences of h, each within
    2 max|h|, meet rates that sum to at most Lam, and the update of h
    itself rounds at eps |h|, so below that floor a sweep cannot narrow the
    bracket.  The iteration stops when the width reaches twice the floor,
    or, checked every 2(N+1) sweeps, the time the bounds take to hear of
    every state, when the width has not shrunk since the last check and is
    within 8 times the floor.  Far above the floor, a width that holds still
    is a plateau the iteration leaves later: at K = N = 67 one stays 0.75
    wide from about sweep 1,000 to 20,000 and closes by sweep 50,000.
    """
    k, n = params.threshold, params.capacity
    lam_total = params.lam + params.mu1 + params.mu2
    actions = [(reward_structure(params, policy), service_rates(params, policy))
               for policy in (Policy.all_zeros(k), Policy.all_ones(k))]
    f_max = max(float(np.max(np.abs(f))) for f, _ in actions)
    h = np.zeros(n + 1)
    steps = np.empty((2, n + 1))
    checked = math.inf
    for sweep in range(1, max_sweeps + 1):
        diff = np.diff(h)
        for step, (f, v) in zip(steps, actions):
            np.copyto(step, f)
            step[:-1] += params.lam * diff
            step[1:] -= v * diff
        best = steps.max(axis=0)
        lo, hi = float(best.min()), float(best.max())
        rounding = 8 * np.finfo(float).eps * (f_max + lam_total * float(np.max(np.abs(h))))
        stalled = sweep % (2 * (n + 1)) == 0 and checked <= hi - lo <= 8 * rounding
        if hi - lo <= 2 * rounding or stalled or sweep == max_sweeps:
            return ColdGain(lo, hi, rounding, sweep, hi - lo > 2 * rounding)
        if sweep % (2 * (n + 1)) == 0:
            checked = hi - lo
        h += (best - best[0]) / lam_total


def threshold_margins(params: SystemParams, theta: int) -> dict[str, float]:
    """The four sign conditions of a profit-maximal threshold, each as a
    value that must be <= 0.

    A threshold policy serves from theta up.  Serving one level lower cannot
    pay if the flip margin G + b at position theta - 1 is <= 0 seen from
    thresholds theta - 1 and theta; withholding at theta cannot pay if the
    margin at position theta is >= 0 seen from thresholds theta and
    theta + 1, so those two enter negated.  A neighbor outside 1..K+1 has no
    conditions.
    """
    k = params.threshold

    def margin(t, i):
        profile = penalty_roots(params, Policy(tuple(int(j >= t) for j in range(1, k + 1))))
        return float(profile.num[i - 1] - params.penalty * profile.den[i - 1])

    margins = {}
    if theta >= 2:
        margins["below_prev"] = margin(theta - 1, theta - 1)
        margins["below_star"] = margin(theta, theta - 1)
    if theta <= k:
        margins["at_star"] = -margin(theta, theta)
        margins["at_next"] = -margin(theta + 1, theta)
    return margins


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
    positions = tuple(i for i in range(1, len(d) + 1) if d[i - 1] != c[i - 1])
    profile = penalty_roots(work, d)
    if penalty >= profile.p_high:
        regime = "high"
    elif profile.p_low > 0 and 0 <= penalty <= profile.p_low:
        regime = "low"
    else:
        regime = "outside"
    if not positions:
        return ClassPropertyReport(regime, (), np.array([]), True, 0.0, True)

    c_profile = penalty_roots(work, c)
    values = np.array([c_profile.num[i - 1] - penalty * c_profile.den[i - 1] for i in positions])
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
    for pos in positions:
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
        positions=positions,
        g_plus_b=values,
        signs_ok=signs_ok,
        ratio_max_residual=max_resid,
        ok=signs_ok and ratio_ok,
    )


@dataclass(frozen=True)
class ExactChain:
    pi: list[Fraction]
    d_coef: Fraction
    f_coef: Fraction
    num: list[Fraction]
    den: list[Fraction]
    g_b: list[Fraction]
    g_a: list[Fraction]


def exact_chain(params: SystemParams, decisions) -> ExactChain:
    """The documented model for one policy in exact rationals.

    Written from the model's economics, not from the package: at stock level
    i each class is served or lost, a served unit earns the price and a lost
    one costs its lost-sales rate, a Class-2 unit served at levels 1..K pays
    the penalty, stock costs c_hold per unit, and inbound supply costs the
    purchase price, or the opportunity cost at full stock.  So the reward is
    b_i - P*a_i with a_i the Class-2 rate served at levels 1..K.  The
    stationary weights are the product form xi_i = xi_{i-1} * lam / (total
    service rate at i), and eta = D - P*F with D, F the stationary means of
    b and a.  The flip margin at position i is num_i - P*den_i with num_i =
    R + c_lost2 + G_B(i) and den_i = 1 + G_A(i), where by the cut-flow
    identity lam * xi_{i-1} * G_B(i) = sum_{j<i} xi_j (b_j - D), and the
    same for G_A with a and F.  G_B and G_A are given on every state
    i = 1..N, so G(i) = g(i-1) - g(i) = G_B(i) - P*G_A(i) there.  Every
    float parameter is read exactly as its binary value.
    """
    lam, weights, b, a, _ = _model_terms(params, decisions, Fraction)
    price, c_lost2 = Fraction(params.price), Fraction(params.c_lost2)
    n, k = params.capacity, params.threshold
    mass = sum(weights)
    d_coef = sum(w * r for w, r in zip(weights, b)) / mass
    f_coef = sum(w * r for w, r in zip(weights, a)) / mass
    g_b, g_a = [], []
    cut_b = cut_a = Fraction(0)
    for i in range(1, n + 1):
        cut_b += weights[i - 1] * (b[i - 1] - d_coef)
        cut_a += weights[i - 1] * (a[i - 1] - f_coef)
        g_b.append(cut_b / (lam * weights[i - 1]))
        g_a.append(cut_a / (lam * weights[i - 1]))
    return ExactChain(pi=[w / mass for w in weights], d_coef=d_coef, f_coef=f_coef,
                      num=[price + c_lost2 + x for x in g_b[:k]], den=[1 + x for x in g_a[:k]],
                      g_b=g_b, g_a=g_a)


def _model_terms(params: SystemParams, decisions, number) -> tuple:
    """lam and the weights xi_i, rewards b_i and a_i on states 0..N of the
    documented model, and the size of b_i's terms (the sum of their absolute
    values), in the number type `number` (Fraction or Decimal), which reads
    every float parameter as its exact binary value."""
    lam, mu1, mu2, c_hold, c_lost1, c_lost2, c_buy, c_opp, price = (
        number(getattr(params, name))
        for name in ("lam", "mu1", "mu2", "c_hold", "c_lost1", "c_lost2",
                     "c_buy", "c_opp", "price")
    )
    n, k = params.capacity, params.threshold
    weights, b, a, b_size = [], [], [], []
    weight = number(1)
    for i in range(n + 1):
        served1 = mu1 if i > 0 else 0
        served2 = mu2 if i > k or (i > 0 and decisions[i - 1]) else 0
        terms = (price * (served1 + served2), c_hold * i, c_lost1 * (mu1 - served1),
                 c_lost2 * (mu2 - served2), (c_opp if i == n else c_buy) * lam)
        b.append(terms[0] - sum(terms[1:]))
        b_size.append(sum(terms))
        a.append(served2 if 0 < i <= k else number(0))
        if i > 0:
            weight *= lam / (served1 + served2)
        weights.append(weight)
    return lam, weights, b, a, b_size


def decimal_chain(params: SystemParams, decisions) -> ChainReference:
    """The documented model for one policy in 60-digit decimal arithmetic,
    for K and N past `exact_chain`'s reach.

    The weights are `_model_terms`' product form with an exponent range of
    +-10**12, so none overflows or underflows at any K or N.  D and F are
    the weighted means of b and a, and pi the weights over their sum.  The
    flip margins' coefficients come from the cut-flow identity, each cut
    taken from its lighter end: the side of i whose states carry less of
    sum_j xi_j (|b_j| + |D|), or of xi_j (a_j + F).  The sum from i up is
    summed directly, from state N down; as the total minus the sum below i
    it would cancel to nothing where the sum below i is the heavier.  `size`
    holds |R + c_lost2| and 1 plus that end's sum of xi_j (size of b_j's
    terms + |D|), or of xi_j (a_j + F), each term at least the smallest
    normal float, over lam xi_{i-1}: the scale of each coefficient's rounding
    in floats.
    """
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, 10**12, -(10**12)
        lam, weights, b, a, b_size = _model_terms(params, decisions, decimal.Decimal)
        offset = decimal.Decimal(params.price) + decimal.Decimal(params.c_lost2)
        smallest = decimal.Decimal(sys.float_info.min)    # below it a float keeps no digits
        total = sum(weights)
        coefs = [sum(w * r for w, r in zip(weights, rewards)) / total for rewards in (b, a)]
        cuts, sizes = [], []
        for rewards, coef, terms in zip((b, a), coefs, (b_size, a)):
            dev = [w * (r - coef) for w, r in zip(weights, rewards)]
            mass = [w * (abs(r) + abs(coef)) for w, r in zip(weights, rewards)]
            scale = [w * (t + abs(coef) + smallest) for w, t in zip(weights, terms)]
            below_dev, below_mass, below_scale = ([0, *itertools.accumulate(z)]
                                                  for z in (dev, mass, scale))
            above_dev, above_mass, above_scale = ([*itertools.accumulate(z[::-1])][::-1]
                                                  for z in (dev, mass, scale))
            lighter = [below_mass[i] <= above_mass[i] for i in range(params.threshold + 1)]
            cuts.append([(below_dev[i] if lighter[i] else -above_dev[i]) / (lam * weights[i - 1])
                         for i in range(1, params.threshold + 1)])
            sizes.append([(below_scale[i] if lighter[i] else above_scale[i])
                          / (lam * weights[i - 1]) for i in range(1, params.threshold + 1)])
        return ChainReference(
            pi=np.array([float(w / total) for w in weights]),
            d_coef=float(coefs[0]), f_coef=float(coefs[1]),
            num=np.array([float(offset + g) for g in cuts[0]]),
            den=np.array([float(1 + g) for g in cuts[1]]),
            size=np.array([[float(abs(offset) + s) for s in sizes[0]],
                           [float(1 + s) for s in sizes[1]]]))


def exact_profit(params: SystemParams, decisions) -> Fraction:
    """Long-run average profit D - P*F of the documented model, exactly."""
    chain = exact_chain(params, decisions)
    return chain.d_coef - Fraction(params.penalty) * chain.f_coef


def reference_profit(params: SystemParams, decisions) -> float:
    """eta of one policy by a route independent of the package's record:
    exactly (`exact_profit`) up to N = 40, and above that pi . (B - P*A)
    with pi from `log_weights`, the weights of `log_weight_reference`,
    summed with `math.fsum`."""
    if params.capacity <= 40:
        return float(exact_profit(params, decisions))
    w = np.exp(log_weights(params, decisions))
    b, a = reward_split(params, decisions)
    return math.fsum(w * (b - params.penalty * a)) / math.fsum(w)


def exact_static_optimum(params: SystemParams, thetas) -> tuple[int, Fraction, Fraction]:
    """Best threshold over `thetas` (ties to the smaller), its profit, and
    its exact lead over the runner-up.  Threshold theta refuses Class 2
    below level theta and serves it from theta up."""
    k = params.threshold
    etas = {
        t: exact_profit(params, [int(i >= t) for i in range(1, k + 1)])
        for t in thetas
    }
    best = max(thetas, key=lambda t: (etas[t], -t))
    lead = etas[best] - max(etas[t] for t in thetas if t != best)
    return best, etas[best], lead


def _reference_replication(
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


def reference_simulate(params: SystemParams, policy: Policy, horizon: float,
                       replications: int, seed: int):
    """Per-replication estimates and mean occupancy of `simulate`, one step at a time."""
    up, rate = jump_rates(params, policy)
    f = reward_structure(params, policy)
    n = params.capacity
    pup = (up / rate).tolist()
    inv_rate = 1.0 / rate
    warmup = WARMUP_FRACTION * horizon
    total = warmup + horizon
    etas = np.empty(replications)
    occ = np.empty((replications, n + 1))
    for rep in range(replications):
        rng = _replication_rng(seed, rep)
        occupancy = _reference_replication(rng, pup, inv_rate, n + 1, warmup, total)
        etas[rep] = float(occupancy @ f) / horizon
        occ[rep] = occupancy / horizon
    return etas, occ.mean(axis=0)
