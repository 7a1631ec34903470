"""Performance differences between policies and the penalty costs that flip them.

Comparing two policies never requires re-solving both: the difference of
average profits is a stationary expectation of realization factors of the
reference policy.  For a single flipped position i the difference reduces to
mu2 * pi'(i) * (d'_i - d_i) * (G(i) + b) with the margin b = R + c_lost2 - P,
so the whole comparison structure of the policy set hangs on the sign of
G(i) + b.  That quantity is affine in the penalty cost; its root per
position is computed here exactly from the penalty-free split of the reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import average_profit, build_generator, profit_linear_form, stationary_distribution
from .model import (
    Policy,
    StockRationingError,
    SystemParams,
    difference_set,
    reward_structure,
)
from .poisson import potential_for_reward, solve_poisson

DEGENERATE_COEF_TOL = 1e-12
SIGN_ZERO_BAND = 1e-9


class NotSingleFlip(StockRationingError):
    pass


@dataclass(frozen=True)
class PenaltyProfile:
    """Penalty roots of G(i) + b = 0 for positions 1..K of one policy.

    G(i) + b = num[i-1] - P * den[i-1] with both coefficient vectors free of
    the penalty cost.  Positions whose P-coefficient vanishes get an
    infinite root carrying the sign of the constant term, so the min/max
    critical values below stay well defined.  sort_perm lists 1-based
    positions by ascending root; ties keep ascending position order.
    """

    roots: np.ndarray
    p_high: float
    p_low: float
    sort_perm: tuple[int, ...]
    num: np.ndarray
    den: np.ndarray

    def signs(self, penalty: float) -> np.ndarray:
        """classify_sign labels of this profile's margins at the given penalty."""
        return _sign_labels(self.num, self.den, penalty)

    def csv_rows(self) -> list[tuple[int, float, int]]:
        """(position, root, sorted_rank) rows for export."""
        rank = {pos: j + 1 for j, pos in enumerate(self.sort_perm)}
        return [(i + 1, float(self.roots[i]), rank[i + 1]) for i in range(len(self.roots))]


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


def difference_one_position(
    params: SystemParams, d: Policy, d_prime: Policy, i: int
) -> float:
    """Single-flip profit difference mu2 * pi'(i) * (d'_i - d_i) * (G(i) + b)."""
    s = difference_set(d, d_prime)
    if len(s) != 1 or s.positions[0] != i:
        raise NotSingleFlip(
            f"policies differ at {s.positions}, expected exactly position {i}"
        )
    rewards = reward_structure(params, d)
    eta = average_profit(params, d)
    g = potential_for_reward(params, d, rewards.f_values, eta)
    g_i = g[i - 1] - g[i]
    b = params.price + params.c_lost2 - params.penalty
    pi_prime = stationary_distribution(params, d_prime).pi
    return float(params.mu2 * pi_prime[i] * (d_prime[i - 1] - d[i - 1]) * (g_i + b))


def _affine_g_plus_b(params: SystemParams, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (num, den) with G(i) + b = num - P*den on positions 1..K.

    Both parts reuse the potential machinery: the penalty-free reward split
    f = B - P*A carries through the linear Poisson solve, so G splits the
    same way and one stacked solve gives both parts regardless of K.
    """
    k = params.threshold
    rewards = reward_structure(params, policy)
    form = profit_linear_form(params, policy)
    g = potential_for_reward(
        params, policy, np.vstack((rewards.b_coeffs, rewards.a_coeffs)), (form.d_coef, form.f_coef)
    )
    g_diff = g[:, :k] - g[:, 1 : k + 1]  # G(i) of the B part and of the A part
    return (params.price + params.c_lost2) + g_diff[0], 1.0 + g_diff[1]


def penalty_roots(params: SystemParams, policy: Policy) -> PenaltyProfile:
    """Solve G(i) + b = 0 for the penalty cost at every rationed position."""
    num, den = _affine_g_plus_b(params, policy)
    roots = np.empty(params.threshold)
    for i in range(params.threshold):
        if abs(den[i]) <= DEGENERATE_COEF_TOL:
            roots[i] = np.inf if num[i] >= 0 else -np.inf
        else:
            roots[i] = num[i] / den[i]
    order = np.argsort(roots, kind="stable")
    return PenaltyProfile(
        roots=roots,
        p_high=float(max(0.0, roots.max())),
        p_low=float(roots.min()),
        sort_perm=tuple(int(j) + 1 for j in order),
        num=num,
        den=den,
    )


def classify_sign(params: SystemParams, policy: Policy, penalty: float) -> np.ndarray:
    """Labels in {-1, 0, +1} for the sign of G(i) + b at the given penalty.

    A value inside the zero band (or a NaN) counts as zero; with a positive
    P-coefficient the sign is positive exactly below the root, and reversed
    when the coefficient is negative.
    """
    return _sign_labels(*_affine_g_plus_b(params, policy), penalty)


def _sign_labels(num: np.ndarray, den: np.ndarray, penalty: float) -> np.ndarray:
    value = num - penalty * den
    band = SIGN_ZERO_BAND * np.maximum(1.0, np.abs(num) + np.abs(penalty * den))
    return np.where(value > band, 1, np.where(value < -band, -1, 0))


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

    num_c, den_c = _affine_g_plus_b(work, c)
    values = np.array([num_c[i - 1] - penalty * den_c[i - 1] for i in s.positions])
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
    prev = d
    num_prev, den_prev = _affine_g_plus_b(work, prev)
    pi_prev = stationary_distribution(work, prev).pi
    for pos in s.positions:
        cur = prev.flip(pos)
        num_cur, den_cur = _affine_g_plus_b(work, cur)
        pi_cur = stationary_distribution(work, cur).pi
        lhs = num_cur[pos - 1] - penalty * den_cur[pos - 1]
        rhs = (pi_cur[pos] / pi_prev[pos]) * (num_prev[pos - 1] - penalty * den_prev[pos - 1])
        max_resid = max(max_resid, abs(lhs - rhs) / max(1.0, abs(lhs)))
        prev, num_prev, den_prev, pi_prev = cur, num_cur, den_cur, pi_cur

    ratio_ok = max_resid <= 1e-9
    return ClassPropertyReport(
        regime=regime,
        positions=s.positions,
        g_plus_b=values,
        signs_ok=signs_ok,
        ratio_max_residual=max_resid,
        ok=signs_ok and ratio_ok,
    )
