"""Static (pure threshold) rationing policies and their profit.

A static policy refuses Class 2 strictly below a level theta and serves it
from theta up to the rationing threshold K; theta = K + 1 therefore encodes
"never serve at low stock" and theta = 1 "always serve".  Their profits come
from the chain's batched evaluator, one decision row per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import average_profits
from .model import Policy, StockRationingError, SystemParams
from .sensitivity import penalty_roots


class ThetaOutOfRange(StockRationingError):
    pass


@dataclass(frozen=True)
class StaticPolicy:
    theta: int
    policy: Policy


def _threshold_rows(params: SystemParams, thetas: int | range) -> np.ndarray:
    """One decision row per theta: withhold below theta, serve from theta to K."""
    k = params.threshold
    thetas = np.asarray(thetas).reshape(-1, 1)
    bad = thetas[(thetas < 1) | (thetas > k + 1)]
    if bad.size:
        raise ThetaOutOfRange(f"theta must lie in 1..{k + 1}, got {bad[0]}")
    return (np.arange(1, k + 1) >= thetas).astype(int)


def build_static(params: SystemParams, theta: int) -> StaticPolicy:
    return StaticPolicy(theta=theta, policy=Policy(tuple(_threshold_rows(params, theta)[0])))


def static_profit_closed_form(params: SystemParams, theta: int) -> float:
    """Average profit of the threshold-theta policy.

    The threshold policy is one row for `chain.average_profits`, whose
    states above K form the policy-free geometric segment in
    lam/(mu1 + mu2); any rate ratio, one included, takes the same route.
    """
    return float(average_profits(params, _threshold_rows(params, theta))[0])


def optimal_static_threshold(
    params: SystemParams, thetas: range | None = None
) -> tuple[int, float]:
    """Best threshold over the swept range (default 1..K+1), ties to the smaller theta."""
    if thetas is None:
        thetas = range(1, params.threshold + 2)
    if len(thetas) == 0:
        raise StockRationingError("empty theta range")
    etas = average_profits(params, _threshold_rows(params, thetas)).tolist()
    best = 0
    for j, eta in enumerate(etas):
        if eta > etas[best] + 1e-12 * max(1.0, abs(etas[best])):
            best = j
    return thetas[best], etas[best]


@dataclass(frozen=True)
class ThresholdOptimalityReport:
    """Local-optimality sign conditions around a best static threshold.

    Each entry of `values` is a margin G + b whose sign witnesses that
    moving the threshold one step in that direction cannot raise the
    profit; boundary thresholds only admit the subset of conditions whose
    neighbor policy exists, the rest land in `skipped`.
    """

    theta_star: int
    values: dict[str, float]
    satisfied: dict[str, bool]
    skipped: tuple[str, ...]
    neighbor_undefined: bool
    ok: bool


def _g_plus_b(params: SystemParams, policy: Policy, i: int) -> float:
    profile = penalty_roots(params, policy)
    return float(profile.num[i - 1] - params.penalty * profile.den[i - 1])


def threshold_optimality_check(
    params: SystemParams, theta_star: int | None = None, slack: float = 1e-9
) -> ThresholdOptimalityReport:
    """Check the four sign conditions that a profit-maximal threshold must satisfy.

    At theta* the margins seen from the neighboring thresholds point inward:
    serving one level lower cannot pay (two <= 0 conditions at position
    theta*-1) and withholding at theta* cannot pay either (two >= 0
    conditions at position theta*).
    """
    k = params.threshold
    if theta_star is None:
        theta_star, _ = optimal_static_threshold(params)
    if not 1 <= theta_star <= k + 1:
        raise ThetaOutOfRange(f"theta_star must lie in 1..{k + 1}, got {theta_star}")

    values: dict[str, float] = {}
    satisfied: dict[str, bool] = {}
    skipped: list[str] = []

    lower_ok = theta_star >= 2
    upper_ok = theta_star <= k

    if lower_ok:
        v1 = _g_plus_b(params, build_static(params, theta_star - 1).policy, theta_star - 1)
        v2 = _g_plus_b(params, build_static(params, theta_star).policy, theta_star - 1)
        values["below_prev"] = v1
        values["below_star"] = v2
        satisfied["below_prev"] = v1 <= slack
        satisfied["below_star"] = v2 <= slack
    else:
        skipped += ["below_prev", "below_star"]
    if upper_ok:
        v3 = _g_plus_b(params, build_static(params, theta_star).policy, theta_star)
        v4 = _g_plus_b(params, build_static(params, theta_star + 1).policy, theta_star)
        values["at_star"] = v3
        values["at_next"] = v4
        satisfied["at_star"] = v3 >= -slack
        satisfied["at_next"] = v4 >= -slack
    else:
        skipped += ["at_star", "at_next"]

    return ThresholdOptimalityReport(
        theta_star=theta_star,
        values=values,
        satisfied=satisfied,
        skipped=tuple(skipped),
        neighbor_undefined=not (lower_ok and upper_ok),
        ok=all(satisfied.values()),
    )
