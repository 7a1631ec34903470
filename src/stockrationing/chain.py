"""Policy-based birth-death chain: generator, stationary law, average profit.

The chain moves up at the supply rate and down at the aggregate service rate
of the states's active demand classes, so the stationary weights have the
usual product form.  Long-run average profit is the stationary expectation
of the reward rate and is affine in the penalty cost because the stationary
law itself does not depend on it.  `average_profits` scores a whole stack
of policies at once: the policy moves only states 1..K, and above K the
chain is one policy-free geometric segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    LengthMismatch,
    Policy,
    StockRationingError,
    SystemParams,
    check_policy,
    reward_structure,
    service_rates,
)


class NumericalOverflow(StockRationingError):
    pass


@dataclass(frozen=True)
class Generator:
    """Tridiagonal infinitesimal generator over states 0..N."""

    sub: np.ndarray    # down-rates at states 1..N
    diag: np.ndarray   # negated row sums, states 0..N
    sup: np.ndarray    # up-rate at states 0..N-1

    def dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sup, 1)


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray
    xi: np.ndarray
    h: float


@dataclass(frozen=True)
class ProfitLinearForm:
    """eta(P) = d_coef - P * f_coef, both coefficients penalty-free."""

    d_coef: float
    f_coef: float

    def eta(self, penalty: float) -> float:
        return self.d_coef - penalty * self.f_coef


def build_generator(params: SystemParams, policy: Policy) -> Generator:
    n = params.capacity
    v = service_rates(params, policy)
    sup = np.full(n, params.lam)
    diag = np.empty(n + 1)
    diag[0] = -params.lam
    diag[1:n] = -(params.lam + v[:-1])
    diag[n] = -v[-1]
    return Generator(sub=v, diag=diag, sup=sup)


def _stationary_weights(params: SystemParams, policy: Policy) -> np.ndarray:
    """Unnormalized product-form weights xi_0..xi_N with xi_0 = 1.

    xi_i = xi_{i-1} * lam / v_i as one running product of the rate ratios,
    which avoids the raw powers of the textbook formula; those overflow long
    before the ratios do.
    """
    xi = np.empty(params.capacity + 1)
    xi[0] = 1.0
    with np.errstate(over="ignore"):
        (params.lam / service_rates(params, policy)).cumprod(out=xi[1:])
    # A non-finite product stays non-finite, so the last weight decides.
    if not math.isfinite(xi[-1]):
        raise NumericalOverflow("stationary weights overflowed float64")
    return xi


def stationary_distribution(params: SystemParams, policy: Policy) -> StationaryDistribution:
    """Product-form stationary law: the weights xi normalized by h = sum(xi)."""
    xi = _stationary_weights(params, policy)
    h = 1.0 + xi[1:].sum()
    if not np.isfinite(h):
        raise NumericalOverflow("stationary normalizer overflowed float64")
    return StationaryDistribution(pi=xi / h, xi=xi, h=h)


def average_profit(params: SystemParams, policy: Policy) -> float:
    """Long-run average profit: stationary expectation of the reward rate."""
    check_policy(params, policy)
    dist = stationary_distribution(params, policy)
    rewards = reward_structure(params, policy)
    return float(dist.pi @ rewards.f_values)


def average_profits(params: SystemParams, decisions: np.ndarray) -> np.ndarray:
    """Average profit of every row of a (m, K) stack of 0/1 decision vectors.

    A row's weights on states 1..K are one running product of its rate
    ratios, and its rewards there are those of the all-zeros policy plus d
    times the serving increment, both read off `reward_structure`.  States
    above K do not depend on the policy: their weights relative to state K
    are powers of lam/(mu1 + mu2), and the segment's weight and reward mass
    are computed once per call.  A non-finite normalizer raises
    NumericalOverflow.
    """
    k = params.threshold
    d = np.asarray(decisions)
    if d.ndim != 2 or d.shape[1] != k:
        raise LengthMismatch(f"decisions of shape {d.shape} need shape (m, K={k})")
    f0 = reward_structure(params, Policy.all_zeros(k)).f_values
    served = reward_structure(params, Policy.all_ones(k)).f_values[1 : k + 1] - f0[1 : k + 1]
    with np.errstate(over="ignore"):
        tail = (params.lam / (params.mu1 + params.mu2)) ** np.arange(1.0, params.capacity - k + 1)
        xi = (params.lam / (params.mu1 + params.mu2 * d)).cumprod(axis=1)
    xi_k = xi[:, -1]
    h = 1.0 + xi.sum(axis=1) + xi_k * tail.sum()
    if not np.isfinite(h).all():
        raise NumericalOverflow("stationary normalizer overflowed float64")
    total = f0[0] + xi @ f0[1 : k + 1] + (xi * d) @ served + xi_k * (tail @ f0[k + 1 :])
    return total / h


def profit_linear_form(params: SystemParams, policy: Policy) -> ProfitLinearForm:
    """Split eta into its penalty-free part and the coefficient of -P."""
    dist = stationary_distribution(params, policy)
    rewards = reward_structure(params, policy)
    return ProfitLinearForm(
        d_coef=float(dist.pi @ rewards.b_coeffs),
        f_coef=float(dist.pi @ rewards.a_coeffs),
    )
