"""System parameters, rationing policies, and the state-dependent reward rates.

A single-product warehouse with capacity ``N`` replenishes from a Poisson
supply stream and serves two demand classes with exponential service rates.
Class 1 is always served while stock is positive; Class 2 is served at low
stock (levels ``1..K``) only where the policy says so, at a penalty per
served unit.  A policy stores just the free decisions ``(d_1, ..., d_K)``;
the boundary decisions (reject at level 0, serve at levels above ``K``) are
structural and never stored.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

ENUMERATION_CAP = 24


class StockRationingError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRate(StockRationingError):
    pass


class BadThreshold(StockRationingError):
    pass


class InvalidParameter(StockRationingError):
    """A parameter is not a finite number, N or K is not an integer, or a
    cost is negative."""


class PriorityViolation(UserWarning):
    """Class-1 lost-sales cost does not exceed Class-2's.

    Warning-grade: every formula stays well defined, the assumption is
    economic (Class 1 is the priority class), not mathematical.
    """


class LengthMismatch(StockRationingError):
    pass


class CapExceeded(StockRationingError):
    pass


PARAM_JSON_KEYS = (
    ("lambda", "lam"),
    ("mu1", "mu1"),
    ("mu2", "mu2"),
    ("capacity_n", "capacity"),
    ("threshold_k", "threshold"),
    ("c_hold", "c_hold"),
    ("c_lost1", "c_lost1"),
    ("c_lost2", "c_lost2"),
    ("c_buy", "c_buy"),
    ("c_opp", "c_opp"),
    ("price_r", "price"),
    ("penalty_p", "penalty"),
)


@dataclass(frozen=True)
class SystemParams:
    """All stochastic rates and economic parameters of the warehouse queue.

    Attributes:
        lam: arrival rate of the product supply stream (> 0).
        mu1: service rate for Class-1 demand (> 0).
        mu2: service rate for Class-2 demand (> 0).
        capacity: maximal warehouse stock N (positive integer).
        threshold: rationing threshold K, 1 <= K <= N.
        c_hold: holding cost per product per unit time.
        c_lost1: lost-sales cost rate for Class 1.
        c_lost2: lost-sales cost rate for Class 2.
        c_buy: purchase price per product.
        c_opp: opportunity cost per product rejected at full stock.
        price: service price per satisfied demand.
        penalty: penalty cost per Class-2 product served at low stock.
    """

    lam: float
    mu1: float
    mu2: float
    capacity: int
    threshold: int
    c_hold: float = 0.0
    c_lost1: float = 0.0
    c_lost2: float = 0.0
    c_buy: float = 0.0
    c_opp: float = 0.0
    price: float = 0.0
    penalty: float = 0.0

    def __post_init__(self):
        """Reject a parameter set outside the model with a typed error."""
        for field in fields(self):
            value = getattr(self, field.name)
            integral = field.name in ("capacity", "threshold")
            kind = numbers.Integral if integral else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
                what = "an integer" if integral else "a finite number"
                raise InvalidParameter(f"{field.name} must be {what}, got {value!r}")
        for name in ("lam", "mu1", "mu2"):
            if not getattr(self, name) > 0:
                raise NonPositiveRate(
                    f"{name} must be strictly positive, got {getattr(self, name)!r}")
        if self.capacity < 1 or self.threshold < 1 or self.threshold > self.capacity:
            raise BadThreshold(
                f"need 1 <= threshold K <= capacity N, got K={self.threshold}, N={self.capacity}"
            )
        for name in ("c_hold", "c_lost1", "c_lost2", "c_buy", "c_opp", "price", "penalty"):
            if getattr(self, name) < 0:
                raise InvalidParameter(
                    f"{name} must be nonnegative, got {getattr(self, name)!r}")

    def with_penalty(self, penalty: float) -> "SystemParams":
        """Copy with another penalty cost."""
        return replace(self, penalty=penalty)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, attr) for key, attr in PARAM_JSON_KEYS}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemParams":
        """Parameters from their JSON keys; a reversed cost priority only warns."""
        kwargs = {}
        for key, attr in PARAM_JSON_KEYS:
            if key in data:
                kwargs[attr] = data[key]
        missing = [k for k, a in PARAM_JSON_KEYS[:5] if a not in kwargs]
        if missing:
            raise StockRationingError(f"missing required parameter keys: {missing}")
        for attr in ("capacity", "threshold"):
            if isinstance(kwargs[attr], float) and kwargs[attr].is_integer():
                kwargs[attr] = int(kwargs[attr])
        params = cls(**kwargs)
        if not params.c_lost1 > params.c_lost2:
            warnings.warn(
                f"c_lost1={params.c_lost1} <= c_lost2={params.c_lost2}: "
                "Class-1 priority assumption violated",
                PriorityViolation,
                stacklevel=2,
            )
        return params


@dataclass(frozen=True)
class Policy:
    """Low-stock decision vector (d_1, ..., d_K); d_i = 1 means serve Class 2 at level i.

    The full state-indexed policy is implicitly (0; d_1..d_K; 1, ..., 1).
    Any sequence of 0/1 values builds one, a JSON list included; an integral
    float such as 1.0 is accepted, and any other value raises instead of
    being truncated.
    """

    decisions: tuple[int, ...]

    def __post_init__(self):
        # count compares each value with 0 and 1 as `in` does, without a Python-level loop
        d = tuple(self.decisions)
        if d.count(0) + d.count(1) != len(d):
            raise StockRationingError(f"decisions must be 0/1, got {self.decisions!r}")
        object.__setattr__(self, "decisions", tuple(map(int, d)))

    def __len__(self) -> int:
        return len(self.decisions)

    def __getitem__(self, i: int) -> int:
        return self.decisions[i]

    @classmethod
    def all_zeros(cls, k: int) -> "Policy":
        return cls((0,) * k)

    @classmethod
    def all_ones(cls, k: int) -> "Policy":
        return cls((1,) * k)

    def to_json_list(self) -> list[int]:
        return list(self.decisions)

    def flip(self, position: int) -> "Policy":
        """Return the policy with the decision at 1-based `position` inverted."""
        d = list(self.decisions)
        d[position - 1] = 1 - d[position - 1]
        return Policy(tuple(d))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.decisions, dtype=float)


def check_policy(params: SystemParams, policy: Policy) -> None:
    if len(policy) != params.threshold:
        raise LengthMismatch(
            f"policy length {len(policy)} != threshold K={params.threshold}"
        )


def reward_structure(params: SystemParams, policy: Policy) -> np.ndarray:
    """The profit-rate vector f over states 0..N for one policy.

    State 0 loses both demand classes and still buys stock; states 1..K earn
    the Class-1 price plus the policy-dependent Class-2 terms; states above K
    serve both classes; state N swaps the purchase price for the opportunity
    cost of rejected inbound stock.  f = B - P*A with A = mu2*d_i on 1..K and
    zero elsewhere; the split on states 0..K is `ChainRecord.rewards`.
    """
    check_policy(params, policy)
    k, n = params.threshold, params.capacity
    gain_b, gain_a = _serve_gain(params)
    # States above K share the formula with d = 1 (the Class-2 loss term
    # then vanishes exactly); state 0 has nothing to serve.
    d = np.ones(n + 1)
    d[0] = 0.0
    d[1 : k + 1] = policy.as_array()
    f = _base_rewards(params, n) + gain_b * d
    f[1 : k + 1] -= params.penalty * (gain_a * d[1 : k + 1])
    return f


def _serve_gain(p: SystemParams) -> tuple[float, float]:
    """What serving Class 2 at a state adds to its rewards: to B, the price R
    it earns and the lost-sales cost c_lost2 it saves, at rate mu2; to A,
    at a state in 1..K, mu2."""
    return (p.price + p.c_lost2) * p.mu2, p.mu2


def _base_rewards(p: SystemParams, m: int) -> np.ndarray:
    """Penalty-free rewards b on states 0..m, m <= N, where Class 2 is never
    served: R mu1 - c_hold i - c_lost2 mu2 - c_buy lam at state i.

    State 0 loses both classes, and state N, when in range, swaps the
    purchase price for the opportunity cost of rejected inbound stock, also
    when K = N.  A policy's rewards add `_serve_gain` where it serves.
    """
    b = (p.price * p.mu1 - p.c_lost2 * p.mu2 - p.c_buy * p.lam) - p.c_hold * np.arange(m + 1.0)
    b[0] = -p.c_lost1 * p.mu1 - p.c_lost2 * p.mu2 - p.c_buy * p.lam
    if m == p.capacity:
        b[m] += (p.c_buy - p.c_opp) * p.lam
    return b


def service_rates(params: SystemParams, policy: Policy) -> np.ndarray:
    """Aggregate down-rates v at states 1..N: mu1 + d_i*mu2 below the
    threshold, mu1 + mu2 above it."""
    check_policy(params, policy)
    k, n = params.threshold, params.capacity
    v = np.full(n, params.mu1 + params.mu2)
    v[:k] = params.mu1 + params.mu2 * policy.as_array()
    return v
