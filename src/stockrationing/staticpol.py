"""Static (pure threshold) rationing policies and their profit.

A static policy refuses Class 2 strictly below a level theta and serves it
from theta up to the rationing threshold K; theta = K + 1 therefore encodes
"never serve at low stock" and theta = 1 "always serve".  Their profits come
from the chain's batched evaluator, one decision row per threshold.
"""

from __future__ import annotations

import numpy as np

from .chain import _first_best, average_profits
from .model import StockRationingError, SystemParams


class ThetaOutOfRange(StockRationingError):
    pass


def _threshold_rows(params: SystemParams, thetas: int | range) -> np.ndarray:
    """One decision row per theta: withhold below theta, serve from theta to K."""
    k = params.threshold
    thetas = np.asarray(thetas).reshape(-1, 1)
    bad = thetas[(thetas < 1) | (thetas > k + 1)]
    if bad.size:
        raise ThetaOutOfRange(f"theta must lie in 1..{k + 1}, got {bad[0]}")
    return (np.arange(1, k + 1) >= thetas).astype(int)


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
    """Best threshold over the swept range (default 1..K+1); near-ties within
    the chain's tie band go to the smaller theta."""
    if thetas is None:
        thetas = range(1, params.threshold + 2)
    if len(thetas) == 0:
        raise StockRationingError("empty theta range")
    etas = average_profits(params, _threshold_rows(params, thetas))
    best = _first_best(etas)
    return thetas[best], float(etas[best])
