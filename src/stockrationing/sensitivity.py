"""The flip margins of a policy and the penalty costs that flip them.

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

from .chain import ChainRecord, chain_record
from .model import Policy, SystemParams

DEGENERATE_COEF_TOL = 1e-12
SIGN_ZERO_BAND = 1e-9


@dataclass(frozen=True)
class PenaltyProfile:
    """Penalty roots of G(i) + b = 0 for positions 1..K of one policy.

    G(i) + b = num[i-1] - P * den[i-1] with both coefficient vectors free of
    the penalty cost.  Positions whose P-coefficient vanishes get an
    infinite root carrying the sign of the constant term, so the min/max
    critical values below stay well defined.  sort_perm lists 1-based
    positions by ascending root; ties keep ascending position order.  `form`
    is the policy's own chain record, whose eta gives its profit.
    """

    roots: np.ndarray
    p_high: float
    p_low: float
    sort_perm: tuple[int, ...]
    num: np.ndarray
    den: np.ndarray
    form: ChainRecord

    def signs(self, penalty: float) -> np.ndarray:
        """classify_sign labels of this profile's margins at the given penalty."""
        return _signs(self.num, self.den, penalty)


def _signs(num: np.ndarray, den: np.ndarray, penalty: float) -> np.ndarray:
    """Labels in {-1, 0, +1} of the margins num - P*den, zero inside the band."""
    value = num - penalty * den
    band = SIGN_ZERO_BAND * np.maximum(1.0, np.abs(num) + np.abs(penalty * den))
    return np.where(value > band, 1, np.where(value < -band, -1, 0))


def _margins(params: SystemParams, cut: np.ndarray) -> tuple:
    """num, den and roots of the margins num - P*den on 1..K from cut rows G_B, G_A."""
    num = (params.price + params.c_lost2) + cut[0, : params.threshold]
    den = 1.0 + cut[1, : params.threshold]
    degenerate = np.abs(den) <= DEGENERATE_COEF_TOL
    return num, den, np.where(degenerate, np.where(num >= 0, np.inf, -np.inf),
                              num / np.where(degenerate, 1.0, den))


def penalty_roots(params: SystemParams, policy: Policy) -> PenaltyProfile:
    """Solve G(i) + b = 0 for the penalty cost at every rationed position.

    G(i) + b = num - P*den with num = R + c_lost2 + G_B(i) and den =
    1 + G_A(i), where G_B and G_A are the realization factors of the two
    parts of the reward f = B - P*A, read off the policy's chain record.
    """
    record = chain_record(params, policy)
    num, den, roots = _margins(params, record.cut_factors)
    order = np.argsort(roots, kind="stable")
    return PenaltyProfile(roots=roots, p_high=max(0.0, float(roots.max())),
                          p_low=float(roots.min()), sort_perm=tuple((order + 1).tolist()),
                          num=num, den=den, form=record)


def classify_sign(params: SystemParams, policy: Policy, penalty: float) -> np.ndarray:
    """Labels in {-1, 0, +1} for the sign of G(i) + b at the given penalty.

    A value inside the zero band (or a NaN) counts as zero; with a positive
    P-coefficient the sign is positive exactly below the root, and reversed
    when the coefficient is negative.
    """
    return penalty_roots(params, policy).signs(penalty)
