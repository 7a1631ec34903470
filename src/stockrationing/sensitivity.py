"""The flip margins of a policy and the penalty costs that flip them.

Comparing two policies never requires re-solving both: the difference of
average profits is a stationary expectation of realization factors of the
reference policy.  For a single flipped position i the difference reduces to
mu2 * pi'(i) * (d'_i - d_i) * (G(i) + b) with the margin b = R + c_lost2 - P,
so the whole comparison structure of the policy set hangs on the sign of
G(i) + b.  That quantity is affine in the penalty cost; its coefficients,
root per position and zero-band signs are views of the policy's chain
record (`ChainRecord.num`, `den`, `roots` and `signs`).
"""

from __future__ import annotations

import numpy as np

from .chain import ChainRecord, chain_record
from .model import Policy, SystemParams


def penalty_roots(params: SystemParams, policy: Policy) -> ChainRecord:
    """The policy's record, with the penalty roots of G(i) + b = 0 solved.

    G(i) + b = num - P*den with num = R + c_lost2 + G_B(i) and den =
    1 + G_A(i), where G_B and G_A are the realization factors of the two
    parts of the reward f = B - P*A.  The record also gives `sort_perm`,
    `p_high`, `p_low` and, through `eta`, the policy's profit.
    """
    record = chain_record(params, policy)
    record.roots
    return record


def classify_sign(params: SystemParams, policy: Policy, penalty: float) -> np.ndarray:
    """Labels in {-1, 0, +1} for the sign of G(i) + b at the given penalty.

    A value inside the zero band (or a NaN) counts as zero; with a positive
    P-coefficient the sign is positive exactly below the root, and reversed
    when the coefficient is negative.
    """
    return penalty_roots(params, policy).signs(penalty)
