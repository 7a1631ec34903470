"""Optimal dynamic rationing policies across the three penalty regimes.

High penalties make withholding optimal everywhere below the threshold, low
penalties make serving optimal everywhere, and in between the optimum is a
threshold policy only after permuting positions by ascending penalty root:
an optimum carries its own permutation and zero count (`sort_perm`, `n0`),
and `restore_threshold` maps them back to the policy.
The regime gates are checked on the all-zeros and all-ones policies; the
optimum itself comes from Howard policy iteration on the flip margins, with
a brute-force enumeration available as the ground-truth oracle at small K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import _first_best, average_profits
from .model import ENUMERATION_CAP, CapExceeded, Policy, SystemParams
from .sensitivity import penalty_roots

ENUMERATION_CHUNK = 1 << 16
ORACLE_MATCH_TOL = 1e-9


def restore_threshold(sort_perm: tuple[int, ...], n_zeros: int) -> Policy:
    """Inverse coordinate transform: zeros at the first n_zeros sorted positions."""
    k = len(sort_perm)
    decisions = [1] * k
    for pos in sort_perm[:n_zeros]:
        decisions[pos - 1] = 0
    return Policy(tuple(decisions))


@dataclass(frozen=True)
class OptimizerResult:
    policy: Policy
    eta: float
    region: str
    n0: int | None
    sort_perm: tuple[int, ...]
    oracle_confirmed: bool | None
    iterations: int             # policy-improvement steps taken

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy.to_json_list(),
            "eta": self.eta,
            "region": self.region,
            "n0": self.n0,
            "sort_perm": list(self.sort_perm),
            "oracle_confirmed": self.oracle_confirmed,
        }


def global_optimal(params: SystemParams, check_oracle: bool = False) -> OptimizerResult:
    """Optimal dynamic policy for the configured penalty cost, by policy iteration.

    The region is HighPenalty when P reaches p_high of the all-zeros
    profile, LowPenalty when P is at most a positive p_low of the all-ones
    profile, and Middle otherwise.  Iteration starts from the all-ones
    policy in the LowPenalty region and from all-zeros otherwise.  Each
    step serves where the flip margin G(i) + b is positive, withholds where
    it is negative and keeps the decision inside the zero band.  The new
    eta minus the old sums mu2 * pi'(i) * (d'_i - d_i) * (G(i) + b) over the
    flipped positions, each term positive, so every step raises eta strictly
    and the loop ends at a gain-optimal policy (Howard's algorithm: Puterman,
    Markov Decision Processes, 1994, 8.6; Cao, Stochastic Learning and
    Optimization, 2007); its eta is D - P*F from the last profile's chain
    record.  `check_oracle` cross-checks against enumeration.
    """
    k = params.threshold
    p = params.penalty
    policy = Policy.all_zeros(k)
    profile = penalty_roots(params, policy)
    region = "HighPenalty"
    if p < profile.p_high:
        ones_profile = penalty_roots(params, Policy.all_ones(k))
        region = "Middle"
        if ones_profile.p_low > 0 and p <= ones_profile.p_low:
            region, policy, profile = "LowPenalty", Policy.all_ones(k), ones_profile

    iterations = 0
    while True:
        labels = profile.signs(p)
        improved = Policy(
            tuple(d if lab == 0 else int(lab > 0) for d, lab in zip(policy.decisions, labels))
        )
        if improved == policy:
            break
        policy, profile = improved, penalty_roots(params, improved)
        iterations += 1

    eta = profile.form.eta(p)
    oracle_confirmed: bool | None = None
    if check_oracle:
        _, bf_eta = brute_force_optimal(params)
        oracle_confirmed = abs(bf_eta - eta) <= ORACLE_MATCH_TOL * max(1.0, abs(bf_eta))

    return OptimizerResult(
        policy=policy,
        eta=eta,
        region=region,
        n0=int(np.sum(profile.roots < p)) if region == "Middle" else None,
        sort_perm=profile.sort_perm,
        oracle_confirmed=oracle_confirmed,
        iterations=iterations,
    )


def brute_force_optimal(params: SystemParams) -> tuple[Policy, float]:
    """Exact argmax of the average profit over all 2^K policies, K at most
    ENUMERATION_CAP.

    Enumerates in lexicographic order of the decision vector, scoring each
    chunk of ENUMERATION_CHUNK policies in one `average_profits` call.  Each
    chunk's first row within the tie band of its best is a candidate, and
    the first candidate within the band of the best candidate wins, so
    near-ties resolve to the lexicographically smallest vector.
    """
    k = params.threshold
    if k > ENUMERATION_CAP:
        raise CapExceeded(f"K={k} exceeds enumeration cap {ENUMERATION_CAP}")
    shifts = np.arange(k - 1, -1, -1)  # d_1 is the most significant bit
    count = 1 << k
    indices, etas = [], []
    for start in range(0, count, ENUMERATION_CHUNK):
        idx = np.arange(start, min(start + ENUMERATION_CHUNK, count))
        chunk_etas = average_profits(params, (idx[:, None] >> shifts) & 1)
        first = _first_best(chunk_etas)
        indices.append(int(idx[first]))
        etas.append(float(chunk_etas[first]))
    best = _first_best(np.array(etas))
    bits = tuple(int((indices[best] >> int(s)) & 1) for s in shifts)
    return Policy(bits), etas[best]
