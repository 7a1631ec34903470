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

from .chain import average_profits
from .model import ENUMERATION_CAP, CapExceeded, Policy, SystemParams
from .sensitivity import penalty_roots

BRUTE_FORCE_TIE_BAND = 1e-12
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


def brute_force_optimal(
    params: SystemParams, cap: int = ENUMERATION_CAP, chunk: int = 1 << 16
) -> tuple[Policy, float]:
    """Exact argmax of the average profit over all 2^K policies.

    Enumerates in lexicographic order of the decision vector, scoring each
    chunk of policies in one `average_profits` call; near-ties inside the
    comparison band resolve to the lexicographically smallest vector by
    keeping the first maximizer.
    """
    k = params.threshold
    if k > cap:
        raise CapExceeded(f"K={k} exceeds enumeration cap {cap}")
    shifts = np.arange(k - 1, -1, -1)  # d_1 is the most significant bit
    best_eta = 0.0
    best_idx = None
    count = 1 << k
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count))
        etas = average_profits(params, (idx[:, None] >> shifts) & 1)
        block_max = float(np.max(etas))
        if best_idx is None or block_max > best_eta + BRUTE_FORCE_TIE_BAND * max(
            1.0, abs(best_eta)
        ):
            # first maximizer within the band wins, which is the lexicographic rule
            band = BRUTE_FORCE_TIE_BAND * max(1.0, abs(block_max))
            first = int(np.nonzero(etas >= block_max - band)[0][0])
            best_idx = int(idx[first])
            best_eta = float(etas[first])
    bits = tuple(int((best_idx >> int(s)) & 1) for s in shifts)
    return Policy(bits), best_eta
