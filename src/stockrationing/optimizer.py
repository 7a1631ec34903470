"""Optimal dynamic rationing policies across the three penalty regimes.

High penalties make withholding optimal everywhere below the threshold, low
penalties make serving optimal everywhere, and in between the optimum is a
threshold policy only after permuting positions by ascending penalty root:
an optimum carries its own permutation and zero count (`sort_perm`, `n0`),
and `restore_threshold` maps them back to the policy.
The regime gates are checked on the all-zeros and all-ones policies; the
optimum itself comes from Howard policy iteration on the flip margins, with
an exhaustive enumeration over all 2^K policies, K <= ENUMERATION_CAP, as
the ground-truth oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainRecord, _first_best, _head_weights
from .model import ENUMERATION_CAP, CapExceeded, Policy, SystemParams, _base_rewards
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


def _enumerated_etas(params: SystemParams):
    """Yield every policy's average profit in lexicographic order of the
    decision vector, in blocks of whole rows of at most ENUMERATION_CHUNK.

    State i's weight is the product of the first i rate ratios, and d_j
    alone fixes the j-th.  So with high bits a on 1..h, h = K // 2, and low
    bits b on h+1..K (Horowitz and Sahni, Computing Partitions with
    Applications to the Knapsack Problem, JACM 1974), each head sum of
    policy a * 2**(K-h) + b is a's over states 0..h plus a's weight at h
    times b's over the rest, relative to b's first state, and a block joins
    a column of a's half sums to a row of b's.  One bit table holds both
    halves' patterns (a's end in K - 2h zeros); each half has its own scale.
    """
    k = params.threshold
    h, m = k // 2, k - k // 2
    b_bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    a_bits = b_bits[:: 1 << (m - h), :h]
    w_b, log_b0, log_bm = _head_weights(params, b_bits)
    w_a, _, log_ah = (w_b, log_b0, log_bm) if h == m else _head_weights(params, a_bits)
    base = _base_rewards(params, k)
    a_sums = np.array((w_a.sum(1), np.einsum("ij,ij->i", a_bits, w_a[:, 1:]), w_a @ base[: h + 1]))
    w_b = w_b[:, 1:]
    b_sums = np.array((w_b.sum(1), np.einsum("ij,ij->i", b_bits, w_b), w_b @ base[h + 1 :]))
    rows = max(ENUMERATION_CHUNK >> m, 1)
    for a in (slice(start, start + rows) for start in range(0, 1 << h, rows)):
        if log_b0 is None:  # on a's scale, where state 0 weighs one
            scale_a, scale_b, log_k = 1.0, w_a[a, h, None], log_ah[a, None] + log_bm
        else:               # each pair on its own scale, where its largest weight is one
            t = log_ah[a, None] - log_b0
            down = np.minimum(t, 0.0)
            scale_a, scale_b, log_k = np.exp(down - t), np.exp(down), log_bm + down
        head = scale_b * b_sums[:, None, :]
        head += scale_a * a_sums[:, a, None]
        yield ChainRecord(params, (*head, log_k)).form.eta(params.penalty).ravel()


def brute_force_optimal(params: SystemParams) -> tuple[Policy, float]:
    """Exact argmax of the average profit over all 2^K policies, K at most
    ENUMERATION_CAP, scored from two half-stacks by `_enumerated_etas`.

    Each block's first row within the tie band of its best is a candidate,
    and the first candidate within the band of the best candidate wins, so
    near-ties resolve to the lexicographically smallest vector.
    """
    k = params.threshold
    if k > ENUMERATION_CAP:
        raise CapExceeded(f"K={k} exceeds enumeration cap {ENUMERATION_CAP}")
    indices, etas, start = [], [], 0
    for block in _enumerated_etas(params):
        first = _first_best(block)
        indices.append(start + first)
        etas.append(float(block[first]))
        start += block.size
    best = _first_best(np.array(etas))
    return Policy(tuple((indices[best] >> s) & 1 for s in range(k - 1, -1, -1))), etas[best]
