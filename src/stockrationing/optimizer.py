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

import itertools
from dataclasses import dataclass

import numpy as np

from .chain import TINY, ChainRecord, _first_best, _head_weights, _tie_floor
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
    Applications to the Knapsack Problem, JACM 1974), policy a * 2**(K-h) + b
    earns (X_a + w_a Y_b) / (U_a + w_a V_b): the numerator of D - P*F and the
    weight sum of a's record on states 0..h, its weight at h, and those of
    b's on h+1..K and the segment, where state h weighs one.  Over U_a e**L,
    (p X_a / U_a + q Y_b / e**L) / (p + q V_b / e**L) with q = min(e**L w_a /
    U_a, 1) and p = min(1 / that, 1) is two broadcast multiply-adds and a
    division.  L is 0, with q = w_a / U_a taken as is so that a ratio-form
    head stays exact, while V_b <= e**300, and past that the multiple of 600
    nearest log V_b, so no pair's terms both underflow or overflow.
    """
    k, penalty = params.threshold, params.penalty
    h, m = k // 2, k - k // 2
    b_bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    a_bits = b_bits[:: 1 << (m - h), :h]
    w_b, log_b0, log_bm = _head_weights(params, b_bits)
    w_a, _, log_ah = (w_b, log_b0, log_bm) if h == m else _head_weights(params, a_bits)
    base, w_b = _base_rewards(params, k), w_b[:, 1:]
    low = ChainRecord(params, (w_b.sum(1), np.einsum("ij,ij->i", b_bits, w_b),
                               w_b @ base[h + 1 :], log_bm))
    high = ChainRecord(params, (w_a.sum(1), np.einsum("ij,ij->i", a_bits, w_a[:, 1:]),
                                w_a @ base[: h + 1], -np.inf))    # no segment
    (v, d_b, f_b), (u, d_a, f_a) = low.parts, high.parts
    x, log_ratio = (d_a - penalty * f_a) / u, log_ah - np.log(u)
    # each column's log shift to the scale where state h weighs one, and its L / 600
    lift = low.scales[3] - (0.0 if log_b0 is None else log_b0)
    level = np.maximum(np.ceil((np.log(np.maximum(v, TINY)) + lift - 300) / 600), 0).astype(int)
    yv = np.array((d_b - penalty * f_b, v)) * np.exp(lift - 600.0 * level)
    t = log_ratio[:, None] + 600.0 * np.arange(level.max() + 1)
    q, p = np.exp(np.minimum(t, 0.0)), np.exp(np.minimum(-t, 0.0))
    q[:, 0] = w_a[:, h] / u
    level = level if level.min() < level.max() else slice(level[0], level[0] + 1)
    rows = max(ENUMERATION_CHUNK >> m, 1)
    work = np.empty((2, min(rows, 1 << h), 1 << m))
    for a in (slice(start, start + rows) for start in range(0, 1 << h, rows)):
        num, den = np.multiply(q[a, level], yv[:, None], out=work)
        num += p[a, level] * x[a, None]
        den += p[a, level]
        yield (num / den).ravel()


def brute_force_optimal(params: SystemParams) -> tuple[Policy, float]:
    """Exact argmax of the average profit over all 2^K policies, K at most
    ENUMERATION_CAP, scored from two half-stacks by `_enumerated_etas`.

    The first policy within the tie band of the best wins, so near-ties
    resolve to the lexicographically smallest vector: the first block whose
    best is in the band is scored again unless its own first pick settles it.
    """
    k = params.threshold
    if k > ENUMERATION_CAP:
        raise CapExceeded(f"K={k} exceeds enumeration cap {ENUMERATION_CAP}")
    found = []    # each block's best, first row within its own band, and that row's eta
    for block in _enumerated_etas(params):
        first = _first_best(block)
        found.append((float(block.max()), first, float(block[first])))
    floor = _tie_floor(max(found)[0])
    j, (top, first, eta) = next((i, row) for i, row in enumerate(found) if row[0] >= floor)
    if not _tie_floor(top) <= floor <= eta:
        block = next(itertools.islice(_enumerated_etas(params), j, None))
        first = int(np.argmax(block >= floor))
        eta = float(block[first])
    return Policy(tuple(((j * block.size + first) >> s) & 1 for s in range(k - 1, -1, -1))), eta
