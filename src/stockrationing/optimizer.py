"""Optimal dynamic rationing policies across the three penalty regimes.

High penalties make withholding optimal everywhere below the threshold, low
penalties make serving optimal everywhere, and in between the optimum is a
threshold policy only after permuting positions by ascending penalty root:
an optimum carries its own permutation and zero count (`sort_perm`, `n0`),
and `restore_threshold` maps them back to the policy.
The regime gates are checked on the all-zeros and all-ones rows of one stacked
chain record; the optimum comes from Howard policy iteration on the flip margins.  The
exact oracle over all 2^K policies, K <= ENUMERATION_CAP, is Dinkelbach's
parametric search (Management Science 1967) over two half-stacks: it stops
once a step finds no better profit, and near-ties go to the first policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import TINY, ChainRecord, _head_weights, _tie_floor, chain_record
from .model import ENUMERATION_CAP, CapExceeded, Policy, SystemParams, _base_rewards, _serve_gain

ORACLE_MATCH_TOL = 1e-9
# brute_force_optimal: the float epsilon, and 128 KB of pairs
EPS, TIE_BLOCK = float(np.finfo(float).eps), 1 << 14


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
    iterations: int             # policy-improvement steps taken

    def to_json_dict(self) -> dict:
        return {"policy": self.policy.to_json_list(), "eta": self.eta, "region": self.region,
                "n0": self.n0, "sort_perm": list(self.sort_perm)}


def global_optimal(params: SystemParams) -> OptimizerResult:
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
    Optimization, 2007); its eta is D - P*F from the last policy's record.  The
    gate rows share one record, which is not kept.
    """
    k, p = params.threshold, params.penalty
    record = chain_record(params, np.arange(2.0)[:, None].repeat(k, axis=1))
    region, row = "HighPenalty", 0      # the gates' all-zeros (0) or all-ones (1) row
    if p < max(0.0, float(record.roots[0].max())):
        region = "Middle"
        p_low = float(record.roots[1].min())
        if p_low > 0 and p <= p_low:
            region, row = "LowPenalty", 1
    decisions, labels, eta = record.decisions[row], record.signs(p)[row], record.eta(p)[row]

    iterations = 0
    while True:
        improved = np.where(labels, labels > 0, decisions)
        if (improved == decisions).all():
            break
        record = chain_record(params, Policy(tuple(improved.tolist())))
        decisions, row, labels, eta = improved, (), record.signs(p), record.eta(p)
        iterations += 1

    roots = record.roots[row]           # row () is a one-policy record's whole array
    return OptimizerResult(
        policy=Policy(tuple(decisions.tolist())), eta=float(eta), region=region,
        n0=int(np.sum(roots < p)) if region == "Middle" else None,
        sort_perm=tuple((np.argsort(roots, kind="stable") + 1).tolist()), iterations=iterations)


def brute_force_optimal(params: SystemParams) -> tuple[Policy, float]:
    """Exact argmax of the average profit over all 2^K policies, K at most
    ENUMERATION_CAP, by Dinkelbach's (1967) parametric search over two halves.

    With high bits a on 1..h, h = K // 2, product-form weights make policy
    a * 2**(K-h) + b earn (p x_a + q y_b) / (p + q v_b) (Horowitz and Sahni,
    JACM 1974): x_a is D - P*F on a's states 0..h, y_b and v_b the numerator
    and weight of b's states above and the segment, on state h's scale times
    e**-600L, L a column's level, so that v times `size`, the largest of 1,
    |x| and |y / v|, lies in (1, e**600] where L > 0; q, p <= 1, q = w_a /
    U_a as is at L = 0.  A pair beats g iff q (y_b - g v_b) + p (x_a - g) > 0,
    so a row beating g anywhere beats it at its level's column maximising
    y - g v.  Each step scores every row there; eta, the best profit found,
    rises until a step finds none above it.  g sits 8 eps of `size`, plus TINY
    over the least denominator, below the tie band's floor, so the last step
    finds every row that can reach the floor; those are scored at every column,
    TIE_BLOCK pairs at a time, and the lexicographically first in their band wins.
    """
    k, penalty = params.threshold, params.penalty
    if k > ENUMERATION_CAP:
        raise CapExceeded(f"K={k} exceeds enumeration cap {ENUMERATION_CAP}")
    h, m = k // 2, k - k // 2
    b_bits = np.unpackbits(np.arange(1 << m, dtype=">u2")[:, None].view(np.uint8), axis=1)[:, -m:]
    a_bits = b_bits[:: 1 << (m - h), :h]
    head_b, _, log_b0, log_bm = _head_weights(params, b_bits)
    head_a, _, _, log_ah = (head_b, None, 0, log_bm) if h == m else _head_weights(params, a_bits)
    (w_a, w_b), base = (head_a[:, 0], head_b[:, 0, 1:]), _base_rewards(params, k)
    served_b = np.einsum("ij,ij->i", b_bits, w_b)
    served_a, (gain_b, gain_a) = np.einsum("ij,ij->i", a_bits, w_a[:, 1:]), _serve_gain(params)
    halves = ChainRecord(params, tuple(np.concatenate(z) for z in zip(    # b's, then a's
        (w_b.sum(1), w_b @ base[h + 1 :] + gain_b * served_b, gain_a * served_b, log_bm),
        (w_a.sum(1), w_a @ base[: h + 1] + gain_b * served_a, gain_a * served_a,
         np.full(1 << h, -np.inf)))))    # no segment
    (v, u), (d_b, d_a), (f_b, f_a) = ((z[: 1 << m], z[1 << m :]) for z in halves.parts)
    x, log_ratio, y = (d_a - penalty * f_a) / u, log_ah - np.log(u), d_b - penalty * f_b
    # 5e-324 keeps each v > 0; a flushed column (y = v = 0) earns x_a in every pair: ratio 0
    ratio = y / np.maximum(v, 5e-324)
    a, b = x.argmax(), ratio.argmax()     # start from the best high half with the best low half
    size = max(x.item(a), ratio.item(b), -x.item(x.argmin()), -ratio.item(ratio.argmin()), 1.0)
    lift = halves.scales[3][: 1 << m] - log_b0    # to state h's scale
    level = np.maximum(np.ceil((np.log(np.maximum(v, TINY)) + lift + math.log(size)) / 600) - 1, 0)
    y, v = np.array((y, v)) * np.exp(lift - 600.0 * level)
    levels = np.bincount(level.astype(int)).nonzero()[0]
    col = levels.searchsorted(level)          # each column's level, as an index into levels
    t = log_ratio[:, None] + 600.0 * levels
    q, p = np.exp(np.minimum(t, 0.0)), np.exp(np.minimum(-t, 0.0))
    q[:, 0] = w_a[:, h] / u if levels[0] == 0 else q[:, 0]
    px, y_l, v_l, by_col = p * x[:, None], y[None], v[None], slice(None)
    if len(levels) > 1:        # each level's columns, masked apart from the others'
        on = col == np.arange(len(levels))[:, None]
        y_l, v_l, by_col = np.where(on, y, -np.inf), np.where(on, v, 0.0), col
    q_ab, p_ab = q.item(a, col[b]), p.item(a, col[b])
    top, eta = (q_ab * y.item(b) + p_ab * x.item(a)) / (q_ab * v.item(b) + p_ab), -np.inf
    while top > eta:
        eta, floor = top, _tie_floor(top)
        slack = 8 * EPS * (size + abs(floor)) + TINY * size
        best = (y_l - (floor - slack) * v_l).argmax(1)
        etas = (q * y[best] + px) / (q * v[best] + p)
        top = etas.item(etas.argmax())
    rows = (np.maximum.reduce(etas, 1) >= floor - 2 * slack).nonzero()[0]
    def joined(block):    # the profits of rows `block` at every column, in lexicographic order
        q_b, p_b = q.take(block, 0)[:, by_col], p.take(block, 0)[:, by_col]
        return ((q_b * y + p_b * x[block][:, None]) / (q_b * v + p_b)).ravel()
    step = TIE_BLOCK >> m or 1
    blocks = [rows[i : i + step] for i in range(0, len(rows), step)]
    tops = [(etas := joined(block)).item(etas.argmax()) for block in blocks]
    floor = _tie_floor(max(tops))
    j = next(i for i, top in enumerate(tops) if top >= floor)
    etas = joined(blocks[j]) if j < len(blocks) - 1 else etas    # the last block's are at hand
    i, b = divmod(int((etas >= floor).argmax()), 1 << m)
    return Policy(tuple(a_bits[blocks[j][i]].tolist() + b_bits[b].tolist())), etas.item(i << m | b)
