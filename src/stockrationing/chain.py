"""Policy-based birth-death chain: stationary law and average profit.

The chain moves up at the supply rate and down at the aggregate service rate
of the states's active demand classes, so the stationary weights have the
usual product form.  The policy moves only states 1..K; above K the chain is
one policy-free geometric segment in beta = lam/(mu1 + mu2).  So one policy
is solved once, in `chain_record`, in ratio form and in O(K): weights on
states 0..K in blocks of running products and closed-form sums for the
segment, finite at any K or N.  The record gives eta = D - P*F, the flip margins
G(i) + b = num - P*den on 1..K with their penalty roots and signs, and, each
computed once when first read, pi, the special potential g (g(0) = 0) and its
Poisson residual, in O(N) from one table of beta's powers.
D and F need three weighted sums over states 0..K, which `ChainRecord.parts`
joins with the segment's for a stack's rows or the oracle's halves.
Every call builds its own record and keeps nothing; a record's arrays are
read-only.  Only perfbench's readers below share one cached record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParameter, Policy, SystemParams, _base_rewards, _serve_gain, check_policy

# Below this z the difference 1/expm1(z) - 1/z loses more to cancellation,
# about 4 eps / z, than its series loses to its first omitted term,
# z**9 / 47900160.
SERIES_BAND = 0.15
TINY = 2.2250738585072014e-308     # the smallest normal float64
BRUTE_FORCE_TIE_BAND = 1e-12
DEGENERATE_COEF_TOL = 1e-12
SIGN_ZERO_BAND = 1e-9
_HUGE = 1.7976931348623157e308     # the largest float64


class _view:
    """A record view: computed when first read and kept in the instance's
    __dict__, which later reads find first.  functools.cached_property does
    the same, but on Python 3.11 it takes a lock on every first read."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, record, owner=None):
        return self if record is None else record.__dict__.setdefault(self.name, self.func(record))


@dataclass(frozen=True)
class ChainRecord:
    """One policy's chain, or each row's of a stack, solved once in ratio form.

    `head`, (3, K+1) per chain and (m, 3, K+1) for a stack, holds the weights
    on states 0..K on the head's scale (`_head_weights`) and there the rows B
    and A of the reward f = B - P*A; `sums` the sums of the weights and of B
    and A weighted by them and the log of state K's weight, floats for one
    policy and arrays for a stack.  The segment (`tail`) enters at its heavier
    end, K+1 when beta <= 1 and N when beta > 1, at log_K + lead, lead =
    max(log beta, (N-K) log beta), shifted to one when larger: `scales` are
    the head's and that end's weights, the latter's log, the shift and lead;
    `parts` the total weight and the numerators of D and F.
    """

    params: SystemParams
    sums: tuple
    head: np.ndarray | None = None
    decisions: np.ndarray | None = None
    blocks: np.ndarray | None = None

    @_view
    def tail(self) -> tuple:
        # Weighted penalty-free reward R(mu1 + mu2) - c_hold j - c_buy lam, c_opp at N.
        w_sum, m_sum, top = sums = _tail_sums(p := self.params, p.capacity - p.threshold)
        level = (p.price * (p.mu1 + p.mu2) - p.c_buy * p.lam) - p.c_hold * p.threshold
        return sums, level * w_sum - p.c_hold * m_sum + (p.c_buy - p.c_opp) * p.lam * top

    @_view
    def scales(self) -> tuple:
        p, m = self.params, self.params.capacity - self.params.threshold
        lead = max(log_beta := _log_beta(p), m * log_beta) if m else 0.0
        shift = max(t, 0.0) if isinstance(t := self.sums[3] + lead, float) else np.maximum(t, 0.0)
        scales = np.exp((-shift, t := t - shift))    # numpy's exp, which a stack's rows take
        return (*(scales.tolist() if scales.ndim == 1 else scales), t, shift, lead)

    @_view
    def parts(self) -> tuple:
        (w_sum, b_sum, a_sum, _), (head_scale, tail_scale, *_) = self.sums, self.scales
        (t_sum, _, _), seg = self.tail
        return (head_scale * w_sum + tail_scale * t_sum, head_scale * b_sum + tail_scale * seg,
                head_scale * a_sum)

    # Views of `head`: the weights on 0..K, (K+1,) or (m, K+1), and rows B and A there.
    weights = property(lambda self: self.head[..., 0, :])
    rewards = property(lambda self: self.head[..., 1:, :])

    # D and F, the stationary means of B and A: floats, or one entry per stack row.
    d_coef = property(lambda self: self.parts[1] / self.parts[0])
    f_coef = property(lambda self: self.parts[2] / self.parts[0])

    def eta(self, penalty: float):
        """The average profit eta = D - P*F."""
        return self.d_coef - penalty * self.f_coef

    @_view
    def powers(self) -> np.ndarray:
        """Q[t] = q**t for t = 0..N-K, q = min(beta, 1/beta): the segment's
        weights relative to its heavier end, which pi and g read.  Read-only.
        Only the entries with t |log beta| < 746 are exponentiated: past it
        exp underflows to zero, and numpy's exp is slow there."""
        p, x = self.params, -abs(_log_beta(self.params))
        m = p.capacity - p.threshold
        n = m + 1 if x * m > -746.0 else math.ceil(-746.0 / x)
        powers = np.zeros(m + 1)
        np.exp(x * np.arange(float(n)), out=powers[:n])
        return _read_only(powers)

    @_view
    def pi(self) -> np.ndarray:
        """pi on states 0..N of a one-policy record; above K, `powers` times one
        scalar, reversed when beta > 1.  Read-only."""
        p, k = self.params, self.params.threshold
        pi = np.empty(p.capacity + 1)
        pi[: k + 1] = self.weights * (self.scales[0] / self.parts[0])
        powers = self.powers[-2::-1] if _log_beta(p) > 0 else self.powers[:-1]
        np.multiply(powers, math.exp(self.scales[2]) / self.parts[0], out=pi[k + 1 :])
        return _read_only(pi)

    @_view
    def g(self) -> np.ndarray:
        """Special potential (first entry zero) of -B g = f - eta*e for a
        one-policy record and its own reward: the running sum of its steps
        g(i) - g(i-1) = -G(i).  Read-only.

        G(i) on 1..min(K+1, N) are the cut factors.  Above them the cut-flow
        identity

            lam * xi_{i-1} * G(i) = sum_{j<i} xi_j * (f_j - eta)
                                  = -sum_{j>=i} xi_j * (f_j - eta)

        sums c powers of q, the reward at j > K being L - c_hold j, plus
        Delta lam at N (L = R(mu1 + mu2) - c_buy lam, Delta = c_buy - c_opp):
        for beta < 1 over the c = M - r states i..N (M = N-K, r = i-1-K),
        whose weights fall away from i - 1; for beta > 1 over the c = r
        states K+1..i-1, plus the cut at K+1 carried up by beta**-r.  With
        x = -|log beta|, eps = expm1(x), w = 1/expm1(-x) = -e**x/eps and
        P = Q[c] of `powers`, the sums take two bases, P and E = P - 1:

            beta < 1:  G = -[E (eta - L + c_hold (K+1+w+r)) + c_hold c P] w/lam - Delta P,
            beta > 1:  G = P G(K+1) + [E (L - c_hold (K-w) - eta) + c_hold r]/(eps lam),

        which cancel by about 1/(c |x|), as `_h` does; at beta = 1 the sum is
        arithmetic, G = c (eta - L + c_hold (K + (M+r+1)/2))/lam - Delta.
        Where c |x| < SERIES_BAND, E loses more than that to rounding, so
        those entries, next to N for beta < 1 and next to K for beta > 1,
        sum their states' deviations f_j - eta directly: weighted relative to
        the band's heavier end, in one compensated running sum from the end
        each entry's sum starts at, then carried to i - 1's scale.
        """
        p = self.params
        k, m = p.threshold, p.capacity - p.threshold
        g = np.zeros(p.capacity + 1)
        steps, (cut_b, cut_a) = g[1:], self.cut_factors
        np.negative(cut_b - p.penalty * cut_a, out=steps[: len(cut_b)])
        eta, x, r = self.eta(p.penalty), -abs(log_beta := _log_beta(p)), np.arange(1.0, m)
        gap, delta = eta - (p.price * (p.mu1 + p.mu2) - p.c_buy * p.lam), p.c_buy - p.c_opp
        if x == 0.0:
            steps[k + 1 :] = delta - r[::-1] * (gap + p.c_hold * (k + 0.5 + 0.5 * (r + m))) / p.lam
        elif m > 1:
            band = min(m - 1, math.ceil(SERIES_BAND / -x) - 1)
            eps = math.expm1(x)
            w, hold = -math.exp(x) / eps, p.c_hold * r
            if log_beta < 0:             # beta < 1: the band ends the segment
                out = m - 1 - band
                seg, power = steps[k + 1 : k + 1 + out], self.powers[m - 1 : band : -1]
                np.multiply(power - 1.0, gap + p.c_hold * (k + 1 + w) + hold[:out], out=seg)
                seg += hold[::-1][:out] * power
                seg /= -eps * (p.mu1 + p.mu2)    # times w/lam, with no rate ratio
                seg += delta * power
                if band:                 # states N-band+1..N, on N-band's scale
                    dev = self.powers[1 : band + 1] * -(gap + p.c_hold * (k + 1 + r[out:]))
                    dev[-1] += delta * p.lam * self.powers[band]
                    steps[k + 1 + out :] = (_compensated_cumsum(dev[::-1])[::-1]
                                            / (p.lam * self.powers[:band]))
            else:                        # beta > 1: the band starts it
                seg, power = steps[k + 1 :], self.powers[1:m]
                np.multiply(power, steps[k], out=seg)
                seg[band:] += ((power[band:] - 1.0) * (gap + p.c_hold * (k - w))
                               - hold[band:]) / (eps * p.lam)
                if band:                 # states K+1..K+band, on K+band's scale
                    weights = self.powers[band - 1 :: -1]
                    seg[:band] += (_compensated_cumsum(weights * (gap + p.c_hold * (k + r[:band])))
                                   / (p.lam * weights))
        np.add.accumulate(steps, out=steps)
        return _read_only(g)

    @_view
    def g_diff(self) -> np.ndarray:
        """G(i) = g(i-1) - g(i) on 1..N of a one-policy record, off `g`.  Read-only."""
        return _read_only(self.g[:-1] - self.g[1:])

    @_view
    def residual(self) -> float:
        """max |(-B g) - (f - eta)| over states 0..N of a one-policy record:
        row i is lam G(i+1) - v_i G(i) - (f_i - eta), negated.  f is B - P*A
        of `rewards` on 0..K and the segment's affine reward above, with
        Delta lam at N; v is mu1 + mu2 d_i on 1..K and mu1 + mu2 above."""
        p, g_diff, k = self.params, self.g_diff, self.params.threshold
        r = _base_rewards(p, p.capacity)
        np.subtract(self.rewards[0], p.penalty * self.rewards[1], out=r[: k + 1])
        r[k + 1 :] += _serve_gain(p)[0]
        r -= self.eta(p.penalty)
        r[:-1] -= p.lam * g_diff
        r[1 : k + 1] += (p.mu1 + p.mu2 * self.decisions) * g_diff[:k]
        r[k + 1 :] += (p.mu1 + p.mu2) * g_diff[k:]
        return float(np.abs(r, out=r).max())

    @_view
    def cut_factors(self) -> np.ndarray:
        """Rows G_B and G_A of G(i) = g(i-1) - g(i) = G_B - P*G_A at positions
        1..min(K+1, N), (2, min(K+1, N)) for one policy and (m, 2, min(K+1, N))
        for a stack; the margin at i <= K is (R + c_lost2 + G_B) - P(1 + G_A).

        By the cut-flow identity, summed over rows 0..i-1,

            lam xi_{i-1} G(i) = sum_{j<i} xi_j (f_j - eta) = -sum_{j>=i} xi_j (f_j - eta),

        the segment's closed form joining the sum from i up.  Both run in one
        compensated pass over the `blocks` (one block is the head's weights)
        and are carried into the next block times v_s/(lam w_{s-1}), s its first
        state, or its inverse going down.  The sum below i is divided by
        w_{i-1} and lam, the sum from i up by w_i and v_i (lam xi_{i-1} =
        v_i xi_i), so no rate ratio is formed.  Each cut takes the end with
        less weight on the chain's scale.  The pass runs once per record, its
        array is read-only, and a stack's rows equal their records bit for bit.
        """
        p, k = self.params, self.params.threshold
        (w_sum, b_sum, a_sum, _), (head_scale, _, _, shift, lead) = self.sums, self.scales
        ((t_sum, _, _), seg), (whole, *_) = self.tail, self.parts    # whole: the total weight
        # States lead and a stack's rows trail, so that per-chain values (floats, or a
        # stack's (m,) arrays) broadcast.  Up to 64 states lead the memory too, for contiguous
        # running sums; past that numpy would step rows of four, so the columns lead.
        head, run = self.head.T, self.blocks    # w: the blocks' weights, state by state
        (nb, length), w = run.shape[-2:], run.reshape(run.shape[:-2] + (-1,)).T
        order = "C" if nb * length <= 64 else "F"
        # B and A over m 2**e, where lam = m 2**n and 2**e is above their size, so that no
        # weighted deviation leaves float range; a cut is a sum over a weight, times 2**(e-n).
        m, n = math.frexp(p.lam)
        size_b = (p.price * (p.mu1 + p.mu2) + p.c_lost1 * p.mu1 + p.c_lost2 * p.mu2
                  + (p.c_buy + p.c_opp) * p.lam + p.c_hold * p.capacity)
        e_b, e_a = max(math.frexp(size_b)[1], -1000), max(math.frexp(p.mu2)[1], -1000)
        unit_b, unit_a = math.ldexp(1.0 / m, -e_b), math.ldexp(1.0 / m, -e_a)
        exps = np.array((e_b - n, e_a - n)).reshape((2,) + (1,) * (w.ndim - 1))
        # Columns 0-1 run up from state 0 and 2-3, negated, down from the top, block by block.
        dev = np.zeros((nb * length, 4) + head.shape[2:], order=order)
        up = dev[: k + 1, :2]
        np.subtract(head[:, 1:], np.array((self.d_coef, self.f_coef)), out=up)
        up[:, 0] *= unit_b
        up[:, 1] *= unit_a
        up *= w[: k + 1, None]
        # The segment's deficit, on the last block's scale, starts the sums down the top.
        z_b, z_a = (seg * w_sum - b_sum * t_sum) / whole, -a_sum * t_sum / whole
        to_last = (lift := np.exp(lead - shift)) * w[k]
        np.negative(dev[::-1, :2], out=dev[:, 2:])
        dev[-1 - k, 2:] -= (to_last * (z_b * unit_b), to_last * (z_a * unit_a))
        runs = _compensated_cumsum(dev.reshape((nb, length) + dev.shape[1:]).swapaxes(0, 1))
        s = slice(length - 1, k, length)    # each block's first state s after the first: s - 1
        runs_by_block, runs = runs, runs.swapaxes(0, 1).reshape(dev.shape)
        # Less weight bounds a cut's rounding, and the error D's and F's carry into it.
        lower = (np.add.accumulate(head[:k, 0]) * head_scale <= 0.5 * whole)[:, None]
        sums = np.where(lower, runs[:k, :2], runs[::-1, 2:][1 : k + 1])
        cut = np.empty((k + 1,) + sums.shape[1:], order=order)
        if nb == 1:
            np.ldexp(sums / w[:k, None], exps, out=cut[:k])
        else:    # carries as mantissa and power of two into each position's block, by its end
            with np.errstate(over="ignore", invalid="ignore"):    # a cut past float range is inf
                d = self.decisions.T
                (m_v, n_v), (m_w, n_w) = np.frexp(p.mu1 + p.mu2 * d[s]), np.frexp(w[s])
                f_m, f_n = m_v / (m * m_w), n_v - n - n_w    # v_s / (lam w_{s-1}), going up
                f_m, f_n = (np.stack((x, x, y[::-1], y[::-1]), 1)
                            for x, y in ((f_m, 1.0 / f_m), (f_n, -f_n)))
                c_m, c_n = np.zeros((nb,) + f_m.shape[1:]), np.zeros((nb,) + f_m.shape[1:], int)
                for b in range(1, nb):
                    r_m, r_n = np.frexp(runs_by_block[-1, b - 1])
                    e = np.where(c_m[b - 1] != 0.0, np.maximum(c_n[b - 1], r_n), r_n)
                    total = np.ldexp(c_m[b - 1], c_n[b - 1] - e) + np.ldexp(r_m, r_n - e)
                    c_m[b], c_n[b] = np.frexp(total * f_m[b - 1])
                    c_n[b] += e + f_n[b - 1]
                c_m, c_n = (np.where(lower, np.repeat(c[:, :2].T, length, -1).T[:k],
                                     np.repeat(c[::-1, 2:].T, length, -1).T[1 : k + 1])
                            for c in (c_m, c_n))
                # From a block's first state up: over v and its weight 1 there, not lam w.
                sums[s] -= (own := np.where(lower[s], 0.0, sums[s]))
                c_m[s] -= (own_c := np.where(lower[s], 0.0, c_m[s]))
                cut[:k] = (np.ldexp(sums / w[:k, None], exps)
                           + np.ldexp(c_m / w[:k, None], exps + c_n))
                m_v, n_v = m / m_v[:, None], n - n_v[:, None] + exps
                cut[s] += np.ldexp(own * m_v, n_v) + np.ldexp(own_c * m_v, n_v + c_n[s])
        # From K+1 up: the deficit over lam xi_K, or (mu1 + mu2) xi_{K+1} when beta <= 1.
        at_k1 = -lift / p.lam if lead > 0.0 else -1.0 / (p.mu1 + p.mu2)
        cut[k] = at_k1 * z_b, at_k1 * z_a
        return _read_only(cut[: min(k + 1, p.capacity)].T)

    @_view
    def num(self) -> np.ndarray:
        """R + c_lost2 + G_B on positions 1..K, (K,) or (m, K): the flip margin
        G(i) + b is num - P*den, with den = 1 + G_A.  Read-only."""
        p = self.params
        return _read_only((p.price + p.c_lost2) + self.cut_factors[..., 0, : p.threshold])

    @_view
    def den(self) -> np.ndarray:
        """1 + G_A on positions 1..K, the margins' P-coefficient.  Read-only."""
        return _read_only(1.0 + self.cut_factors[..., 1, : self.params.threshold])

    @_view
    def roots(self) -> np.ndarray:
        """The penalty costs num/den at which the margins vanish; where den
        does, an infinite root with num's sign.  Read-only."""
        num, den = self.num, self.den
        if np.abs(den).min(initial=np.inf) > DEGENERATE_COEF_TOL:
            return _read_only(num / den)
        degenerate = np.abs(den) <= DEGENERATE_COEF_TOL
        return _read_only(np.where(degenerate, np.where(num >= 0, np.inf, -np.inf),
                                   num / np.where(degenerate, 1.0, den)))

    def signs(self, penalty: float) -> np.ndarray:
        """Labels in {-1, 0, +1} of the margins at the given penalty; zero
        inside the zero band SIGN_ZERO_BAND, or for a NaN.  At P = 0 they are
        num's: P*den is not formed, so an infinite den leaves them defined.  The
        band stops at its largest finite value, so an infinite margin keeps its sign."""
        num, p_den = self.num, penalty * self.den if penalty else 0.0
        value, band = num - p_den, np.abs(num) + abs(p_den)
        band = np.minimum(SIGN_ZERO_BAND * np.maximum(band, 1.0, out=band), SIGN_ZERO_BAND * _HUGE)
        return np.subtract(value > band, value < -band, dtype=int)

    @_view
    def sort_perm(self) -> tuple[int, ...]:
        """A one-policy record's 1-based positions by ascending root, ties in
        position order."""
        return tuple((np.argsort(self.roots, kind="stable") + 1).tolist())

    # A one-policy record's critical penalties: its largest root or zero, and its least.
    p_high = property(lambda self: max(0.0, float(self.roots.max())))
    p_low = property(lambda self: float(self.roots.min()))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _log_ratio(a: float, b: float) -> float:
    """log(a / b), as log(a) - log(b) where a / b is not a normal float."""
    return math.log(q) if TINY <= (q := a / b) < math.inf else math.log(a) - math.log(b)


def _log_beta(params: SystemParams) -> float:
    return _log_ratio(params.lam, params.mu1 + params.mu2)


def _h(z: float) -> float:
    """1/expm1(z) - 1/z for z >= 0, by its series where the difference
    cancels."""
    if z >= SERIES_BAND:
        return 1.0 / math.expm1(min(z, 700.0)) - 1.0 / z
    z2 = z * z
    return -0.5 + z * (1 / 12 - z2 * (1 / 720 - z2 * (1 / 30240 - z2 / 1209600)))


def _tail_sums(params: SystemParams, n: int) -> tuple:
    """Weight sum, offset-weighted sum and top weight of n states above a base.

    Above K every state serves both classes, so along a segment of n states
    above a base the weights are powers of beta, relative to its heavier end
    (its first state when beta <= 1, its top when beta > 1); the offsets run
    1..n from the base.  With q = min(beta, 1/beta) = exp(x), the sum of q**t
    over t < n is expm1(n x) / expm1(x), and the mean of t under those
    weights is h(-x) - n h(-n x) for h(z) = 1/expm1(z) - 1/z, which never
    cancels; near beta = 1, where h itself would, its series takes over.
    """
    x = -abs(log_beta := _log_beta(params))
    nx = n * x
    e0 = n * 1.0 if x == 0.0 else math.expm1(nx) / math.expm1(x)
    e1 = e0 * (_h(-x) - n * _h(-nx))
    if log_beta > 0:
        return e0, n * e0 - e1, (n > 0) * 1.0
    return e0, e0 + e1, math.exp(nx - x) if n else 0.0


def _head_weights(p: SystemParams, d: np.ndarray, rows: int) -> tuple:
    """A new head array, (..., rows, n+1) for d's decision rows of length n:
    row 0 the weights on states 0..n on the head's scale, any further rows
    zeros left for the caller (a chain record's B and A); their blocks; and
    the logs of state 0's and state n's weight there.

    A block holds all n+1 states while n rate ratios span at most 600 nats,
    and is then row 0 itself, else as many as keep its running product of
    the ratios from its first state within e**+-600: the `blocks`, (..., nb,
    length), padded.  A block is placed by its largest weight, at its log
    over the row's heaviest block's, so the head's largest weight is 1, and
    one that underflows there carries no mass.
    """
    n, step = d.shape[-1], max(_log_ratio(p.lam, p.mu1), -_log_beta(p))    # largest |log ratio|
    length = n + 1 if n * step <= 600.0 else int(600.0 / step) + 1
    head, one = np.zeros(d.shape[:-1] + (rows, n + 1)), length > n    # one block: row 0 itself
    run = head[..., :1, :] if one else np.empty(d.shape[:-1] + (n // length + 1, length))
    flat = run.reshape(d.shape[:-1] + (-1,))
    # Each step's ratio is picked by its decision, one rounding from the
    # rates, so nothing cancels when mu2 >> mu1.
    flat[..., 1 : n + 1] = np.where(d, p.lam / (p.mu1 + p.mu2), p.lam / p.mu1)
    flat[..., n + 1 :] = run[..., 0] = 1.0    # the padding and each block's first state
    np.multiply.accumulate(run, axis=-1, out=run)
    placed, log_top = flat[..., : n + 1], 0.0
    if p.lam > p.mu1:    # else each block's first weight is its largest; its last if beta >= 1
        top = run[..., -1:].copy() if p.lam >= p.mu1 + p.mu2 else run.max(axis=-1, keepdims=True)
        placed = np.divide(run, top, out=run if one else None).reshape(flat.shape)[..., : n + 1]
        log_top = np.log(top[..., 0])
    if one:    # at level 0: state 0's weight is 1 over the largest
        return head, run, (-log_top[..., 0] if p.lam > p.mu1 else 0.0), np.log(placed[..., n])
    levels = np.zeros(run.shape[:-1]) + log_top
    levels[..., 1:] += np.cumsum(np.log(run[..., :-1, -1]) + np.where(
        d[..., length - 1 :: length], _log_beta(p), _log_ratio(p.lam, p.mu1)), axis=-1)
    levels -= levels.max(axis=-1, keepdims=True)
    logs = (levels - log_top)[..., 0], levels[..., -1] + np.log(placed[..., n])
    np.multiply(placed, np.repeat(np.exp(levels), length, axis=-1)[..., : n + 1],
                out=head[..., 0, :])
    return head, run, *logs


def chain_record(params: SystemParams, policy: Policy | np.ndarray) -> ChainRecord:
    """Solve one policy, or every row of an (m, K) stack of 0/1 decision
    rows, in a new record: the weights on states 0..K and the segment above."""
    k = params.threshold
    if isinstance(policy, Policy):
        check_policy(params, policy)
        d = policy.as_array()
    else:
        d = np.asarray(policy)
        if d.ndim != 2 or d.shape[1] != k:
            raise InvalidParameter(f"decisions of shape {d.shape} need shape (m, K={k})")
    head, blocks, _, log_k = _head_weights(params, d, 3)
    # B and A: the all-zeros policy's rewards, plus `_serve_gain` where d serves
    w, (gain_b, gain_a) = head[..., 0, :], _serve_gain(params)
    np.multiply(d, gain_b, out=head[..., 1, 1:])
    np.multiply(d, gain_a, out=head[..., 2, 1:])
    head[..., 1, :] += _base_rewards(params, k)
    # The sums of the weights and of B and A weighted by them; a stack's are
    # batched products, bit for bit each row's own.
    w_sum, b_a = w.sum(axis=-1), np.matmul(head[..., 1:, :], w[..., None])
    head.setflags(write=False)
    if not isinstance(policy, Policy):
        return ChainRecord(params, (w_sum, b_a[..., 0, 0], b_a[..., 1, 0], log_k), head, d, blocks)
    (b_sum,), (a_sum,) = b_a.tolist()
    record = ChainRecord(params, (float(w_sum), b_sum, a_sum, float(log_k)), head, d, blocks)
    for array in (d, blocks):
        array.setflags(write=False)
    return record


def _compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Compensated running sums along the first axis.

    A plain running sum s = cumsum(a) rounds once per step.  TwoSum (Knuth;
    Ogita, Rump and Oishi, Accurate Sum and Dot Product, 2005) recovers each
    step's rounding error (s_{j-1} + a_j) - s_j exactly from s and a, and
    adding the running sum of those errors back to s keeps every prefix
    within a few ulps of its absolute sum instead of an error that grows
    with the length.  All of it is whole-array arithmetic.
    """
    s = np.add.accumulate(a)
    prev, t = s[:-1], s[1:]
    z = t - prev
    err = (prev - (t - z)) + (a[1:] - z)
    t += np.add.accumulate(err)
    return s


@functools.lru_cache(maxsize=1)
def _reader_record(params: SystemParams, policy: Policy) -> ChainRecord:
    """The record perfbench's readers share, so its solve op solves a policy
    once, by `chain_record` as looked up when called, which perfbench traces."""
    return chain_record(params, policy)


def stationary_distribution(params: SystemParams, policy: Policy) -> ChainRecord:
    """The policy's record, with its product-form stationary law `pi` solved.
    Kept only as an entry point that perfbench traces, until ROADMAP item 2
    deletes it; the package reads `chain_record(params, policy).pi`."""
    record = _reader_record(params, policy)
    record.pi
    return record


def average_profit(params: SystemParams, policy: Policy) -> float:
    """Long-run average profit D - P*F from the policy's record, in O(K)."""
    return chain_record(params, policy).eta(params.penalty)


def _tie_floor(best: float) -> float:
    """The lowest profit within the tie band of `best`."""
    return best - BRUTE_FORCE_TIE_BAND * max(1.0, abs(best))


def _first_best(etas: np.ndarray) -> int:
    """The first row within the tie band of the best, so near-ties resolve to
    the earliest row."""
    return int(np.argmax(etas >= _tie_floor(etas.max())))


def profit_linear_form(params: SystemParams, policy: Policy) -> ChainRecord:
    """The policy's record, whose eta(P) = d_coef - P*f_coef splits eta.
    Kept only as an entry point that perfbench traces, until ROADMAP item 2
    deletes it; the package reads `chain_record`."""
    return _reader_record(params, policy)
