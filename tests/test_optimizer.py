import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stockrationing import (
    ENUMERATION_CAP,
    CapExceeded,
    Policy,
    StockRationingError,
    SystemParams,
    average_profit,
    average_profits,
    brute_force_optimal,
    chain_record,
    global_optimal,
    reward_structure,
    static_profit_closed_form,
)
from stockrationing import optimizer
from stockrationing.chain import (
    BRUTE_FORCE_TIE_BAND,
    SIGN_ZERO_BAND,
    TINY,
    _first_best,
    _head_weights,
    _tie_floor,
)
from stockrationing.optimizer import EPS

from conftest import counting, random_params, random_policy
from oracles import (
    decimal_chain,
    exact_chain,
    gain_bounds,
    reference_global_optimal,
    restore_threshold,
    rvi_gain,
)


class TestClassifyRegion:
    """The regime gates: HighPenalty when P reaches p_high of the all-zeros
    profile, LowPenalty when P is at most a positive p_low of the all-ones
    profile, Middle otherwise."""

    def test_unit_instance_high(self, unit_params):
        assert chain_record(unit_params, Policy((0,))).p_high == pytest.approx(1.4, abs=1e-12)
        res = global_optimal(unit_params.with_penalty(10.0))
        assert res.region == "HighPenalty"
        assert res.policy == Policy((0,))

    def test_unit_instance_low(self, unit_params):
        res = global_optimal(unit_params.with_penalty(1.0))
        assert res.region == "LowPenalty"
        assert res.policy == Policy((1,))

    def test_middle_bracket_index(self):
        # the region follows the two gate profiles, and a Middle optimum's n0
        # counts the roots of its own profile strictly below the penalty
        rng = np.random.default_rng(50)
        middles = 0
        for _ in range(200):
            p = random_params(rng, k_min=2, k_max=8, n_max=16)
            high = chain_record(p, Policy.all_zeros(p.threshold)).p_high
            low = chain_record(p, Policy.all_ones(p.threshold)).p_low
            res = global_optimal(p)
            if p.penalty >= high:
                assert res.region == "HighPenalty" and res.n0 is None
            elif 0 < low and p.penalty <= low:
                assert res.region == "LowPenalty" and res.n0 is None
            else:
                assert res.region == "Middle"
                roots = chain_record(p, res.policy).roots
                assert res.n0 == int(np.sum(roots < p.penalty))
                middles += 1
        assert middles >= 20


class TestExtremePolicies:
    def test_high_gate_confirmed_by_enumeration(self):
        rng = np.random.default_rng(51)
        confirmed = 0
        while confirmed < 10:
            p = random_params(rng, k_max=8, n_max=16)
            prof = chain_record(p, Policy.all_zeros(p.threshold))
            if not np.isfinite(prof.p_high):
                continue
            p_hi = p.with_penalty(prof.p_high + 1.0)
            bf_pol, bf_eta = brute_force_optimal(p_hi)
            eta_zero = average_profit(p_hi, Policy.all_zeros(p.threshold))
            assert eta_zero == pytest.approx(bf_eta, abs=1e-9 * max(1, abs(bf_eta)))
            confirmed += 1

    def test_low_gate_confirmed_by_enumeration(self):
        rng = np.random.default_rng(52)
        confirmed = 0
        while confirmed < 10:
            p = random_params(rng, k_max=8, n_max=16)
            prof = chain_record(p, Policy.all_ones(p.threshold))
            if prof.p_low <= 0:
                continue
            p_lo = p.with_penalty(0.5 * min(prof.p_low, 1e6))
            bf_pol, bf_eta = brute_force_optimal(p_lo)
            eta_one = average_profit(p_lo, Policy.all_ones(p.threshold))
            assert eta_one == pytest.approx(bf_eta, abs=1e-9 * max(1, abs(bf_eta)))
            confirmed += 1


class TestClosedFormProfits:
    def test_degenerate_ratio_unit_instance(self, unit_params):
        assert static_profit_closed_form(unit_params, unit_params.threshold + 1) == pytest.approx(4.6, abs=1e-12)

    def test_dual_route_agreement(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = random_params(rng, k_max=10, n_max=40)
            hi = static_profit_closed_form(p, p.threshold + 1)
            lo = static_profit_closed_form(p, 1)
            assert hi == pytest.approx(
                average_profit(p, Policy.all_zeros(p.threshold)), rel=1e-9
            )
            assert lo == pytest.approx(
                average_profit(p, Policy.all_ones(p.threshold)), rel=1e-9
            )


class TestTransformPlan:
    def test_known_ordering_restores_expected_policy(self):
        # K=8 with roots ordered as positions (1,3,4,7 | 2,5,6,8) around the
        # penalty: the restored optimum rejects exactly at the first group
        restored = restore_threshold((1, 3, 4, 7, 2, 5, 6, 8), 4)
        assert restored.decisions == (0, 1, 0, 0, 1, 1, 0, 1)

    def test_round_trip_permutation(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            k = int(rng.integers(1, 10))
            perm = tuple(rng.permutation(np.arange(1, k + 1)).tolist())
            n_zeros = int(rng.integers(0, k + 1))
            restored = restore_threshold(perm, n_zeros)
            # zeros exactly at the first n_zeros sorted positions
            assert {i + 1 for i, d in enumerate(restored.decisions) if d == 0} == set(
                perm[:n_zeros]
            )

    def test_middle_optimum_restores_from_its_transform(self):
        # the optimum is a threshold policy in its own sorted coordinates:
        # zeros at the first n0 positions of sort_perm, serving at the rest
        rng = np.random.default_rng(56)
        middles = 0
        while middles < 100:
            p = random_params(rng, k_min=2, k_max=12, n_max=36,
                              penalty=float(np.exp(rng.uniform(np.log(0.01), np.log(200)))))
            res = global_optimal(p)
            if res.region != "Middle":
                continue
            middles += 1
            assert restore_threshold(res.sort_perm, res.n0) == res.policy, res


class TestBruteForce:
    def test_unit_instance_penalties(self, unit_params):
        pol, eta = brute_force_optimal(unit_params.with_penalty(0.0))
        assert (pol.decisions, round(eta, 10)) == ((1,), 5.0)
        pol, eta = brute_force_optimal(unit_params.with_penalty(1.4))
        assert pol.decisions == (0,)  # tie at 4.6 resolves to the smaller vector
        assert eta == pytest.approx(4.6, abs=1e-12)
        pol, eta = brute_force_optimal(unit_params.with_penalty(10.0))
        assert (pol.decisions, round(eta, 10)) == ((0,), 4.6)

    def test_matches_scalar_enumeration(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            p = random_params(rng, k_max=6, n_max=14)
            best = max(
                (average_profit(p, Policy(bits)), tuple(-b for b in bits))
                for bits in itertools.product((0, 1), repeat=p.threshold)
            )[0]
            _, eta = brute_force_optimal(p)
            assert eta == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_cap(self, example1_params, monkeypatch):
        monkeypatch.setattr(optimizer, "ENUMERATION_CAP", 10)
        with pytest.raises(CapExceeded):
            brute_force_optimal(example1_params)

    def test_k_equals_n(self):
        from stockrationing import SystemParams

        p = SystemParams(lam=1.5, mu1=1.0, mu2=2.0, capacity=4, threshold=4,
                         c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=2, price=8,
                         penalty=3)
        best = max(
            (average_profit(p, Policy(bits)), tuple(-b for b in bits))
            for bits in itertools.product((0, 1), repeat=4)
        )[0]
        _, eta = brute_force_optimal(p)
        assert eta == pytest.approx(best, rel=1e-12)

    def test_at_the_cap(self, example1_params):
        # the cap's own 2**24 policies at example-1 rates, in each region; a
        # Class-1 lost-sales cost of 1.2 gives the all-ones profile a positive p_low
        for penalty, region in [(0.1, "LowPenalty"), (10.0, "Middle"), (40.0, "HighPenalty")]:
            p = dataclasses.replace(example1_params, capacity=2 * ENUMERATION_CAP,
                                    threshold=ENUMERATION_CAP, c_lost1=1.2, penalty=penalty)
            _, eta = brute_force_optimal(p)
            res = global_optimal(p)
            assert res.region == region
            assert abs(eta - res.eta) <= optimizer.ORACLE_MATCH_TOL * max(1.0, abs(eta)), region


def explicit_optimum(p):
    """The tie rule over `average_profits` of all 2**K explicit decision rows."""
    rows = np.array(list(itertools.product((0, 1), repeat=p.threshold)))
    etas = average_profits(p, rows)
    best = _first_best(etas)
    return tuple(rows[best].tolist()), float(etas[best])


@st.composite
def drifted_params(draw, k_max, k_min=1):
    """lam/(mu1 + mu2) from 1e-3 to 1e3 or exactly 1, or lam = mu1; N from K to 3K."""
    mu1_share = draw(st.floats(0.1, 0.9))
    lam = draw(st.sampled_from(["beta", "lam=mu1", "lam=mu1+mu2"]))
    lam = {"beta": math.exp(draw(st.floats(math.log(1e-3), math.log(1e3)))),
           "lam=mu1": mu1_share, "lam=mu1+mu2": 1.0}[lam]
    k = draw(st.integers(k_min, k_max))
    c_hold, c_lost1, c_lost2, c_buy, c_opp, price, penalty = draw(
        st.lists(st.floats(0.0, 10.0), min_size=7, max_size=7))
    return SystemParams(lam=lam, mu1=mu1_share, mu2=1.0 - mu1_share,
                        capacity=k + int(draw(st.floats(0.0, 1.0)) * 2 * k), threshold=k,
                        c_hold=c_hold, c_lost1=c_lost1, c_lost2=c_lost2, c_buy=c_buy,
                        c_opp=c_opp, price=price, penalty=penalty)


@given(p=drifted_params(k_max=14))
@settings(max_examples=60, deadline=None)
def test_split_enumeration_matches_explicit_rows(p):
    # K <= 14; the enumeration joins two half-stacks, the reference scores every row
    policy, eta = brute_force_optimal(p)
    ref_policy, ref_eta = explicit_optimum(p)
    assert policy.decisions == ref_policy
    assert abs(eta - ref_eta) <= 1e-13 * max(1.0, abs(ref_eta))


@given(p=drifted_params(k_min=13, k_max=20))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_policy_iteration_at_larger_k(p):
    # K from 13 to 20, past the explicit rows' reach: the oracle's profit is
    # the policy iteration's, and no single flip of its policy beats it
    policy, eta = brute_force_optimal(p)
    scale = max(1.0, abs(eta))
    assert abs(eta - global_optimal(p).eta) <= optimizer.ORACLE_MATCH_TOL * scale
    for i in range(1, p.threshold + 1):
        assert average_profit(p, policy.flip(i)) - eta <= BRUTE_FORCE_TIE_BAND * scale, i


@pytest.mark.parametrize("k, log_hold", [(12, 52.0), (11, 56.0), (16, 95.0), (16, 120.0)])
@pytest.mark.parametrize("serve", [1.0, 1e3])
def test_split_enumeration_in_the_log_weight_branch(k, log_hold, serve):
    # K log(lam/mu1) = 624 and 616 nats, past the 600 that one block of
    # weights spans (and that switched the weights to logs before blocks):
    # the head takes several blocks, each half one.  At K = 16 a half's
    # 8 log(lam/mu1) = 760 and 960 nats take several too, and a low half's
    # weight sum passes float range on the high half's scale.  mu2 = 1e3 lam
    # makes serving ratios fall below one, so the halves' scales cross
    lam = math.exp(log_hold)
    p = SystemParams(lam=lam, mu1=1.0, mu2=serve * lam, capacity=k + 8, threshold=k,
                     c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5.0)
    blocks = [_head_weights(p, np.zeros((1, n), dtype=int), 1)[1].shape[-2]
              for n in (k, k - k // 2)]
    assert blocks[0] > 1 and (blocks[1] > 1) == (k == 16)
    policy, eta = brute_force_optimal(p)
    ref_policy, ref_eta = explicit_optimum(p)
    assert policy.decisions == ref_policy
    assert abs(eta - ref_eta) <= 1e-13 * max(1.0, abs(ref_eta))


def test_enumeration_ties_within_the_band_of_the_best_policy():
    # The best policy starts (1, 1, ...), but the first row within its band
    # of 1.37e-10 is (0,0, 1 x 14, 0,0); an earlier row, (0,0,0, 1 x 13, 0,0),
    # lies 1.58e-10 below the best, just outside the band.  eta is checked
    # against the best of all 2**18 explicit rows.
    p = SystemParams(lam=8.944500606851054, mu1=1.4177566256896255, mu2=0.7801352706268034,
                     capacity=20, threshold=18, c_hold=6.30090199785343,
                     c_lost1=2.9816309065742477, c_lost2=7.4175668006933035,
                     c_buy=7.221648081421175, c_opp=2.1871542456880455,
                     price=8.298868742743123, penalty=13.153044217464863)
    policy, eta = brute_force_optimal(p)
    assert policy.decisions == (0, 0) + (1,) * 14 + (0, 0)
    rows = (np.arange(1 << 18)[:, None] >> np.arange(17, -1, -1)) & 1
    best = max(float(average_profits(p, rows[i : i + (1 << 16)]).max())
               for i in range(0, 1 << 18, 1 << 16))
    assert eta >= best - BRUTE_FORCE_TIE_BAND * max(1.0, abs(best))


def test_tie_rule_holds_across_blocks_of_rows(monkeypatch):
    # With one row per block, the best row and the first row within its band
    # lie in different blocks, so the band's first block is scored again
    monkeypatch.setattr(optimizer, "TIE_BLOCK", 1)
    p = SystemParams(lam=8.944500606851054, mu1=1.4177566256896255, mu2=0.7801352706268034,
                     capacity=20, threshold=18, c_hold=6.30090199785343,
                     c_lost1=2.9816309065742477, c_lost2=7.4175668006933035,
                     c_buy=7.221648081421175, c_opp=2.1871542456880455,
                     price=8.298868742743123, penalty=13.153044217464863)
    assert brute_force_optimal(p)[0].decisions == (0, 0) + (1,) * 14 + (0, 0)
    # lam = 227 (mu1 + mu2): the mass sits near N, and two of the four rows
    # hold a policy within the best's band of 1.03e-9, at profits 6.0e-10 apart
    p = SystemParams(lam=226.6282122418973, mu1=0.5998949990775465, mu2=0.4001050009224535,
                     capacity=5, threshold=4, c_hold=2.00275379917644, c_lost1=4.1474121707579235,
                     c_lost2=7.131551875636052, c_buy=7.381025959044417, c_opp=4.511778266793161,
                     price=6.386185766079892, penalty=6.689188895728371)
    policy, eta = brute_force_optimal(p)
    ref_policy, ref_eta = explicit_optimum(p)
    assert policy.decisions == ref_policy
    assert abs(eta - ref_eta) <= 1e-13 * max(1.0, abs(ref_eta))


def test_enumeration_at_the_cap_keeps_only_the_weights_rows():
    # The half-stacks' heads hold one row, the weights: at K = 24 they are
    # two (4096, 1, 13) arrays.  With the chain record's three rows, whose
    # B and A rows the oracle never fills, the peak was 2.70 MB.
    import tracemalloc

    p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=48, threshold=24, c_hold=1,
                     c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5.0)
    brute_force_optimal(p)
    tracemalloc.start()
    try:
        brute_force_optimal(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6


def oracle_confirms(p, res):
    """Whether the exact oracle's eta matches the result's to ORACLE_MATCH_TOL."""
    eta = brute_force_optimal(p)[1]
    return abs(eta - res.eta) <= optimizer.ORACLE_MATCH_TOL * max(1.0, abs(eta))


class TestGlobalOptimal:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(58)
        regions = set()
        for _ in range(60):
            p = random_params(rng, k_max=10, n_max=20)
            res = global_optimal(p)
            regions.add(res.region)
            assert oracle_confirms(p, res)
        assert "HighPenalty" in regions and "LowPenalty" in regions

    def test_middle_region_fixed_point_property(self):
        # the returned policy is consistent with its own penalty profile:
        # serving exactly where the flip margin is nonnegative
        rng = np.random.default_rng(59)
        middles = 0
        while middles < 15:
            p = random_params(rng, k_min=2, k_max=10, n_max=20)
            prof = chain_record(p, Policy.all_zeros(p.threshold))
            finite = prof.roots[np.isfinite(prof.roots)]
            if len(finite) < 2 or finite.max() <= max(finite.min(), 0) + 1e-6:
                continue
            pen = float(np.random.default_rng(middles).uniform(
                max(finite.min(), 0), finite.max()
            ))
            res = global_optimal(p.with_penalty(pen))
            if res.region != "Middle":
                continue
            middles += 1
            assert oracle_confirms(p.with_penalty(pen), res)
            labels = chain_record(p.with_penalty(pen), res.policy).signs(pen)
            for i, d in enumerate(res.policy.decisions):
                if labels[i] > 0:
                    assert d == 1
                elif labels[i] < 0:
                    assert d == 0

    @pytest.mark.parametrize(
        "penalty, region", [(0.1, "LowPenalty"), (10.0, "Middle"), (40.0, "HighPenalty")]
    )
    def test_beyond_enumeration_cap(self, penalty, region):
        # example-1 rates at K=40, out of the oracle's reach; a Class-1
        # lost-sales cost of 1.2 gives the all-ones profile a positive p_low
        p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=200, threshold=40,
                         c_hold=1, c_lost1=1.2, c_lost2=1, c_buy=5, c_opp=1, price=15,
                         penalty=penalty)
        assert p.threshold > ENUMERATION_CAP
        res = global_optimal(p)
        assert res.region == region
        labels = chain_record(p, res.policy).signs(penalty)
        for lab, d in zip(labels, res.policy.decisions):
            assert lab == 0 or d == int(lab > 0)
        for i in range(1, p.threshold + 1):
            gain = average_profit(p, res.policy.flip(i)) - res.eta
            assert gain <= 1e-9 * max(1.0, abs(res.eta)), i

    def test_strong_upward_drift_optimum(self):
        # lam/(mu1 + mu2) = 5 at N = 500: the raw weights 5**500 overflow, which
        # once made the optimizer fail on this well-defined model.
        # The reference sums log-weights from state N with math.fsum.
        from oracles import log_weight_reference, reward_split

        p = SystemParams(lam=5.0, mu1=0.5, mu2=0.5, capacity=500, threshold=15, c_hold=1,
                         c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5.0)
        res = global_optimal(p)

        def eta(policy):
            ref = log_weight_reference(p, policy.decisions)
            return ref.d_coef - p.penalty * ref.f_coef

        tol = 1e-12 * float(np.max(np.abs(reward_split(p, res.policy.decisions)[0])))
        assert abs(res.eta - eta(res.policy)) <= tol
        for i in range(1, p.threshold + 1):
            assert eta(res.policy.flip(i)) - res.eta <= tol, i

    def test_report_serialization(self):
        rng = np.random.default_rng(60)
        p = random_params(rng, k_max=6)
        res = global_optimal(p)
        payload = res.to_json_dict()
        assert list(payload) == ["policy", "eta", "region", "n0", "sort_perm"]
        assert oracle_confirms(p, res)


class TestMonotoneChains:
    """Chains that start at a regime's optimum and flip one position per
    step never gain profit, to a 1e-10 relative slack."""

    @staticmethod
    def never_gains(p, start, order):
        chain = [start]
        for pos in order:
            chain.append(chain[-1].flip(pos))
        etas = [average_profit(p, policy) for policy in chain]
        return all(b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(etas, etas[1:]))

    def test_single_comparison_k1(self, unit_params):
        assert self.never_gains(unit_params.with_penalty(10.0), Policy((0,)), (1,))

    def test_high_regime_chains_never_improve(self):
        rng = np.random.default_rng(61)
        p0 = random_params(rng, k_min=4, k_max=4, n_max=10)
        policies = [Policy(b) for b in itertools.product((0, 1), repeat=4)]
        pen = max(chain_record(p0, pol).p_high for pol in policies) + 1.0
        p = p0.with_penalty(pen)
        start = Policy.all_zeros(4)
        for target in policies:
            order = [i for i in range(4, 0, -1) if target[i - 1] != start[i - 1]]
            assert self.never_gains(p, start, order)

    def test_penalty_override(self, unit_params):
        # low regime: all-ones is optimal below the root at 1.4
        assert self.never_gains(unit_params.with_penalty(0.5), Policy((1,)), (1,))


EX1_COSTS = dict(c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15)


def _outcome(solver, p):
    """Every field of a solver's result, eta by float.hex, or its typed error."""
    try:
        r = solver(p)
    except StockRationingError as error:
        return type(error), str(error)
    return (r.policy, float(r.eta).hex(), r.region, r.n0, r.sort_perm, r.iterations,
            r.cycle_without_improvement)


@st.composite
def optimizer_params(draw):
    """K <= 60 and N <= 3K; lam/(mu1 + mu2) from e**-4 to e**4, or exactly 1;
    mu2/mu1 from e**-3 to e**12; P = 0 or log-uniform on e**-3..e**8."""
    k = draw(st.integers(1, 60))
    mu1 = math.exp(draw(st.floats(-3.0, 3.0)))
    mu2 = mu1 * math.exp(draw(st.floats(-3.0, 12.0)))
    beta = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
    penalty = draw(st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(math.exp)))
    c_hold, c_lost1, c_lost2, c_buy, c_opp, price = draw(
        st.lists(st.floats(0.0, 20.0), min_size=6, max_size=6))
    return SystemParams(lam=(mu1 + mu2) * math.exp(beta), mu1=mu1, mu2=mu2,
                        capacity=draw(st.integers(k, 3 * k)), threshold=k, c_hold=c_hold,
                        c_lost1=c_lost1, c_lost2=c_lost2, c_buy=c_buy, c_opp=c_opp,
                        price=price, penalty=penalty)


@given(p=optimizer_params())
@settings(max_examples=300, deadline=None)
def test_global_optimal_is_the_per_profile_iteration(p):
    # The gates read two rows of one stacked record and the steps read
    # margins alone; the reference builds a one-policy record per gate
    # and per step.  Every field, eta's bits and any typed error agree.
    assert _outcome(global_optimal, p) == _outcome(reference_global_optimal, p)


@pytest.mark.parametrize("rates, penalty, region", [
    (dict(lam=1.0, mu1=2.0, mu2=1000.0, capacity=400, threshold=200), 1e4, "HighPenalty"),
    (dict(lam=3.0, mu1=4.0, mu2=2.0, capacity=2000, threshold=2000), 1e5, "HighPenalty"),
    (dict(lam=1.0, mu1=2.0, mu2=1000.0, capacity=400, threshold=200), 1.0, "Middle"),
], ids=["beta-1e-3-high", "example-1-rates-k2000-high", "beta-1e-3-below-p-high"])
def test_all_ones_row_beyond_float_range_is_answered(rates, penalty, region):
    # The all-ones row's weights span more than float range and the
    # all-zeros row's do not.  Both gate rows and every step are answered
    # with no RuntimeWarning, as the per-profile iteration answers, and eta
    # lies in one Bellman step's bounds at the returned policy's own g.
    p = SystemParams(penalty=penalty, **rates, **EX1_COSTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(global_optimal, p)
        want = _outcome(reference_global_optimal, p)
        g = chain_record(p, got[0]).g
    assert got == want and got[2] == region
    lo, hi = gain_bounds(p, g)
    rounding = 16 * EPS * (np.max(np.abs(reward_structure(p, got[0])))
                           + (p.lam + p.mu1 + p.mu2) * np.max(np.abs(g)))
    assert lo - rounding <= float.fromhex(got[1]) <= hi + rounding


@pytest.mark.parametrize("penalty, region", [
    (0.1, "LowPenalty"), (10.0, "Middle"), (40.0, "HighPenalty")])
def test_gates_take_one_record_and_each_step_one_more(penalty, region, monkeypatch):
    # Both gate rows come from one head and one cut pass; each Howard step
    # solves its policy once.
    p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=200, threshold=40, c_hold=1,
                     c_lost1=1.2, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=penalty)
    heads = counting(monkeypatch, "_head_weights")
    cut_passes = counting(monkeypatch, "_compensated_cumsum")
    res = global_optimal(p)
    assert res.region == region
    assert (res.iterations > 0) == (region == "Middle")
    assert len(heads) == len(cut_passes) == 1 + res.iterations


# Instances on which a margin cancels to rounding noise that passes the zero
# band, so that Howard's steps return to a visited policy: K = 7 with the
# price alone, K = 6 and K = 38 at price 1e18 and 1e16 with O(1) costs, and
# a draw where c_buy = 1.9e92 dominates.
CYCLING = {
    "k7-price-1e8": SystemParams(
        lam=0.5887029699422087, mu1=4.810413218918037, mu2=3.492615165684101, capacity=26,
        threshold=7, c_hold=0, c_lost1=0, c_lost2=0, c_buy=0, c_opp=0, price=1e8, penalty=0),
    "k6-price-1e18": SystemParams(
        lam=1.1408514126667733, mu1=3.770973931239683, mu2=3.9748358901042864, capacity=24,
        threshold=6, c_hold=0.7191165165647097, c_lost1=0.37738951393758313,
        c_lost2=0.8208012081466438, c_buy=0.29172256077745407, c_opp=0.8753800092720189,
        price=1e18, penalty=0),
    "k38-price-1e16": SystemParams(
        lam=1.0883631113353454, mu1=3.8083307873039356, mu2=1.8268374115824975, capacity=43,
        threshold=38, c_hold=0.36360972854683504, c_lost1=0.3460955758937603,
        c_lost2=0.047663312777471156, c_buy=0.20697810841881104, c_opp=0.7490302690630336,
        price=1e16, penalty=0),
    "k14-c_buy-1.9e92": SystemParams(
        lam=0.038742300659618104, mu1=4.5425156145660415, mu2=13.461319802260672, capacity=41,
        threshold=14, c_hold=1.7755414032842408e68, c_lost1=26.361646984436465,
        c_lost2=3.6818727121068657e33, c_buy=1.9008677551886206e92, c_opp=0.062347213853855186,
        price=12.397472749256309, penalty=0.00332350915091899),
}


@pytest.mark.parametrize("p", CYCLING.values(), ids=CYCLING)
def test_a_step_back_to_a_visited_policy_ends_the_iteration(p):
    # The loop stops at the cycle's best policy and says so; its eta is the
    # oracle's up to the tie band, or inside one Bellman step's bounds at its
    # own potential beyond the enumeration cap.
    res = global_optimal(p)
    record = chain_record(p, res.policy)
    assert res.cycle_without_improvement and res.iterations <= 3
    assert res.eta == record.eta(p.penalty)
    if p.threshold <= ENUMERATION_CAP:
        assert res.eta >= _tie_floor(brute_force_optimal(p)[1])
    else:
        g = record.g
        lo, hi = gain_bounds(p, g)
        rounding = 16 * EPS * (np.max(np.abs(reward_structure(p, res.policy)))
                               + (p.lam + p.mu1 + p.mu2) * np.max(np.abs(g)))
        assert lo - rounding <= res.eta <= hi + rounding


@st.composite
def bellman_params(draw):
    """K <= N <= 400 in both drift regimes: mu2/mu1 from e**-3 to e**3 and
    lam/(mu1 + mu2) from e**-4 to e**4, so the weights on 0..K may span
    thousands of nats."""
    k = draw(st.integers(1, 400))
    mu2 = math.exp(draw(st.floats(-3.0, 3.0)))
    lam = (1.0 + mu2) * math.exp(draw(st.floats(-4.0, 4.0)))
    c_hold, c_lost1, c_lost2, c_buy, c_opp, price = draw(
        st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6))
    penalty = draw(st.one_of(st.just(0.0), st.floats(-3.0, 5.0).map(math.exp)))
    return SystemParams(lam=lam, mu1=1.0, mu2=mu2, capacity=draw(st.integers(k, 400)),
                        threshold=k, c_hold=c_hold, c_lost1=c_lost1, c_lost2=c_lost2,
                        c_buy=c_buy, c_opp=c_opp, price=price, penalty=penalty)


@given(p=bellman_params())
@settings(max_examples=100, deadline=None)
def test_optimal_gain_lies_in_one_bellman_steps_bounds(p):
    # At h = g of the returned policy, f + Q h is eta at every state for the
    # policy's own actions, so the lower bound is eta and the upper bound
    # exceeds it by mu2 times the largest wrong-signed flip margin: a
    # certificate of optimality well past the enumeration cap.  Rounding:
    # f + Q h is taken to 16 eps of max|f| + Lam*max|h|; and the optimizer
    # keeps a decision whose margin lies in the zero band SIGN_ZERO_BAND.
    res = global_optimal(p)
    g = chain_record(p, res.policy).g
    lo, hi = gain_bounds(p, g)
    profile = chain_record(p, res.policy)
    lam_total = p.lam + p.mu1 + p.mu2
    rounding = 16 * EPS * (np.max(np.abs(reward_structure(p, res.policy)))
                           + lam_total * np.max(np.abs(g)))
    band = p.mu2 * SIGN_ZERO_BAND * max(
        1.0, float(np.max(np.abs(profile.num) + p.penalty * np.abs(profile.den))))
    assert lo - rounding <= res.eta <= hi + rounding
    assert hi - lo <= rounding + band


@st.composite
def wide_params(draw):
    """Rates log-uniform over e**+-50 under a common scale from e**-650 to
    e**650, mu2/mu1 from 1e-9 to 1e9, costs and P up to 1e6, K <= N <= 2000
    (K = N about half the time).  A draw whose rewards pass float range has
    no float profit, so those corners are skipped."""
    scale = draw(st.floats(-650.0, 650.0))
    lam, mu1 = (math.exp(scale + draw(st.floats(-50.0, 50.0))) for _ in range(2))
    mu2 = mu1 * math.exp(draw(st.floats(-math.log(1e9), math.log(1e9))))
    c_hold, c_lost1, c_lost2, c_buy, c_opp, price, penalty = costs = draw(
        st.lists(st.floats(0.0, 1e6), min_size=7, max_size=7))
    assume(max(lam, mu1, mu2) * (1.0 + max(costs)) < 1e300)
    k = draw(st.integers(1, 2000))
    return SystemParams(lam=lam, mu1=mu1, mu2=mu2, threshold=k,
                        capacity=draw(st.one_of(st.just(k), st.integers(k, 2000))),
                        c_hold=c_hold, c_lost1=c_lost1, c_lost2=c_lost2, c_buy=c_buy,
                        c_opp=c_opp, price=price, penalty=penalty)


@given(p=wide_params())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_wide_draw_matches_the_references_at_any_k(p):
    # The weights on 0..K take as many blocks as their span needs.  D, F and
    # the returned policy's margins match exact_chain (N <= 40) or the
    # 60-digit decimal reference, relative to their rounding scales: the size
    # of B's terms and mu2, floored at the smallest normal float, and each
    # coefficient's `size`, floored at e**600 times that: a cut's sum runs on
    # its block's first state's scale, up to e**600 from the weight it is
    # divided by, and may pass through the subnormal range there, as D and F
    # may.  eta lies in one Bellman step's bounds at that policy's own g, to
    # rounding and the subnormal spacing.  A policy that Howard's steps pass
    # on the way may have margins past float range, which warn.
    res = global_optimal(p)
    record = chain_record(p, res.policy)
    g = record.g
    d = res.policy.decisions
    dec = decimal_chain(p, d)
    ref = exact_chain(p, d) if p.capacity <= 40 else dec
    terms = (p.price * (p.mu1 + p.mu2) + p.c_lost1 * p.mu1 + p.c_lost2 * p.mu2
             + (p.c_buy + p.c_opp) * p.lam + p.c_hold * p.capacity)
    assert abs(record.d_coef - float(ref.d_coef)) <= 1e-13 * max(terms, TINY)
    assert abs(record.f_coef - float(ref.f_coef)) <= 1e-13 * max(p.mu2, TINY)
    margin = np.array(ref.num, dtype=float) - p.penalty * np.array(ref.den, dtype=float)
    size = np.maximum(dec.size[0] + (p.penalty * dec.size[1] if p.penalty else 0.0),
                      TINY * math.exp(600.0))
    # The segment's weights are exp((N-K) log beta), which rounds at (N-K) |log beta| eps
    # and carries that into D and F, and so into the margins.
    segment = (p.capacity - p.threshold) * abs(math.log(p.lam) - math.log(p.mu1 + p.mu2))
    tol = 1e-13 + 8 * EPS * segment
    assert np.all(np.abs(record.num - p.penalty * record.den - margin) <= tol * size)
    lo, hi = gain_bounds(p, g)
    rounding = 16 * EPS * (np.max(np.abs(reward_structure(p, res.policy)))
                           + (p.lam + p.mu1 + p.mu2) * np.max(np.abs(g)) + TINY)
    assert lo - rounding <= res.eta <= hi + rounding


@given(k=st.integers(1, 200), extra=st.integers(0, 199), seed=st.integers(0, 2**32 - 1))
@example(k=67, extra=0, seed=303070)   # a plateau 0.75 wide from sweep ~1,000 to ~20,000
@settings(max_examples=40, deadline=None)
def test_optimal_gain_lies_in_the_cold_value_iteration_bracket(k, extra, seed):
    # K <= N <= 200 in both drift regimes with |log beta| in [0.11, 2], so
    # beta lies outside [0.9, 1.1], where value iteration from h = 0 takes
    # a few thousand sweeps; K log(lam/mu1) stays below 650 nats, so no
    # weight on 0..K flushes.  Each bound of the bracket is exact up to its
    # rounding; below eta* by the zero band's largest wrong-signed margin, as
    # in the one-step bounds above, the optimizer may keep a decision.  The
    # width closes to twice the rounding floor, or stalls just above it: in
    # 600 scratch draws at most 3.3 times the floor.
    rng = np.random.default_rng(seed)
    mu2 = min(math.exp(rng.uniform(-3.0, 3.0)), math.expm1(650.0 / k - 2.0))
    lam = (1.0 + mu2) * math.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.11, 2.0))
    c = rng.uniform(0.0, 10.0, 6)
    penalty = 0.0 if rng.random() < 0.2 else math.exp(rng.uniform(-3.0, 5.0))
    p = SystemParams(lam=lam, mu1=1.0, mu2=mu2, capacity=min(200, k + extra), threshold=k,
                     c_hold=c[0], c_lost1=c[1], c_lost2=c[2], c_buy=c[3], c_opp=c[4],
                     price=c[5], penalty=penalty)
    cold = rvi_gain(p)
    res = global_optimal(p)
    profile = chain_record(p, res.policy)
    band = p.mu2 * SIGN_ZERO_BAND * max(
        1.0, float(np.max(np.abs(profile.num) + p.penalty * np.abs(profile.den))))
    assert cold.lo - cold.rounding - band <= res.eta <= cold.hi + cold.rounding
    assert cold.hi - cold.lo <= 8 * cold.rounding
