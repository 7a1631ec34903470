import dataclasses
import importlib
import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrationing import (
    InvalidParameter,
    Policy,
    StockRationingError,
    SystemParams,
    average_profit,
    brute_force_optimal,
    chain,
    chain_record,
    global_optimal,
    optimal_static_threshold,
    reward_structure,
    service_rates,
)
from stockrationing.chain import profit_linear_form, stationary_distribution
from stockrationing.optimizer import ORACLE_MATCH_TOL
from stockrationing.poisson import solve_poisson
from stockrationing.sensitivity import penalty_roots

from conftest import counting, dense_stationary, random_params, random_policy
from oracles import (
    decimal_chain,
    dense_generator,
    exact_chain,
    exact_profit,
    reference_profit,
    reward_split,
)

rates = st.floats(0.5, 5.0, allow_nan=False)
costs = st.floats(0.0, 10.0, allow_nan=False)


class TestGenerator:
    def test_unit_instance_entries(self, unit_params):
        dense = dense_generator(unit_params, Policy((0,)))
        np.testing.assert_array_equal(dense, [[-1.0, 1.0, 0.0],
                                              [1.0, -2.0, 1.0],
                                              [0.0, 2.0, -2.0]])

    def test_row_sums_vanish(self, example1_params):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pol = random_policy(rng, 15)
            dense = dense_generator(example1_params, pol)
            np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-12)

    def test_all_ones_constant_subdiagonal(self, example1_params):
        dense = dense_generator(example1_params, Policy.all_ones(15))
        assert np.all(np.diag(dense, -1) == example1_params.mu1 + example1_params.mu2)


class TestStationaryDistribution:
    def test_unit_instance_reject(self, unit_params):
        dist = chain_record(unit_params, Policy((0,)))
        np.testing.assert_allclose(dist.pi, [0.4, 0.4, 0.2], atol=1e-15)

    def test_unit_instance_serve(self, unit_params):
        dist = chain_record(unit_params, Policy((1,)))
        np.testing.assert_allclose(dist.pi, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)

    def test_matches_dense_solve_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = random_params(rng, k_max=10, n_max=50)
            pol = random_policy(rng, p.threshold)
            dist = chain_record(p, pol)
            np.testing.assert_allclose(dist.pi, dense_stationary(p, pol), atol=1e-9)

    def test_stationarity_and_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_params(rng, k_max=8, n_max=40)
            pol = random_policy(rng, p.threshold)
            dist = chain_record(p, pol)
            assert abs(dist.pi.sum() - 1.0) < 1e-12
            assert np.all(dist.pi >= 0)
            resid = dist.pi @ dense_generator(p, pol)
            assert np.max(np.abs(resid)) < 1e-9


class TestAverageProfit:
    def test_unit_instance_value(self, unit_params):
        # pi = (0.4, 0.4, 0.2) against f = (-10, 8, 27)
        assert average_profit(unit_params, Policy((0,))) == pytest.approx(4.6, abs=1e-12)

    def test_unit_instance_penalty_free_for_reject_policy(self, unit_params):
        for pen in (0.0, 5.0, 40.0):
            eta = average_profit(unit_params.with_penalty(pen), Policy((0,)))
            assert eta == pytest.approx(4.6, abs=1e-12)

    def test_two_computation_routes_agree(self):
        # the record's D - P*F against the model in exact rationals
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng)
            pol = random_policy(rng, p.threshold)
            eta = average_profit(p, pol)
            assert eta == pytest.approx(reference_profit(p, pol.decisions), rel=1e-10)


class TestProfitLinearForm:
    def test_all_zeros_has_zero_penalty_coefficient(self, example1_params):
        form = chain_record(example1_params, Policy.all_zeros(15))
        assert form.f_coef == 0.0

    def test_unit_instance_serve_coefficients(self, unit_params):
        form = chain_record(unit_params, Policy((1,)))
        assert form.d_coef == pytest.approx(5.0, abs=1e-12)
        assert form.f_coef == pytest.approx(2 / 7, abs=1e-14)
        for pen in (0.0, 1.4, 7.0):
            direct = float(exact_profit(unit_params.with_penalty(pen), (1,)))
            assert form.eta(pen) == pytest.approx(direct, abs=1e-12)

    def test_profit_affine_in_penalty(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_params(rng)
            pol = random_policy(rng, p.threshold)
            pens = [0.0, 3.0, 11.0]
            etas = [reference_profit(p.with_penalty(x), pol.decisions) for x in pens]
            # three samples of the model are collinear, and the package's
            # slope in the penalty is theirs
            slope1 = (etas[1] - etas[0]) / (pens[1] - pens[0])
            slope2 = (etas[2] - etas[1]) / (pens[2] - pens[1])
            assert slope1 == pytest.approx(slope2, abs=1e-10)
            slope = (average_profit(p.with_penalty(pens[1]), pol)
                     - average_profit(p.with_penalty(pens[0]), pol)) / (pens[1] - pens[0])
            assert slope == pytest.approx(slope1, abs=1e-10)

    def test_penalty_coefficient_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng)
            pol = random_policy(rng, p.threshold)
            assert chain_record(p, pol).f_coef >= 0.0

    @given(lam=rates, mu1=rates, mu2=rates, c_hold=costs, price=costs,
           bits=st.lists(st.integers(0, 1), min_size=3, max_size=3),
           pens=st.tuples(costs, costs, costs))
    @settings(max_examples=60, deadline=None)
    def test_linear_form_predicts_every_penalty(self, lam, mu1, mu2, c_hold,
                                                price, bits, pens):
        from stockrationing import SystemParams

        p = SystemParams(lam=lam, mu1=mu1, mu2=mu2, capacity=6, threshold=3,
                         c_hold=c_hold, c_lost1=2, c_lost2=1, c_buy=1, c_opp=1,
                         price=price, penalty=0.0)
        pol = Policy(tuple(bits))
        form = chain_record(p, pol)
        for pen in pens:
            direct = float(exact_profit(p.with_penalty(pen), bits))
            assert direct == pytest.approx(form.eta(pen), rel=1e-10, abs=1e-10)
            # No view of D, F, pi or the margins reads P, so one record answers
            # every penalty: the CLI's penalty sweep and affine check rest on it.
            at = chain_record(p.with_penalty(pen), pol)
            assert (at.d_coef.hex(), at.f_coef.hex()) == (form.d_coef.hex(), form.f_coef.hex())
            for name in ("pi", "num", "den", "roots"):
                np.testing.assert_array_equal(getattr(at, name), getattr(form, name), strict=True)
            assert at.eta(pen).hex() == form.eta(pen).hex()


def test_profit_split_is_the_policy_record(example1_params):
    p = example1_params
    bits = (1, 0) * 7 + (1,)
    record = chain_record(p, Policy(bits))
    exact = exact_chain(p, bits)
    assert type(record.d_coef) is float and type(record.f_coef) is float
    assert record.d_coef == pytest.approx(float(exact.d_coef), rel=1e-14)
    assert record.f_coef == pytest.approx(float(exact.f_coef), rel=1e-14)
    assert record.eta(p.penalty) == record.d_coef - p.penalty * record.f_coef


def test_strong_upward_drift_matches_log_weights():
    # lam/(mu1 + mu2) = 5 at N = 500: the raw weights 5**500 overflow float64,
    # and the ratio form still gives pi and eta to rounding.  The reference
    # sums log-ratios down from state N, where the mass is.
    from stockrationing import SystemParams

    p = SystemParams(lam=5.0, mu1=0.5, mu2=0.5, capacity=500, threshold=1,
                     c_lost1=2, c_lost2=1)
    pol = Policy((0,))
    log_w = -np.concatenate((np.cumsum(np.log(p.lam / service_rates(p, pol))[::-1])[::-1], [0.0]))
    ref = np.exp(log_w)
    ref /= math.fsum(ref)
    pi = chain_record(p, pol).pi
    assert np.max(np.abs(pi - ref)) <= 1e-15
    f = reward_structure(p, pol)
    eta = math.fsum(ref * f)
    assert average_profit(p, pol) == pytest.approx(eta, rel=1e-13, abs=1e-300)
    assert chain_record(p, pol).eta(p.penalty) == pytest.approx(eta, rel=1e-13, abs=1e-300)


def test_reward_identity_at_threshold_equal_capacity():
    # K = N: the top state is simultaneously rationed and full, so its reward
    # carries the opportunity cost and keeps the policy terms.
    from stockrationing import SystemParams

    p = SystemParams(lam=1.5, mu1=1.0, mu2=2.0, capacity=3, threshold=3,
                     c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=2, price=8,
                     penalty=3)
    f = reward_structure(p, Policy((1, 0, 1)))
    # state 3: R(mu1+mu2) - C1*3 - C4*lam - P*mu2
    assert f[3] == pytest.approx(8 * 3 - 3 - 2 * 1.5 - 3 * 2)
    dist = chain_record(p, Policy((1, 0, 1)))
    assert abs(dist.pi.sum() - 1.0) < 1e-12


def test_profit_nondecreasing_in_supply_rate_on_sampled_grid():
    # mu1=30, mu2=40 sweep: profit grows with the supply rate over the
    # sampled grid for each threshold and both extreme policies.
    import dataclasses

    from stockrationing import SystemParams

    base = SystemParams(lam=1.0, mu1=30, mu2=40, capacity=100, threshold=5,
                        c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1,
                        price=15, penalty=10)
    for k in (5, 6, 10):
        for pen, pol in ((10.0, Policy.all_zeros(k)), (0.1, Policy.all_ones(k))):
            p = dataclasses.replace(base, threshold=k, penalty=pen)
            etas = [
                average_profit(dataclasses.replace(p, lam=float(lam)), pol)
                for lam in range(2, 67, 4)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))


EPS = float(np.finfo(float).eps)


@given(
    log_beta=st.floats(math.log(1e-3), math.log(1e3)),
    log_n=st.floats(0.0, math.log(1e5)),
    k_frac=st.floats(0.0, 1.0),
    mu1_share=st.floats(0.1, 0.9),
    costs=st.lists(st.floats(0.0, 10.0), min_size=7, max_size=7),
    bits=st.lists(st.integers(0, 1), min_size=60, max_size=60),
)
@settings(max_examples=40, deadline=None)
def test_ratio_form_matches_log_weight_reference_over_drift_range(
        log_beta, log_n, k_frac, mu1_share, costs, bits):
    # lam/(mu1 + mu2) from 1e-3 to 1e3 and N up to 1e5: the raw weights
    # would span up to 1e5 * log(1e3) nats, far past float range.
    from stockrationing import SystemParams

    from oracles import log_weight_reference, reward_split

    n = max(1, int(math.exp(log_n)))
    k = 1 + int(k_frac * (min(n, 60) - 1))
    c_hold, c_lost1, c_lost2, c_buy, c_opp, price, penalty = costs
    p = SystemParams(lam=math.exp(log_beta), mu1=mu1_share, mu2=1.0 - mu1_share, capacity=n,
                     threshold=k, c_hold=c_hold, c_lost1=c_lost1, c_lost2=c_lost2, c_buy=c_buy,
                     c_opp=c_opp, price=price, penalty=penalty)
    pol = Policy(tuple(bits[:k]))
    record = chain_record(p, pol)
    for values in (record.pi, record.g, record.num, record.den,
                   [record.eta(p.penalty), record.d_coef, record.f_coef]):
        assert np.all(np.isfinite(values))
    rate = p.lam + p.mu1 + p.mu2
    assert record.residual <= max(1e-9, 16 * EPS * (1 + np.max(np.abs(record.g))) * rate)

    ref = log_weight_reference(p, pol.decisions)
    b, _ = reward_split(p, pol.decisions)
    assert abs(record.d_coef - ref.d_coef) <= 1e-12 * (1 + np.max(np.abs(b)))
    assert abs(record.f_coef - ref.f_coef) <= 1e-12 * p.mu2
    scale = 1 + np.max(np.abs(ref.num)) + penalty * np.max(np.abs(ref.den))
    margin = record.num - penalty * record.den
    assert np.max(np.abs(margin - (ref.num - penalty * ref.den))) <= 1e-10 * scale
    assert np.max(np.abs(record.pi - ref.pi)) <= 1e-12


@pytest.mark.parametrize("rates", [
    pytest.param(dict(lam=3.0, mu1=2.0, mu2=1.0, capacity=30, threshold=10), id="beta-one"),
    pytest.param(dict(lam=2.0, mu1=2.0, mu2=1.5, capacity=25, threshold=8), id="lam-equals-mu1"),
    pytest.param(dict(lam=2.5, mu1=1.5, mu2=2.0, capacity=12, threshold=12), id="k-equals-n"),
    pytest.param(dict(lam=0.06, mu1=4.0, mu2=2.0, capacity=40, threshold=15), id="beta-1e-2"),
    pytest.param(dict(lam=600.0, mu1=4.0, mu2=2.0, capacity=40, threshold=15), id="beta-1e2"),
])
def test_kernel_matches_exact_rational_oracle(rates):
    # pi, D, F and the flip margins against the model in exact rationals, at
    # the tolerances of the log-weight property above
    from stockrationing import SystemParams

    p = SystemParams(**rates, c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15,
                     penalty=5.0)
    bits = tuple(np.random.default_rng(p.capacity).integers(0, 2, p.threshold).tolist())
    pol = Policy(bits)
    exact = exact_chain(p, bits)
    record = chain_record(p, pol)
    b, _ = reward_split(p, bits)
    assert abs(record.d_coef - float(exact.d_coef)) <= 1e-12 * (1 + np.max(np.abs(b)))
    assert abs(record.f_coef - float(exact.f_coef)) <= 1e-12 * p.mu2
    num, den = np.array(exact.num, dtype=float), np.array(exact.den, dtype=float)
    scale = 1 + np.max(np.abs(num)) + p.penalty * np.max(np.abs(den))
    margin = record.num - p.penalty * record.den
    assert np.max(np.abs(margin - (num - p.penalty * den))) <= 1e-10 * scale
    assert np.max(np.abs(record.pi - np.array(exact.pi, dtype=float))) <= 1e-12


@pytest.mark.parametrize("mu2", [1e3, 1e6, 1e9])
def test_serving_ratio_exact_when_class2_rate_dominates(mu2):
    # lam = mu2 >> mu1 = 1: a serving ratio formed as (r_serve - r_hold) +
    # r_hold would lose about log10(mu2) digits to cancellation
    from stockrationing import SystemParams

    from oracles import exact_profit

    p = SystemParams(lam=mu2, mu1=1.0, mu2=mu2, capacity=6, threshold=6, c_hold=1,
                     c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5.0)
    pol = Policy.all_ones(6)
    exact = float(exact_profit(p, (1,) * 6))
    assert average_profit(p, pol) == pytest.approx(exact, rel=1e-13, abs=0)
    assert chain_record(p, pol).eta(p.penalty) == pytest.approx(exact, rel=1e-13, abs=0)


def test_steep_head_takes_log_ratios():
    # lam/mu1 = 1e5 over K = 60 states: a running product of the rate ratios
    # would pass e**690, so the weights on 0..K take two blocks (they took
    # log-ratios before blocks).
    from oracles import log_weight_reference

    p = SystemParams(lam=1e4, mu1=0.1, mu2=99.9, capacity=80, threshold=60, c_hold=1,
                     c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5)
    rows = np.random.default_rng(9).integers(0, 2, (6, 60))
    for row, eta in zip(rows, chain_record(p, rows).eta(p.penalty)):
        ref = log_weight_reference(p, row)
        assert eta == pytest.approx(ref.d_coef - p.penalty * ref.f_coef, rel=1e-12)
        profile = chain_record(p, Policy(tuple(row)))
        scale = 1 + np.max(np.abs(ref.num)) + p.penalty * np.max(np.abs(ref.den))
        got, want = profile.num - p.penalty * profile.den, ref.num - p.penalty * ref.den
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_head_beyond_float_range_gives_finite_answers():
    # K = N = 2000 at example-1 rates: the weights on 0..K fall by half
    # (all-ones) or by a quarter (all-zeros) per state, past float range,
    # over three or six blocks.  D, F and the margins match the 60-digit
    # reference relative to scale, and the Poisson residual lies within
    # rounding of the rewards and of g, whose differences it takes.
    p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=2000, threshold=2000, penalty=5.0,
                     **EX1_COSTS)
    for pol in (Policy.all_ones(2000), Policy.all_zeros(2000)):
        ref = decimal_chain(p, pol.decisions)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = chain_record(p, pol)
            roots, residual = record.roots, record.residual
        b, a = reward_split(p, pol.decisions)
        assert abs(record.d_coef - ref.d_coef) <= 1e-13 * np.max(np.abs(b))
        assert abs(record.f_coef - ref.f_coef) <= 1e-13 * p.mu2
        scale = 1 + np.max(np.abs(ref.num)) + p.penalty * np.max(np.abs(ref.den))
        got, want = record.num - p.penalty * record.den, ref.num - p.penalty * ref.den
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        lam_total = p.lam + p.mu1 + p.mu2
        assert residual <= 64 * np.finfo(float).eps * (
            np.max(np.abs(b - p.penalty * a)) + lam_total * np.max(np.abs(record.g)))


@pytest.mark.parametrize("lam, mu, n", [
    (3.0, 3.0, 3_162), (3.0, 3.0, 100_000), (5.7, 3.0, 3_162), (5.7, 3.0, 100_000),
    (6.3, 3.0, 3_162), (6.3, 3.0, 100_000), (12.0, 3.0, 2_000), (6.0, 3.0, 500),
    (6.0 * (1 + 2**-40), 3.0, 500), (1e-300, 1e300, 40)])
def test_powers_equal_the_masked_exp_bit_for_bit(lam, mu, n):
    # `powers` exponentiates only the entries above exp's underflow point,
    # t |log beta| < 746, and leaves the rest zero, as masking a whole ramp did.
    p = SystemParams(lam=lam, mu1=mu, mu2=mu, capacity=n, threshold=15, penalty=5.0,
                     **EX1_COSTS)
    z = -abs(chain._log_beta(p)) * np.arange(n - 15 + 1.0)
    want = np.exp(z, out=np.zeros(z.shape), where=z > -746.0)
    np.testing.assert_array_equal(chain_record(p, Policy.all_ones(15)).powers, want, strict=True)


def test_scalar_profit_allocates_no_length_n_array():
    # eta, the margins' signs and the optimum are read off the record's sums
    # and cuts over states 0..K, so at N = 1e6 each call allocates O(K)
    # memory: a length-N vector of floats would be 8 MB.  The optimum is
    # taken in all three penalty regions, with every Howard step's record.
    import tracemalloc

    from stockrationing import SystemParams

    p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=10**6, threshold=15, c_hold=1,
                     c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=5.0)
    wide = dataclasses.replace(p, threshold=40, c_lost1=1.2)
    mixed = Policy(tuple(int(i % 3 != 0) for i in range(40)))
    regions = {}
    calls = [lambda: average_profit(p, Policy.all_ones(15)),
             lambda: chain_record(wide, mixed).signs(wide.penalty)]
    for penalty in (0.1, 10.0, 40.0):    # LowPenalty, Middle, HighPenalty
        q = wide.with_penalty(penalty)
        calls.append(lambda q=q: regions.setdefault(global_optimal(q).region, q))
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
    assert set(regions) == {"LowPenalty", "Middle", "HighPenalty"}


def test_signs_at_zero_penalty_take_num_where_den_is_infinite():
    # The second Howard step of lam = 1, mu1 = 0.223, mu2 = 90, K = N = 818
    # at P = 1000 solves a policy with a deep valley of weights, whose margins
    # pass float range: den is infinite only where num is.  At P = 0 no P*den
    # is formed (0 * inf is NaN), so each label is num's sign, with no
    # RuntimeWarning, and an infinite num keeps its sign past the band.
    p = SystemParams(lam=1.0, mu1=0.223, mu2=90.0, capacity=818, threshold=818,
                     penalty=1000.0, **EX1_COSTS)
    with warnings.catch_warnings():    # at P = 1000, inf - inf labels a margin 0
        warnings.simplefilter("ignore", RuntimeWarning)
        assert global_optimal(p).region == "Middle"    # Howard starts from the all-zeros row
        gates = chain_record(p, np.arange(2.0)[:, None].repeat(818, axis=1))
        decisions, labels = gates.decisions[0], gates.signs(p.penalty)[0]
        for _ in range(2):
            decisions = np.where(labels, labels > 0, decisions)
            record = chain_record(p, Policy(tuple(decisions.tolist())))
            labels = record.signs(p.penalty)
    infinite = np.isinf(record.den)
    assert infinite.any() and np.isinf(record.num[infinite]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = record.signs(0.0)
    num = record.num
    want = np.where(np.abs(num) > chain.SIGN_ZERO_BAND * np.maximum(1.0, np.abs(num)),
                    np.sign(num), 0)
    want[np.isinf(num)] = np.sign(num[np.isinf(num)])
    np.testing.assert_array_equal(at_zero, want)


EX1_COSTS = dict(c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15)


def _solve_sequence(p, pol):
    """perfbench's solve op: its reader calls on one policy, which ROADMAP
    item 2 deletes, as plain arrays and floats."""
    form = profit_linear_form(p, pol)
    sol = solve_poisson(p, pol)
    profile = penalty_roots(p, pol)
    return (stationary_distribution(p, pol).pi, form.d_coef, form.f_coef, sol.g, sol.residual,
            profile.num, profile.den, profile.roots)


def _record_views(record):
    """The views that `stockrationing solve` reads off one policy's record."""
    return (record.pi, record.d_coef, record.f_coef, record.g, record.residual, record.num,
            record.den, record.roots)


def _counting_view(monkeypatch, name):
    calls = []
    view = getattr(chain.ChainRecord, name)

    def counted(record):
        calls.append(name)
        return view.func(record)

    counted_view = cached_property(counted)
    counted_view.__set_name__(chain.ChainRecord, name)
    monkeypatch.setattr(chain.ChainRecord, name, counted_view)
    return calls


def test_one_solve_sequence_builds_one_head_and_one_cut_pass(example1_params, monkeypatch):
    heads = counting(monkeypatch, "_head_weights")
    cut_passes = counting(monkeypatch, "_compensated_cumsum")
    pis, gs = _counting_view(monkeypatch, "pi"), _counting_view(monkeypatch, "g")
    pol = Policy.all_ones(15)
    _solve_sequence(example1_params, pol)
    # equal by value, not the same objects: still the kept record
    same = SystemParams(**vars(example1_params)), Policy(pol.decisions)
    penalty_roots(*same)
    solve_poisson(*same)
    assert (len(heads), len(cut_passes), len(pis), len(gs)) == (1, 1, 1, 1)


def test_equal_arguments_build_distinct_records_with_equal_views(example1_params, monkeypatch):
    # chain_record keeps no state: a second call with equal arguments builds
    # its own head and record, whose views equal the first's bit for bit.
    heads = counting(monkeypatch, "_head_weights")
    p, pol = example1_params, Policy((1, 0) * 7 + (1,))
    first = chain_record(p, pol)
    second = chain_record(SystemParams(**vars(p)), Policy(pol.decisions))    # equal, not the same
    assert len(heads) == 2 and first is not second
    for got, want in zip(_record_views(second), _record_views(first)):
        np.testing.assert_array_equal(got, want, strict=True)


def test_kept_record_arrays_are_read_only(example1_params):
    record = chain_record(example1_params, Policy.all_ones(15))
    unshifted = solve_poisson(example1_params, Policy.all_ones(15)).g
    for array in (record.decisions, record.head, record.weights, record.cut_factors,
                  record.rewards, record.powers, record.pi, record.g, unshifted,
                  record.g_diff, record.num, record.den, record.roots):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_record_views_are_kept_on_first_read_and_stay_read_only(example1_params, monkeypatch):
    # A view is computed on its first read and kept in the record's __dict__,
    # where every later read finds the same object; the frozen record still
    # refuses assignment to it.
    record = chain_record(example1_params, Policy.all_ones(15))
    views = [name for name, value in vars(chain.ChainRecord).items()
             if isinstance(value, chain._view)]
    assert {"tail", "pi", "g", "g_diff", "residual", "cut_factors", "roots"} <= set(views)
    assert not set(views) & set(vars(record))
    for name in views:
        first = getattr(record, name)
        assert vars(record)[name] is first and getattr(record, name) is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, first)
    # perfbench's span tracer wraps the public functions of each layer
    # module; the private descriptor and the views it holds are none of them.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    for layer in tracing.LAYERS:
        importlib.import_module(f"stockrationing.{layer}")
    traced = {fn for _, fn in tracing._public_functions()}
    assert chain.chain_record in traced and chain._view not in traced
    assert not traced & {getattr(chain.ChainRecord, name).func for name in views}


@pytest.mark.parametrize("lam, mu, state", [(1e-300, 1e300, 0), (1e300, 1e-300, -1)],
                         ids=["rates-ratio-underflows", "rates-ratio-overflows"])
def test_rate_quotients_beyond_float_range_give_finite_answers_or_typed_errors(lam, mu, state):
    # lam/(mu1 + mu2) is 1e-600 or 1e600, outside float64; its log is not.
    p = SystemParams(lam=lam, mu1=mu, mu2=mu, capacity=30, threshold=12, penalty=5.0,
                     **EX1_COSTS)
    pol = Policy.all_ones(12)
    calls = {
        "pi": lambda: chain_record(p, pol).pi,
        "average_profit": lambda: average_profit(p, pol),
        "d_coef and f_coef": lambda: [chain_record(p, pol).d_coef, chain_record(p, pol).f_coef],
        "g": lambda: chain_record(p, pol).g,
        "num": lambda: chain_record(p, pol).num,
        "global_optimal": lambda: global_optimal(p).eta,
        "brute_force_optimal": lambda: strict(brute_force_optimal, p)[1],
        "optimal_static_threshold": lambda: optimal_static_threshold(p)[1],
    }
    answered = set()
    for name, call in calls.items():
        try:
            value = call()
        except StockRationingError:
            continue
        answered.add(name)
        assert np.all(np.isfinite(value)), name
    # Blocks of one state each answer every layer that reads the cuts, and
    # the exact oracle agrees with policy iteration.
    assert {"g", "num", "global_optimal", "brute_force_optimal"} <= answered
    eta = global_optimal(p).eta
    assert abs(brute_force_optimal(p)[1] - eta) <= ORACLE_MATCH_TOL * max(1.0, abs(eta))
    # The chain sits at state 0 or N, so eta is that state's reward.
    f = reward_structure(p, pol)[state]
    assert average_profit(p, pol) == pytest.approx(f, rel=1e-12)


def strict(call, *args):
    """call(*args) with numpy's RuntimeWarnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return call(*args)


def test_large_rate_scale_gives_finite_answers_matching_exact_chain():
    # lam/mu1 = e**40 over K = 14 states, and rewards near 1e68: a running
    # product of the rate ratios reaches e**560, which times those rewards
    # passes float range, so the head's weights come from log-ratios.
    p = SystemParams(lam=1e50 * math.exp(40), mu1=1e50, mu2=1e50, capacity=20, threshold=14,
                     penalty=5.0, **EX1_COSTS)
    zeros = Policy.all_zeros(14)
    values = {
        "average_profit": strict(average_profit, p, zeros),
        "d_coef": strict(lambda: chain_record(p, zeros).d_coef),
        "roots": strict(lambda: chain_record(p, zeros).roots),
        "residual": strict(lambda: chain_record(p, zeros).residual),
        "global_optimal": strict(global_optimal, p).eta,
        "brute_force_optimal": strict(brute_force_optimal, p)[1],
    }
    for name, value in values.items():
        assert np.all(np.isfinite(value)), name
    rng = np.random.default_rng(14)
    for bits in [(0,) * 14] + [tuple(rng.integers(0, 2, 14).tolist()) for _ in range(31)]:
        exact, pol = exact_chain(p, bits), Policy(bits)
        record = chain_record(p, pol)
        d_exact = float(exact.d_coef)
        assert abs(record.d_coef - d_exact) <= 1e-15 * (1 + abs(d_exact))
        assert abs(record.f_coef - float(exact.f_coef)) <= 1e-15 * p.mu2
        num, den = np.array(exact.num, dtype=float), np.array(exact.den, dtype=float)
        scale = 1 + np.max(np.abs(num)) + p.penalty * np.max(np.abs(den))
        margin = record.num - p.penalty * record.den
        assert np.max(np.abs(margin - (num - p.penalty * den))) <= 1e-15 * scale


@pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 2), (1, 2, 3)])
def test_stack_of_the_wrong_shape_is_a_length_mismatch(example1_params, shape):
    # K = 3: a stack needs shape (m, 3), and a bare row must be a Policy.
    p = dataclasses.replace(example1_params, capacity=5, threshold=3)
    dims = ", ".join(map(str, shape))
    with pytest.raises(InvalidParameter,
                       match=rf"decisions of shape \({dims},?\) need shape \(m, K=3\)"):
        chain_record(p, np.zeros(shape, dtype=int))


@pytest.mark.parametrize("many_blocks", [False, True], ids=["one-block", "many-blocks"])
def test_stack_rows_equal_their_one_policy_records(many_blocks):
    # The stack's sums are batched dot products and its cut pass is the one
    # the single records take, so every row's cuts, margins, roots, signs and
    # profit match its own record's bit for bit, with one block of weights
    # on 0..K or several.  Several blocks need K log(lam/mu1) above 600
    # nats; at 11 nats a state, 55 states or more take two blocks.
    rng = np.random.default_rng(21 + many_blocks)
    for _ in range(20):
        k = int(rng.integers(55, 61)) if many_blocks else int(rng.integers(1, 61))
        n = int(rng.integers(k, 3 * k + 1))
        if many_blocks:
            mu1, mu2 = 1.0, math.exp(rng.uniform(8.0, 14.0))
            lam = math.exp(11.0)
        else:
            mu1, mu2 = (math.exp(x) for x in rng.uniform(-3.0, 3.0, 2))
            lam = (mu1 + mu2) * math.exp(rng.uniform(-3.0, 3.0))
        p = SystemParams(lam=lam, mu1=mu1, mu2=mu2, capacity=n, threshold=k,
                         penalty=float(rng.uniform(0.0, 30.0)), **EX1_COSTS)
        rows = rng.integers(0, 2, (int(rng.integers(2, 7)), k))
        assert (chain_record(p, rows).blocks.shape[-2] > 1) == many_blocks
        stack = chain_record(p, rows)
        etas = stack.eta(p.penalty)
        signs = stack.signs(p.penalty)
        for i, (row, cuts, eta) in enumerate(zip(rows, stack.cut_factors, etas)):
            record = chain_record(p, Policy(tuple(row.tolist())))
            np.testing.assert_array_equal(cuts, record.cut_factors, strict=True)
            for got, want in ((stack.num[i], record.num), (stack.den[i], record.den),
                              (stack.roots[i], record.roots), (signs[i], record.signs(p.penalty))):
                np.testing.assert_array_equal(got, want, strict=True)
            assert eta.hex() == average_profit(p, Policy(tuple(row.tolist()))).hex()


def test_stack_with_a_flushed_row_keeps_its_other_rows():
    # beta = 1/1002 over K = 200 states: the all-ones row's weights fall past
    # float range, the all-zeros row's, halving per state, do not.  With no
    # RuntimeWarning every row's cuts are finite and equal its own record's
    # bit for bit, and its margins match the 60-digit reference.
    p = SystemParams(lam=1.0, mu1=2.0, mu2=1000.0, capacity=400, threshold=200,
                     penalty=1.0, **EX1_COSTS)
    rows = np.array([[0] * 200, [1] * 200, [0] * 150 + [1] * 50])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = chain_record(p, rows)
        for i, row in enumerate(rows):
            record = chain_record(p, Policy(tuple(row.tolist())))
            assert np.all(np.isfinite(stack.cut_factors[i]))
            np.testing.assert_array_equal(stack.cut_factors[i], record.cut_factors)
            ref = decimal_chain(p, row)
            scale = 1 + np.max(np.abs(ref.num)) + p.penalty * np.max(np.abs(ref.den))
            got = record.num - p.penalty * record.den
            assert np.max(np.abs(got - (ref.num - p.penalty * ref.den))) <= 1e-13 * scale
