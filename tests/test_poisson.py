import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrationing import (
    InvalidParameter,
    Policy,
    SystemParams,
    average_profit,
    reward_structure,
    service_rates,
)
from stockrationing.chain import SERIES_BAND, _compensated_cumsum, chain_record
from stockrationing.poisson import realization_factors_from_potential, solve_poisson

from conftest import dense_potential, random_params, random_policy
from oracles import (
    InconsistentTermination,
    exact_chain,
    factor_residual,
    realization_factor_closed_form,
    realization_factors_recurrence,
    reference_segment_g,
    single_flip_difference,
    solve_poisson_normalized,
)


def stable_random_params(rng, **kw):
    """Instances where the forward recurrence is a contraction (lam >= mu1+mu2)."""
    while True:
        p = random_params(rng, **kw)
        if p.lam >= p.mu1 + p.mu2:
            return p


class TestSolvePoisson:
    @given(
        im=st.floats(-20, 20, allow_nan=False),
        xi=st.floats(-20, 20, allow_nan=False),
        bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_free_constants_never_move_realization_factors(self, im, xi, bits):
        p = SystemParams(lam=2.0, mu1=1.5, mu2=1.0, capacity=8, threshold=4,
                         c_hold=1, c_lost1=3, c_lost2=1, c_buy=2, c_opp=1,
                         price=5, penalty=2)
        pol = Policy(tuple(bits))
        base = solve_poisson(p, pol)
        moved = solve_poisson(p, pol, shift=im + xi)
        np.testing.assert_array_equal(moved.g_diff, base.g_diff, strict=True)
        assert moved.residual == base.residual

    def test_huge_shift_moves_neither_factors_nor_residual(self):
        # g + 1e20 rounds every entry to a multiple of 2**14, so differences
        # or a residual taken from the shifted g read 0 and ~66 here
        p = SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=6, threshold=3,
                         c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1,
                         price=15, penalty=5.0)
        pol = Policy.all_ones(3)
        base = solve_poisson(p, pol)
        moved = solve_poisson(p, pol, shift=1e20)
        np.testing.assert_array_equal(moved.g_diff, base.g_diff, strict=True)
        assert moved.residual == base.residual
        assert base.g_diff[0] == pytest.approx(-16.105, abs=1e-3)
        np.testing.assert_array_equal(moved.g, base.g + 1e20)

    @pytest.mark.parametrize("shift", [math.inf, -math.inf, math.nan])
    def test_non_finite_shift_is_invalid_parameter(self, unit_params, shift):
        with pytest.raises(InvalidParameter, match="shift"):
            solve_poisson(unit_params, Policy((0,)), shift=shift)

    def test_g_diff_matches_exact_rationals_on_every_state(self):
        # G(i) = G_B(i) - P*G_A(i) on states 1..N from the cut-flow identity in
        # exact rationals.  The draws include expanding-drift instances,
        # ((mu1 + mu2)/lam)**N > 1e3, where the recurrence lanes below cannot
        # serve as a reference.
        rng = np.random.default_rng(22)
        regimes = []
        for _ in range(60):
            p = random_params(rng, k_max=12, n_max=40)
            pol = random_policy(rng, p.threshold)
            exact = exact_chain(p, pol.decisions)
            g_b, g_a = np.array(exact.g_b, dtype=float), np.array(exact.g_a, dtype=float)
            scale = 1 + np.max(np.abs(g_b)) + p.penalty * np.max(np.abs(g_a))
            err = np.max(np.abs(chain_record(p, pol).g_diff - (g_b - p.penalty * g_a)))
            assert err <= 1e-12 * scale
            regimes.append((p.lam > p.mu1 + p.mu2, ((p.mu1 + p.mu2) / p.lam) ** p.capacity > 1e3))
        assert {up for up, _ in regimes} == {False, True}
        assert sum(amp for _, amp in regimes) >= 10

    def test_special_solution_starts_at_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_params(rng)
            sol = chain_record(p, random_policy(rng, p.threshold))
            assert sol.g[0] == 0.0

    def test_unit_instance_differences(self, unit_params):
        sol = chain_record(unit_params, Policy((0,)))
        assert sol.g[0] - sol.g[1] == pytest.approx(-14.6, abs=1e-12)
        assert sol.g[1] - sol.g[2] == pytest.approx(-11.2, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            p = random_params(rng, k_max=8, n_max=30)
            pol = random_policy(rng, p.threshold)
            sol = chain_record(p, pol)
            oracle = dense_potential(p, pol)
            scale = max(1.0, np.max(np.abs(oracle)))
            np.testing.assert_allclose(sol.g, oracle, atol=1e-8 * scale)

    def test_uniform_shift_constant(self):
        rng = np.random.default_rng(13)
        p = random_params(rng)
        pol = random_policy(rng, p.threshold)
        base = solve_poisson(p, pol)
        shifted = solve_poisson(p, pol, shift=2.5)
        np.testing.assert_allclose(shifted.g - base.g, 2.5, atol=1e-12)

    def test_g0_direction_is_uniform(self):
        # the g(0)-direction vector of the general solution is the ones vector
        rng = np.random.default_rng(14)
        p = random_params(rng)
        pol = random_policy(rng, p.threshold)
        base = solve_poisson(p, pol)
        moved = solve_poisson(p, pol, shift=-3.0)
        np.testing.assert_allclose(moved.g - base.g, -3.0, atol=1e-12)

    def test_residual_small_at_n200(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            p = random_params(rng, k_max=200, n_max=200)
            pol = random_policy(rng, p.threshold)
            sol = chain_record(p, pol)
            g_scale = np.max(np.abs(sol.g[:-1] - sol.g[1:])) + 1.0
            rate = p.lam + p.mu1 + p.mu2
            assert sol.residual <= max(1e-9, 50 * np.finfo(float).eps * g_scale * rate)


class TestSolvePoissonNormalized:
    def test_stationary_mean_equals_eta(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            p = random_params(rng, k_max=8, n_max=30)
            pol = random_policy(rng, p.threshold)
            sol = solve_poisson_normalized(p, pol)
            pi = chain_record(p, pol).pi
            assert float(pi @ sol.g) == pytest.approx(sol.eta, abs=1e-9 * max(1, abs(sol.eta)))

    def test_same_realization_factors_as_special_route(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = random_params(rng, k_max=8, n_max=30)
            pol = random_policy(rng, p.threshold)
            g1 = chain_record(p, pol).g_diff
            g2 = solve_poisson_normalized(p, pol).g_diff
            scale = max(1.0, np.max(np.abs(g1)))
            np.testing.assert_allclose(g1, g2, atol=1e-9 * scale)

    def test_differs_from_special_by_constant_shift(self):
        rng = np.random.default_rng(18)
        p = random_params(rng, k_max=6, n_max=20)
        pol = random_policy(rng, p.threshold)
        diff = solve_poisson_normalized(p, pol).g - chain_record(p, pol).g
        assert np.max(diff) - np.min(diff) < 1e-9 * max(1.0, np.max(np.abs(diff)))


class TestRealizationFactors:
    def test_from_potential_shape_and_shift_invariance(self, unit_params):
        sol0 = solve_poisson(unit_params, Policy((0,)))
        sol1 = solve_poisson(unit_params, Policy((0,)), shift=4.0 - 2.0)
        assert realization_factors_from_potential(sol0) is sol0
        assert len(sol0.g_diff) == unit_params.capacity
        np.testing.assert_allclose(sol0.g_diff, sol1.g_diff, atol=1e-12)

    def test_unit_instance_values(self, unit_params):
        fac = chain_record(unit_params, Policy((0,)))
        np.testing.assert_allclose(fac.g_diff, [-14.6, -11.2], atol=1e-12)

    def test_recurrence_hand_values(self, unit_params):
        fac = realization_factors_recurrence(unit_params, Policy((0,)))
        np.testing.assert_allclose(fac.g_diff, [-14.6, -11.2], atol=1e-12)

    def test_recurrence_rejects_wrong_eta(self, unit_params):
        with pytest.raises(InconsistentTermination):
            realization_factors_recurrence(unit_params, Policy((0,)), eta=7.0)

    def test_terminal_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = stable_random_params(rng, k_max=6, n_max=15)
            pol = random_policy(rng, p.threshold)
            fac = realization_factors_recurrence(p, pol)
            eta = average_profit(p, pol)
            from stockrationing import reward_structure, service_rates

            f = reward_structure(p, pol)
            v = service_rates(p, pol)
            assert v[-1] * fac.g_diff[-1] == pytest.approx(
                eta - f[-1], abs=1e-8 * max(1, abs(eta))
            )

    def test_closed_form_first_state(self, unit_params):
        eta = average_profit(unit_params, Policy((0,)))
        g1 = realization_factor_closed_form(unit_params, Policy((0,)), eta, 1)
        assert g1 == pytest.approx((-10.0 - eta) / 1.0, abs=1e-12)

    def test_triple_agreement_contraction_lane(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = stable_random_params(rng, k_max=12, n_max=50)
            pol = random_policy(rng, p.threshold)
            eta = average_profit(p, pol)
            g1 = chain_record(p, pol).g_diff
            g2 = realization_factors_recurrence(p, pol, eta).g_diff
            g3 = np.array([
                realization_factor_closed_form(p, pol, eta, i)
                for i in range(1, p.capacity + 1)
            ])
            np.testing.assert_allclose(g1, g2, atol=1e-9)
            np.testing.assert_allclose(g2, g3, atol=1e-9)
            np.testing.assert_allclose(g1, g3, atol=1e-9)

    def test_triple_agreement_bounded_amplification_lane(self):
        # expanding drift allowed but with the error amplification
        # (max rate ratio)^N kept under the tolerance budget
        rng = np.random.default_rng(21)
        done = 0
        while done < 20:
            p = random_params(rng, k_max=8, n_max=30)
            amp = ((p.mu1 + p.mu2) / p.lam) ** p.capacity
            if amp > 1e3:
                continue
            done += 1
            pol = random_policy(rng, p.threshold)
            eta = average_profit(p, pol)
            g1 = chain_record(p, pol).g_diff
            g2 = realization_factors_recurrence(p, pol, eta).g_diff
            g3 = np.array([
                realization_factor_closed_form(p, pol, eta, i)
                for i in range(1, p.capacity + 1)
            ])
            np.testing.assert_allclose(g1, g2, atol=1e-9)
            np.testing.assert_allclose(g2, g3, atol=1e-9)


def exact_prefix_sums(values):
    """math.fsum of every prefix: every finite double is an integer multiple
    of 2**-1074, so the prefix sums are exact as Python integers, and integer
    true division rounds them correctly, as fsum does."""
    one = 2 ** 1074
    ints = (num * (one // den) for num, den in map(float.as_integer_ratio, values))
    return np.array([total / one for total in itertools.accumulate(ints)])


def test_compensated_prefix_sum_within_two_ulps_of_absolute_sum():
    # 1e5 terms over 26 decades: the running sum climbs through 5e4
    # positive terms, then the same terms in another order cancel it to
    # zero.  A plain running sum ends up over 100 ulps off here.
    rng = np.random.default_rng(42)
    half = np.exp(rng.uniform(-30, 30, 50_000))
    a = np.concatenate((half, -rng.permutation(half)))
    exact = exact_prefix_sums(a.tolist())
    for j in (1, 777, 50_000, len(a)):
        assert exact[j - 1] == math.fsum(a[:j].tolist())
    err = np.abs(_compensated_cumsum(a) - exact)
    assert np.all(err <= 2 * np.spacing(np.cumsum(np.abs(a))))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0], ids=["down-drift", "balanced", "up-drift"])
@pytest.mark.parametrize("extra", [0, 1, 40, 3_000], ids=["N=K", "N=K+1", "N=K+40", "N=K+3000"])
def test_residual_view_equals_the_rebuilt_o_n_route_bit_for_bit(beta, extra):
    # The record's residual reads f on 0..K from its rewards, f above K from
    # the segment's affine reward and v from its decisions; the oracle
    # rebuilds f and v on 0..N from reward_structure and service_rates.
    # Both take the same float operations, so the same bits, and a shift of
    # 1e20, which rounds g's entries to multiples of 2**14, moves neither.
    rng = np.random.default_rng(round(100 * beta) + extra)
    for _ in range(4):
        k = int(rng.integers(1, 16))
        mu1, mu2 = rng.uniform(0.5, 5.0, 2)
        c = rng.uniform(0.0, 10.0, 7)
        p = SystemParams(lam=beta * (mu1 + mu2), mu1=mu1, mu2=mu2, capacity=k + extra,
                         threshold=k, c_hold=c[0], c_lost1=c[1], c_lost2=c[2], c_buy=c[3],
                         c_opp=c[4], price=c[5], penalty=c[6])
        pol = random_policy(rng, k)
        record = chain_record(p, pol)
        want = factor_residual(p, pol, record.g_diff, reward_structure(p, pol),
                               record.eta(p.penalty))
        assert record.residual == want
        moved = solve_poisson(p, pol, shift=1e20)
        assert moved.residual == want
        np.testing.assert_array_equal(moved.g_diff, record.g_diff, strict=True)


EPS = float(np.finfo(float).eps)
SEGMENT_N_MAX = 20_000


@given(
    side=st.sampled_from(["balanced", "in-band", "outside"]),
    sign=st.sampled_from([-1, 1]),
    k=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    bits=st.lists(st.integers(0, 1), min_size=40, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_segment_matches_per_entry_route_and_exact_rationals(side, sign, k, seed, bits):
    # beta = 1 exactly, or e**(sign u) with u log-uniform on [1e-9, 5].  The
    # entries with c |log beta| < SERIES_BAND, c the count the cut-flow
    # identity sums, take the series; so N - K is drawn log-uniform at or
    # below b = ceil(SERIES_BAND / u), where all of them do, or above it,
    # u then being large enough that b < N - K <= 2e4 - K can hold.
    rng = np.random.default_rng(seed)
    m_max = SEGMENT_N_MAX - k
    mu1, mu2 = rng.uniform(0.5, 5.0, 2)
    lam, lo, hi = mu1 + mu2, 2, m_max
    if side != "balanced":
        u_min = 1e-9 if side == "in-band" else SERIES_BAND / (m_max - 2)
        lam *= math.exp(sign * math.exp(rng.uniform(math.log(u_min), math.log(5.0))))
        band = math.ceil(SERIES_BAND / abs(math.log(lam / (mu1 + mu2))))
        lo, hi = (lo, min(max(band, lo), hi)) if side == "in-band" else (band + 1, hi)
    m = min(hi, round(math.exp(rng.uniform(math.log(lo), math.log(hi + 0.5)))))
    c = rng.uniform(0.0, 10.0, 7)
    p = SystemParams(lam=float(lam), mu1=float(mu1), mu2=float(mu2), capacity=k + m, threshold=k,
                     c_hold=c[0], c_lost1=c[1], c_lost2=c[2], c_buy=c[3], c_opp=c[4],
                     price=c[5], penalty=c[6])
    pol = Policy(tuple(bits[:k]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = chain_record(p, pol)
        g, pi, _ = record.g, record.pi, record.residual
        want = reference_segment_g(p, pol)
    # The head, bit for bit: pi on 0..K is the head weights on the chain's
    # scale, and g on 0..K+1 is the running sum of the negated cut factors.
    cut_b, cut_a = record.cut_factors
    head_g = np.concatenate(([0.0], np.cumsum(-(cut_b - p.penalty * cut_a))))
    np.testing.assert_array_equal(g[: k + 2], head_g, strict=True)
    np.testing.assert_array_equal(pi[: k + 1], record.weights * (record.scales[0] / record.parts[0]))
    # Above K+1 against the per-entry route.  g's running sum rounds g(i) at
    # eps |g(i)| <= eps N max|G|, so G read back off g carries up to about
    # 4.4e-12 max|G| at N = 2e4; the two routes differ by ~1e-13 before it.
    got = record.g_diff
    scale = float(np.max(np.abs(got)))
    assert np.max(np.abs(got[k + 1 :] - want)) <= 1e-11 * scale
    if p.capacity <= 40:
        exact = exact_chain(p, pol.decisions)
        g_b, g_a = np.array(exact.g_b, dtype=float), np.array(exact.g_a, dtype=float)
        scale = 1 + np.max(np.abs(g_b)) + p.penalty * np.max(np.abs(g_a))
        assert np.max(np.abs(got - (g_b - p.penalty * g_a))) <= 1e-12 * scale


DRIFTS = (0.95, 1.0, 1.05)
CAPACITIES = (1_000, 10_000, 100_000)
def large_grid():
    return [pytest.param(beta, n, id=f"drift{beta}-N{n}") for beta in DRIFTS for n in CAPACITIES]


def example1_at(beta, n):
    """Example-1 rates and costs with lam / (mu1 + mu2) = beta, K = 15, P = 5,
    and the example-1 optimum at P = 5 as the policy."""
    p = SystemParams(lam=6.0 * beta, mu1=4.0, mu2=2.0, capacity=n, threshold=15,
                     c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15,
                     penalty=5.0)
    return p, Policy((0,) * 10 + (1,) * 5)


class TestLargeCapacity:
    @pytest.mark.parametrize("beta, n", large_grid())
    def test_residual_within_criterion_05_floor(self, beta, n):
        p, pol = example1_at(beta, n)
        sol = chain_record(p, pol)
        g_scale = float(np.max(np.abs(sol.g)))
        rate = p.lam + p.mu1 + p.mu2
        assert sol.residual <= 16 * EPS * (1 + g_scale) * rate

    @pytest.mark.parametrize("beta, n", large_grid())
    def test_stationary_law_matches_log_weights(self, beta, n):
        p, pol = example1_at(beta, n)
        log_w = np.concatenate(([0.0], np.cumsum(np.log(p.lam / service_rates(p, pol)))))
        ref = np.exp(log_w - log_w.max())
        ref /= ref.sum()
        pi = chain_record(p, pol).pi
        assert np.max(np.abs(pi - ref)) <= 1e-12

    @pytest.mark.parametrize("beta, n", large_grid())
    def test_single_flip_difference_matches_two_solves(self, beta, n):
        # relative to the profit scale: under upward drift the low states
        # carry almost no mass and both sides are rounding noise of eta
        p, pol = example1_at(beta, n)
        eta = average_profit(p, pol)
        for i in (1, 8, 15):
            got = single_flip_difference(p, pol, i)
            want = average_profit(p, pol.flip(i)) - eta
            assert abs(got - want) <= 1e-9 * max(1.0, abs(eta))

    def test_down_drift_all_ones_potential(self):
        # Example-1 rates at N = 2000 with the all-ones policy: the raw weights
        # underflowed past state 1075, and the potential had 925 NaN entries.
        p, _ = example1_at(0.5, 2000)
        sol = chain_record(p, Policy.all_ones(15))
        assert np.all(np.isfinite(sol.g))
        rate = p.lam + p.mu1 + p.mu2
        assert sol.residual <= 16 * EPS * (1 + float(np.max(np.abs(sol.g)))) * rate
