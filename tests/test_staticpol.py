import itertools
import math

import numpy as np
import pytest

from stockrationing import (
    Policy,
    StockRationingError,
    SystemParams,
    ThetaOutOfRange,
    average_profit,
    average_profits,
    chain_record,
    optimal_static_threshold,
    reward_structure,
    static_profit_closed_form,
)

from conftest import random_params
from oracles import threshold_margins


def threshold_policy(params, theta):
    """Withhold below theta, serve from theta to K."""
    return Policy(tuple(int(i >= theta) for i in range(1, params.threshold + 1)))


class TestGeomSums:
    """Above K the weights are geometric in x = lam/(mu1 + mu2).

    The tail holds the b - a + 1 states after K = max(a, 1) (none when
    b < a, which makes K = N).  Every policy of that K is one row of a
    single evaluator call, checked against the weights summed term by term,
    also at ratios on and within 1e-6 of one, where closed-form geometric
    sums cancel.
    """

    @pytest.mark.parametrize("x", [0.3, 0.9999993, 1.0, 1.0000004, 2.5])
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 15), (3, 40), (5, 4)])
    def test_against_direct_summation(self, x, a, b):
        k = max(a, 1)
        p = SystemParams(lam=2.0 * x, mu1=1.5, mu2=0.5, capacity=k + max(b - a + 1, 0),
                         threshold=k, c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1,
                         price=15, penalty=3)
        policies = [Policy(bits) for bits in itertools.product((0, 1), repeat=k)]
        got = average_profits(p, np.array([pol.decisions for pol in policies]))
        for pol, eta in zip(policies, got):
            f = reward_structure(p, pol)
            xi = [1.0]
            for d in pol.decisions:
                xi.append(xi[-1] * p.lam / (p.mu1 + p.mu2 * d))
            xi += [xi[-1] * x**j for j in range(1, p.capacity - k + 1)]
            want = math.fsum(w * r for w, r in zip(xi, f)) / math.fsum(xi)
            assert eta == pytest.approx(want, rel=1e-12, abs=1e-14)
            # a stack's row is scored as its own one-policy record scores it
            assert eta == pytest.approx(chain_record(p, pol).eta(p.penalty), rel=1e-13)


class TestBuildStatic:
    def test_theta_one_is_all_ones(self, example1_params):
        assert static_profit_closed_form(example1_params, 1) == pytest.approx(
            average_profit(example1_params, Policy.all_ones(15)), rel=1e-12)

    def test_theta_k_plus_one_is_all_zeros(self, example1_params):
        assert static_profit_closed_form(example1_params, 16) == pytest.approx(
            average_profit(example1_params, Policy.all_zeros(15)), rel=1e-12)

    def test_theta_k(self, example1_params):
        assert static_profit_closed_form(example1_params, 15) == pytest.approx(
            average_profit(example1_params, Policy((0,) * 14 + (1,))), rel=1e-12)

    @pytest.mark.parametrize("theta", [0, 17])
    def test_out_of_range(self, example1_params, theta):
        with pytest.raises(ThetaOutOfRange):
            static_profit_closed_form(example1_params, theta)


class TestClosedFormProfit:
    def test_matches_generic_route(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            p = random_params(rng, k_max=10, n_max=40)
            theta = int(rng.integers(1, p.threshold + 2))
            closed = static_profit_closed_form(p, theta)
            generic = average_profit(p, threshold_policy(p, theta))
            assert closed == pytest.approx(generic, rel=1e-9)

    def test_degenerate_ratio_falls_back(self, unit_params):
        # alpha = lam/mu1 = 1 exactly: closed form undefined, fallback value exact
        eta = static_profit_closed_form(unit_params, 2)  # theta=K+1: reject always
        assert eta == pytest.approx(4.6, abs=1e-12)

    def test_near_degenerate_ratio_stays_accurate(self):
        p = SystemParams(lam=2.0, mu1=2.0 * (1 + 3e-8), mu2=1.0, capacity=30,
                         threshold=10, c_hold=1, c_lost1=3, c_lost2=1, c_buy=2,
                         c_opp=1, price=6, penalty=2)
        for theta in (1, 4, 11):
            closed = static_profit_closed_form(p, theta)
            generic = average_profit(p, threshold_policy(p, theta))
            assert closed == pytest.approx(generic, rel=1e-9)

    def test_k_equals_n(self):
        p = SystemParams(lam=1.5, mu1=1.0, mu2=2.0, capacity=4, threshold=4,
                         c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=2, price=8,
                         penalty=3)
        for theta in range(1, 6):
            closed = static_profit_closed_form(p, theta)
            generic = average_profit(p, threshold_policy(p, theta))
            assert closed == pytest.approx(generic, rel=1e-9)


class TestOptimalStaticThreshold:
    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_params(rng, k_max=10, n_max=30)
            theta, eta = optimal_static_threshold(p)
            sweep = [
                (static_profit_closed_form(p, t), t)
                for t in range(1, p.threshold + 2)
            ]
            best_eta = max(s[0] for s in sweep)
            assert eta == pytest.approx(best_eta, rel=1e-12)
            first_best = min(t for e, t in sweep if e >= best_eta - 1e-12 * max(1, abs(best_eta)))
            assert theta == first_best

    def test_restricted_range(self, example1_params):
        theta, eta = optimal_static_threshold(example1_params, thetas=range(3, 6))
        assert theta in (3, 4, 5)

    def test_empty_range_is_an_error(self, example1_params):
        with pytest.raises(StockRationingError, match="empty theta range"):
            optimal_static_threshold(example1_params, thetas=range(4, 4))

    def test_near_tie_goes_to_the_smaller_theta(self, monkeypatch):
        # theta = 2 lies within the tie band of the best, theta = 3, though
        # not within the band of theta = 1; a scan that moves its incumbent
        # only past the band would stop at theta = 3
        from stockrationing import staticpol

        monkeypatch.setattr(staticpol, "average_profits",
                            lambda params, rows: np.array([0.0, 0.6e-12, 1.2e-12]))
        p = SystemParams(lam=1, mu1=1, mu2=1, capacity=3, threshold=2)
        assert optimal_static_threshold(p) == (2, 0.6e-12)

    def test_static_never_beats_dynamic_optimum(self):
        from stockrationing import brute_force_optimal

        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_params(rng, k_max=8, n_max=16)
            _, eta_static = optimal_static_threshold(p)
            _, eta_best = brute_force_optimal(p)
            assert eta_static <= eta_best + 1e-9 * max(1, abs(eta_best))


class TestThresholdOptimality:
    def test_sign_conditions_at_interior_optimum(self):
        rng = np.random.default_rng(43)
        interior = 0
        while interior < 8:
            p = random_params(rng, k_min=3, k_max=10, n_max=25)
            theta, _ = optimal_static_threshold(p)
            margins = threshold_margins(p, theta)
            assert max(margins.values()) <= 1e-9, margins
            if len(margins) == 4:
                interior += 1

    def test_local_optimality_iff_conditions(self):
        # the four margins encode exactly the two neighbor comparisons
        rng = np.random.default_rng(46)
        for _ in range(10):
            p = random_params(rng, k_min=3, k_max=8, n_max=16)
            etas = {t: static_profit_closed_form(p, t) for t in range(1, p.threshold + 2)}
            for theta in range(2, p.threshold + 1):
                ok = max(threshold_margins(p, theta).values()) <= 1e-9
                local_max = (
                    etas[theta] >= etas[theta - 1] - 1e-10
                    and etas[theta] >= etas[theta + 1] - 1e-10
                )
                assert ok == local_max or abs(etas[theta] - etas[theta - 1]) < 1e-9 \
                    or abs(etas[theta] - etas[theta + 1]) < 1e-9
