import itertools

import numpy as np
import pytest

from stockrationing import Policy, SystemParams, average_profit, classify_sign, penalty_roots
from stockrationing.chain import DEGENERATE_COEF_TOL

from conftest import random_params, random_policy
from oracles import class_property_check, difference_general, exact_chain, single_flip_difference


class TestDifferenceGeneral:
    def test_identical_policies(self, example1_params):
        pol = Policy.all_ones(15)
        assert difference_general(example1_params, pol, pol) == pytest.approx(0.0, abs=1e-12)

    def test_unit_instance_hand_value(self, unit_params):
        # eta(serve) - eta(reject) = 5.0 - 4.6 at zero penalty
        d = difference_general(unit_params, Policy((0,)), Policy((1,)))
        assert d == pytest.approx(0.4, abs=1e-12)

    def test_matches_direct_difference(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            p = random_params(rng, k_max=8, n_max=30)
            d = random_policy(rng, p.threshold)
            c = random_policy(rng, p.threshold)
            direct = average_profit(p, c) - average_profit(p, d)
            via_potential = difference_general(p, d, c)
            assert via_potential == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestDifferenceOnePosition:
    def test_unit_instance_formula(self, unit_params):
        for pen in (0.0, 1.4, 10.0):
            p = unit_params.with_penalty(pen)
            d = single_flip_difference(p, Policy((0,)), 1)
            assert d == pytest.approx((2 / 7) * (1.4 - pen), abs=1e-12)

    def test_agrees_with_general_difference(self, unit_params):
        d = single_flip_difference(unit_params, Policy((0,)), 1)
        g = difference_general(unit_params, Policy((0,)), Policy((1,)))
        assert d == pytest.approx(g, abs=1e-12)

    def test_exhaustive_single_flips_match_direct(self):
        # every single-flip pair at K <= 4, N <= 8, across penalties
        rng = np.random.default_rng(32)
        p0 = random_params(rng, k_max=4, n_max=8, k_min=3)
        for pen in (0.0, 1.0, 10.0):
            p = p0.with_penalty(pen)
            for bits in itertools.product((0, 1), repeat=p.threshold):
                d = Policy(bits)
                for i in range(1, p.threshold + 1):
                    lhs = single_flip_difference(p, d, i)
                    rhs = average_profit(p, d.flip(i)) - average_profit(p, d)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestPenaltyRoots:
    def test_unit_instance_root(self, unit_params):
        prof = penalty_roots(unit_params, Policy((0,)))
        assert prof.roots[0] == pytest.approx(1.4, abs=1e-12)
        assert prof.p_high == pytest.approx(1.4, abs=1e-12)
        assert prof.p_low == pytest.approx(1.4, abs=1e-12)

    def test_root_is_penalty_of_indifference(self):
        # at P equal to a root, flipping that position changes nothing
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 15:
            p = random_params(rng, k_max=8, n_max=20)
            pol = random_policy(rng, p.threshold)
            prof = penalty_roots(p, pol)
            for i in range(p.threshold):
                root = prof.roots[i]
                if not np.isfinite(root) or root < 0:
                    continue
                at_root = p.with_penalty(float(root))
                gap = average_profit(at_root, pol.flip(i + 1)) - average_profit(at_root, pol)
                assert gap == pytest.approx(0.0, abs=1e-8 * max(1.0, abs(root)))
                checked += 1
                break

    def test_root_reevaluation_is_zero(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            p = random_params(rng, k_max=10, n_max=20)
            pol = random_policy(rng, p.threshold)
            prof = penalty_roots(p, pol)
            for i in range(p.threshold):
                if np.isfinite(prof.roots[i]):
                    value = prof.num[i] - prof.roots[i] * prof.den[i]
                    assert abs(value) <= 1e-8 * max(1.0, abs(prof.roots[i]))

    def test_profile_extremes_and_sort(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            p = random_params(rng, k_min=2, k_max=10)
            pol = random_policy(rng, p.threshold)
            prof = penalty_roots(p, pol)
            assert prof.p_high >= 0
            assert prof.p_high >= np.max(prof.roots[np.isfinite(prof.roots)], initial=0)
            assert prof.p_low == np.min(prof.roots)
            assert sorted(prof.sort_perm) == list(range(1, p.threshold + 1))
            sorted_roots = prof.roots[[i - 1 for i in prof.sort_perm]]
            assert np.all(np.diff(sorted_roots) >= 0)

    def test_vanishing_coefficient_gives_an_infinite_root_with_num_sign(self):
        # mu2 = 1e13 nearly empties state 3 once it serves Class 2, so both
        # coefficients of the margin there are about 1e-13: den is 2.1e-13,
        # inside the degenerate band in exact rationals too, and num > 0.
        p = SystemParams(lam=2.0, mu1=1.0, mu2=1e13, capacity=5, threshold=3, c_hold=1,
                         c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=2.0)
        prof = penalty_roots(p, Policy((0, 0, 1)))
        exact = exact_chain(p, (0, 0, 1))
        assert 0 < exact.den[2] < DEGENERATE_COEF_TOL and exact.num[2] > 0
        assert abs(prof.den[2]) <= DEGENERATE_COEF_TOL < prof.den[:2].min()
        assert prof.num[2] > 0
        assert prof.roots[2] == np.inf and np.isfinite(prof.roots[:2]).all()
        assert prof.roots[:2] == pytest.approx(np.divide(prof.num[:2], prof.den[:2]), rel=1e-15)
        assert (prof.p_high, prof.sort_perm) == (np.inf, (1, 2, 3))
        assert prof.signs(p.penalty)[2] == 0

    def test_sort_ties_keep_position_order(self):
        # duplicate roots arise for repeated structure; the permutation must
        # be deterministic with ascending positions inside a tie block
        prof_roots = np.array([2.0, 1.0, 2.0, 1.0])
        order = np.argsort(prof_roots, kind="stable") + 1
        assert list(order) == [2, 4, 1, 3]


class TestClassifySign:
    def test_unit_instance_labels(self, unit_params):
        pol = Policy((0,))
        assert classify_sign(unit_params, pol, 10.0)[0] == -1
        assert classify_sign(unit_params, pol, 0.0)[0] == 1
        assert classify_sign(unit_params, pol, 1.4)[0] == 0

    def test_labels_match_flip_direction(self):
        # positive label at i means flipping i to serve cannot hurt
        rng = np.random.default_rng(36)
        for _ in range(10):
            p = random_params(rng, k_max=6, n_max=15)
            pol = random_policy(rng, p.threshold)
            labels = classify_sign(p, pol, p.penalty)
            for i in range(1, p.threshold + 1):
                flipped = pol.flip(i)
                gap = average_profit(p, flipped) - average_profit(p, pol)
                direction = flipped[i - 1] - pol[i - 1]
                margin = direction * gap  # sign of G(i)+b times positive factors
                if labels[i - 1] > 0:
                    assert margin > -1e-10
                elif labels[i - 1] < 0:
                    assert margin < 1e-10


class TestClassProperty:
    def test_equal_policies_vacuous(self, example1_params):
        pol = Policy.all_ones(15)
        report = class_property_check(example1_params, pol, pol, 10.0)
        assert report.ok and report.positions == ()

    def test_exhaustive_high_regime_small_instance(self):
        rng = np.random.default_rng(37)
        p0 = random_params(rng, k_min=4, k_max=4, n_max=8)
        policies = [Policy(b) for b in itertools.product((0, 1), repeat=4)]
        # a penalty above every policy's high critical value
        p_high_all = max(penalty_roots(p0, pol).p_high for pol in policies)
        pen = p_high_all + 1.0
        for d in policies:
            for c in policies:
                report = class_property_check(p0, d, c, pen)
                assert report.regime == "high"
                assert report.ok, (d, c, report)

    def test_low_regime_when_reachable(self):
        rng = np.random.default_rng(38)
        found = 0
        while found < 3:
            p0 = random_params(rng, k_min=2, k_max=5, n_max=10)
            policies = [Policy(b) for b in itertools.product((0, 1), repeat=p0.threshold)]
            p_low_all = min(penalty_roots(p0, pol).p_low for pol in policies)
            if p_low_all <= 0:
                continue
            found += 1
            pen = 0.5 * p_low_all
            for d in policies[:4]:
                for c in policies:
                    report = class_property_check(p0, d, c, pen)
                    assert report.regime == "low"
                    assert report.ok

    def test_ratio_identity_along_random_chains(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            p = random_params(rng, k_min=3, k_max=8, n_max=16)
            d = random_policy(rng, p.threshold)
            c = random_policy(rng, p.threshold)
            report = class_property_check(p, d, c, p.penalty)
            assert report.ratio_max_residual <= 1e-9
