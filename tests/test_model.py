import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrationing import (
    BadThreshold,
    CapExceeded,
    InvalidOrder,
    InvalidParameter,
    LengthMismatch,
    NonPositiveRate,
    Policy,
    PriorityViolation,
    SystemParams,
    adjacent_chain,
    difference_set,
    enumerate_policies,
    reward_structure,
    validate_params,
)


class TestValidation:
    def test_example1_accepted(self, example1_params):
        assert validate_params(example1_params) is example1_params

    def test_zero_arrival_rate_rejected(self, example1_params):
        bad = dataclasses.replace(example1_params, lam=0.0)
        with pytest.raises(NonPositiveRate):
            validate_params(bad)

    @pytest.mark.parametrize("field", ["mu1", "mu2"])
    def test_nonpositive_service_rate_rejected(self, example1_params, field):
        bad = dataclasses.replace(example1_params, **{field: -1.0})
        with pytest.raises(NonPositiveRate):
            validate_params(bad)

    def test_threshold_equal_capacity_accepted(self):
        p = SystemParams(lam=1, mu1=1, mu2=1, capacity=2, threshold=2,
                         c_lost1=2, c_lost2=1)
        assert validate_params(p).threshold == 2

    @pytest.mark.parametrize("k", [0, 3])
    def test_threshold_out_of_range_rejected(self, k):
        with pytest.raises(BadThreshold):
            validate_params(SystemParams(lam=1, mu1=1, mu2=1, capacity=2, threshold=k))

    def test_priority_violation_is_warning_only(self):
        p = SystemParams(lam=1, mu1=1, mu2=1, capacity=2, threshold=1,
                         c_lost1=1, c_lost2=2)
        with pytest.warns(PriorityViolation):
            assert validate_params(p) is p

    def test_json_round_trip(self, example1_params):
        data = json.loads(json.dumps(example1_params.to_json_dict()))
        assert SystemParams.from_json_dict(data) == example1_params

    @pytest.mark.parametrize(
        "key, value",
        [
            ("penalty_p", float("nan")),
            ("c_hold", float("nan")),
            ("price_r", float("inf")),
            ("lambda", float("inf")),
            ("capacity_n", 3.7),
            ("lambda", "3"),
        ],
    )
    def test_non_finite_non_numeric_or_fractional_rejected(self, example1_params, key, value):
        data = dict(example1_params.to_json_dict(), **{key: value})
        with pytest.raises(InvalidParameter):
            SystemParams.from_json_dict(data)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_with_penalty_rejects_non_finite_or_negative(self, example1_params, penalty):
        with pytest.raises(InvalidParameter):
            example1_params.with_penalty(penalty)


class TestRewardStructure:
    def test_empty_state_profit_rate(self, example1_params):
        r = reward_structure(example1_params, Policy.all_zeros(15))
        assert r.f_values[0] == -33.0

    def test_serving_state_profit_rate(self, example1_params):
        r = reward_structure(example1_params, Policy.all_ones(15))
        assert r.f_values[1] == 54.0

    def test_full_state_profit_rate(self, example1_params):
        r = reward_structure(example1_params, Policy.all_zeros(15))
        assert r.f_values[100] == -13.0

    def test_penalty_enters_only_through_linear_term(self, example1_params):
        pol = Policy(tuple([1, 0] * 7 + [1]))
        for pen in (0.0, 3.7, 151.0):
            r = reward_structure(example1_params.with_penalty(pen), pol)
            np.testing.assert_array_equal(
                r.f_values, r.b_coeffs - pen * r.a_coeffs
            )

    def test_all_zeros_policy_has_no_penalty_dependence(self, example1_params):
        r = reward_structure(example1_params, Policy.all_zeros(15))
        assert np.all(r.a_coeffs == 0)

    def test_penalty_coefficient_zero_outside_rationed_range(self, example1_params):
        r = reward_structure(example1_params, Policy.all_ones(15))
        assert r.a_coeffs[0] == 0
        assert np.all(r.a_coeffs[16:] == 0)
        assert np.all(r.a_coeffs[1:16] == example1_params.mu2)

    def test_policy_length_checked(self, example1_params):
        with pytest.raises(LengthMismatch):
            reward_structure(example1_params, Policy.all_ones(3))


class TestDifferenceSet:
    def test_identical_policies(self):
        d = Policy((0, 1, 0))
        assert difference_set(d, d).positions == ()

    def test_known_positions(self):
        assert difference_set(Policy((0, 0, 0)), Policy((0, 1, 1))).positions == (2, 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            difference_set(Policy((0,)), Policy((0, 1)))

    @given(st.integers(1, 8), st.data())
    def test_size_equals_hamming_distance(self, k, data):
        d = Policy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
        c = Policy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
        hamming = sum(a != b for a, b in zip(d.decisions, c.decisions))
        assert len(difference_set(d, c)) == hamming


class TestAdjacentChain:
    def test_empty_difference_gives_empty_chain(self):
        d = Policy((1, 0))
        assert adjacent_chain(d, d, ()) == []

    def test_two_step_chain(self):
        chain = adjacent_chain(Policy((0, 0)), Policy((1, 1)), (1, 2))
        assert [c.decisions for c in chain] == [(1, 0), (1, 1)]

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidOrder):
            adjacent_chain(Policy((0, 0)), Policy((1, 1)), (1,))
        with pytest.raises(InvalidOrder):
            adjacent_chain(Policy((0, 0)), Policy((1, 1)), (1, 1))

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60)
    def test_single_flip_steps_and_terminal_policy(self, k, data):
        d = Policy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
        c = Policy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
        order = data.draw(st.permutations(list(difference_set(d, c))))
        chain = adjacent_chain(d, c, order)
        if chain:
            assert chain[-1] == c
            prev = d
            for step, expected_pos in zip(chain, order):
                assert difference_set(prev, step).positions == (expected_pos,)
                prev = step
        else:
            assert d == c

    def test_exhaustive_reconstruction_up_to_k6(self):
        # every pair of policies is reconstructed by walking its difference set
        for k in range(1, 7):
            policies = list(enumerate_policies(k))
            for d in policies:
                for c in policies:
                    order = tuple(difference_set(d, c))
                    chain = adjacent_chain(d, c, order)
                    assert (chain[-1] if chain else d) == c


class TestEnumeration:
    def test_k1(self):
        assert [p.decisions for p in enumerate_policies(1)] == [(0,), (1,)]

    def test_k3_count(self):
        assert len(list(enumerate_policies(3))) == 8

    def test_k10_unique_and_lexicographic(self):
        seen = [p.decisions for p in enumerate_policies(10)]
        assert len(set(seen)) == 1024
        assert seen == sorted(seen)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            next(enumerate_policies(25))
        assert len(list(enumerate_policies(5, cap=5))) == 32


class TestPolicy:
    def test_rejects_non_binary(self):
        with pytest.raises(Exception):
            Policy((0, 2))

    def test_flip_is_involution(self):
        pol = Policy((0, 1, 1, 0))
        assert pol.flip(2).flip(2) == pol

    def test_json_round_trip(self):
        pol = Policy((1, 0, 1))
        assert Policy.from_json_list(json.loads(json.dumps(pol.to_json_list()))) == pol
