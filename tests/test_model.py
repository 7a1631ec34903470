import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockrationing import (
    ENUMERATION_CAP,
    BadThreshold,
    CapExceeded,
    InvalidParameter,
    LengthMismatch,
    NonPositiveRate,
    Policy,
    PriorityViolation,
    StockRationingError,
    SystemParams,
    brute_force_optimal,
    reward_structure,
)
from stockrationing import optimizer

from test_optimizer import explicit_optimum


class TestValidation:
    def test_example1_accepted(self, example1_params):
        assert dataclasses.replace(example1_params) == example1_params

    def test_zero_arrival_rate_rejected(self, example1_params):
        with pytest.raises(NonPositiveRate):
            dataclasses.replace(example1_params, lam=0.0)

    @pytest.mark.parametrize("field", ["mu1", "mu2"])
    def test_nonpositive_service_rate_rejected(self, example1_params, field):
        with pytest.raises(NonPositiveRate):
            dataclasses.replace(example1_params, **{field: -1.0})

    def test_threshold_equal_capacity_accepted(self):
        p = SystemParams(lam=1, mu1=1, mu2=1, capacity=2, threshold=2,
                         c_lost1=2, c_lost2=1)
        assert p.threshold == 2

    @pytest.mark.parametrize("k", [0, 3])
    def test_threshold_out_of_range_rejected(self, k):
        with pytest.raises(BadThreshold):
            SystemParams(lam=1, mu1=1, mu2=1, capacity=2, threshold=k)

    def test_priority_violation_is_warning_only(self):
        data = {"lambda": 1, "mu1": 1, "mu2": 1, "capacity_n": 2, "threshold_k": 1,
                "c_lost1": 1, "c_lost2": 2}
        with pytest.warns(PriorityViolation):
            p = SystemParams.from_json_dict(data)
        assert (p.c_lost1, p.c_lost2) == (1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")       # library construction stays silent
            dataclasses.replace(p)

    @pytest.mark.parametrize(
        "changes, error",
        [
            ({"lam": -1.0}, NonPositiveRate),
            ({"lam": float("nan")}, InvalidParameter),
            ({"lam": float("inf")}, InvalidParameter),
            ({"price": float("nan")}, InvalidParameter),
            ({"mu2": 0.0}, NonPositiveRate),
            ({"threshold": 0}, BadThreshold),
            ({"threshold": 101}, BadThreshold),
            ({"capacity": 100.5}, InvalidParameter),
            ({"c_hold": -1.0}, InvalidParameter),
        ],
    )
    def test_constructor_rejects_parameters_outside_the_model(self, example1_params,
                                                              changes, error):
        # each reached a numpy or math error, a NaN answer or a silent one
        # when only the JSON route checked its input
        with pytest.raises(error):
            dataclasses.replace(example1_params, **changes)

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

    @pytest.mark.parametrize("key", ["lambda", "mu1", "mu2", "capacity_n", "threshold_k"])
    def test_from_json_dict_names_a_missing_required_key(self, example1_params, key):
        data = example1_params.to_json_dict()
        del data[key]
        with pytest.raises(StockRationingError, match=f"missing required parameter keys: .*{key}"):
            SystemParams.from_json_dict(data)

    def test_from_json_dict_takes_integral_float_n_and_k_as_ints(self, example1_params):
        data = dict(example1_params.to_json_dict(), capacity_n=100.0, threshold_k=15.0)
        params = SystemParams.from_json_dict(data)
        assert params == example1_params
        assert type(params.capacity) is int and type(params.threshold) is int

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_with_penalty_rejects_non_finite_or_negative(self, example1_params, penalty):
        with pytest.raises(InvalidParameter):
            example1_params.with_penalty(penalty)


class TestRewardStructure:
    def test_empty_state_profit_rate(self, example1_params):
        f = reward_structure(example1_params, Policy.all_zeros(15))
        assert isinstance(f, np.ndarray)
        assert f[0] == -33.0

    def test_serving_state_profit_rate(self, example1_params):
        f = reward_structure(example1_params, Policy.all_ones(15))
        assert f[1] == 54.0

    def test_full_state_profit_rate(self, example1_params):
        f = reward_structure(example1_params, Policy.all_zeros(15))
        assert f[100] == -13.0

    @staticmethod
    def penalty_slope_check(params, pol, pens):
        # f(P) - f(0) = -P * mu2 * d_i on 1..K and is zero on every other state
        k = params.threshold
        f0 = reward_structure(params.with_penalty(0.0), pol)
        for pen in pens:
            shift = reward_structure(params.with_penalty(pen), pol) - f0
            np.testing.assert_array_equal(np.delete(shift, range(1, k + 1)), 0.0)
            np.testing.assert_allclose(shift[1 : k + 1], -pen * params.mu2 * pol.as_array(), rtol=0,
                                       atol=2 * np.spacing(np.abs(f0).max() + pen * params.mu2))

    def test_penalty_enters_only_through_linear_term(self, example1_params):
        self.penalty_slope_check(example1_params, Policy(tuple([1, 0] * 7 + [1])),
                                 (3.7, 151.0))

    def test_all_zeros_policy_has_no_penalty_dependence(self, example1_params):
        f0 = reward_structure(example1_params.with_penalty(0.0), Policy.all_zeros(15))
        for pen in (3.7, 151.0):
            np.testing.assert_array_equal(
                reward_structure(example1_params.with_penalty(pen), Policy.all_zeros(15)), f0)

    def test_penalty_coefficient_zero_outside_rationed_range(self, example1_params):
        self.penalty_slope_check(example1_params, Policy.all_ones(15), (3.7, 151.0))

    def test_policy_length_checked(self, example1_params):
        with pytest.raises(LengthMismatch):
            reward_structure(example1_params, Policy.all_ones(3))


def walk(d, order):
    """The adjacent chain from d that flips one position per step, in order."""
    chain = [d]
    for pos in order:
        chain.append(chain[-1].flip(pos))
    return chain


def disagreements(d, c):
    return [i for i in range(1, len(d) + 1) if d[i - 1] != c[i - 1]]


class TestAdjacentChain:
    def test_two_step_chain(self):
        chain = walk(Policy((0, 0)), (1, 2))
        assert [c.decisions for c in chain] == [(0, 0), (1, 0), (1, 1)]

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60)
    def test_single_flip_steps_and_terminal_policy(self, k, data):
        d = Policy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
        c = Policy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
        order = data.draw(st.permutations(disagreements(d, c)))
        chain = walk(d, order)
        assert chain[-1] == c
        for prev, step, pos in zip(chain, chain[1:], order):
            assert disagreements(prev, step) == [pos]

    def test_exhaustive_reconstruction_up_to_k6(self):
        # every pair of policies is joined by flipping its disagreements
        for k in range(1, 7):
            policies = [Policy(bits) for bits in itertools.product((0, 1), repeat=k)]
            for d in policies:
                for c in policies:
                    assert walk(d, disagreements(d, c))[-1] == c


class TestEnumeration:
    """`brute_force_optimal` against the tie rule over all 2**K explicit rows;
    at mu2 = 1.5 and P = 0.7 no two policies' profits lie closer than 4e-8 of
    scale at K = 10."""

    @staticmethod
    def matches_explicit_rows(k):
        p = SystemParams(lam=2, mu1=1, mu2=1.5, capacity=k + 2, threshold=k,
                         c_lost1=2, c_lost2=1, price=3, penalty=0.7)
        policy, eta = brute_force_optimal(p)
        ref_policy, ref_eta = explicit_optimum(p)
        assert policy.decisions == ref_policy
        assert abs(eta - ref_eta) <= 1e-13 * max(1.0, abs(ref_eta))

    def test_k1(self):
        self.matches_explicit_rows(1)

    def test_k3(self):
        self.matches_explicit_rows(3)

    def test_k10(self):
        self.matches_explicit_rows(10)

    def test_cap(self, monkeypatch):
        p = SystemParams(lam=2, mu1=1, mu2=1, capacity=ENUMERATION_CAP + 1,
                         threshold=ENUMERATION_CAP + 1, c_lost1=2, c_lost2=1)
        with pytest.raises(CapExceeded):
            brute_force_optimal(p)
        monkeypatch.setattr(optimizer, "ENUMERATION_CAP", 5)
        self.matches_explicit_rows(5)
        with pytest.raises(CapExceeded):
            self.matches_explicit_rows(6)


class TestPolicy:
    def test_rejects_non_binary(self):
        with pytest.raises(Exception):
            Policy((0, 2))

    @pytest.mark.parametrize("value", [1.0, np.int64(1), np.float64(0.0), True],
                             ids=["float", "int64", "float64", "bool"])
    def test_accepts_values_equal_to_zero_or_one(self, value):
        pol = Policy((0, value, 1))
        assert pol.decisions == (0, int(value), 1)
        assert all(type(d) is int for d in pol.decisions)

    @pytest.mark.parametrize("value", [2, 0.5, -1, "1", None, math.nan],
                             ids=["two", "half", "minus-one", "string", "none", "nan"])
    def test_rejects_any_other_value_with_a_typed_error(self, value):
        decisions = (1, value, 0)
        with pytest.raises(StockRationingError) as err:
            Policy(decisions)
        assert str(err.value) == f"decisions must be 0/1, got {decisions!r}"

    def test_flip_is_involution(self):
        pol = Policy((0, 1, 1, 0))
        assert pol.flip(2).flip(2) == pol

    def test_json_round_trip(self):
        pol = Policy((1, 0, 1))
        assert Policy(json.loads(json.dumps(pol.to_json_list()))) == pol
