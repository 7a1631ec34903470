import numpy as np
import pytest

from stockrationing import Policy, SystemParams, chain


@pytest.fixture(autouse=True)
def _empty_record_slot():
    """Start every test with no kept chain record, so a record built under
    another test's monkeypatch never reaches this one."""
    chain._forget_last_record()


@pytest.fixture
def unit_params():
    """Smallest nontrivial instance: all rates one, two states above empty."""
    return SystemParams(
        lam=1.0, mu1=1.0, mu2=1.0, capacity=2, threshold=1,
        c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=0.0,
    )


@pytest.fixture
def example1_params():
    """The benchmark warehouse: N=100, K=15 with the standard cost set."""
    return SystemParams(
        lam=3.0, mu1=4.0, mu2=2.0, capacity=100, threshold=15,
        c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15, penalty=10.0,
    )


def random_params(rng, k_max=10, n_max=20, rate_lo=0.5, rate_hi=5.0, cost_hi=10.0,
                  penalty=None, k_min=1):
    k = int(rng.integers(k_min, k_max + 1))
    n = int(rng.integers(k, n_max + 1))
    lam, mu1, mu2 = rng.uniform(rate_lo, rate_hi, 3)
    c = rng.uniform(0, cost_hi, 5)
    if penalty is None:
        penalty = float(rng.uniform(0, 2 * cost_hi))
    return SystemParams(
        lam=float(lam), mu1=float(mu1), mu2=float(mu2), capacity=n, threshold=k,
        c_hold=float(c[0]), c_lost1=float(c[1]), c_lost2=float(c[2]),
        c_buy=float(c[3]), c_opp=float(c[4]), price=float(rng.uniform(0, cost_hi)),
        penalty=penalty,
    )


def counting(monkeypatch, name):
    """Wrap `chain.<name>` for the test; the returned list grows by one per call."""
    calls = []
    original = getattr(chain, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(chain, name, counted)
    return calls


def random_policy(rng, k):
    return Policy(tuple(int(b) for b in rng.integers(0, 2, k)))


def dense_stationary(params, policy):
    """Test-only oracle: solve pi B = 0, pi e = 1 as a dense least-squares system."""
    from oracles import dense_generator

    b = dense_generator(params, policy)
    n = params.capacity + 1
    a = np.vstack([b.T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return pi


def dense_potential(params, policy):
    """Test-only oracle for the special potential: dense solve with g(0) pinned to 0."""
    from oracles import dense_generator
    from stockrationing import average_profit, reward_structure

    b = dense_generator(params, policy)
    f = reward_structure(params, policy)
    eta = average_profit(params, policy)
    n = params.capacity + 1
    a = np.vstack([-b, np.eye(n)[0]])
    rhs = np.concatenate([f - eta, [0.0]])
    g, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return g
