import numpy as np
import pytest

from stockrationing import sim
from stockrationing import (
    InvalidParameter,
    Policy,
    StockRationingError,
    SystemParams,
    average_profit,
    simulate,
    stationary_distribution,
)

from conftest import random_params, random_policy
from oracles import jump_rates, reference_simulate

EVENT_BLOCK = 1 << 14


def _no_replication(*args):
    raise AssertionError("a replication started")


def test_zero_reward_gives_exact_zero():
    # every cost and the price at zero: the reward rate vanishes identically
    p = SystemParams(lam=1, mu1=1, mu2=1, capacity=1, threshold=1)
    est = simulate(p, Policy((1,)), horizon=500.0, replications=3, seed=0)
    assert est.eta_hat == 0.0
    assert est.std_err == 0.0


def test_deterministic_given_seed(unit_params):
    a = simulate(unit_params, Policy((0,)), horizon=2000.0, replications=4, seed=11)
    b = simulate(unit_params, Policy((0,)), horizon=2000.0, replications=4, seed=11)
    assert a.eta_hat == b.eta_hat
    assert np.array_equal(a.rep_estimates, b.rep_estimates)
    c = simulate(unit_params, Policy((0,)), horizon=2000.0, replications=4, seed=12)
    assert c.eta_hat != a.eta_hat


def test_replication_count_guard(unit_params):
    with pytest.raises(StockRationingError):
        simulate(unit_params, Policy((0,)), horizon=100.0, replications=1, seed=0)
    with pytest.raises(StockRationingError):
        simulate(unit_params, Policy((0,)), horizon=0.0, replications=4, seed=0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_non_finite_horizon_rejected(unit_params, horizon):
    with pytest.raises(InvalidParameter):
        simulate(unit_params, Policy((0,)), horizon=horizon, replications=4, seed=0)


@pytest.mark.parametrize("seed", [-1, 2.5, np.int64(-3), "7"])
def test_invalid_seed_rejected_before_any_replication(unit_params, monkeypatch, seed):
    # numpy's SeedSequence raises ValueError on a negative seed; simulate
    # names the cause first, and starts no replication
    monkeypatch.setattr(sim, "_run_replication", _no_replication)
    with pytest.raises(InvalidParameter, match="seed"):
        simulate(unit_params, Policy((0,)), horizon=100.0, replications=2, seed=seed)


@pytest.mark.parametrize("replications", [2.5, True])
def test_non_integer_replications_rejected(unit_params, monkeypatch, replications):
    monkeypatch.setattr(sim, "_run_replication", _no_replication)
    with pytest.raises(InvalidParameter, match="replications"):
        simulate(unit_params, Policy((0,)), horizon=100.0, replications=replications, seed=0)


def test_numpy_integer_replications_accepted(unit_params):
    a = simulate(unit_params, Policy((0,)), horizon=500.0, replications=np.int64(3), seed=4)
    b = simulate(unit_params, Policy((0,)), horizon=500.0, replications=3, seed=4)
    assert np.array_equal(a.rep_estimates, b.rep_estimates)


def test_numpy_integer_seed_accepted(unit_params):
    a = simulate(unit_params, Policy((0,)), horizon=500.0, replications=2, seed=np.int64(4))
    b = simulate(unit_params, Policy((0,)), horizon=500.0, replications=2, seed=4)
    assert np.array_equal(a.rep_estimates, b.rep_estimates)


def _table(params, policy):
    up, rate = jump_rates(params, policy)
    return sim._walk_table(up / rate)


def _assert_matches_reference_walk(params, policy, horizon, seed):
    est = simulate(params, policy, horizon=horizon, replications=2, seed=seed)
    etas, occupancy = reference_simulate(params, policy, horizon, 2, seed)
    assert np.array_equal(est.rep_estimates, etas)
    assert np.array_equal(est.occupancy, occupancy)


def _example1_rates(capacity, threshold):
    return SystemParams(lam=3.0, mu1=4.0, mu2=2.0, capacity=capacity, threshold=threshold,
                        c_hold=1, c_lost1=4, c_lost2=1, c_buy=5, c_opp=1, price=15,
                        penalty=10.0)


THETA9 = Policy(tuple(int(i >= 9) for i in range(1, 16)))  # threshold 9 at K = 15


def test_blocked_walk_matches_reference_walk_on_random_instances():
    rng = np.random.default_rng(72)
    for i in range(12):
        p = random_params(rng, k_max=12, n_max=60)
        pol = random_policy(rng, p.threshold)
        # most of these replications run past several chunks
        _assert_matches_reference_walk(p, pol, horizon=5000.0, seed=200 + i)


# (params, policy, block size m, steps per lookup): 2m where the composed
# table is built, m where the walk falls back to the m-block table
WALK_CASES = [
    # N = 1: pup is (1, 0), no interior cut
    (_example1_rates(1, 1), Policy((0,)), 8, 16),
    # K = N, a mixed policy: two cuts
    (_example1_rates(12, 12), Policy((0, 1) * 6), 4, 8),
    # all-ones, and all-zeros with K = N: one cut, composed table too large
    (_example1_rates(20, 6), Policy.all_ones(6), 8, 8),
    (_example1_rates(20, 20), Policy((0,) * 20), 8, 8),
    # example 1, then capacities whose tables allow only shorter blocks
    (_example1_rates(100, 15), THETA9, 4, 4),
    (_example1_rates(1000, 15), THETA9, 2, 2),
    (_example1_rates(4000, 15), THETA9, 1, 1),
    # one cut at N = 3: the largest one-cut chain whose composed table fits
    (_example1_rates(3, 3), Policy.all_ones(3), 8, 16),
    # two cuts at sim-grid's largest shape
    (_example1_rates(19, 10), Policy((0,) * 4 + (1,) * 6), 4, 8),
    # one cut, composed table small enough, but 301 states do not fit a byte
    (_example1_rates(300, 15), Policy.all_ones(15), 4, 4),
]


@pytest.mark.parametrize("params, policy, block", [case[:3] for case in WALK_CASES])
def test_blocked_walk_matches_reference_walk(params, policy, block):
    assert len(_table(params, policy).place) == block
    _assert_matches_reference_walk(params, policy, horizon=8000.0, seed=block)


@pytest.mark.parametrize("params, policy, block, per_lookup", WALK_CASES)
def test_walk_takes_its_steps_per_lookup(params, policy, block, per_lookup):
    table = _table(params, policy)
    assert len(table.place) == block
    assert len(table.place) * table.blocks == per_lookup


@pytest.mark.parametrize("params, policy", [
    (_example1_rates(1, 1), Policy((0,))),                          # N = 1, no cut
    (_example1_rates(3, 3), Policy.all_ones(3)),                    # one cut, K = N
    (_example1_rates(12, 12), Policy((0, 1) * 6)),                  # two cuts, K = N
    (_example1_rates(19, 10), Policy((0,) * 4 + (1,) * 6)),         # two cuts, K < N
])
def test_composed_table_is_two_blocks_and_the_per_step_walk(params, policy):
    """Every lookup row of the composed table, (c1*C**m + c2)*S + s, against
    two m-block steps and against 2m single steps on a draw from each category."""
    up, rate = jump_rates(params, policy)
    pup = up / rate
    table = sim._walk_table(pup)
    m, n_states = len(table.place), len(pup)
    n_cat = len(table.cuts) + 1
    n_codes = n_cat**m
    assert table.blocks == 2
    step = np.frombuffer(table.step, np.uint8)
    assert len(step) == n_codes * n_codes * n_states
    c1, c2, s = np.unravel_index(np.arange(len(step)), (n_codes, n_codes, n_states))
    nxt = table.nxt.astype(np.intp)
    assert np.array_equal(step, nxt[c2 * n_states + nxt[c1 * n_states + s]])
    # a draw inside each category: the midpoint between its cuts
    edges = np.concatenate(([0.0], table.cuts, [1.0]))
    draw = (edges[:-1] + edges[1:]) / 2
    code = c1 * n_codes + c2
    for j in range(2 * m):
        category = code // n_cat ** (2 * m - 1 - j) % n_cat
        s = np.where(draw[category] < pup[s], s + 1, s - 1)
    assert np.array_equal(step, s)


TWO_CUTS = (_example1_rates(12, 12), Policy((0, 1) * 6))    # 8 steps per lookup


def _reference_ends(params, policy, seed, chunks, rep=0):
    """End times of replication `rep`'s steps over its first `chunks` chunks,
    walked one step at a time as `reference_simulate` walks them."""
    up, rate = jump_rates(params, policy)
    pup = (up / rate).tolist()
    inv_rate = 1.0 / rate
    rng = sim._replication_rng(seed, rep)
    t, s, out = 0.0, 0, []
    for _ in range(chunks):
        draws = rng.standard_exponential(sim.CHUNK)
        visited = []
        for uk in rng.random(sim.CHUNK).tolist():
            visited.append(s)
            s = s + 1 if uk < pup[s] else s - 1
        ends = t + np.cumsum(draws * inv_rate[visited])
        t = float(ends[-1])
        out.append(ends)
    return np.concatenate(out)


def _horizon_ending_in_step(ends, step):
    """A horizon whose window, warmup included, ends inside step `step`."""
    target = (ends[step - 1] + ends[step]) / 2 if step else ends[0] / 2
    horizon = target / (1 + sim.WARMUP_FRACTION)
    assert np.searchsorted(ends, sim.WARMUP_FRACTION * horizon + horizon) == step
    return horizon


@pytest.mark.parametrize("step", [
    0,                       # the first step
    100,                     # inside the first chunk
    sim.CHUNK - 1,           # the last step of a chunk
    sim.CHUNK,               # the first step of the next chunk
    2 * sim.CHUNK + 1000,    # in the third chunk
])
def test_walk_stops_where_the_reference_walk_stops(step):
    params, policy = TWO_CUTS
    ends = _reference_ends(params, policy, seed=7, chunks=step // sim.CHUNK + 1)
    _assert_matches_reference_walk(params, policy, _horizon_ending_in_step(ends, step), seed=7)


class _CountingList(list):
    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_walk_stops_in_the_chunk_where_the_horizon_falls(monkeypatch):
    walk_table = sim._walk_table
    tables = []

    def counting_walk_table(pup):
        table = walk_table(pup)
        tables.append(table._replace(step=_CountingList(table.step)))
        return tables[-1]

    monkeypatch.setattr(sim, "_walk_table", counting_walk_table)
    params, policy = TWO_CUTS
    # about 900 steps per replication at this instance's jump rate of about 6
    est = simulate(params, policy, horizon=150.0, replications=2, seed=3)
    table = tables[0]
    # each lookup goes through the composed table, 2m steps at a time
    assert table.blocks == 2
    per_lookup = 2 * len(table.place)
    assert 0 < table.step.lookups <= est.replications * (sim.CHUNK // per_lookup)


class _CountingRng:
    """A replication's generator that counts the draws it hands out."""

    def __init__(self, rng):
        self.rng, self.exponentials, self.uniforms = rng, 0, 0

    def standard_exponential(self, out):
        self.exponentials += out.size
        return self.rng.standard_exponential(out=out)

    def random(self, out):
        self.uniforms += out.size
        return self.rng.random(out=out)


def test_replication_draws_at_most_one_small_chunk_past_its_stop(monkeypatch):
    params, policy = TWO_CUTS
    horizon, seed = 150.0, 3
    total = sim.WARMUP_FRACTION * horizon + horizon
    stops = [int(np.searchsorted(_reference_ends(params, policy, seed, 2, rep), total))
             for rep in range(2)]
    replication_rng = sim._replication_rng
    rngs = []

    def counting_rng(seed, rep):
        rngs.append(_CountingRng(replication_rng(seed, rep)))
        return rngs[-1]

    monkeypatch.setattr(sim, "_replication_rng", counting_rng)
    # about 900 steps per replication at this instance's jump rate of about 6
    simulate(params, policy, horizon=horizon, replications=2, seed=seed)
    assert sim.CHUNK <= 4096
    for rng, stop in zip(rngs, stops, strict=True):
        assert stop < sim.CHUNK
        assert rng.exponentials == rng.uniforms == (stop // sim.CHUNK + 1) * sim.CHUNK


def test_nested_call_leaves_both_estimates_unchanged(monkeypatch):
    # a second simulate with other params runs inside the first one's first
    # replication, while the first one's draw buffers are live
    inner_params, inner_policy = _example1_rates(20, 6), Policy.all_ones(6)
    outer_params, outer_policy = TWO_CUTS
    inner_alone = simulate(inner_params, inner_policy, horizon=3000.0, replications=2, seed=5)
    outer_alone = simulate(outer_params, outer_policy, horizon=3000.0, replications=3, seed=6)
    run_replication = sim._run_replication
    inner = []

    def replication_with_a_nested_call(*args):
        if not inner:
            inner.append(None)
            inner[0] = simulate(inner_params, inner_policy, horizon=3000.0, replications=2, seed=5)
        return run_replication(*args)

    monkeypatch.setattr(sim, "_run_replication", replication_with_a_nested_call)
    outer = simulate(outer_params, outer_policy, horizon=3000.0, replications=3, seed=6)
    for got, alone in ((outer, outer_alone), (inner[0], inner_alone)):
        assert np.array_equal(got.rep_estimates, alone.rep_estimates)
        assert np.array_equal(got.occupancy, alone.occupancy)


def test_example1_estimates_unchanged(example1_params):
    # float.hex of the per-step walk's estimates on these draws, from
    # oracles.reference_simulate
    est = simulate(example1_params, THETA9, horizon=2000.0, replications=3, seed=2024)
    assert [float.hex(float(x)) for x in est.rep_estimates] == [
        "0x1.4e53bf94d213bp+4", "0x1.5c4d5daeceb4bp+4", "0x1.4490946c67d35p+4",
    ]


def test_unit_instance_estimate_brackets_analytic(unit_params):
    est = simulate(unit_params, Policy((0,)), horizon=1e5, replications=20, seed=5)
    assert abs(est.eta_hat - 4.6) <= 3 * est.std_err
    assert est.std_err > 0


def test_occupancy_matches_stationary_distribution():
    rng = np.random.default_rng(70)
    p = random_params(rng, k_max=5, n_max=10)
    pol = random_policy(rng, p.threshold)
    pi = stationary_distribution(p, pol).pi
    est = simulate(p, pol, horizon=5e4, replications=10, seed=21)
    for state in range(p.capacity + 1):
        se = max(est.occupancy_std_err[state], 1e-6)
        assert abs(est.occupancy[state] - pi[state]) <= 4 * se


def test_estimates_concordant_across_instances():
    rng = np.random.default_rng(71)
    hits = 0
    for i in range(6):
        p = random_params(rng, k_max=6, n_max=12)
        pol = random_policy(rng, p.threshold)
        eta = average_profit(p, pol)
        est = simulate(p, pol, horizon=2e4, replications=12, seed=100 + i)
        if abs(est.eta_hat - eta) <= 3 * est.std_err:
            hits += 1
    assert hits >= 5


def test_rep_estimates_shape_and_mean(unit_params):
    est = simulate(unit_params, Policy((1,)), horizon=3000.0, replications=7, seed=9)
    assert est.rep_estimates.shape == (7,)
    assert est.eta_hat == pytest.approx(float(est.rep_estimates.mean()))
    expected_se = float(est.rep_estimates.std(ddof=1) / np.sqrt(7))
    assert est.std_err == pytest.approx(expected_se)


def _event_priced_simulation(p, policy, horizon, seed):
    """Physics-level oracle: three independent Poisson event streams priced
    per event (sale, lost sale, purchase, rejection, low-stock service
    penalty) plus the holding-time integral.  Never evaluates the per-state
    reward rates, so it checks the whole modeling chain end to end.  The
    gaps and the uniforms that pick each event's stream are drawn in blocks
    of EVENT_BLOCK; the loop prices the events one at a time."""
    rng = np.random.default_rng(seed)
    n, k = p.capacity, p.threshold
    total_rate = p.lam + p.mu1 + p.mu2
    t, s, profit = 0.0, 0, 0.0
    while t < horizon:
        gaps = rng.exponential(1.0 / total_rate, EVENT_BLOCK).tolist()
        draws = rng.random(EVENT_BLOCK).tolist()
        for dt, u in zip(gaps, draws):
            if t >= horizon:
                break
            profit -= p.c_hold * s * dt
            t += dt
            u *= total_rate
            if u < p.lam:
                if s < n:
                    profit -= p.c_buy
                    s += 1
                else:
                    profit -= p.c_opp
            elif u < p.lam + p.mu1:
                if s > 0:
                    profit += p.price
                    s -= 1
                else:
                    profit -= p.c_lost1
            else:
                if s > 0 and (s > k or policy[s - 1] == 1):
                    profit += p.price
                    if s <= k:
                        profit -= p.penalty
                    s -= 1
                else:
                    profit -= p.c_lost2
    return profit / horizon


def test_event_priced_physics_agrees_with_reward_rates():
    rng = np.random.default_rng(314)
    p = random_params(rng, k_max=4, n_max=8)
    pol = random_policy(rng, p.threshold)
    eta = average_profit(p, pol)
    vals = np.array([
        _event_priced_simulation(p, pol, horizon=3e4, seed=900 + r) for r in range(6)
    ])
    se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    assert abs(vals.mean() - eta) <= 4 * max(se, 1e-3)
