"""Untimed output checks, against references written here with numpy only.

The references never call the package: the stationary law comes from
log-weights shifted by their maximum (no overflow or underflow at any N),
and the reward vector and generator are rebuilt from the model's
definition.  Each check returns None when the output is right, else a
one-line reason.
"""

from __future__ import annotations

import numpy as np

from stockrationing.model import ENUMERATION_CAP

EPS = float(np.finfo(float).eps)
DENSE_N_MAX = 200
ETA_RTOL = 1e-9          # relative to the largest |reward rate|
PI_ATOL = 1e-10
ORACLE_RTOL = 1e-9       # criterion 04
ROOT_RTOL = 1e-8
DEGENERATE_COEF_TOL = 1e-12
# With 10 replications the z-score is Student-t with 9 degrees of freedom:
# a correct simulator exceeds 10 with probability about 4e-6 per op.
SIM_Z_MAX = 10.0


def down_rates(p, policy) -> np.ndarray:
    """Down-rates v at states 1..N."""
    v = np.full(p.capacity, p.mu1 + p.mu2)
    v[: p.threshold] = p.mu1 + p.mu2 * np.asarray(policy.decisions, dtype=float)
    return v


def event_rates(p, policy) -> np.ndarray:
    """Total jump rate out of each state 0..N."""
    v = down_rates(p, policy)
    rate = np.empty(p.capacity + 1)
    rate[0] = p.lam
    rate[1:-1] = p.lam + v[:-1]
    rate[-1] = v[-1]
    return rate


def rewards(p, policy) -> np.ndarray:
    """Profit rate f at states 0..N, straight from the model's definition."""
    n, k = p.capacity, p.threshold
    d = np.zeros(n + 1)
    d[1 : k + 1] = policy.decisions
    serve2 = np.ones(n + 1)
    serve2[1 : k + 1] = d[1 : k + 1]
    i = np.arange(n + 1)
    f = (p.price * (p.mu1 + p.mu2 * serve2) - p.c_hold * i
         - p.c_lost2 * p.mu2 * (1 - serve2) - p.c_buy * p.lam - p.penalty * p.mu2 * d)
    f[0] = -p.c_lost1 * p.mu1 - p.c_lost2 * p.mu2 - p.c_buy * p.lam
    f[n] += (p.c_buy - p.c_opp) * p.lam
    return f


def stationary(p, policy) -> np.ndarray:
    logw = np.concatenate(([0.0], np.cumsum(np.log(p.lam) - np.log(down_rates(p, policy)))))
    w = np.exp(logw - logw.max())
    return w / w.sum()


def dense_stationary(p, policy) -> np.ndarray:
    """pi Q = 0, sum(pi) = 1 as a dense least-squares system (N <= DENSE_N_MAX)."""
    v = down_rates(p, policy)
    n = p.capacity
    q = np.diag(np.full(n, p.lam), 1) + np.diag(v, -1)
    q -= np.diag(q.sum(axis=1))
    a = np.vstack([q.T, np.ones(n + 1)])
    rhs = np.zeros(n + 2)
    rhs[-1] = 1.0
    return np.linalg.lstsq(a, rhs, rcond=None)[0]


def eta(p, policy) -> float:
    return float(stationary(p, policy) @ rewards(p, policy))


def _eta_tol(p, policy) -> float:
    return ETA_RTOL * (1.0 + float(np.max(np.abs(rewards(p, policy)))))


def _first_flip_gain(p, policy, base_eta: float) -> str | None:
    """Reason if flipping one decision raises eta, else None."""
    tol = _eta_tol(p, policy)
    for i in range(1, p.threshold + 1):
        gain = eta(p, policy.flip(i)) - base_eta
        if gain > tol:
            return f"flipping position {i} raises eta by {gain:.3e}"
    return None


def check_solve(p, policy, out) -> str | None:
    dist, form, sol, factors, profile = out
    f = rewards(p, policy)
    pi_ref = dense_stationary(p, policy) if p.capacity <= DENSE_N_MAX else stationary(p, policy)
    tol = _eta_tol(p, policy)
    eta_ref = float(pi_ref @ f)
    if not np.all(np.isfinite(dist.pi)) or np.max(np.abs(dist.pi - pi_ref)) > PI_ATOL:
        return "stationary law differs from the reference"
    for label, value in (("pi @ f", float(dist.pi @ f)), ("D - P*F", form.eta(p.penalty)),
                         ("solve_poisson eta", sol.eta)):
        if not abs(value - eta_ref) <= tol:
            return f"{label} = {value!r}, reference eta = {eta_ref!r}"
    g = sol.g
    if not np.all(np.isfinite(g)):
        bad = int(np.argmax(~np.isfinite(g)))
        return f"non-finite potential from state {bad} on (NaN tail)"
    v = down_rates(p, policy)
    qg = np.zeros_like(g)
    qg[:-1] += p.lam * (g[1:] - g[:-1])
    qg[1:] += v * (g[:-1] - g[1:])
    residual = float(np.max(np.abs(-qg - (f - sol.eta))))
    floor = max(1e-9, 16 * EPS * (1 + float(np.max(np.abs(g)))) * (p.lam + p.mu1 + p.mu2))
    if not residual <= floor:
        return f"Poisson residual {residual:.3e} above the criterion-05 floor {floor:.3e}"
    if not np.array_equal(factors.g_diff, g[:-1] - g[1:]):
        return "realization factors are not the potential differences"
    k = p.threshold
    num, den, roots = profile.num, profile.den, profile.roots
    margin = factors.g_diff[:k] + sol.offset_b
    for i in range(k):
        scale = 1.0 + abs(num[i]) + p.penalty * abs(den[i])
        if not abs(num[i] - p.penalty * den[i] - margin[i]) <= ROOT_RTOL * scale:
            return f"root coefficients disagree with G({i + 1}) + b"
        r = roots[i]
        if np.isinf(r):
            if abs(den[i]) > DEGENERATE_COEF_TOL or (r > 0) != (num[i] >= 0):
                return f"root {i + 1} is {r} but den = {den[i]!r}, num = {num[i]!r}"
        elif not abs(num[i] - r * den[i]) <= ROOT_RTOL * (1.0 + abs(num[i]) + abs(r * den[i])):
            return f"root {i + 1} = {r!r} does not solve num - P*den = 0"
    return None


def check_policy_eta(p, policy, reported_eta: float) -> str | None:
    """The reported eta is the policy's eta and no single flip beats it."""
    eta_ref = eta(p, policy)
    if not abs(reported_eta - eta_ref) <= _eta_tol(p, policy):
        return f"reported eta {reported_eta!r}, reference {eta_ref!r}"
    return _first_flip_gain(p, policy, eta_ref)


def check_optimize(p, result, oracle_eta: float | None) -> str | None:
    """Against enumeration when K <= ENUMERATION_CAP, else against single flips."""
    reason = check_policy_eta(p, result.policy, result.eta)
    if reason is not None or p.threshold > ENUMERATION_CAP:
        return reason
    if not abs(result.eta - oracle_eta) <= ORACLE_RTOL * max(1.0, abs(oracle_eta)):
        return f"optimize eta {result.eta!r} != enumeration eta {oracle_eta!r}"
    return None


def check_simulate(p, policy, est) -> str | None:
    eta_ref = eta(p, policy)
    if not abs(float(np.sum(est.occupancy)) - 1.0) <= 1e-9:
        return f"occupancy sums to {float(np.sum(est.occupancy))!r}"
    if not est.std_err > 0:
        return f"standard error {est.std_err!r}"
    z = (est.eta_hat - eta_ref) / est.std_err
    if not abs(z) <= SIM_Z_MAX:
        return f"estimate {est.eta_hat!r} is {z:.2f} standard errors from eta {eta_ref!r}"
    return None


def check_table2(out) -> str | None:
    """Criterion 03's contract: report the calibrated price, and either pass
    with exit 0 or name the closest match with exit 1."""
    rc, text = out
    if "calibrated service price R =" not in text:
        return "no calibrated price reported"
    passed = "[PASS] all" in text
    if not passed and "closest match" not in text:
        return "neither a pass nor the closest match reported"
    if rc != (0 if passed else 1):
        return f"exit code {rc} does not match the reported verdict"
    return None
