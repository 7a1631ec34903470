"""Command-line front end: solve, optimize, sweep, simulate, reproduce.

Configuration comes from a JSON file (--config) holding the system
parameters under "params" (or as the whole object) plus optional
command-specific entries; command-line flags override the file.  All
outputs are deterministic given the config and seed.  Exit status is 0 on
success, 1 when a requested check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__
from .chain import average_profit, profit_linear_form, stationary_distribution
from .model import Policy, StockRationingError, SystemParams
from .optimizer import global_optimal
from .poisson import realization_factors_from_potential, solve_poisson
from .sensitivity import penalty_roots
from .sim import simulate
from .staticpol import optimal_static_threshold, static_profit_closed_form


class UsageError(StockRationingError):
    pass


def _load_fixture(name: str) -> dict:
    path = resources.files("stockrationing").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text())


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    return data


def _params_from_config(config: dict, penalty: float | None = None) -> SystemParams:
    """Validated parameters from the config, with an optional penalty override."""
    raw = config.get("params", config)
    if not isinstance(raw, dict) or "lambda" not in raw:
        raise UsageError('config needs a "params" object with a "lambda" key')
    if penalty is not None:
        raw = {**raw, "penalty_p": penalty}
    return SystemParams.from_json_dict(raw)


def _parse_policy(literal: str | list | None, k: int) -> Policy | None:
    if literal is None:
        return None
    try:
        if isinstance(literal, list):
            return Policy(literal)
        text = literal.strip()
        if text == "zeros":
            return Policy.all_zeros(k)
        if text == "ones":
            return Policy.all_ones(k)
        if text.startswith("["):
            return Policy(json.loads(text))
        return Policy([int(tok) for tok in text.split(",") if tok.strip()])
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed policy {literal!r}: {exc}") from None


def _load_inputs(args, needs_policy: bool = True) -> tuple[SystemParams, Policy | None]:
    """Parameters and policy from --config and the flags that override it."""
    config = _load_config(args.config)
    params = _params_from_config(config, args.penalty)
    policy = _parse_policy(args.policy or config.get("policy"), params.threshold)
    if needs_policy and policy is None:
        raise UsageError(f"{args.command} needs a policy (--policy or config key)")
    return params, policy


def _parse_grid(spec: str) -> list[float]:
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise UsageError(f"grid must be start:stop:count or a comma list, got {spec!r}")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise UsageError(f"grid count must be >= 1, got {count}")
            values = list(np.linspace(start, stop, count))
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed grid {spec!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty grid: {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"grid values must be finite, got {spec!r}")
    return values


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit_csv(args, header: list[str], rows: list[tuple]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    _emit(args, buf.getvalue())


def cmd_solve(args) -> int:
    params, policy = _load_inputs(args)
    dist = stationary_distribution(params, policy)
    form = profit_linear_form(params, policy)
    sol = solve_poisson(params, policy, shift=args.shift)
    factors = realization_factors_from_potential(sol)
    profile = penalty_roots(params, policy)
    if args.format == "csv":
        header = ["state", "pi", "g", "g_diff", "penalty_root", "sorted_rank"]
        rank = {pos: j + 1 for j, pos in enumerate(profile.sort_perm)}
        rows = []
        for i in range(params.capacity + 1):
            rows.append(
                (
                    i,
                    float(dist.pi[i]),
                    float(sol.g[i]),
                    float(factors.g_diff[i - 1]) if i >= 1 else "",
                    float(profile.roots[i - 1]) if 1 <= i <= params.threshold else "",
                    rank.get(i, "") if 1 <= i <= params.threshold else "",
                )
            )
        _emit_csv(args, header, rows)
    else:
        _emit_json(
            args,
            {
                "params": params.to_json_dict(),
                "policy": policy.to_json_list(),
                "eta": sol.eta,
                "d_coef": form.d_coef,
                "f_coef": form.f_coef,
                "pi": dist.pi,
                "g": sol.g,
                "shift": sol.shift,
                "poisson_residual": sol.residual,
                "g_diff": factors.g_diff,
                "offset_b": factors.offset_b,
                "penalty_roots": profile.roots,
                "p_low": profile.p_low,
                "p_high": profile.p_high,
                "sort_perm": list(profile.sort_perm),
            },
        )
    return 0


def cmd_optimize(args) -> int:
    config = _load_config(args.config)
    params = _params_from_config(config, args.penalty)
    result = global_optimal(params, check_oracle=args.oracle)
    payload = result.to_json_dict()
    payload["iterations"] = result.iterations
    _emit_json(args, payload)
    if result.oracle_confirmed is False:
        return 1
    return 0


def cmd_sweep(args) -> int:
    var = args.var
    params, policy = _load_inputs(args, needs_policy=var != "theta")
    if var == "theta":
        if args.grid:
            grid = _parse_grid(args.grid)
            if not all(float(x).is_integer() for x in grid):
                raise UsageError(f"theta grid values must be integers, got {args.grid!r}")
            thetas = [int(x) for x in grid]
        else:
            thetas = list(range(1, params.threshold + 2))
        rows = [(t, static_profit_closed_form(params, t)) for t in thetas]
        _emit_csv(args, ["theta", "eta"], rows)
        return 0
    if not args.grid:
        raise UsageError(f"sweep over {var} needs --grid")
    grid = _parse_grid(args.grid)
    header = ["grid_value", "eta"]
    if args.with_theta_star:
        header.append("theta_star")
    rows = []
    for value in grid:
        if var == "lambda":
            p = replace(params, lam=value)
        else:
            p = params.with_penalty(value)
        row = [value, average_profit(p, policy)]
        if args.with_theta_star:
            row.append(optimal_static_threshold(p)[0])
        rows.append(tuple(row))
    _emit_csv(args, header, rows)
    return 0


def cmd_simulate(args) -> int:
    params, policy = _load_inputs(args)
    estimate = simulate(
        params,
        policy,
        horizon=args.horizon,
        replications=args.replications,
        seed=args.seed,
    )
    eta = average_profit(params, policy)
    z = (estimate.eta_hat - eta) / estimate.std_err if estimate.std_err > 0 else 0.0
    if args.format == "csv":
        rows = [(rep, float(v)) for rep, v in enumerate(estimate.rep_estimates)]
        _emit_csv(args, ["rep", "eta_hat_rep"], rows)
    else:
        _emit_json(
            args,
            {
                "eta_hat": estimate.eta_hat,
                "std_err": estimate.std_err,
                "replications": estimate.replications,
                "horizon": estimate.horizon,
                "seed": estimate.seed,
                "analytic_eta": eta,
                "z_score": z,
            },
        )
    return 0


# ---------------------------------------------------------------------------
# Reproduction harness


def reproduce_example1() -> tuple[bool, list[str], list[str], list[tuple]]:
    fx = _load_fixture("example1")
    base = SystemParams.from_json_dict(fx["params"])
    tol = fx["tolerance"]
    lines, rows, ok = [], [], True
    for case in fx["cases"]:
        params = base.with_penalty(case["penalty"])
        policy = _parse_policy(case["policy"], params.threshold)
        eta = average_profit(params, policy)
        passed = abs(eta - case["expected_eta"]) <= tol
        ok &= passed
        lines.append(
            f"[{'PASS' if passed else 'FAIL'}] penalty={case['penalty']} policy={case['policy']}: "
            f"eta={eta:.4f} expected={case['expected_eta']} (+/-{tol})"
        )
        rows.append((case["penalty"], case["policy"], eta, case["expected_eta"]))
    return ok, lines, ["penalty", "policy", "eta", "expected_eta"], rows


def reproduce_example2() -> tuple[bool, list[str], list[str], list[tuple]]:
    fx = _load_fixture("example2")
    base = SystemParams.from_json_dict(fx["params"])
    tol = fx["tolerance"]
    thetas = range(fx["theta_grid"][0], fx["theta_grid"][1] + 1)
    lines, rows, ok = [], [], True
    for case in fx["cases"]:
        params = base.with_penalty(case["penalty"])
        theta_star, eta = optimal_static_threshold(params, thetas=thetas)
        passed = theta_star == case["expected_theta"] and abs(eta - case["expected_eta"]) <= tol
        ok &= passed
        lines.append(
            f"[{'PASS' if passed else 'FAIL'}] penalty={case['penalty']}: theta*={theta_star} "
            f"eta={eta:.4f} expected theta*={case['expected_theta']} eta={case['expected_eta']}"
        )
        if "dynamic_reference_eta" in case:
            dyn = average_profit(params, Policy.all_zeros(params.threshold))
            gap_ok = eta < dyn
            ok &= gap_ok
            lines.append(
                f"[{'PASS' if gap_ok else 'FAIL'}] best static eta={eta:.4f} < "
                f"all-zeros dynamic eta={dyn:.4f} (strict gap)"
            )
        for theta in thetas:
            rows.append((case["penalty"], theta, static_profit_closed_form(params, theta)))
    return ok, lines, ["penalty", "theta", "eta"], rows


def reproduce_example3() -> tuple[bool, list[str], list[str], list[tuple]]:
    fx = _load_fixture("example3")
    lines, rows, ok = [], [], True
    for case in fx["cases"]:
        for k in fx["thresholds"]:
            raw = dict(fx["base_params"])
            raw["threshold_k"] = k
            raw["penalty_p"] = case["penalty"]
            etas = []
            for lam in case["lambda_grid"]:
                raw["lambda"] = lam
                params = SystemParams.from_json_dict(raw)
                policy = _parse_policy(case["policy"], params.threshold)
                eta = average_profit(params, policy)
                etas.append(eta)
                rows.append((case["penalty"], k, lam, eta))
            nondecreasing = all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))
            ok &= nondecreasing
            lines.append(
                f"[{'PASS' if nondecreasing else 'FAIL'}] penalty={case['penalty']} K={k}: "
                f"eta nondecreasing over lambda grid "
                f"({etas[0]:.3f} .. {etas[-1]:.3f})"
            )
    return ok, lines, ["penalty", "threshold_k", "lambda", "eta"], rows


def reproduce_example4() -> tuple[bool, list[str], list[str], list[tuple]]:
    fx = _load_fixture("example4")
    base = SystemParams.from_json_dict(fx["params"])
    lines, rows, ok = [], [], True
    policy = _parse_policy(fx["policy"], base.threshold)
    grid = fx["penalty_grid"]
    etas = [average_profit(base.with_penalty(p), policy) for p in grid]
    rows = list(zip(grid, etas))
    # Collinearity: eta(P) must be exactly affine for a fixed policy.
    coeffs = np.polyfit(grid, etas, 1)
    fit = np.polyval(coeffs, grid)
    resid = float(np.max(np.abs(np.asarray(etas) - fit)))
    collinear = resid < 1e-9
    ok &= collinear
    lines.append(
        f"[{'PASS' if collinear else 'FAIL'}] eta(P) affine for fixed policy: "
        f"max residual {resid:.2e}, slope {coeffs[0]:.6g}"
    )
    form = profit_linear_form(base, policy)
    lines.append(
        f"[INFO] slope equals -F = {-form.f_coef + 0.0:.6g}; an all-zeros policy has "
        "F = 0, so its profit line is flat rather than strictly decreasing"
    )
    return ok, lines, ["penalty", "eta"], rows


def _sigfig_tolerance(value: float, sig_figs: int) -> float:
    if value == 0:
        return 0.5
    return 0.5 * 10 ** (math.floor(math.log10(abs(value))) - (sig_figs - 1))


def _table2_error(params: SystemParams, fx: dict) -> tuple[float, list[tuple]]:
    """Worst tolerance-scaled deviation against the reference table.

    Column 0 is the boundary margin R + c_lost2, the root of the offset
    alone where no decision exists; column i is penalty root i of one
    profile per policy.
    """
    worst = 0.0
    rows = []
    for name, spec in fx["policies"].items():
        policy = _parse_policy(spec, params.threshold)
        roots = penalty_roots(params, policy).roots
        for i, want in enumerate(fx["reference"][name]):
            got = params.price + params.c_lost2 if i == 0 else float(roots[i - 1])
            if abs(want) < fx["large_magnitude"]:
                tol = fx["abs_tolerance"]
            else:
                tol = _sigfig_tolerance(want, fx["sig_figs"])
            scaled = abs(got - want) / tol
            worst = max(worst, scaled)
            rows.append((name, i, got, want, tol, scaled))
    return worst, rows


def _table2_params(fx: dict, price: float) -> SystemParams:
    return SystemParams.from_json_dict({**fx["params"], "price_r": price})


def _table2_price(fx: dict) -> float:
    """The service price in the search range whose worst scaled deviation is least.

    Every table entry is affine in the price R: column 0 is R + c_lost2, and
    a root num/den has num affine in R and den free of it.  So entry j's
    scaled deviation is |s_j R + c_j|, with s_j and c_j fixed by two
    profiles per policy at the ends of the range, and the largest of them
    is least at an end or where two of the lines +-(s_j R + c_j) cross.
    The smallest such price wins a tie.
    """
    lo, hi = fx["price_search"]["lo"], fx["price_search"]["hi"]
    ends = [_table2_error(_table2_params(fx, r), fx)[1] for r in (lo, hi)]
    got = np.array([[row[2] for row in rows] for rows in ends])
    want, tol = np.array([row[3:5] for row in ends[0]]).T
    slope = (got[1] - got[0]) / (hi - lo) / tol
    offset = (got[0] - want) / tol - slope * lo
    s, c = np.concatenate((slope, -slope)), np.concatenate((offset, -offset))
    i, j = np.triu_indices(len(s), 1)
    apart = s[i] != s[j]
    cross = (c[j] - c[i])[apart] / (s[i] - s[j])[apart]
    prices = np.unique(np.concatenate(([lo, hi], cross[(cross > lo) & (cross < hi)])))
    worst = np.max(np.abs(np.outer(prices, s) + c), axis=1)
    return float(prices[np.argmin(worst)])


def reproduce_table2() -> tuple[bool, list[str], list[str], list[tuple]]:
    fx = _load_fixture("table2")
    lo, hi = fx["price_search"]["lo"], fx["price_search"]["hi"]
    best = _table2_price(fx)
    worst, rows = _table2_error(_table2_params(fx, best), fx)
    ok = worst <= 1.0
    lines = [f"[INFO] calibrated service price R = {best:g} (search range [{lo}, {hi}])"]
    if ok:
        lines.append(
            f"[PASS] all {len(rows)} table entries within tolerance "
            f"(worst scaled deviation {worst:.3f})"
        )
    else:
        lines.append(
            f"[FAIL] closest match at R = {best:g} leaves worst scaled deviation "
            f"{worst:.3f} > 1; table not reproduced on the searched grid"
        )
    return ok, lines, ["policy", "column", "computed", "reference", "tolerance", "scaled_dev"], rows


REPRODUCE_TARGETS = {
    "example1": reproduce_example1,
    "example2": reproduce_example2,
    "example3": reproduce_example3,
    "example4": reproduce_example4,
    "table2": reproduce_table2,
}


def cmd_reproduce(args) -> int:
    runner = REPRODUCE_TARGETS[args.target]
    ok, lines, header, rows = runner()
    for line in lines:
        print(line)
    if args.out:
        _emit_csv(args, header, rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockrationing",
        description="Stock-rationing queue analysis: exact chain solutions, "
        "policy optimization, threshold sweeps and simulation checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Every command that loads a config shares these; the rest are declared
    # only on the commands that read them.
    loaded = argparse.ArgumentParser(add_help=False)
    loaded.add_argument("--config", help="JSON config with params and options")
    loaded.add_argument("--out", help="write output to this path instead of stdout")
    loaded.add_argument("--penalty", type=float, default=None, help="override penalty cost")
    policy_help = '"zeros", "ones", comma list or JSON array'

    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[loaded], help="solve one policy end to end")
    p_solve.add_argument("--format", choices=["json", "csv"], default="json")
    p_solve.add_argument("--policy", help=policy_help)
    p_solve.add_argument("--shift", type=float, default=0.0, help="uniform potential shift")
    p_solve.set_defaults(func=cmd_solve)

    p_opt = sub.add_parser("optimize", parents=[loaded], help="find the optimal policy")
    p_opt.add_argument("--oracle", action="store_true", help="cross-check with enumeration")
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", parents=[loaded], help="grid sweeps to CSV")
    p_sweep.add_argument("--var", choices=["theta", "lambda", "penalty"], required=True)
    p_sweep.add_argument("--grid", help="start:stop:count or comma list")
    p_sweep.add_argument("--policy", help=policy_help)
    p_sweep.add_argument("--with-theta-star", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[loaded], help="simulation estimate of eta")
    p_sim.add_argument("--format", choices=["json", "csv"], default="json")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--policy", help=policy_help)
    p_sim.add_argument("--horizon", type=float, default=1e5)
    p_sim.add_argument("--replications", type=int, default=20)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="rerun a packaged experiment")
    p_rep.add_argument("target", choices=sorted(REPRODUCE_TARGETS))
    p_rep.add_argument("--out", help="write the result rows as CSV to this path")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StockRationingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
