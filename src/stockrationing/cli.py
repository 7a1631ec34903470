"""Command-line front end: solve, optimize, sweep, simulate, reproduce.

Every command but reproduce needs a JSON file (--config) holding the
system parameters under "params" (or as the whole object) plus optional
command-specific entries; command-line flags override the file.  All
outputs are deterministic given the config and seed.  solve writes the
views of one chain record (`chain_record`); its --shift, which must be
finite, moves g alone, not g_diff or the Poisson residual.  JSON has no
infinities, so solve writes an infinite penalty root, p_low or p_high as
the string "inf" or "-inf".  Exit status is 0 on success, 1 when a
requested check fails, 2 on usage or parse errors and rejected input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__
from .chain import _first_best, average_profit, chain_record
from .model import (ENUMERATION_CAP, PARAM_JSON_KEYS, Policy, StockRationingError, SystemParams,
                    reward_structure)
from .optimizer import ORACLE_MATCH_TOL, brute_force_optimal, global_optimal
from .sim import simulate
from .staticpol import _threshold_rows, optimal_static_threshold


class UsageError(StockRationingError):
    pass


FIXTURES = resources.files("stockrationing").joinpath("fixtures")


def _load_fixture(name: str) -> dict:
    return json.loads(FIXTURES.joinpath(f"{name}.json").read_text())


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"config {path} is not UTF-8 text") from None
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = SystemParams.from_json_dict(raw)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return params


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
            values = np.linspace(start, stop, count).tolist()
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, default=np.ndarray.tolist, allow_nan=False) + "\n")


def _json_float(x: float) -> float | str:
    """x, or the string "inf" or "-inf" where it is infinite."""
    return str(x) if math.isinf(x) else x


def _emit_csv(args, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buf.getvalue())


def cmd_solve(args) -> int:
    params, policy = _load_inputs(args)
    record, shift = chain_record(params, policy), args.shift
    if not math.isfinite(shift):
        raise UsageError(f"shift must be finite, got {shift!r}")
    g = record.g + shift if shift != 0.0 else record.g    # g(0) = shift
    if args.format == "csv":
        # States 0..N; g_diff starts at 1, and the roots and their ranks fill 1..K.
        pad = [""] * (params.capacity - params.threshold)
        rank = np.argsort(record.sort_perm) + 1
        _emit_csv(args, ["state", "pi", "g", "g_diff", "penalty_root", "sorted_rank"],
                  zip(range(params.capacity + 1), record.pi.tolist(), g.tolist(),
                      ["", *record.g_diff.tolist()], ["", *record.roots.tolist(), *pad],
                      ["", *rank.tolist(), *pad]))
    else:
        _emit_json(
            args,
            {
                "params": params.to_json_dict(),
                "policy": policy.to_json_list(),
                "eta": record.eta(params.penalty),
                "d_coef": record.d_coef,
                "f_coef": record.f_coef,
                "pi": record.pi,
                "g": g,
                "shift": shift,
                "poisson_residual": record.residual,
                "g_diff": record.g_diff,
                "offset_b": params.price + params.c_lost2 - params.penalty,
                "penalty_roots": [_json_float(root) for root in record.roots.tolist()],
                "p_low": _json_float(record.p_low),
                "p_high": _json_float(record.p_high),
                "sort_perm": record.sort_perm,
            },
        )
    return 0


def cmd_optimize(args) -> int:
    config = _load_config(args.config)
    params = _params_from_config(config, args.penalty)
    result = global_optimal(params)
    confirmed = None
    if args.oracle:
        eta = brute_force_optimal(params)[1]
        confirmed = abs(eta - result.eta) <= ORACLE_MATCH_TOL * max(1.0, abs(eta))
    _emit_json(args, {**result.to_json_dict(), "oracle_confirmed": confirmed,
                      "iterations": result.iterations})
    return 1 if confirmed is False else 0


def _at(params: SystemParams, var: str, value: float) -> SystemParams:
    return replace(params, **{"lam" if var == "lambda" else "penalty": value})


def _sweep(params: SystemParams, policy: Policy | np.ndarray | None, var: str, grid) -> list:
    """eta at each grid value: of static threshold theta, or of the policy or each
    row of a decision stack at that supply rate or penalty.  No view of D or F
    reads P, so a theta or penalty grid reads one record; each value is checked."""
    if var == "theta":
        return chain_record(params, _threshold_rows(params, grid)).eta(params.penalty).tolist()
    etas, record = [], None
    for value in grid:
        at = _at(params, var, value)
        if var == "lambda" or record is None:
            record = chain_record(at, policy)
        etas.append(record.eta(at.penalty))
    return etas


def cmd_sweep(args) -> int:
    var = args.var
    params, policy = _load_inputs(args, needs_policy=var != "theta")
    header = ["theta" if var == "theta" else "grid_value", "eta"]
    if var == "theta":
        grid = range(1, params.threshold + 2)
        if args.grid:
            grid = _parse_grid(args.grid)
            if not all(float(x).is_integer() for x in grid):
                raise UsageError(f"theta grid values must be integers, got {args.grid!r}")
            grid = [int(x) for x in grid]
    elif not args.grid:
        raise UsageError(f"sweep over {var} needs --grid")
    else:
        grid = _parse_grid(args.grid)
    rows = [[value, eta] for value, eta in zip(grid, _sweep(params, policy, var, grid))]
    if args.with_theta_star and var != "theta":
        header.append("theta_star")
        stack = _threshold_rows(params, range(1, params.threshold + 2))
        for row, etas in zip(rows, _sweep(params, stack, var, grid)):
            row.append(1 + _first_best(etas))
    _emit_csv(args, header, rows)
    return 0


def cmd_simulate(args) -> int:
    params, policy = _load_inputs(args)
    estimate = simulate(params, policy, horizon=args.horizon,
                        replications=args.replications, seed=args.seed)
    eta = average_profit(params, policy)
    z = (estimate.eta_hat - eta) / estimate.std_err if estimate.std_err > 0 else 0.0
    if args.format == "csv":
        _emit_csv(args, ["rep", "eta_hat_rep"], enumerate(estimate.rep_estimates.tolist()))
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

TARGETS = sorted(f.name[: -len(".json")] for f in FIXTURES.iterdir() if f.name.endswith(".json"))
PARAM_ATTRS = dict(PARAM_JSON_KEYS)


def _table2_rows(spec: dict, params: SystemParams) -> list[dict]:
    """Each reference entry beside its computed value, its tolerance and the
    deviation scaled by that tolerance.

    Column 0 is the boundary margin R + c_lost2, the root of the offset
    alone where no decision exists; column i is penalty root i of the
    policy's row in one stack.  An entry of magnitude past `large_magnitude`
    is held to half a unit in its last of `sig_figs` significant digits.
    """
    rows, policies = [], spec["policies"]
    stack = chain_record(params, np.array([_parse_policy(literal, params.threshold).as_array()
                                           for literal in policies.values()]))
    for name, roots in zip(policies, stack.roots):
        for i, want in enumerate(spec["reference"][name]):
            got = params.price + params.c_lost2 if i == 0 else float(roots[i - 1])
            tol = spec["abs_tolerance"]
            if abs(want) >= spec["large_magnitude"]:
                tol = 0.5 * 10 ** (math.floor(math.log10(abs(want))) - spec["sig_figs"] + 1)
            rows.append({"policy": name, "column": i, "computed": got, "reference": want,
                         "tolerance": tol, "scaled_dev": abs(got - want) / tol})
    return rows


def _table2_price(spec: dict, params: SystemParams) -> float:
    """The service price in the search range whose worst scaled deviation is least.

    Every table entry is affine in the price R: column 0 is R + c_lost2, and
    a root num/den has num affine in R and den free of it.  So entry j's
    scaled deviation is |s_j R + c_j|, with s_j and c_j fixed by two
    profiles per policy at the ends of the range, and the largest of them
    is least at an end or where two of the lines +-(s_j R + c_j) cross.
    The smallest such price wins a tie.
    """
    lo, hi = spec["price_search"]
    ends = [_table2_rows(spec, replace(params, price=r)) for r in (lo, hi)]
    got = np.array([[row["computed"] for row in rows] for rows in ends])
    want, tol = np.array([[row["reference"], row["tolerance"]] for row in ends[0]]).T
    slope = (got[1] - got[0]) / (hi - lo) / tol
    offset = (got[0] - want) / tol - slope * lo
    s, c = np.concatenate((slope, -slope)), np.concatenate((offset, -offset))
    i, j = np.triu_indices(len(s), 1)
    apart = s[i] != s[j]
    cross = (c[j] - c[i])[apart] / (s[i] - s[j])[apart]
    # sorted distinct prices, not by np.unique, which imports numpy.ma on first use
    prices = np.array(sorted({lo, hi, *cross[(cross > lo) & (cross < hi)].tolist()}), float)
    worst = np.max(np.abs(np.outer(prices, s) + c), axis=1)
    return float(prices[np.argmin(worst)])


def _check(name: str, spec: dict, params: SystemParams, policy: Policy | None,
           rows: list[dict]) -> tuple[bool, str]:
    """One declared check of a case's evaluated rows: its verdict and what it saw."""
    etas = [row.get("eta") for row in rows]
    match name:
        case "expected_eta":
            want, tol = spec["expected_eta"], spec["tolerance"]
            return abs(etas[0] - want) <= tol, f"eta={etas[0]:.4f} expected={want} (+/-{tol})"
        case "static_optimum":
            theta, eta = optimal_static_threshold(params, thetas=spec["sweep"]["grid"])
            want, tol = (spec["expected_theta"], spec["expected_eta"]), spec["tolerance"]
            ok = theta == want[0] and abs(eta - want[1]) <= tol
            return ok, (f"theta*={theta} eta={eta:.4f} expected theta*={want[0]} "
                        f"eta={want[1]} (+/-{tol})")
        case "strict_gap":
            best, dyn = max(etas), average_profit(params, Policy.all_zeros(params.threshold))
            return best < dyn, (f"best static eta={best:.4f} < all-zeros dynamic "
                                f"eta={dyn:.4f} (strict gap)")
        case "nondecreasing":
            ok = all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))
            return ok, (f"eta nondecreasing over {spec['sweep']['var']} grid "
                        f"({etas[0]:.3f} .. {etas[-1]:.3f})")
        case "affine":
            grid = spec["sweep"]["grid"]
            coeffs = np.polyfit(grid, etas, 1)
            resid = float(np.max(np.abs(np.asarray(etas) - np.polyval(coeffs, grid))))
            record = chain_record(params, policy)    # pi and F do not read P
            # eta = D - P*F by construction, so each is also held to pi @ f
            gap = max(abs(eta - float(record.pi @ reward_structure(params.with_penalty(v),
                                                                   policy))) / max(1.0, abs(eta))
                      for v, eta in zip(grid, etas))
            return resid < 1e-9 and gap <= 1e-9, (
                f"eta(P) affine for fixed policy: max residual {resid:.2e}, slope "
                f"{coeffs[0]:.6g} against -F = {-record.f_coef + 0.0:.6g}, worst gap to pi @ f "
                f"{gap:.2e}")
        case "within_tolerance":
            worst, (lo, hi) = max(row["scaled_dev"] for row in rows), spec["price_search"]
            found = f"all {len(rows)} entries within tolerance" if worst <= 1 else "closest match"
            return worst <= 1, (f"{found} at calibrated service price R = {params.price:g} "
                                f"in [{lo}, {hi}]: worst scaled deviation {worst:.3f}")
    raise ValueError(f"unknown check {name!r}")    # a broken packaged fixture, not a usage error


def reproduce(target: str) -> tuple[bool, list[str], list[str], list[tuple]]:
    """Run one packaged experiment: whether every check passed, one verdict
    line per check, and the CSV header and rows.

    A fixture holds base "params", "cases" (or is its own one case) and
    declarations that a case may override; a case's parameter keys merge
    over the base.  Its "quantity" is "eta", the profit of its "policy" (of
    each threshold when the "sweep" is over theta) once or at each "sweep"
    value, or "roots", table2's penalty roots at the calibrated price.  Each
    of its "checks" gives one verdict; "columns" maps CSV headers to row keys.
    """
    fx = _load_fixture(target)
    base = SystemParams.from_json_dict(fx["params"])
    ok, lines, records = True, [], []
    for case in fx.get("cases", [{}]):
        spec = {**fx, **case}
        params = replace(base, **{PARAM_ATTRS[k]: v for k, v in case.items() if k in PARAM_ATTRS})
        policy = _parse_policy(spec.get("policy"), params.threshold)
        if spec["quantity"] == "roots":
            params = replace(params, price=_table2_price(spec, params))
            rows = _table2_rows(spec, params)
        elif "sweep" in spec:
            var, grid = spec["sweep"]["var"], spec["sweep"]["grid"]
            rows = [{var: v, "eta": eta}
                    for v, eta in zip(grid, _sweep(params, policy, var, grid))]
        else:
            rows = [{"eta": average_profit(params, policy)}]
        records += [{**case, **row} for row in rows]
        label = ", ".join(f"{k}={v}" for k, v in case.items() if k in {*PARAM_ATTRS, "policy"})
        for name in spec["checks"]:
            passed, text = _check(name, spec, params, policy, rows)
            ok &= passed
            lines.append(f"[{'PASS' if passed else 'FAIL'}] {text}{label and ' for ' + label}")
    columns = fx["columns"]
    return ok, lines, list(columns), [tuple(rec[k] for k in columns.values()) for rec in records]


def cmd_reproduce(args) -> int:
    ok, lines, header, rows = reproduce(args.target)
    # The CSV first, so a run that cannot write it prints no verdicts.
    if args.out:
        _emit_csv(args, header, rows)
    print("\n".join(lines))
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
    loaded.add_argument("--config", required=True, help="JSON config with params and options")
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
    p_opt.add_argument("--oracle", action="store_true", help="cross-check with the exact "
                       f"optimum over all 2^K policies, K <= {ENUMERATION_CAP}, by Dinkelbach's "
                       "parametric search")
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
    p_rep.add_argument("target", choices=TARGETS)
    p_rep.add_argument("--out", help="write the result rows as CSV to this path")
    p_rep.set_defaults(func=cmd_reproduce)

    # argparse reads "-1e20" as an option; every negative float literal is a value
    number = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for command in sub.choices.values():
        command._negative_number_matcher = number
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
