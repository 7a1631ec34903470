import csv
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stockrationing import Policy, SystemParams, chain_record, cli
from stockrationing.cli import main

EX1 = {
    "params": {
        "lambda": 3, "mu1": 4, "mu2": 2, "capacity_n": 100, "threshold_k": 15,
        "c_hold": 1, "c_lost1": 4, "c_lost2": 1, "c_buy": 5, "c_opp": 1,
        "price_r": 15, "penalty_p": 10,
    }
}

# mu2 = 1e13 makes both coefficients of the margin at state 3 of policy
# (0, 0, 1) about 1e-13, so its root and p_high are +inf.
DEGENERATE = {
    "params": {
        "lambda": 2, "mu1": 1, "mu2": 1e13, "capacity_n": 5, "threshold_k": 3,
        "c_hold": 1, "c_lost1": 4, "c_lost2": 1, "c_buy": 5, "c_opp": 1,
        "price_r": 15, "penalty_p": 2,
    }
}

SMALL = {
    "params": {
        "lambda": 1, "mu1": 1, "mu2": 1, "capacity_n": 2, "threshold_k": 1,
        "c_hold": 1, "c_lost1": 4, "c_lost2": 1, "c_buy": 5, "c_opp": 1,
        "price_r": 15, "penalty_p": 0,
    }
}


@pytest.fixture
def config_path(tmp_path):
    def write(payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_json_report(self, config_path, capsys):
        code, out, _ = run_cli(
            ["solve", "--config", config_path(SMALL), "--policy", "zeros"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["eta"] == pytest.approx(4.6, abs=1e-12)
        assert report["pi"] == pytest.approx([0.4, 0.4, 0.2])
        assert report["g_diff"] == pytest.approx([-14.6, -11.2])
        assert report["penalty_roots"] == pytest.approx([1.4])

    def test_missing_policy_is_usage_error(self, config_path, capsys):
        code, _, err = run_cli(["solve", "--config", config_path(SMALL)], capsys)
        assert code == 2
        assert "policy" in err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["solve", "--config", str(bad), "--policy", "zeros"], capsys)
        assert code == 2
        assert "JSON" in err

    def test_shift_moves_potential_only(self, config_path, capsys):
        base_args = ["solve", "--config", config_path(SMALL), "--policy", "zeros"]
        _, out, _ = run_cli(base_args, capsys)
        _, shifted_out, _ = run_cli(base_args + ["--shift", "2.5"], capsys)
        base, shifted = json.loads(out), json.loads(shifted_out)
        assert shifted["shift"] == 2.5
        assert shifted["g"] == pytest.approx([g + 2.5 for g in base["g"]], abs=1e-12)
        assert shifted["g_diff"] == pytest.approx(base["g_diff"], abs=1e-12)

    @pytest.mark.parametrize("shift", ["inf", "nan", "-inf"])
    def test_non_finite_shift_is_usage_error(self, config_path, capsys, shift):
        code, out, err = run_cli(
            ["solve", "--config", config_path(SMALL), "--policy", "zeros",
             f"--shift={shift}", "--format", "csv"], capsys
        )
        assert (code, out) == (2, "")
        assert "shift" in err

    def test_huge_shift_moves_g_alone(self, config_path, capsys):
        cfg = dict(EX1, params=dict(EX1["params"], capacity_n=40))
        base_args = ["solve", "--config", config_path(cfg), "--policy", "ones"]
        _, out, _ = run_cli(base_args, capsys)
        _, shifted_out, _ = run_cli(base_args + ["--shift", "1e20"], capsys)
        base, shifted = json.loads(out), json.loads(shifted_out)
        assert shifted["g"] == [g + 1e20 for g in base["g"]]
        assert (shifted["g_diff"], shifted["poisson_residual"]) == (base["g_diff"],
                                                                    base["poisson_residual"])
        assert {**shifted, "g": base["g"], "shift": 0.0} == base

    def test_penalty_flag_overrides_the_config(self, config_path, capsys):
        args = ["solve", "--config", config_path(EX1), "--policy", "ones"]
        _, flagged, _ = run_cli(args + ["--penalty", "2.5"], capsys)
        cfg = dict(EX1, params=dict(EX1["params"], penalty_p=2.5))
        _, configured, _ = run_cli(["solve", "--config", config_path(cfg), "--policy", "ones"],
                                   capsys)
        assert json.loads(flagged)["params"]["penalty_p"] == 2.5
        assert flagged == configured

    def test_csv_format(self, config_path, capsys):
        code, out, _ = run_cli(
            ["solve", "--config", config_path(SMALL), "--policy", "zeros",
             "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["state", "pi", "g", "g_diff", "penalty_root", "sorted_rank"]
        assert len(rows) == 4

    def test_csv_columns_are_the_record_columns(self, config_path, capsys):
        cfg = dict(EX1, params=dict(EX1["params"], capacity_n=40, threshold_k=12))
        # sort_perm ends (..., 12, 10, 11), a 3-cycle, so it is not its own inverse
        policy = Policy((0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1))
        code, out, _ = run_cli(["solve", "--config", config_path(cfg), "--format", "csv",
                                "--policy", "0,1,1,0,0,1,0,1,1,0,0,1"], capsys)
        assert code == 0
        params = SystemParams.from_json_dict(cfg["params"])
        record = chain_record(params, policy)
        state, pi, g, g_diff, root, rank = zip(*list(csv.reader(io.StringIO(out)))[1:])
        assert state == tuple(str(i) for i in range(41))
        assert [float(x) for x in pi] == record.pi.tolist()
        assert [float(x) for x in g] == record.g.tolist()
        assert [float(x) for x in g_diff[1:]] == record.g_diff.tolist()
        assert [float(x) for x in root[1:13]] == record.roots.tolist()
        # sorted_rank inverts sort_perm: position sort_perm[j] has rank j + 1
        assert [int(rank[pos]) for pos in record.sort_perm] == list(range(1, 13))
        assert {g_diff[0], root[0], rank[0], *root[13:], *rank[13:]} == {""}

    def test_infinite_values_are_json_strings(self, config_path, capsys):
        def no_constants(name):
            raise AssertionError(f"bare {name} in JSON output")

        args = ["solve", "--config", config_path(DEGENERATE), "--policy", "0,0,1"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out, parse_constant=no_constants)
        assert report["penalty_roots"][2] == "inf" and report["p_high"] == "inf"
        assert all(isinstance(x, float) for x in report["penalty_roots"][:2] + report["pi"])
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert (code, out.splitlines()[4].split(",")[4:]) == (0, ["inf", "3"])


class TestOptimize:
    def test_report_keys_and_oracle(self, config_path, capsys):
        # zero penalty: serving is free, so the all-ones policy wins
        code, out, _ = run_cli(
            ["optimize", "--config", config_path(SMALL), "--oracle"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["policy"] == [1]
        assert report["eta"] == pytest.approx(5.0, abs=1e-9)
        assert report["region"] == "LowPenalty"
        assert report["oracle_confirmed"] is True

    def test_report_key_order_without_oracle(self, config_path, capsys):
        code, out, _ = run_cli(["optimize", "--config", config_path(SMALL)], capsys)
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["policy", "eta", "region", "n0", "sort_perm",
                                "oracle_confirmed", "iterations"]
        assert report["oracle_confirmed"] is None

    def test_oracle_mismatch_reports_false_and_exits_1(self, config_path, capsys, monkeypatch):
        def off_by_one(params):
            return Policy.all_ones(params.threshold), 6.0    # the optimum's eta is 5

        monkeypatch.setattr(cli, "brute_force_optimal", off_by_one)
        code, out, _ = run_cli(["optimize", "--config", config_path(SMALL), "--oracle"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["eta"] == pytest.approx(5.0, abs=1e-9)
        assert report["oracle_confirmed"] is False
        assert list(report)[-2:] == ["oracle_confirmed", "iterations"]

    def test_high_penalty_region(self, config_path, capsys):
        cfg = dict(SMALL, params=dict(SMALL["params"], penalty_p=10))
        code, out, _ = run_cli(["optimize", "--config", config_path(cfg), "--oracle"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["policy"] == [0]
        assert report["region"] == "HighPenalty"

    def test_tie_penalty(self, config_path, capsys):
        cfg = dict(SMALL, params=dict(SMALL["params"], penalty_p=1.4))
        code, out, _ = run_cli(["optimize", "--config", config_path(cfg)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["eta"] == pytest.approx(4.6, abs=1e-9)

    def test_oracle_cap_exceeded(self, config_path, capsys):
        cfg = dict(EX1, params=dict(EX1["params"], capacity_n=40, threshold_k=30))
        code, _, err = run_cli(["optimize", "--config", config_path(cfg), "--oracle"], capsys)
        assert code == 2
        assert "cap" in err.lower()


class TestErrorMapping:
    def test_reversed_priority_warns_once_per_run(self, config_path, capsys):
        # The warning is one plain line on every run, however many run in
        # one process.
        cfg = dict(SMALL, params=dict(SMALL["params"], c_lost1=0.5))
        args = ["optimize", "--config", config_path(cfg)]
        runs = [run_cli(args, capsys) for _ in range(2)]
        want = "warning: c_lost1=0.5 <= c_lost2=1: Class-1 priority assumption violated\n"
        assert runs[0] == runs[1] and runs[0][::2] == (0, want)

    def test_nan_penalty_in_config_is_usage_error(self, config_path, capsys):
        cfg = dict(SMALL, params=dict(SMALL["params"], penalty_p=float("nan")))
        code, _, err = run_cli(["optimize", "--config", config_path(cfg)], capsys)
        assert code == 2
        assert "penalty" in err

    @pytest.mark.parametrize("grid", ["1,x", "0:1:two"])
    def test_malformed_grid_is_usage_error(self, config_path, capsys, grid):
        code, _, err = run_cli(
            ["sweep", "--config", config_path(SMALL), "--var", "penalty",
             "--grid", grid, "--policy", "ones"], capsys
        )
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8",
                                      "optimize-out-dir-missing", "reproduce-out-dir-missing"])
    def test_unreadable_or_unwritable_path_is_usage_error(self, tmp_path, config_path, capsys,
                                                          case):
        missing = str(tmp_path / "missing" / "x.out")
        if case == "config-is-a-directory":
            path, argv = str(tmp_path), ["solve", "--config", str(tmp_path), "--policy", "ones"]
        elif case == "config-not-utf8":
            path = str(tmp_path / "latin1.json")
            Path(path).write_bytes(json.dumps(SMALL).encode().replace(b"{", b"{\xff", 1))
            argv = ["solve", "--config", path, "--policy", "ones"]
        elif case == "optimize-out-dir-missing":
            path, argv = missing, ["optimize", "--config", config_path(SMALL), "--out", missing]
        else:
            path, argv = missing, ["reproduce", "example3", "--out", missing]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert path in err and "Traceback" not in err
        if case == "reproduce-out-dir-missing":
            assert out == ""    # no verdicts from a run whose CSV was not written

    @pytest.mark.parametrize("grid, message", [
        ("1:2", "start:stop:count"), ("1:2:0", "count must be >= 1"),
        ("1,inf", "must be finite"), ("nan:1:3", "must be finite"),
    ])
    def test_grid_shape_count_and_finiteness_are_checked(self, config_path, capsys, grid,
                                                         message):
        code, out, err = run_cli(
            ["sweep", "--config", config_path(SMALL), "--var", "penalty",
             "--grid", grid, "--policy", "ones"], capsys
        )
        assert (code, out) == (2, "")
        assert message in err

    def test_config_that_is_not_an_object_is_usage_error(self, config_path, capsys):
        code, _, err = run_cli(["optimize", "--config", config_path([SMALL])], capsys)
        assert code == 2
        assert "config must be a JSON object" in err

    @pytest.mark.parametrize("cfg", [{"mu1": 1.0}, {"params": {"mu1": 1.0}}, {"params": [1]}],
                             ids=["bare-object", "params-object", "params-not-an-object"])
    def test_config_without_lambda_names_params(self, config_path, capsys, cfg):
        code, out, err = run_cli(["optimize", "--config", config_path(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == 'error: config needs a "params" object with a "lambda" key\n'

    @pytest.mark.parametrize("argv", [["solve", "--policy", "zeros"], ["optimize"],
                                      ["sweep", "--var", "theta"],
                                      ["simulate", "--policy", "ones"]])
    def test_missing_config_is_named(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    def test_grid_values_are_reported_as_plain_floats(self, config_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--config", config_path(SMALL), "--var", "lambda",
             "--grid", "0:2:3", "--policy", "ones"], capsys
        )
        assert code == 2
        assert "got 0.0" in err and "np." not in err

    def test_malformed_policy_is_usage_error(self, config_path, capsys):
        code, _, err = run_cli(
            ["solve", "--config", config_path(SMALL), "--policy", "1,x"], capsys
        )
        assert code == 2
        assert "policy" in err

    @pytest.mark.parametrize(
        "source,policy,code",
        [("flag", "[0.9,1]", 2), ("config", [0.9, 1], 2), ("flag", "[1.0,0]", 0),
         ("config", [1.0, 0], 0)],
    )
    def test_fractional_policy_is_usage_error(self, config_path, capsys, source, policy, code):
        config = {"params": {**SMALL["params"], "threshold_k": 2}}
        args = ["solve", "--format", "csv"]
        if source == "flag":
            args += ["--policy", policy]
        else:
            config["policy"] = policy
        got, _, err = run_cli(args + ["--config", config_path(config)], capsys)
        assert got == code
        if code:
            assert "0.9" in err

    @pytest.mark.parametrize(
        "argv",
        [["reproduce", "example4", "--penalty", "3", "--oracle", "--format", "json",
          "--config", "missing.json"],
         ["optimize", "--config", "missing.json", "--format", "csv"]],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_library_value_error_propagates(self, config_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "global_optimal", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["optimize", "--config", config_path(SMALL)])


class TestSweep:
    def test_theta_sweep(self, config_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--config", config_path(EX1), "--var", "theta"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theta", "eta"]
        assert len(rows) == 17  # header + theta = 1..16

    @pytest.mark.parametrize(
        "grid,thetas", [("1.9,2.5", None), ("1,2.0", ["1", "2"]), ("1:3:3", ["1", "2", "3"])]
    )
    def test_theta_grid_rejects_fractional_values(self, config_path, capsys, grid, thetas):
        code, out, err = run_cli(
            ["sweep", "--config", config_path(EX1), "--var", "theta", "--grid", grid], capsys
        )
        if thetas is None:
            assert code == 2
            assert "integers" in err
        else:
            assert code == 0
            assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == thetas

    def test_penalty_sweep_is_affine(self, config_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--config", config_path(EX1), "--var", "penalty",
             "--grid", "0:50:11", "--policy", "ones"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        xs = [float(r[0]) for r in rows]
        ys = [float(r[1]) for r in rows]
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        for x, y in zip(xs, ys):
            assert y == pytest.approx(ys[0] + slope * (x - xs[0]), abs=1e-9)

    def test_lambda_sweep_columns(self, config_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--config", config_path(SMALL), "--var", "lambda",
             "--grid", "0.5,1.0,1.5", "--policy", "ones", "--with-theta-star"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["grid_value", "eta", "theta_star"]
        assert len(rows) == 4

    def test_missing_grid_is_usage_error(self, config_path, capsys):
        code, _, _ = run_cli(
            ["sweep", "--config", config_path(SMALL), "--var", "penalty",
             "--policy", "ones"], capsys
        )
        assert code == 2

    def test_empty_grid(self, config_path, capsys):
        code, _, _ = run_cli(
            ["sweep", "--config", config_path(SMALL), "--var", "penalty",
             "--grid", " ", "--policy", "ones"], capsys
        )
        assert code == 2


class TestSimulate:
    def test_json_report_with_z_score(self, config_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", config_path(SMALL), "--policy", "zeros",
             "--horizon", "2000", "--replications", "4", "--seed", "3"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["analytic_eta"] == pytest.approx(4.6, abs=1e-12)
        assert "z_score" in report and report["std_err"] > 0

    def test_deterministic_given_seed(self, config_path, capsys):
        args = ["simulate", "--config", config_path(SMALL), "--policy", "zeros",
                "--horizon", "1000", "--replications", "3", "--seed", "8"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_single_replication_is_usage_error(self, config_path, capsys):
        code, _, _ = run_cli(
            ["simulate", "--config", config_path(SMALL), "--policy", "zeros",
             "--replications", "1"], capsys
        )
        assert code == 2

    def test_nan_horizon_is_usage_error(self, config_path, capsys):
        code, out, err = run_cli(
            ["simulate", "--config", config_path(SMALL), "--policy", "zeros",
             "--horizon", "nan", "--replications", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert "horizon" in err

    def test_negative_seed_is_usage_error(self, config_path, capsys):
        code, out, err = run_cli(
            ["simulate", "--config", config_path(SMALL), "--policy", "zeros",
             "--horizon", "100", "--replications", "3", "--seed", "-1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "seed" in err and "Traceback" not in err

    def test_per_rep_csv(self, config_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", config_path(SMALL), "--policy", "ones",
             "--horizon", "500", "--replications", "3", "--seed", "2",
             "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["rep", "eta_hat_rep"]
        assert len(rows) == 4


class TestReproduce:
    @pytest.mark.parametrize("target, code, n_rows, header", [
        ("example1", 1, 4, ["penalty", "policy", "eta", "expected_eta"]),
        ("example2", 1, 30, ["penalty", "theta", "eta"]),
        ("example3", 0, 102, ["penalty", "threshold_k", "lambda", "eta"]),
        ("example4", 0, 26, ["penalty", "eta"]),
        ("table2", 1, 33, ["policy", "column", "computed", "reference", "tolerance",
                           "scaled_dev"]),
    ])
    def test_every_target_exit_code_and_csv(self, capsys, tmp_path, target, code, n_rows,
                                            header):
        out_path = tmp_path / f"{target}.csv"
        got, out, _ = run_cli(["reproduce", target, "--out", str(out_path)], capsys)
        assert got == code
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == header
        assert len(rows) == 1 + n_rows
        # one verdict formatter: every printed line is a verdict
        lines = out.splitlines()
        assert lines and all(line.startswith(("[PASS] ", "[FAIL] ")) for line in lines)
        assert ("[FAIL]" in out) == (code == 1)

    def test_targets_are_the_packaged_fixtures(self):
        assert cli.TARGETS == ["example1", "example2", "example3", "example4", "table2"]

    def test_example3_passes(self, capsys):
        code, out, _ = run_cli(["reproduce", "example3"], capsys)
        assert code == 0
        assert "[FAIL]" not in out

    def test_example4_passes_and_reports_flat_slope(self, capsys):
        code, out, _ = run_cli(["reproduce", "example4"], capsys)
        assert code == 0
        assert "affine" in out

    def test_example4_affine_check_fails_on_a_shifted_profit(self, monkeypatch):
        # a profit off by an affine term still fits a line; the stationary
        # mean of each penalty's reward vector catches it
        profit = cli.average_profit
        monkeypatch.setattr(cli, "average_profit",
                            lambda params, policy: profit(params, policy) + 1e-6 * params.penalty)
        ok, lines, _, _ = cli.reproduce("example4")
        assert not ok
        assert lines[0].startswith("[FAIL]") and "worst gap to pi @ f" in lines[0]

    def test_example1_reports_documented_mismatch(self, capsys):
        # the published values are not reproducible from the printed model;
        # the harness must say so explicitly and exit with a check failure
        code, out, _ = run_cli(["reproduce", "example1"], capsys)
        assert code == 1
        assert out.count("FAIL") == 4

    def test_example2_reports_computed_optima(self, capsys):
        code, out, _ = run_cli(["reproduce", "example2"], capsys)
        assert code == 1
        # the qualitative fact survives: the best plotted static threshold
        # stays below the all-zeros dynamic profit at the high penalty
        assert "strict gap" in out and "[PASS] best static" in out
        assert "theta*=" in out

    def test_table2_soft_fails_with_calibration_report(self, capsys, tmp_path):
        out_path = tmp_path / "table2.csv"
        code, out, _ = run_cli(["reproduce", "table2", "--out", str(out_path)], capsys)
        assert "calibrated service price" in out
        if code != 0:
            assert "closest match" in out
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == ["policy", "column", "computed", "reference", "tolerance", "scaled_dev"]
        assert len(rows) == 1 + 33

    def test_table2_calibration_is_least_worst_deviation_on_the_range(self):
        # the closed-form minimax against the worst deviation at 501 prices
        fx = cli._load_fixture("table2")
        base = SystemParams.from_json_dict(fx["params"])
        lo, hi = fx["price_search"]
        best = cli._table2_price(fx, base)
        assert lo <= best <= hi

        def worst_at(price):
            rows = cli._table2_rows(fx, replace(base, price=price))
            return max(row["scaled_dev"] for row in rows)

        worst = worst_at(best)
        for price in np.linspace(lo, hi, 501):
            other = worst_at(float(price))
            assert worst <= other * (1 + 1e-9), price
