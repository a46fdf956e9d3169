import json

import numpy as np
import pytest

from mkridge.cli import main, read_trace_csv, rmse_series, rmse_t, _fmt


def write_config(tmp_path, **overrides):
    cfg = {
        "data": {"type": "synthetic", "length": 300, "noise_sd": 0.2, "seed": 1},
        "lag_order": 5,
        "horizon": 1,
        "seed": 0,
        "predict_steps": 80,
        "schedule": {"n": 40, "m": 10, "train_window": 50, "validation_window": 30},
        "model": {
            "kernel": [{"type": "se", "scale": 0.05}],
            "weights": [1.0],
            "ridge": 1.0,
        },
        "bounds": {"scale": [1e-4, 10.0], "ridge": [1e-3, 3.0]},
        "strategies": {"FIXED": {}},
        "format": "json",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestRmse:
    def test_all_zero_errors(self):
        assert rmse_t([0.0, 0.0, 0.0]) == 0.0

    def test_two_step_value(self):
        assert rmse_t([9.0, 16.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)

    def test_constant_error(self):
        series = rmse_series(np.full(10, 2.25))
        assert np.allclose(series, 1.5, rtol=0, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse_t([])

    def test_format_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(0, 100, 50):
            assert float(_fmt(float(x))) == float(x)


class TestGenerate:
    def test_writes_deterministic_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--length", "250", "--seed", "5", "--noise-sd", "0.1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_row_count_excludes_burn_in(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["generate", "--out", str(out), "--length", "250"]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 150  # header + (length - burn-in)

    def test_constant_series(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert main(["generate", "--out", str(out), "--length", "180", "--c1", "0", "--c2", "0"]) == 0
        values = {line.split(",")[1] for line in out.read_text().strip().splitlines()[1:]}
        assert values == {"1"}

    def test_bad_length_is_config_error(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x.csv"), "--length", "50"]) == 2


class TestRun:
    def test_fixed_only_reports_zero_self_improvement(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        entry = report["strategies"]["FIXED"]
        assert entry["improvement_vs_fixed"] == 0.0
        assert (out_dir / "trace_FIXED.csv").exists()

    def test_zero_eta_ohl_matches_fixed_rmse_series(self, tmp_path):
        cfg = write_config(tmp_path, strategies={"FIXED": {}, "OHL": {"eta": 0.0}})
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert (
            report["strategies"]["OHL"]["rmse_series"]
            == report["strategies"]["FIXED"]["rmse_series"]
        )

    def test_trace_round_trip_matches_report(self, tmp_path):
        cfg = write_config(tmp_path, strategies={"FIXED": {}, "OHL": {"eta": 1e-4}})
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        for name in ("FIXED", "OHL"):
            columns = read_trace_csv(out_dir / f"trace_{name}.csv")
            recomputed = rmse_t(columns["sq_err"])
            assert abs(recomputed - report["strategies"][name]["final_rmse"]) <= 1e-9

    def test_counter_summaries_in_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            strategies={"RANDOM": {"draws": 4}, "OHL": {"eta": 1e-4}},
        )
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        random_counts = report["strategies"]["RANDOM"]["fit_counts"]
        ohl_counts = report["strategies"]["OHL"]["fit_counts"]
        assert random_counts["tuning"]["fits"] == 2 * 5  # 2 events x (incumbent + 4 draws)
        assert ohl_counts["tuning"]["fits"] == 0
        assert ohl_counts["prediction"]["fits"] == 8  # ceil(80 / 10)

    def test_strategy_flag_selects_subset(self, tmp_path):
        cfg = write_config(tmp_path, strategies={"FIXED": {}, "OHL": {"eta": 1e-4}})
        out_dir = tmp_path / "results"
        assert main(
            ["run", "--config", str(cfg), "--out", str(out_dir), "--strategy", "FIXED"]
        ) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert list(report["strategies"]) == ["FIXED"]

    def test_csv_report_format(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir), "--format", "csv"]) == 0
        text = (out_dir / "report.csv").read_text()
        assert text.startswith("strategy,final_rmse")

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_no_strategies_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, strategies={})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_bad_csv_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,value\n0,1.0\n0,2.0\n", encoding="utf-8")
        cfg = write_config(tmp_path, data={"type": "csv", "path": str(bad)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"kernel": [{"type": "se", "scale": 0.0}], "weights": [1.0], "ridge": 1e-300},
            bounds={"scale": [0.0, 10.0], "ridge": [1e-300, 3.0]},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 4

    def test_data_flag_csv(self, tmp_path):
        series = tmp_path / "series.csv"
        assert main(["generate", "--out", str(series), "--length", "300", "--noise-sd", "0.1"]) == 0
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(
            ["run", "--config", str(cfg), "--data", str(series), "--out", str(out_dir)]
        ) == 0
        assert (out_dir / "trace_FIXED.csv").exists()


def finite_csv(tmp_path, bad_value):
    rows = [f"{t},{1.0 + 0.01 * t}" for t in range(300)]
    rows[1] = f"1,{bad_value}"  # data row 2 sits on file row 3
    path = tmp_path / "series.csv"
    path.write_text("timestamp,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return {"data": {"type": "csv", "path": str(path)}}


@pytest.mark.parametrize(
    "overrides, flags, code, needle",
    [
        pytest.param("nan", [], 3, "row 3", id="csv-nan"),
        pytest.param("inf", [], 3, "row 3", id="csv-inf"),
        pytest.param("-inf", [], 3, "row 3", id="csv-minus-inf"),
        pytest.param({"lag_order": 0}, [], 2, "lag_order", id="lag-zero"),
        pytest.param({"lag_order": -2}, [], 2, "lag_order", id="lag-negative"),
        pytest.param({"lag_order": 2.5}, [], 2, "lag_order", id="lag-fraction"),
        pytest.param({"lag_order": "five"}, [], 2, "lag_order", id="lag-string"),
        pytest.param({"lag_order": None}, [], 2, "lag_order", id="lag-null"),
        pytest.param({"horizon": 0}, [], 2, "horizon", id="horizon-zero"),
        pytest.param({"horizon": 1.5}, [], 2, "horizon", id="horizon-fraction"),
        pytest.param({"horizon": "1"}, [], 2, "horizon", id="horizon-string"),
        pytest.param({}, ["--horizon", "0"], 2, "horizon", id="horizon-flag-zero"),
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, overrides, flags, code, needle):
    """Bad inputs end with their documented exit code and a one-line message."""
    if isinstance(overrides, str):
        overrides = finite_csv(tmp_path, overrides)
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r"), *flags]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert needle in err


class TestRegret:
    def run_and_regret(self, tmp_path, eta):
        cfg = write_config(tmp_path, strategies={"OHL": {"eta": eta}})
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        trace = out_dir / "trace_OHL.csv"
        assert main(["regret", str(trace)]) == 0
        return out_dir / "regret_trace_OHL.csv"

    def test_monotone_output(self, tmp_path):
        regret_path = self.run_and_regret(tmp_path, eta=1e-4)
        rows = regret_path.read_text().strip().splitlines()[1:]
        totals = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] >= 0.0

    def test_zero_gradient_trace(self, tmp_path):
        trace = tmp_path / "trace_zero.csv"
        trace.write_text(
            "t,y,yhat,sq_err,rmse_t,grad_norm,proj_grad_norm\n"
            "0,1,1,0,0,0,0\n1,2,2,0,0,0,0\n",
            encoding="utf-8",
        )
        assert main(["regret", str(trace), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "regret_trace_zero.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [0.0, 0.0]

    def test_single_nonzero_step(self, tmp_path):
        trace = tmp_path / "trace_one.csv"
        trace.write_text(
            "t,y,yhat,sq_err,rmse_t,grad_norm,proj_grad_norm\n"
            "0,1,1,0,0,0,0\n1,2,2,0,0,3,3\n2,2,2,0,0,0,0\n",
            encoding="utf-8",
        )
        assert main(["regret", str(trace), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "regret_trace_one.csv").read_text().strip().splitlines()[1:]
        totals = [float(r.split(",")[1]) for r in rows]
        rates = [float(r.split(",")[2]) for r in rows]
        assert totals == [0.0, 9.0, 9.0]
        assert rates == [0.0, 4.5, 3.0]

    def test_trace_without_gradients_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["regret", str(out_dir / "trace_FIXED.csv")]) == 3
