import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mkridge
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


class TestModuleEntryPoint:
    def test_python_m_help_exits_zero(self):
        # an uninstalled checkout runs the CLI as a module from its sources
        src = str(Path(mkridge.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        done = subprocess.run(
            [sys.executable, "-m", "mkridge", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "usage: mkridge" in done.stdout


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

    @pytest.mark.parametrize(
        "flags", [["--c1", "inf"], ["--noise-sd", "nan"], ["--omega", "inf"]]
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, flags):
        assert main(["generate", "--out", str(tmp_path / "x.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flags", [[], ["--noise-sd", "0.1"]], ids=["noiseless", "noisy"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert main(["generate", "--out", str(out), "--seed", "-1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "data seed" in err
        assert not out.exists()


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


def finite_csv(tmp_path, bad_value="1.01", **binning):
    rows = [f"{t},{1.0 + 0.01 * t}" for t in range(300)]
    rows[1] = f"1,{bad_value}"  # data row 2 sits on file row 3
    path = tmp_path / "series.csv"
    path.write_text("timestamp,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return {"data": {"type": "csv", "path": str(path), **binning}}


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
        pytest.param({"binning": {"bin_width": 2, "aggregator": "median"}}, [], 2, "median",
                     id="bin-aggregator-unknown"),
        pytest.param({"binning": {"bin_width": "wide"}}, [], 2, "bin_width", id="bin-width-string"),
        pytest.param({"binning": {"bin_width": 0}}, [], 2, "bin_width", id="bin-width-zero"),
        pytest.param({"binning": {"bin_width": 2, "bin_mode": "loose"}}, [], 2, "loose",
                     id="bin-mode-unknown"),
        pytest.param({"predict_steps": "x"}, [], 2, "predict_steps", id="steps-string"),
        pytest.param({"predict_steps": 0}, [], 2, "predict_steps", id="steps-zero"),
        pytest.param({"predict_steps": 2.5}, [], 2, "predict_steps", id="steps-fraction"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 1e999}], "ridge": 1.0}},
                     [], 2, "scale must be nonnegative and finite", id="scale-inf"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 0.05}], "ridge": 1e999}},
                     [], 2, "ridge constant must be positive and finite", id="ridge-inf"),
        pytest.param({"model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": 1e999}],
                                "ridge": 1.0}},
                     [], 2, "period must be positive and finite", id="period-inf"),
        pytest.param({"seed": "x"}, [], 2, "seed", id="seed-string"),
        pytest.param({"seed": -1}, [], 2, "seed", id="seed-negative"),
        pytest.param({}, ["--seed", "-1"], 2, "seed", id="seed-flag-negative"),
        pytest.param({"data": [1]}, [], 2, "data must be a JSON object", id="data-not-object"),
        pytest.param({"schedule": [1, 2]}, [], 2, "schedule must be a JSON object",
                     id="schedule-not-object"),
        pytest.param({"bounds": [1]}, [], 2, "bounds must be a JSON object", id="bounds-not-object"),
        pytest.param({"strategies": ["FIXED"]}, [], 2, "strategies must be a JSON object",
                     id="strategies-not-object"),
        pytest.param({"strategies": {"FIXED": [1]}}, [], 2, "strategy FIXED must be a JSON object",
                     id="strategy-entry-not-object"),
        pytest.param({"model": {"kernel": 5, "ridge": 1.0}}, [], 2, "kernel must be a JSON list",
                     id="kernel-not-list"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 0.05}], "weights": {"a": 1},
                                "ridge": 1.0}},
                     [], 2, "weights must be a JSON list", id="weights-not-list"),
        pytest.param({"data": {"type": "csv", "path": 5}}, [], 2, "path", id="path-not-string"),
        pytest.param({"strategies": {"OHL": {"eta": "x"}}}, [], 2, "eta", id="eta-string"),
        pytest.param({"strategies": {"OHL": {"eta": float("nan")}}}, [], 2, "learning rate",
                     id="eta-nan"),
        pytest.param({"strategies": {"OHL": {"eta": float("inf")}}}, [], 2, "learning rate",
                     id="eta-inf"),
        pytest.param({"strategies": {"RANDOM": {"draws": "x"}}}, [], 2, "draws", id="draws-string"),
        pytest.param({"strategies": {"RANDOM": {"draws": 2.5}}}, [], 2, "draws",
                     id="draws-fraction"),
        pytest.param({"strategies": {"RANDOM": {"seed": "x"}}}, [], 2, "seed",
                     id="strategy-seed-string"),
        pytest.param({"strategies": {"OFFLINE_GRAD": {"max_iters": 2.5}}}, [], 2, "max_iters",
                     id="max-iters-fraction"),
        pytest.param({"strategies": {"OFFLINE_GRAD": {"tol": "x"}}}, [], 2, "tol", id="tol-string"),
        pytest.param({"strategies": {"GRID": {"grid": 5}}}, [], 2, "grid must be a JSON list",
                     id="grid-not-list"),
        pytest.param({"bounds": {"scale": [float("nan"), 10.0], "ridge": [1e-3, 3.0]},
                      "strategies": {"OHL": {"eta": 1e-4}}},
                     [], 2, "bounds", id="bound-nan"),
        pytest.param({"model": {"kernel": [{"type": "ard", "scale": [0.1, 0.2]}], "ridge": 1.0}},
                     [], 2, "one scale per lag", id="ard-scale-length"),
        pytest.param({"schedule": {"n": 25.5, "m": 10, "train_window": 50,
                                   "validation_window": 30}},
                     [], 2, "schedule n", id="schedule-n-fraction"),
        pytest.param({"schedule": {"n": 40, "m": "10", "train_window": 50,
                                   "validation_window": 30}},
                     [], 2, "schedule m", id="schedule-m-string"),
        pytest.param({"schedule": {"n": 40, "m": 10, "train_window": 50,
                                   "validation_window": 30.5}},
                     [], 2, "validation_window", id="validation-window-fraction"),
        pytest.param({"data": {"type": "synthetic", "length": 400.7, "seed": 1}}, [], 2, "length",
                     id="synthetic-length-fraction"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "ar_order": 2.9, "seed": 1}},
                     [], 2, "ar_order", id="synthetic-ar-order-fraction"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "seed": 1.5}}, [], 2,
                     "data seed", id="synthetic-seed-fraction"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "c1": "0.5", "seed": 1}},
                     [], 2, "c1", id="synthetic-c1-string"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "c2": None, "seed": 1}},
                     [], 2, "c2", id="synthetic-c2-null"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "omega": [5.0], "seed": 1}},
                     [], 2, "omega", id="synthetic-omega-list"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "noise_sd": True, "seed": 1}},
                     [], 2, "noise_sd", id="synthetic-noise-bool"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "noise_sd": float("nan"),
                               "seed": 1}},
                     [], 2, "noise_sd", id="synthetic-noise-nan"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "c1": float("inf"), "seed": 1}},
                     [], 2, "finite", id="synthetic-c1-inf"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "c1": 1e308, "seed": 1}},
                     [], 2, "finite", id="synthetic-overflow"),
        pytest.param({"bounds": {"scale": [1e-4, float("inf")], "ridge": [1e-3, 3.0]},
                      "strategies": {"RANDOM": {"draws": 2}}},
                     [], 2, "finite bounds", id="random-bound-inf"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "omega": float("inf"),
                               "seed": 1}},
                     [], 2, "omega must be positive and finite", id="synthetic-omega-inf"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 0.05}], "weights": ["1"],
                                "ridge": 1.0}},
                     [], 2, "mixture weight must be a number", id="weight-string"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 0.05}], "ridge": "0.3"}},
                     [], 2, "ridge must be a number", id="ridge-string"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": "0.05"}], "ridge": 1.0}},
                     [], 2, "se scale must be a number", id="se-scale-string"),
        pytest.param({"model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": "5"}],
                                "ridge": 1.0}},
                     [], 2, "period must be a number", id="period-string"),
        pytest.param({"model": {"kernel": [{"type": "ard", "scale": [0.1, "0.2", 0.1, 0.1, 0.1]}],
                                "ridge": 1.0}},
                     [], 2, "ARD scale must be a number", id="ard-scale-string"),
        pytest.param({"model": {"kernel": [{"type": "ard", "scale": True}], "ridge": 1.0}},
                     [], 2, "ARD scale must be a number", id="ard-scale-bool"),
        pytest.param({"bounds": {"scale": [1e-4, 10.0], "ridge": [1e-3, 3.0], "bogus": [0, 1]}},
                     [], 2, "'bogus'", id="bounds-unknown-key"),
        pytest.param({"bounds": {"scale": ["1e-4", 10.0], "ridge": [1e-3, 3.0]}},
                     [], 2, "bounds scale must be a number", id="bound-string"),
        pytest.param({"bounds": {"scale": [1e-4, 10.0, 20.0], "ridge": [1e-3, 3.0]}},
                     [], 2, "two-element list", id="bound-three-elements"),
        pytest.param({"bounds": {"scale": 5, "ridge": [1e-3, 3.0]}},
                     [], 2, "two-element list", id="bound-not-list"),
        pytest.param({"out": 5}, [], 2, "out must be a string", id="out-not-string"),
        pytest.param({"binning": {"timestamp_column": 5}}, [], 2, "timestamp_column",
                     id="timestamp-column-not-string"),
        pytest.param({"binning": {"value_column": ["value"]}}, [], 2, "value_column",
                     id="value-column-not-string"),
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, overrides, flags, code, needle):
    """Bad inputs end with their documented exit code and a one-line message."""
    if isinstance(overrides, str):
        overrides = finite_csv(tmp_path, overrides)
    elif "binning" in overrides:
        overrides = finite_csv(tmp_path, **overrides["binning"])
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

    @pytest.mark.parametrize(
        "row", ["1,2,2,0,0,3,abc", "1,2,2,0,0"], ids=["non-numeric", "short"]
    )
    def test_malformed_row_is_data_error(self, tmp_path, capsys, row):
        trace = tmp_path / "trace_bad.csv"
        trace.write_text(
            f"t,y,yhat,sq_err,rmse_t,grad_norm,proj_grad_norm\n0,1,1,0,0,0,0\n{row}\n",
            encoding="utf-8",
        )
        assert main(["regret", str(trace), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(trace) in err and "line 3" in err

    def test_trace_without_gradients_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["regret", str(out_dir / "trace_FIXED.csv")]) == 3
