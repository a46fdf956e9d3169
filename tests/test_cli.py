import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import mkridge
from mkridge.cli import (main, read_trace_csv, rmse_series, rmse_t, _build_parser, _fmt, _trajectory,
                         _write_csv)


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


class TestCsvWriter:
    def test_bytes_match_csv_module(self, tmp_path):
        # one % format per row gives the csv module's bytes over _fmt cells
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                    -1e308, 0.1, 1 / 3, 123456789.0, 0.0]
        rng = np.random.default_rng(5)
        columns = [np.array(specials), rng.permutation(specials), rng.normal(0, 1e3, 12)]
        ints = np.arange(-3, 9, dtype=np.int64) * 10**15
        header = ("t", "a", "b", "c")
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        _write_csv(ours, header, [ints, *columns], ("%d", "%.17g", "%.17g", "%.17g"))
        with theirs.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header)
            for i in range(ints.size):
                out.writerow((int(ints[i]), *(_fmt(c[i]) for c in columns)))
        assert ours.read_bytes() == theirs.read_bytes()


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

    def test_all_zero_series_reports_no_improvement(self, tmp_path, capsys):
        # FIXED's RMSE is 0, so no improvement relative to it is defined
        data = tmp_path / "zero.csv"
        data.write_text("timestamp,value\n" + "".join(f"{t},0\n" for t in range(300)),
                        encoding="utf-8")
        cfg = write_config(tmp_path, data={"type": "csv", "path": str(data)},
                           strategies={"FIXED": {}, "OHL": {"eta": 1e-3}})
        out_dir = tmp_path / "results"
        for fmt in ("json", "csv"):
            assert main(["run", "--config", str(cfg), "--out", str(out_dir), "--format", fmt]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out_dir / "report.json").read_text())
        for entry in report["strategies"].values():
            assert entry["final_rmse"] == 0.0 and entry["improvement_vs_fixed"] is None
        rows = list(csv.DictReader(io.StringIO((out_dir / "report.csv").read_text())))
        assert [row["improvement_vs_fixed"] for row in rows] == ["", ""]

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


def test_data_flag_synthetic_replaces_csv_section(tmp_path):
    cfg = write_config(tmp_path, **finite_csv(tmp_path, bin_width=2, bin_mode="strict"))
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--data", "synthetic", "--out", str(out_dir)]) == 0
    assert (out_dir / "trace_FIXED.csv").exists()


def test_data_flag_csv_keeps_csv_section_settings(tmp_path):
    # --data swaps the file and keeps the section's binning: 300 raw steps in
    # bins of 2 are the bin indices 0..149
    cfg = write_config(tmp_path, **finite_csv(tmp_path, bin_width=2))
    other = tmp_path / "other.csv"
    other.write_bytes((tmp_path / "series.csv").read_bytes())
    out_dir = tmp_path / "results"
    flags = ["run", "--config", str(cfg), "--data", str(other), "--out", str(out_dir)]
    assert main(flags) == 0
    assert read_trace_csv(out_dir / "trace_FIXED.csv")["t"][-1] == 149.0


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
        pytest.param({"strategies": {"OFFLINE_GRAD": {"tol": float("inf")}}}, [], 2,
                     "strategy OFFLINE_GRAD: tol must be positive and finite, got inf", id="tol-inf"),
        pytest.param({"strategies": {"GRID": {"grid": 5}}}, [], 2, "grid must be a JSON list",
                     id="grid-not-list"),
        pytest.param({"strategies": {"GRID": {}}}, [], 2, "at least one grid point",
                     id="grid-missing"),
        pytest.param({"strategies": {"OFFLINE_GRAD": {"eta": 0}}}, [], 2,
                     "positive learning rate", id="offline-eta-zero"),
        pytest.param({"strategies": {"OFFLINE_GRAD": {}}}, ["--eta", "0"], 2,
                     "positive learning rate", id="offline-eta-flag-zero"),
        *(pytest.param({"schedule": {"n": 40, "m": 10, "train_window": 50, "validation_window": 0},
                        "strategies": {name: params}},
                       [], 2, f"strategy {name} needs validation_window >= 1",
                       id=f"{name.lower()}-validation-window-zero")
          for name, params in (
              ("GRID", {"grid": [{"kernel": [{"type": "se", "scale": 0.05}], "weights": [1.0],
                                  "ridge": 1.0}]}),
              ("RANDOM", {"draws": 2}),
              ("OFFLINE_GRAD", {}),
          )),
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
        pytest.param({"model": {"kernel": [], "ridge": 1.0}}, [], 2,
                     "composite kernel needs at least one component", id="kernel-empty"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 0.05}], "weights": [-1.0],
                                "ridge": 1.0}},
                     [], 2, "mixture weights must sum to 1, got -1.0", id="weights-sum-negative"),
        # a lower bound outside its hyperparameter's domain: a step can project onto it
        pytest.param({"bounds": {"scale": [1e-4, 10.0], "ridge": [0, 3.0]},
                      "strategies": {"OHL": {"eta": 1e3}}},
                     [], 2, "bad bounds section: ridge constant must be positive", id="bound-ridge-zero"),
        pytest.param({"bounds": {"scale": [-1, 10.0], "ridge": [1e-3, 3.0]}},
                     [], 2, "bad bounds section: scale must be nonnegative", id="bound-scale-negative"),
        *(pytest.param({"model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": 5.0}],
                                  "ridge": 1.0},
                        "bounds": {"scale": scale, "period": period, "ridge": [1e-3, 3.0]}},
                       [], 2, f"bad bounds section: {needle}", id=f"bound-{name}-zero")
          for name, scale, period, needle in (
              ("period", [1e-4, 10.0], [0, 10.0], "period must be positive"),
              ("periodic-scale", [0, 10.0], [2.0, 10.0], "periodic scale must be positive"),
          )),
        # the file's value is checked even where a flag replaces it
        pytest.param({"seed": "x"}, ["--seed", "1"], 2, "seed must be an integer",
                     id="seed-string-flag-set"),
        # --eta sets every strategy's eta, and FIXED's is checked though unused
        pytest.param({}, ["--eta", "-1"], 2, "strategy FIXED: learning rate", id="fixed-eta-flag-negative"),
        pytest.param({"bounds": {"scale": [1e-4, 10.0], "ridge": [1e-3, 3.0], "bogus": [0, 1]}},
                     [], 2, "'bogus'", id="bounds-unknown-key"),
        pytest.param({"bounds": {"scale": ["1e-4", 10.0], "ridge": [1e-3, 3.0]}},
                     [], 2, "bounds scale must be a number", id="bound-string"),
        pytest.param({"bounds": {"scale": [1e-4, 10.0, 20.0], "ridge": [1e-3, 3.0]}},
                     [], 2, "two-element list", id="bound-three-elements"),
        pytest.param({"bounds": {"scale": 5, "ridge": [1e-3, 3.0]}},
                     [], 2, "two-element list", id="bound-not-list"),
        pytest.param({"out": 5}, [], 2, "out must be a string", id="out-not-string"),
        pytest.param({"out": "a\0b"}, [], 2, "out must be a string without NUL characters",
                     id="out-nul"),
        pytest.param({"data": {"type": "csv", "path": "a\0b"}}, [], 2,
                     "csv data path must be a string without NUL characters", id="path-nul"),
        # the binning keys are checked before the file is read
        pytest.param({"data": {"type": "csv", "path": "missing.csv", "bin_width": 2,
                               "aggregator": "median"}}, [], 2,
                     "aggregator must be 'sum' or 'mean', got 'median'", id="bin-aggregator-before-read"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "c1": 1e999, "seed": 1}}, [], 2,
                     "c1 and c2 must be finite", id="synthetic-c1-inf"),
        pytest.param({"data": {"type": "synthetic", "length": 300, "noise_sd": 1e999, "seed": 1}},
                     [], 2, "noise_sd must be nonnegative and finite, got inf", id="synthetic-noise-inf"),
        pytest.param({"binning": {"timestamp_column": 5}}, [], 2, "timestamp_column",
                     id="timestamp-column-not-string"),
        pytest.param({"binning": {"value_column": ["value"]}}, [], 2, "value_column",
                     id="value-column-not-string"),
        pytest.param({"lagorder": 20}, [], 2, "unknown keys for the config file: ['lagorder']",
                     id="config-unknown-key"),
        pytest.param({"schedule": {"n": 40, "mm": 10, "train_window": 50}}, [], 2,
                     "unknown keys for schedule: ['mm']", id="schedule-unknown-key"),
        pytest.param({"model": {"kernel": [{"type": "se", "scale": 0.05}], "weight": [1.0],
                                "ridge": 1.0}},
                     [], 2, "unknown keys for model: ['weight']", id="model-unknown-key"),
        pytest.param({"model": {"kernel": [{"type": "se", "scales": 0.05}], "ridge": 1.0}},
                     [], 2, "unknown keys for se kernel component: ['scales']",
                     id="se-unknown-key"),
        pytest.param({"model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": 5.0,
                                            "phase": 0.0}], "ridge": 1.0}},
                     [], 2, "unknown keys for periodic kernel component: ['phase']",
                     id="periodic-unknown-key"),
        pytest.param({"model": {"kernel": [{"type": "ard", "scale": 0.1, "period": 5.0}],
                                "ridge": 1.0}},
                     [], 2, "unknown keys for ard kernel component: ['period']",
                     id="ard-unknown-key"),
        pytest.param({"strategies": {"GRID": {"grid": [{"kernel": [{"type": "se", "scale": 0.05}],
                                                        "ridge": 1.0, "ridg": 2.0}]}}},
                     [], 2, "unknown keys for grid point: ['ridg']", id="grid-point-unknown-key"),
        pytest.param({"data": {"type": "synthetic", "lenght": 300, "seed": 1}}, [], 2,
                     "unknown keys for synthetic data: ['lenght']", id="synthetic-unknown-key"),
        pytest.param({"binning": {"bin_widht": 2}}, [], 2, "unknown keys for csv data: ['bin_widht']",
                     id="csv-unknown-key"),
        pytest.param({"data": {"type": "csv", "path": "series.csv", "length": 300}}, [], 2,
                     "unknown keys for csv data: ['length']", id="csv-synthetic-key"),
        *(pytest.param({"model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": 5.0},
                                             {"type": "se", "scale": 0.05}], "ridge": 1.0},
                        "bounds": {"scale": [1e-4, 10.0], "period": [2.0, 100.0],
                                   "ridge": [1e-3, 3.0]},
                        "strategies": {name: {"eta": eta}}},
                       [], 4, f"strategy {name}: simplex projection misses the unit sum",
                       id=f"{name.lower()}-step-overflow")
          for name, eta in (("OHL", 1e30), ("OFFLINE_GRAD", 1e300))),
        # a step that overflows to inf: numpy's overflow warning must not add lines
        *(pytest.param({"model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": 5.0},
                                             {"type": "se", "scale": 0.05}], "ridge": 1.0},
                        "bounds": {"scale": [1e-4, 10.0], "period": [2.0, 100.0],
                                   "ridge": [1e-3, 3.0]},
                        "strategies": {name: {"eta": 1e308}}},
                       [], 4, f"strategy {name}: cannot project a vector with non-finite entries",
                       id=f"{name.lower()}-step-inf")
          for name in ("OHL", "OFFLINE_GRAD")),
        # one refit window: no step follows it, and the overflow shows where
        # the trace's projected-gradient norms are written
        pytest.param({"predict_steps": 10,
                      "model": {"kernel": [{"type": "periodic", "scale": 1.0, "period": 5.0},
                                           {"type": "se", "scale": 0.05}], "ridge": 1.0},
                      "bounds": {"scale": [1e-4, 10.0], "period": [2.0, 100.0],
                                 "ridge": [1e-3, 3.0]},
                      "strategies": {"OHL": {"eta": 1e308}}},
                     [], 4, "strategy OHL: cannot project a vector with non-finite entries",
                     id="ohl-one-window-step-inf"),
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

    def test_long_row_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace_long.csv"
        trace.write_text(
            "t,y,yhat,sq_err,rmse_t,grad_norm,proj_grad_norm\n0,1,1,0,0,0,0\n1,2,2,0,0,3,3,99\n",
            encoding="utf-8",
        )
        assert main(["regret", str(trace), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(trace) in err and "line 3" in err

    def test_matches_report_regret_series(self, tmp_path):
        # a partial last refit window: 85 steps, refit every 10
        cfg = write_config(tmp_path, strategies={"FIXED": {}, "OHL": {"eta": 1e-2}},
                           predict_steps=85)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["regret", str(out_dir / "trace_OHL.csv"), "--out", str(tmp_path)]) == 0
        regret = np.loadtxt(tmp_path / "regret_trace_OHL.csv", delimiter=",", skiprows=1)
        report = json.loads((out_dir / "report.json").read_text())["strategies"]
        # they differ only by the sqrt round trip of the trace's proj_grad_norm
        np.testing.assert_allclose(regret[:, 1], report["OHL"]["regret_series"], rtol=1e-15, atol=0)
        local = report["OHL"]["local_regret_series"]
        assert len(local) == 8  # one per lazy update: none follows the last window
        assert all(b >= a >= 0 for a, b in zip(local, local[1:]))
        assert report["FIXED"]["regret_series"] is None
        assert report["FIXED"]["local_regret_series"] is None

    def test_trace_without_gradients_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert main(["regret", str(out_dir / "trace_FIXED.csv")]) == 3


class _Lambdas:
    """The part of a run trace the trajectory reads."""

    def __init__(self, lambdas):
        self.lambdas = np.asarray(lambdas, dtype=float)

    def __len__(self):
        return len(self.lambdas)


def per_step_trajectory(lambdas):
    """Change points by definition: a step whose values differ from the last
    recorded point's."""
    points, prev = [], None
    for step, lam in enumerate(lambdas):
        if prev is None or not np.array_equal(lam, prev):
            points.append([step, [float(v) for v in lam]])
            prev = lam
    return points


class TestTrajectory:
    def test_matches_per_step_definition(self):
        rng = np.random.default_rng(2)
        rows = [[1.0, 0.0, 2.0]] * 3 + [[1.0, -0.0, 2.0]]  # differs only by the sign of zero
        rows += [[1.0, 0.5, 2.0]] * 2 + [[-0.0, 0.5, 2.0], [0.0, 0.5, 2.0], [0.0, 0.5, 2.5]]
        rows += [list(r) for r in rng.choice([0.0, -0.0, 1.0], size=(2000, 3))]
        trace = _Lambdas(rows)
        expected = per_step_trajectory(trace.lambdas)
        assert [p[0] for p in expected[:4]] == [0, 4, 6, 8]
        got = _trajectory(trace)
        assert got == expected
        assert [[np.copysign(1.0, v) for v in p[1]] for p in got] == [
            [np.copysign(1.0, v) for v in p[1]] for p in expected
        ]

    def test_empty_and_constant(self):
        assert _trajectory(_Lambdas(np.empty((0, 2)))) == []
        assert _trajectory(_Lambdas([[0.5, 2.0]] * 5)) == [[0, [0.5, 2.0]]]


GENERATE_OPTIONS = {
    "--out": (None, None, "output CSV path"),
    "--length": (int, None, "raw steps including warm-up"),
    "--c1": (float, None, None),
    "--c2": (float, None, None),
    "--omega": (float, None, None),
    "--ar-order": (int, None, None),
    "--seed": (int, None, None),
    "--noise-sd": (float, None, None),
}
RUN_OPTIONS = {
    "--config": (None, None, "JSON run configuration file"),
    "--data": (None, None, "CSV path, or 'synthetic'"),
    "--strategy": (None, ["OHL", "GRID", "RANDOM", "OFFLINE_GRAD", "FIXED"],
                   "strategy to run (repeatable; default: all configured)"),
    "--n": (int, None, "hyperparameter tuning interval (steps)"),
    "--m": (int, None, "model fitting interval (steps)"),
    "--eta": (float, None, "learning rate for OHL/OFFLINE_GRAD"),
    "--train-window": (int, None, "training samples per fit"),
    "--horizon": (int, None, "forecast horizon in steps"),
    "--seed": (int, None, "random seed"),
    "--out": (None, None, "output directory"),
    "--format": (None, ("csv", "json"), "report format"),
}


def subcommand_options(command):
    """Each option of a subcommand with its argparse type, choices and help."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[-1]: (a.type, a.choices, a.help)
            for a in sub.choices[command]._actions if a.option_strings[-1] != "--help"}


@pytest.mark.parametrize("command, options", [("generate", GENERATE_OPTIONS), ("run", RUN_OPTIONS)])
def test_command_line_options(command, options):
    assert subcommand_options(command) == options


def unknown_key_expected(tmp_path, capsys, **overrides):
    """The known keys that an unknown-key message lists."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    return set(ast.literal_eval(err.split("expected some of ", 1)[1].rsplit(")", 1)[0]))


def test_generate_flags_are_the_synthetic_keys(tmp_path, capsys):
    keys = unknown_key_expected(tmp_path, capsys, data={"type": "synthetic", "bogus": 1})
    flags = {"--" + key.replace("_", "-") for key in keys - {"type"}}
    assert flags == set(subcommand_options("generate")) - {"--out"}


BAD_SYNTHETIC = {"length": 0, "c1": "x", "c2": "x", "omega": 0, "ar_order": 0, "seed": -1,
                 "noise_sd": -1}


@pytest.mark.parametrize("key", sorted(BAD_SYNTHETIC))
def test_bad_synthetic_value_exits_2_naming_the_key(tmp_path, capsys, key):
    value = BAD_SYNTHETIC[key]
    cfg = write_config(tmp_path, data={"type": "synthetic", "length": 300, key: value})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    flag = "--" + key.replace("_", "-")
    try:
        code = main(["generate", "--out", str(tmp_path / "x.csv"), flag, str(value)])
    except SystemExit as e:  # argparse rejects a flag value that is not a number
        code = e.code
    err = capsys.readouterr().err
    assert code == 2 and (key in err or flag in err)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("strategies", [{"OHL": {"eta": 1e-4}, "RANDOM": {"draws": 2}},
                                        {"FIXED": {}, "OHL": {"eta": 1e-4}}],
                         ids=["without-fixed", "with-fixed"])
def test_csv_report_bytes_match_csv_module(tmp_path, strategies):
    cfg = write_config(tmp_path, strategies=strategies)
    json_dir, csv_dir = tmp_path / "json", tmp_path / "csv"
    assert main(["run", "--config", str(cfg), "--out", str(json_dir)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(csv_dir), "--format", "csv"]) == 0
    report = json.loads((json_dir / "report.json").read_text())
    expected = tmp_path / "expected.csv"
    with expected.open("w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("strategy", "final_rmse", "improvement_vs_fixed", "total_fits",
                      "tuning_fits", "prediction_fits", "jacobian_builds", "gradient_evals"))
        for name, entry in report["strategies"].items():
            counts, imp = entry["fit_counts"], entry["improvement_vs_fixed"]
            tuning, prediction = counts["tuning"], counts["prediction"]
            out.writerow((name, _fmt(entry["final_rmse"]), "" if imp is None else _fmt(imp),
                          counts["total_fits"], tuning["fits"], prediction["fits"],
                          tuning["jacobian_builds"] + prediction["jacobian_builds"],
                          tuning["gradient_evals"] + prediction["gradient_evals"]))
    assert (csv_dir / "report.csv").read_bytes() == expected.read_bytes()
    assert ("FIXED" in strategies) == all(
        cells[2] for cells in csv.reader(expected.read_text().splitlines()[1:])
    )


def test_readme_config_runs(tmp_path):
    # the README's full config, on a shorter stream
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("```json") + len("```json")
    cfg = json.loads(readme[start : readme.index("```", start)])
    cfg["data"]["length"], cfg["predict_steps"] = 1000, 10
    cfg["strategies"]["RANDOM"]["draws"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
    assert len(read_trace_csv(tmp_path / "r" / "trace_OHL.csv")["t"]) == 10



# -- generated configs ----------------------------------------------------------
# One hypothesis strategy per _Key parser. Each draws a good value from the
# key's own range (kept small, so a run takes milliseconds) or, once in
# FAULT_ODDS draws, a value that the parser or the library behind it rejects;
# a section drops a key, or gains one no table knows, as rarely. So about
# a fifth of the configs are all good and run, and most of the rest hold
# one fault, which must exit 2.

FAULT_ODDS = 60
NAN, INF = float("nan"), float("inf")


def rare():  # hypothesis favours the ends of an integer range, and the first of a sample
    return st.sampled_from([False] * (FAULT_ODDS - 1) + [True])


def _good_or(good, bad):
    return rare().flatmap(lambda fault: st.sampled_from(bad) if fault else good)


def integer(lo, hi, bad=()):  # _integer: an int >= 1
    return _good_or(st.integers(lo, hi), [0, -1, 2.5, "2", None, True, [1], *bad])


def natural(lo, hi, bad=()):  # _natural: an int >= 0
    return _good_or(st.integers(lo, hi), [-1, 1.5, "0", None, False, {}, *bad])


def number(lo, hi, bad=()):  # _number: an int or a float; the library rejects NaN
    return _good_or(st.floats(lo, hi), ["1.0", None, True, [1.0], {}, NAN, *bad])


def string(*good, bad=()):  # _string
    return _good_or(st.sampled_from(good), [5, None, ["a"], {}, *bad])


def path(*good):  # _path: a _string without a NUL character
    return string(*good, bad=["a\0b"])


def json_object(good):  # _object
    return _good_or(good, [[1], "x", 5, None])


def json_list(good):  # _list
    return _good_or(good, [5, "x", {"a": 1}, None])


def choice(*good):  # _format, and the _one_of parsers of the binning keys
    return _good_or(st.sampled_from(good), ["xml", 5, None, [good[0]]])


def pair(good):  # _pair
    return _good_or(good, [[1.0], [1.0, 2.0, 3.0], 5, None])


def interval(lo, hi):  # _interval: a _pair of _number values
    return pair(st.tuples(number(*lo, bad=[INF, -INF]), number(*hi, bad=[INF])).map(list))


@st.composite
def section(draw, keys, keep=()):
    """A section of every key in ``keys``, drawn in order; rarely one not in
    ``keep`` is missing (it then reads as null or its default) or a key no
    table knows is added. The kept keys have defaults too large for the
    small series here, which would fail the run as a data error."""
    out = {key: draw(value) for key, value in keys.items() if key in keep or not draw(rare())}
    if draw(rare()):
        out["bogus"] = 1
    return out


SCHEDULE = {
    "n": integer(4, 8), "m": integer(1, 4), "train_window": integer(1, 8),
    "validation_window": natural(1, 8, bad=[0]),
}
SYNTHETIC = {
    "length": integer(150, 200, bad=[50, 100]), "c1": number(0.0, 1.0, bad=[INF]),
    "c2": number(0.0, 1.0, bad=[-INF]), "omega": number(0.5, 10.0, bad=[0.0, -1.0, INF]),
    "ar_order": integer(1, 3, bad=[200]), "seed": natural(0, 3),
    "noise_sd": number(0.0, 0.5, bad=[-0.1, INF]),
}
BINNING = {
    "bin_width": integer(1, 2), "aggregator": choice("sum", "mean"),
    "bin_mode": choice("strict", "lenient"),
}


def components(lag_order):
    """The keys of each kernel type; an ARD scale list has one entry per lag."""
    lags = lag_order if isinstance(lag_order, int) and lag_order > 0 else 1
    return {
        "periodic": {"scale": number(0.1, 1.0, bad=[0.0, INF]),
                     "period": number(5.0, 50.0, bad=[0.0, INF])},
        "se": {"scale": number(0.01, 1.0, bad=[-1.0, INF])},
        "ard": {"scale": st.one_of(number(0.01, 1.0, bad=[-1.0]), json_list(
            _good_or(st.lists(number(0.01, 1.0), min_size=lags, max_size=lags), [[0.1] * (lags + 1)])))},
    }

BOUNDS = {
    "scale": interval((1e-4, 1e-2), (1.0, 10.0)), "period": interval((2.0, 4.0), (50.0, 100.0)),
    "ridge": interval((1e-3, 0.05), (2.0, 3.0)),
}
STRATEGY_NAMES = ["OHL", "GRID", "RANDOM", "OFFLINE_GRAD", "FIXED"]


def strategy_keys(grid):
    return {
        "eta": number(0.0, 1e-2, bad=[-1.0, INF]), "tol": number(1e-9, 1e-3, bad=[0.0, INF]),
        "draws": integer(1, 3), "max_iters": natural(0, 3), "seed": natural(0, 3),
        "grid": json_list(st.lists(grid, min_size=1, max_size=2)),
    }


def model(kinds, lag_order):
    """A model section whose kernel has one component of each of ``kinds``."""
    keys = components(lag_order)
    parts = [section({"type": _good_or(st.just(kind), ["rbf", 5]), **keys[kind]}) for kind in kinds]
    weights = [1.0 / len(kinds)] * len(kinds)
    return section({
        "kernel": json_list(st.tuples(*parts).map(list)),
        "weights": st.one_of(st.none(), json_list(_good_or(st.just(weights), [[2.0], [-1.0], [NAN]]))),
        "ridge": number(0.05, 2.0, bad=[0.0, INF]),
    })


@st.composite
def run_config(draw, csv_path):
    kinds = draw(st.lists(st.sampled_from(["periodic", "se", "ard"]), min_size=1, max_size=3))
    lag_order = draw(integer(1, 3))
    data = st.one_of(
        section({"type": st.just("synthetic"), **SYNTHETIC}),
        section({"type": st.just("csv"), "path": path(csv_path, "missing.csv"),
                 "timestamp_column": string("timestamp"), "value_column": string("value"),
                 **BINNING}),
    )
    names = st.lists(_good_or(st.sampled_from(STRATEGY_NAMES), ["SGD", ""]),
                     min_size=1, max_size=3, unique=True)
    strategy = json_object(section(strategy_keys(model(kinds, lag_order))))
    return draw(section({
        "data": _good_or(data, [None, [1], {"type": "xml"}]), "lag_order": st.just(lag_order),
        "horizon": integer(1, 2), "seed": natural(0, 3),
        "predict_steps": st.one_of(st.none(), integer(1, 4)),
        "schedule": json_object(section(SCHEDULE, keep=("train_window", "validation_window"))),
        "model": json_object(model(kinds, lag_order)),
        "bounds": json_object(section(BOUNDS)),
        "strategies": json_object(names.flatmap(
            lambda keys: st.tuples(*(strategy for _ in keys)).map(lambda v: dict(zip(keys, v))))),
        "out": path("out", "out_a", "out-b"), "format": choice("csv", "json"),
    }, keep=("schedule",)))


def test_generated_keys_cover_every_key_table():
    import mkridge.cli as cli

    assert SCHEDULE.keys() == cli._SCHEDULE_KEYS.keys()
    assert SYNTHETIC.keys() == cli._SYNTHETIC_KEYS.keys()
    assert BINNING.keys() == cli._BINNING_KEYS.keys()
    assert BOUNDS.keys() == cli._BOUNDS_KEYS.keys()
    assert strategy_keys(st.none()).keys() == cli._STRATEGY_KEYS.keys()
    assert {k: v[1].keys() for k, v in cli._COMPONENTS.items()} == {
        k: v.keys() for k, v in components(1).items()}
    assert set(STRATEGY_NAMES) == {s.value for s in mkridge.tuners.Strategy}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_generated_configs_run_or_exit_2_before_reading_data(tmp_path, monkeypatch, data):
    """Every config built from the key tables runs, or exits 2 with one stderr
    line and no traceback before any series is loaded or generated."""
    import mkridge.cli as cli

    csv_path = tmp_path / "series.csv"
    if not csv_path.exists():
        rows = "".join(f"{t},{1.0 + math.sin(t / 5.0)!r}\n" for t in range(150))
        csv_path.write_text("timestamp,value\n" + rows, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    loaded = []
    for name in ("load_csv", "generate_synthetic"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, **kw: loaded.append(real(*a, **kw)) or loaded[-1])
    config = data.draw(run_config(str(csv_path)), label="config")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", "config.json"])
    err = err.getvalue()
    event(f"exit {code}")
    if code != 0:
        assert code == 2, err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert loaded == [], err
