"""Benchmark command line: generate data, execute strategies, emit reports.

Subcommands
-----------
``generate``  write a synthetic series to CSV
``run``       execute configured strategies on one stream and write per-step
              trace CSVs plus a report
``regret``    turn trace files into cumulative squared projected-gradient
              (local regret) series

Runs are configured by a JSON file plus flag overrides. Per-step trace CSVs
hold one row per prediction step with columns
``t, y, yhat, sq_err, rmse_t, grad_norm, proj_grad_norm``; numbers are
written with 17 significant digits so re-reading loses nothing. Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from csv import DictReader, writer as csv_writer
from pathlib import Path

import numpy as np

from .data import SyntheticConfig, TimeSeries, bin_series, build_features, generate_synthetic, load_csv
from .errors import ConfigError, DataError, NumericalError
from .kernels import ArdKernel, CompositeKernel, PeriodicKernel, SquaredExpKernel
from .model import HyperParams
from .optim import FeasibleSet
from .tuners import RunTrace, Schedule, Strategy, TunerConfig, fit_count_report, run

__all__ = ["main", "rmse_t", "rmse_series", "build_report", "write_trace_csv", "read_trace_csv"]

TRACE_COLUMNS = ("t", "y", "yhat", "sq_err", "rmse_t", "grad_norm", "proj_grad_norm")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- metrics ----------------------------------------------------------------


def rmse_t(sq_errors) -> float:
    """Running RMSE through step t: sqrt of the mean of the squared errors so far."""
    sq = np.asarray(sq_errors, dtype=float)
    if sq.size == 0:
        raise ValueError("rmse_t needs at least one squared error")
    return float(np.sqrt(sq.mean()))


def rmse_series(sq_errors) -> np.ndarray:
    """RMSE(t) for every prefix of the squared-error sequence."""
    sq = np.asarray(sq_errors, dtype=float)
    if sq.size == 0:
        raise ValueError("rmse_series needs at least one squared error")
    return np.sqrt(np.cumsum(sq) / np.arange(1, sq.size + 1))


# -- trace serialization ------------------------------------------------------


def write_trace_csv(path, trace: RunTrace) -> None:
    sq = trace.sq_errors()
    rmse = rmse_series(sq)
    grad_norms = trace.grad_norms
    proj_norms = np.sqrt(trace.proj_grad_sq)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        out = csv_writer(fh, lineterminator="\n")
        out.writerow(TRACE_COLUMNS)
        for i in range(len(trace)):
            out.writerow(
                (
                    _fmt(trace.times[i]),
                    _fmt(trace.y[i]),
                    _fmt(trace.yhat[i]),
                    _fmt(sq[i]),
                    _fmt(rmse[i]),
                    _fmt(grad_norms[i]),
                    _fmt(proj_norms[i]),
                )
            )


def read_trace_csv(path) -> dict[str, np.ndarray]:
    path = Path(path)
    columns: dict[str, list[float]] = {c: [] for c in TRACE_COLUMNS}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = DictReader(fh)
        if reader.fieldnames is None or set(TRACE_COLUMNS) - set(reader.fieldnames):
            raise DataError(f"{path}: expected trace columns {TRACE_COLUMNS}")
        for row in reader:
            try:
                values = [float(row[c]) for c in TRACE_COLUMNS]
            except (TypeError, ValueError):  # a short row holds None cells
                raise DataError(
                    f"{path}: line {reader.line_num}: expected a number in each of {TRACE_COLUMNS}"
                ) from None
            for c, value in zip(TRACE_COLUMNS, values):
                columns[c].append(value)
    if not columns["t"]:
        raise DataError(f"{path}: no rows")
    return {c: np.asarray(v) for c, v in columns.items()}


# -- report -------------------------------------------------------------------


def _trajectory(trace: RunTrace) -> list[list]:
    """Hyperparameter trajectory compressed to its change points."""
    points: list[list] = []
    prev = None
    for step in range(len(trace)):
        lam = trace.lambdas[step]
        if prev is None or not np.array_equal(lam, prev):
            points.append([int(step), [float(v) for v in lam]])
            prev = lam
    return points


def build_report(traces: dict[str, RunTrace]) -> dict:
    """Assemble the run report: accuracy, improvement vs FIXED, costs, regret."""
    fixed_rmse = None
    if Strategy.FIXED.value in traces:
        fixed_rmse = float(rmse_series(traces[Strategy.FIXED.value].sq_errors())[-1])
    report: dict = {"strategies": {}}
    for name, trace in traces.items():
        sq = trace.sq_errors()
        series = rmse_series(sq)
        final = float(series[-1])
        entry = {
            "final_rmse": final,
            "improvement_vs_fixed": None
            if fixed_rmse is None
            else (fixed_rmse - final) / fixed_rmse,
            "rmse_series": [float(v) for v in series],
            "fit_counts": fit_count_report(trace),
            "wall_clock_s": {
                "tuning": trace.tuning.wall_clock,
                "prediction": trace.prediction.wall_clock,
            },
            "regret_series": None
            if np.any(np.isnan(trace.proj_grad_sq))
            else [float(v) for v in np.cumsum(trace.proj_grad_sq)],
            "hyperparameter_trajectory": _trajectory(trace),
        }
        report["strategies"][name] = entry
    return report


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(report: dict, out_dir: Path, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, default=_json_default) + "\n", encoding="utf-8")
        return path
    path = out_dir / "report.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        out = csv_writer(fh, lineterminator="\n")
        out.writerow(
            ("strategy", "final_rmse", "improvement_vs_fixed", "total_fits",
             "tuning_fits", "prediction_fits", "jacobian_builds", "gradient_evals")
        )
        for name, entry in report["strategies"].items():
            counts = entry["fit_counts"]
            imp = entry["improvement_vs_fixed"]
            out.writerow(
                (
                    name,
                    _fmt(entry["final_rmse"]),
                    "" if imp is None else _fmt(imp),
                    counts["total_fits"],
                    counts["tuning"]["fits"],
                    counts["prediction"]["fits"],
                    counts["tuning"]["jacobian_builds"] + counts["prediction"]["jacobian_builds"],
                    counts["tuning"]["gradient_evals"] + counts["prediction"]["gradient_evals"],
                )
            )
    return path


# -- configuration ------------------------------------------------------------


def _parse_component(entry: dict, lag_order: int):
    try:
        kind = entry["type"]
    except (KeyError, TypeError):
        raise ConfigError(f"kernel component needs a 'type': {entry!r}") from None
    try:
        if kind == "periodic":
            return PeriodicKernel(_number(entry["scale"], "periodic scale"),
                                  _number(entry["period"], "period"))
        if kind == "se":
            return SquaredExpKernel(_number(entry["scale"], "se scale"))
        if kind == "ard":
            scale = entry["scale"]
            if isinstance(scale, list):
                scales = np.array([_number(s, "ARD scale") for s in scale])
            else:
                scales = np.full(lag_order, _number(scale, "ARD scale"))
            if scales.shape != (lag_order,):
                raise ValueError(f"needs one scale per lag ({lag_order}), got shape {scales.shape}")
            return ArdKernel(scales)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad kernel component {entry!r}: {e}") from None
    raise ConfigError(f"unknown kernel type {kind!r} (expected periodic|se|ard)")


def _parse_model(entry: dict, lag_order: int) -> HyperParams:
    try:
        raw = entry["kernel"]
        ridge = _number(entry["ridge"], "ridge")
    except (KeyError, TypeError) as e:
        raise ConfigError(f"model section needs 'kernel' and 'ridge': {e}") from None
    components = tuple(_parse_component(c, lag_order) for c in _list(raw, "kernel"))
    weights = entry.get("weights")
    if weights is None:
        weights = np.full(len(components), 1.0 / len(components))
    else:
        weights = np.array([_number(w, "mixture weight") for w in _list(weights, "weights")])
    try:
        spec = CompositeKernel(components, weights)
        return HyperParams(spec, ridge)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


_BOUND_KINDS = ("scale", "period", "ridge")


def _parse_bounds(entry: dict, hypers: HyperParams) -> FeasibleSet:
    bounds = {}
    for kind, value in entry.items():
        if kind not in _BOUND_KINDS:
            raise ConfigError(f"unknown bounds key {kind!r} (expected {'|'.join(_BOUND_KINDS)})")
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"bounds {kind} must be a two-element list, got {value!r}")
        bounds[kind] = (_number(value[0], f"bounds {kind}"), _number(value[1], f"bounds {kind}"))
    try:
        return FeasibleSet.for_kinds(hypers.scalar_kinds(), bounds)
    except ValueError as e:
        raise ConfigError(f"bad bounds section: {e}") from None


def _parse_strategies(cfg: dict, hypers: HyperParams, feasible: FeasibleSet,
                      lag_order: int, args) -> dict[str, TunerConfig]:
    section = _object(cfg.get("strategies", {}), "strategies")
    names = list(args.strategy) if args.strategy else list(section)
    if not names:
        raise ConfigError("no strategies configured (use --strategy or the config file)")
    out: dict[str, TunerConfig] = {}
    for name in names:
        params = _object(section.get(name, {}), f"strategy {name}")
        unknown = params.keys() - _STRATEGY_KEYS.keys() - {"grid"}
        if unknown:
            raise ConfigError(f"unknown keys for strategy {name}: {sorted(unknown)}")
        kwargs = {k: parse(params[k], k) for k, parse in _STRATEGY_KEYS.items() if k in params}
        if args.eta is not None and name in (Strategy.OHL.value, Strategy.OFFLINE_GRAD.value):
            kwargs["eta"] = args.eta
        if args.seed is not None:
            kwargs["seed"] = args.seed
        grid = tuple(_parse_model(g, lag_order) for g in _list(params.get("grid", []), "grid"))
        try:
            out[name] = TunerConfig(
                strategy=Strategy(name), init=hypers, feasible=feasible, grid=grid, **kwargs
            )
        except ValueError as e:
            raise ConfigError(f"strategy {name}: {e}") from None
    return out


def _build_series(data_cfg: dict, seed: int) -> TimeSeries:
    kind = data_cfg.get("type")
    if kind == "synthetic":
        try:
            config = SyntheticConfig(
                c1=_number(data_cfg.get("c1", 0.5), "c1"),
                c2=_number(data_cfg.get("c2", 0.5), "c2"),
                omega=_number(data_cfg.get("omega", 5.0), "omega"),
                ar_order=_integer(data_cfg.get("ar_order", 20), "ar_order"),
                length=_integer(data_cfg.get("length", 1500), "length"),
                seed=_integer(data_cfg.get("seed", seed), "data seed", 0),
                noise_sd=_number(data_cfg.get("noise_sd", 0.0), "noise_sd"),
            )
            return generate_synthetic(config)  # raises on a series that overflows
        except ValueError as e:
            raise ConfigError(f"bad synthetic data section: {e}") from None
    if kind == "csv":
        series = load_csv(
            _string(data_cfg.get("path"), "csv data path"),
            timestamp_column=_string(data_cfg.get("timestamp_column", "timestamp"), "timestamp_column"),
            value_column=_string(data_cfg.get("value_column", "value"), "value_column"),
        )
        if "bin_width" in data_cfg:
            bin_width = _integer(data_cfg["bin_width"], "bin_width")
            try:
                series = bin_series(
                    series,
                    bin_width,
                    aggregator=data_cfg.get("aggregator", "mean"),
                    mode=data_cfg.get("bin_mode", "strict"),
                )
            except ValueError as e:
                raise ConfigError(f"bad binning settings: {e}") from None
        return series
    raise ConfigError(f"data section needs type 'synthetic' or 'csv', got {kind!r}")


def _integer(value, name: str, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON list, got {value!r}")
    return value


# strategy keys and their parsers; TunerConfig checks the ranges of eta and tol
_STRATEGY_KEYS = {
    "eta": _number,
    "tol": _number,
    "draws": _integer,
    "max_iters": lambda value, name: _integer(value, name, 0),
    "seed": lambda value, name: _integer(value, name, 0),
}


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    return cfg


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    keys = ("c1", "c2", "omega", "ar_order", "length", "seed", "noise_sd")
    data_cfg = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    series = _build_series({"type": "synthetic", **data_cfg}, 0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        w = csv_writer(fh, lineterminator="\n")
        w.writerow(("timestamp", "value"))
        for t, v in zip(series.timestamps, series.values):
            w.writerow((int(t), _fmt(v)))
    print(f"wrote {len(series)} rows to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)

    data_cfg = cfg.get("data")
    if data_cfg is not None:
        _object(data_cfg, "data")
    if args.data is not None:
        if args.data == "synthetic":
            data_cfg = {"type": "synthetic", **(data_cfg if data_cfg and data_cfg.get("type") == "synthetic" else {})}
            data_cfg["type"] = "synthetic"
        else:
            data_cfg = {"type": "csv", "path": args.data}
    if data_cfg is None:
        raise ConfigError("no data source (use --data or the config file's data section)")

    seed = _integer(args.seed if args.seed is not None else cfg.get("seed", 0), "seed", 0)
    lag_order = _integer(cfg.get("lag_order", 20), "lag_order")
    horizon = args.horizon if args.horizon is not None else cfg.get("horizon", 1)
    horizon = _integer(horizon, "horizon")
    steps = cfg.get("predict_steps")
    if steps is not None:
        steps = _integer(steps, "predict_steps")

    sched_cfg = dict(_object(cfg.get("schedule", {}), "schedule"))
    if args.n is not None:
        sched_cfg["n"] = args.n
    if args.m is not None:
        sched_cfg["m"] = args.m
    if args.train_window is not None:
        sched_cfg["train_window"] = args.train_window
    try:
        schedule = Schedule(
            tune_every=_integer(sched_cfg.get("n", 672), "schedule n"),
            fit_every=_integer(sched_cfg.get("m", 96), "schedule m"),
            train_window=_integer(sched_cfg.get("train_window", 96), "train_window"),
            validation_window=_integer(
                sched_cfg.get("validation_window", 336), "validation_window", 0
            ),
        )
    except ValueError as e:
        raise ConfigError(f"bad schedule: {e}") from None

    model_cfg = cfg.get("model")
    if model_cfg is None:
        raise ConfigError("config file must provide a 'model' section")
    hypers = _parse_model(model_cfg, lag_order)
    bounds_cfg = cfg.get("bounds")
    if bounds_cfg is None:
        raise ConfigError("config file must provide a 'bounds' section")
    feasible = _parse_bounds(_object(bounds_cfg, "bounds"), hypers)
    strategies = _parse_strategies(cfg, hypers, feasible, lag_order, args)

    series = _build_series(data_cfg, seed)
    try:
        stream = build_features(series, lag_order, horizon)
    except ValueError as e:
        raise DataError(str(e)) from None

    out = _string(cfg.get("out", "results"), "out")  # checked even when --out overrides it
    out_dir = Path(args.out if args.out is not None else out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = args.format if args.format is not None else cfg.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")

    traces: dict[str, RunTrace] = {}
    for name, tuner_cfg in strategies.items():
        try:
            traces[name] = run(tuner_cfg, schedule, stream, steps)
        except ValueError as e:
            raise DataError(f"strategy {name}: {e}") from None
        write_trace_csv(out_dir / f"trace_{name}.csv", traces[name])

    report = build_report(traces)
    report_path = _write_report(report, out_dir, fmt)
    for name, entry in report["strategies"].items():
        imp = entry["improvement_vs_fixed"]
        extra = "" if imp is None else f", improvement vs FIXED {100 * imp:+.2f}%"
        print(
            f"{name}: final RMSE {entry['final_rmse']:.6g}, "
            f"{entry['fit_counts']['total_fits']} fits{extra}"
        )
    print(f"report written to {report_path}")
    return 0


def cmd_regret(args) -> int:
    out_dir = Path(args.out) if args.out is not None else None
    for trace_path in args.traces:
        trace_path = Path(trace_path)
        columns = read_trace_csv(trace_path)
        proj = columns["proj_grad_norm"]
        if np.any(np.isnan(proj)):
            raise DataError(
                f"{trace_path}: trace has no projected-gradient records "
                "(strategy without per-step hyper-gradients?)"
            )
        regret = np.cumsum(proj * proj)
        rate = regret / np.arange(1, regret.size + 1)
        target_dir = out_dir if out_dir is not None else trace_path.parent
        target_dir.mkdir(parents=True, exist_ok=True)
        out_path = target_dir / f"regret_{trace_path.stem}.csv"
        with out_path.open("w", newline="", encoding="utf-8") as fh:
            w = csv_writer(fh, lineterminator="\n")
            w.writerow(("t", "regret", "regret_rate"))
            for i in range(regret.size):
                w.writerow((_fmt(columns["t"][i]), _fmt(regret[i]), _fmt(rate[i])))
        print(f"wrote {out_path}")
    return 0


# -- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkridge",
        description="Multiple-kernel ridge regression benchmarks with online hyperparameter learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic series to CSV")
    gen.add_argument("--out", required=True, help="output CSV path")
    # no defaults here: unset flags take the synthetic data section's
    gen.add_argument("--length", type=int, help="raw steps including warm-up")
    gen.add_argument("--c1", type=float)
    gen.add_argument("--c2", type=float)
    gen.add_argument("--omega", type=float)
    gen.add_argument("--ar-order", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--noise-sd", type=float)
    gen.set_defaults(func=cmd_generate)

    runp = sub.add_parser("run", help="execute strategies on one stream")
    runp.add_argument("--config", help="JSON run configuration file")
    runp.add_argument("--data", help="CSV path, or 'synthetic'")
    runp.add_argument("--strategy", action="append",
                      choices=[s.value for s in Strategy],
                      help="strategy to run (repeatable; default: all configured)")
    runp.add_argument("--n", type=int, help="hyperparameter tuning interval (steps)")
    runp.add_argument("--m", type=int, help="model fitting interval (steps)")
    runp.add_argument("--eta", type=float, help="learning rate for OHL/OFFLINE_GRAD")
    runp.add_argument("--train-window", type=int, help="training samples per fit")
    runp.add_argument("--horizon", type=int, help="forecast horizon in steps")
    runp.add_argument("--seed", type=int, help="random seed")
    runp.add_argument("--out", help="output directory")
    runp.add_argument("--format", choices=("csv", "json"), help="report format")
    runp.set_defaults(func=cmd_run)

    reg = sub.add_parser("regret", help="cumulative local-regret series from traces")
    reg.add_argument("traces", nargs="+", help="trace CSV files")
    reg.add_argument("--out", help="output directory (default: next to each trace)")
    reg.set_defaults(func=cmd_regret)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4

