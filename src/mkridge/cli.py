"""Benchmark command line: generate data, execute strategies, emit reports.

Subcommands
-----------
``generate``  write a synthetic series to CSV
``run``       execute configured strategies on one stream and write per-step
              trace CSVs plus a report
``regret``    turn trace files into cumulative per-step squared
              projected-gradient (per-step regret) series

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
from csv import DictReader
from pathlib import Path
from typing import Callable, NamedTuple

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


def _write_csv(path, header, columns, formats=None) -> None:
    """One CSV row per index of the equal-length arrays or sequences
    ``columns``, each cell written by its ``%`` format (default ``%.17g``,
    the digits of :func:`_fmt`): the bytes ``csv.writer`` gives, with one
    format operation per row."""
    row = ",".join(formats or ["%.17g"] * len(header)) + "\n"
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % cells for cells in zip(*(np.asarray(c).tolist() for c in columns)))


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
    _write_csv(path, TRACE_COLUMNS, (trace.times, trace.y, trace.yhat, sq, rmse_series(sq),
                                     trace.grad_norms, np.sqrt(trace.proj_grad_sq)))


def read_trace_csv(path) -> dict[str, np.ndarray]:
    path = Path(path)
    columns: dict[str, list[float]] = {c: [] for c in TRACE_COLUMNS}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = DictReader(fh)
        if reader.fieldnames is None or set(TRACE_COLUMNS) - set(reader.fieldnames):
            raise DataError(f"{path}: expected trace columns {TRACE_COLUMNS}")
        for row in reader:
            try:
                if None in row:  # DictReader files a long row's extra cells under None
                    raise ValueError
                values = [float(row[c]) for c in TRACE_COLUMNS]
            except (TypeError, ValueError):  # a short row holds None cells
                raise DataError(
                    f"{path}: line {reader.line_num}: expected one number in each of "
                    f"{TRACE_COLUMNS}"
                ) from None
            for c, value in zip(TRACE_COLUMNS, values):
                columns[c].append(value)
    if not columns["t"]:
        raise DataError(f"{path}: no rows")
    return {c: np.asarray(v) for c, v in columns.items()}


# -- report -------------------------------------------------------------------


def _trajectory(trace: RunTrace) -> list[list]:
    """Hyperparameter trajectory compressed to its change points."""
    lam = trace.lambdas[: len(trace)]
    if not len(lam):
        return []
    # a step is a change point if any value differs (!=) from the step before
    changed = np.flatnonzero((lam[1:] != lam[:-1]).any(axis=1)) + 1
    return [[int(s), lam[s].tolist()] for s in (0, *changed)]


def _running_total(sq) -> list[float] | None:
    return None if sq is None or np.isnan(sq).any() else np.cumsum(sq).tolist()


def build_report(traces: dict[str, RunTrace]) -> dict:
    """Assemble the run report: accuracy, improvement vs FIXED (null without
    FIXED or where its RMSE is 0), costs, and the running totals of the
    trace's two regret views."""
    series = {name: rmse_series(trace.sq_errors()) for name, trace in traces.items()}
    fixed = series.get(Strategy.FIXED.value)
    fixed_rmse = None if fixed is None or fixed[-1] == 0 else float(fixed[-1])
    report: dict = {"strategies": {}}
    for name, trace in traces.items():
        final = float(series[name][-1])
        report["strategies"][name] = {
            "final_rmse": final,
            "improvement_vs_fixed": None
            if fixed_rmse is None
            else (fixed_rmse - final) / fixed_rmse,
            "rmse_series": series[name].tolist(),
            "fit_counts": fit_count_report(trace),
            "wall_clock_s": {
                "tuning": trace.tuning.wall_clock,
                "prediction": trace.prediction.wall_clock,
            },
            "regret_series": _running_total(trace.proj_grad_sq),
            "local_regret_series": _running_total(trace.local_proj_grad_sq),
            "hyperparameter_trajectory": _trajectory(trace),
        }
    return report


def _write_report(report: dict, out_dir: Path, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        return path
    path = out_dir / "report.csv"
    rows = []
    for name, entry in report["strategies"].items():
        counts, imp = entry["fit_counts"], entry["improvement_vs_fixed"]
        tuning, prediction = counts["tuning"], counts["prediction"]
        rows.append((name, entry["final_rmse"], "" if imp is None else _fmt(imp),
                     counts["total_fits"], tuning["fits"], prediction["fits"],
                     tuning["jacobian_builds"] + prediction["jacobian_builds"],
                     tuning["gradient_evals"] + prediction["gradient_evals"]))
    _write_csv(path, ("strategy", "final_rmse", "improvement_vs_fixed", "total_fits",
                      "tuning_fits", "prediction_fits", "jacobian_builds", "gradient_evals"),
               tuple(zip(*rows)), ("%s", "%.17g", "%s", "%d", "%d", "%d", "%d", "%d"))
    return path


# -- configuration ------------------------------------------------------------
# Each config section is read by one table of key -> _Key; the known keys,
# ``generate``'s flags and the keys that ``run``'s flags set come from them.


def _checked(test, what: str, convert=None):
    """A parser that rejects a value failing ``test`` (``what`` in messages)
    and returns it, through ``convert`` if given."""
    def parse(value, name: str):
        if not test(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


def _at_least(least: int):
    return _checked(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least,
                    f"an integer >= {least}")


_ABSENT = object()
_FORMATS = ("csv", "json")
_integer, _natural = _at_least(1), _at_least(0)
_number = _checked(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number",
                   float)
_string = _checked(lambda v: isinstance(v, str), "a string")
# a NUL character fails every file system call with a ValueError, not an OSError
_path = _checked(lambda v: isinstance(v, str) and "\0" not in v, "a string without NUL characters")
_object = _checked(lambda v: isinstance(v, dict), "a JSON object")
_list = _checked(lambda v: isinstance(v, list), "a JSON list")
_pair = _checked(lambda v: isinstance(v, list) and len(v) == 2, "a two-element list")


def _one_of(*choices: str):
    return _checked(lambda v: isinstance(v, str) and v in choices, " or ".join(map(repr, choices)))


_format = _one_of(*_FORMATS)


def _optional(parse):  # for a key whose null value means no value
    return lambda value, name: None if value is None else parse(value, name)


def _as_is(value, name: str):  # checked where it is used
    return value


def _interval(value, name: str) -> tuple[float, ...]:
    return tuple(_number(v, name) for v in _pair(value, name))


def _ard_kernel(scale, lag_order: int) -> ArdKernel:
    """An ARD kernel from one scale for every lag, or a list of one per lag."""
    if isinstance(scale, list):
        scales = np.array([_number(s, "ARD scale") for s in scale])
    else:
        scales = np.full(lag_order, _number(scale, "ARD scale"))
    if scales.shape != (lag_order,):
        raise ValueError(f"needs one scale per lag ({lag_order}), got shape {scales.shape}")
    return ArdKernel(scales)


class _Key(NamedTuple):
    """How a config key is read: ``parse(value, name)`` checks a value and
    returns what the library takes. ``name`` (in messages) and ``field`` (the
    library's) are set where they differ from the key. ``default`` is set only
    where the library has none; ``None`` reads a missing key as null, which a
    required key's ``parse`` rejects. ``flag`` holds the argparse settings of
    the flag that sets the key."""

    parse: Callable
    name: str = ""
    default: object = _ABSENT
    flag: dict | None = None
    field: str = ""


def _parse_keys(section, keys: dict, name: str, flags=None, known=()) -> dict:
    """The checked values of a config section by its key table, under their
    library fields; a flag set in ``flags`` replaces the file's value. Keys
    in ``known`` are read by the section's other tables."""
    known = {*known, *keys}
    unknown = _object(section, name).keys() - known
    if unknown:
        raise ConfigError(f"unknown keys for {name}: {sorted(unknown)} "
                          f"(expected some of {sorted(known)})")
    values = {}
    for key, spec in keys.items():
        given = getattr(flags, key, None) if spec.flag is not None else None
        for value in (section.get(key, spec.default), _ABSENT if given is None else given):
            if value is not _ABSENT:  # the file's value is checked, then the flag's replaces it
                values[spec.field or key] = spec.parse(value, spec.name or key)
    return values


# the top level of the config file; each nested section has its own table
_RUN_KEYS = {
    "data": _Key(_optional(_object), default=None),
    "lag_order": _Key(_integer, default=20),
    "horizon": _Key(_integer, default=1, flag=dict(type=int, help="forecast horizon in steps")),
    "seed": _Key(_natural, default=0, flag=dict(type=int, help="random seed")),
    "predict_steps": _Key(_optional(_integer), default=None),
    "schedule": _Key(_as_is, default={}),
    "model": _Key(_as_is, default=None),
    "bounds": _Key(_as_is, default=None),
    "strategies": _Key(_object, default={}),
    "out": _Key(_path, default="results", flag=dict(help="output directory")),
    "format": _Key(_format, default="json", flag=dict(choices=_FORMATS, help="report format")),
}

_SCHEDULE_KEYS = {
    "n": _Key(_integer, "schedule n", default=672, field="tune_every",
              flag=dict(type=int, help="hyperparameter tuning interval (steps)")),
    "m": _Key(_integer, "schedule m", default=96, field="fit_every",
              flag=dict(type=int, help="model fitting interval (steps)")),
    "train_window": _Key(_integer, default=96, flag=dict(type=int, help="training samples per fit")),
    "validation_window": _Key(_natural, default=336),
}

# each key is also a flag of ``generate``
_SYNTHETIC_KEYS = {
    "length": _Key(_integer, flag=dict(type=int, help="raw steps including warm-up")),
    "c1": _Key(_number, flag=dict(type=float)),
    "c2": _Key(_number, flag=dict(type=float)),
    "omega": _Key(_number, flag=dict(type=float)),
    "ar_order": _Key(_integer, flag=dict(type=int)),
    "seed": _Key(_natural, "data seed", flag=dict(type=int)),
    "noise_sd": _Key(_number, flag=dict(type=float)),
}

# a CSV section holds load_csv's arguments, and bin_series's when it is binned
_CSV_KEYS = {
    "path": _Key(_path, "csv data path", default=None),
    "timestamp_column": _Key(_string),
    "value_column": _Key(_string),
}
_BINNING_KEYS = {
    "bin_width": _Key(_integer),
    "aggregator": _Key(_one_of("sum", "mean")),
    "bin_mode": _Key(_one_of("strict", "lenient"), field="mode"),
}

_MODEL_KEYS = {
    "kernel": _Key(_list, default=None),
    "weights": _Key(_optional(_list), default=None),
    "ridge": _Key(_number, default=None),
}

# kernel type: what builds it from its keys' values, in table order
_COMPONENTS = {
    "periodic": (PeriodicKernel, {"scale": _Key(_number, "periodic scale", default=None),
                                  "period": _Key(_number, default=None)}),
    "se": (SquaredExpKernel, {"scale": _Key(_number, "se scale", default=None)}),
    "ard": (_ard_kernel, {"scale": _Key(_as_is, default=None)}),
}

_BOUNDS_KEYS = {kind: _Key(_interval, f"bounds {kind}") for kind in ("scale", "period", "ridge")}

# TunerConfig checks the ranges of eta and tol; --seed sets every strategy's seed too
_STRATEGY_KEYS = {
    "eta": _Key(_number, flag=dict(type=float, help="learning rate for OHL/OFFLINE_GRAD")),
    "tol": _Key(_number),
    "draws": _Key(_integer),
    "max_iters": _Key(_natural),
    "seed": _Key(_natural, flag=_RUN_KEYS["seed"].flag),
    "grid": _Key(_list),
}


def _parse_component(entry, lag_order: int):
    try:
        kind = entry["type"]
    except (KeyError, TypeError):
        raise ConfigError(f"kernel component needs a 'type': {entry!r}") from None
    if not isinstance(kind, str) or kind not in _COMPONENTS:
        raise ConfigError(f"unknown kernel type {kind!r} (expected {'|'.join(_COMPONENTS)})")
    make, keys = _COMPONENTS[kind]
    args = _parse_keys(entry, keys, f"{kind} kernel component", known=("type",)).values()
    try:
        return make(*args, lag_order) if make is _ard_kernel else make(*args)
    except ValueError as e:
        raise ConfigError(f"bad kernel component {entry!r}: {e}") from None


def _parse_model(entry, lag_order: int, name: str = "model") -> HyperParams:
    values = _parse_keys(entry, _MODEL_KEYS, name)
    components = tuple(_parse_component(c, lag_order) for c in values["kernel"])
    weights = values["weights"]
    if weights is not None:
        weights = [_number(w, "mixture weight") for w in weights]
    elif components:  # CompositeKernel rejects an empty kernel list
        weights = np.full(len(components), 1.0 / len(components))
    try:
        return HyperParams(CompositeKernel(components, weights), values["ridge"])
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _parse_bounds(entry, hypers: HyperParams) -> FeasibleSet:
    bounds = _parse_keys(entry, _BOUNDS_KEYS, "bounds")
    try:
        feasible = FeasibleSet.for_kinds(hypers.scalar_kinds(), bounds)
        # a step can land on the lower corner, which must be valid with the initial weights
        corner = feasible.lower.copy()
        corner[feasible.simplex] = hypers.to_vector()[feasible.simplex]
        hypers.from_vector(corner)
    except ValueError as e:
        raise ConfigError(f"bad bounds section: {e}") from None
    return feasible


def _parse_strategies(section, hypers: HyperParams, feasible: FeasibleSet,
                      lag_order: int, args) -> dict[str, TunerConfig]:
    names = list(args.strategy) if args.strategy else list(section)
    if not names:
        raise ConfigError("no strategies configured (use --strategy or the config file)")
    out: dict[str, TunerConfig] = {}
    for name in names:
        kwargs = _parse_keys(section.get(name, {}), _STRATEGY_KEYS, f"strategy {name}", args)
        if "grid" in kwargs:
            kwargs["grid"] = tuple(_parse_model(g, lag_order, "grid point") for g in kwargs["grid"])
        try:
            out[name] = TunerConfig(
                strategy=Strategy(name), init=hypers, feasible=feasible, **kwargs
            )
        except ValueError as e:
            raise ConfigError(f"strategy {name}: {e}") from None
    return out


def _build_series(data_cfg: dict, seed: int, flags=None) -> TimeSeries:
    """A data section's series: ``seed`` is a synthetic one's default seed."""
    kind = data_cfg.get("type")
    if kind == "synthetic":
        config = _parse_keys({"seed": seed, **data_cfg}, _SYNTHETIC_KEYS, "synthetic data",
                             flags, known=("type",))
        try:
            return generate_synthetic(SyntheticConfig(**config))  # raises on a series that overflows
        except ValueError as e:
            raise ConfigError(f"bad synthetic data section: {e}") from None
    if kind == "csv":  # every key is checked before the file is read
        columns = _parse_keys(data_cfg, _CSV_KEYS, "csv data", known=("type", *_BINNING_KEYS))
        binning = _parse_keys(data_cfg, _BINNING_KEYS, "csv data", known=("type", *_CSV_KEYS))
        series = load_csv(**columns)
        return bin_series(series, **binning) if "bin_width" in binning else series
    raise ConfigError(f"data section needs type 'synthetic' or 'csv', got {kind!r}")


def _load_config(args):
    if args.config is None:
        return {}
    try:
        return json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from None


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    series = _build_series({"type": "synthetic"}, 0, args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ("timestamp", "value"), (series.timestamps, series.values),
               ("%d", "%.17g"))
    print(f"wrote {len(series)} rows to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _parse_keys(_load_config(args), _RUN_KEYS, "the config file", args)

    data_cfg = cfg["data"]
    if args.data is not None:
        # the flag picks the source; a section of the same type keeps its settings
        kind = "synthetic" if args.data == "synthetic" else "csv"
        data_cfg = {**(data_cfg if data_cfg and data_cfg.get("type") == kind else {}), "type": kind}
        if kind == "csv":
            data_cfg["path"] = args.data
    if data_cfg is None:
        raise ConfigError("no data source (use --data or the config file's data section)")

    try:
        schedule = Schedule(**_parse_keys(cfg["schedule"], _SCHEDULE_KEYS, "schedule", args))
    except ValueError as e:
        raise ConfigError(f"bad schedule: {e}") from None

    hypers = _parse_model(cfg["model"], cfg["lag_order"])
    feasible = _parse_bounds(cfg["bounds"], hypers)
    strategies = _parse_strategies(cfg["strategies"], hypers, feasible, cfg["lag_order"], args)
    for name, tuner_cfg in strategies.items():
        if tuner_cfg.strategy not in (Strategy.OHL, Strategy.FIXED) and schedule.validation_window < 1:
            raise ConfigError(f"strategy {name} needs validation_window >= 1")

    series = _build_series(data_cfg, cfg["seed"])
    try:
        stream = build_features(series, cfg["lag_order"], cfg["horizon"])
    except ValueError as e:
        raise DataError(str(e)) from None

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    traces: dict[str, RunTrace] = {}
    for name, tuner_cfg in strategies.items():
        try:
            traces[name] = run(tuner_cfg, schedule, stream, cfg["predict_steps"])
            # the trace's diagnostic series are computed here, and may overflow
            write_trace_csv(out_dir / f"trace_{name}.csv", traces[name])
        except ValueError as e:
            raise DataError(f"strategy {name}: {e}") from None
        except NumericalError as e:
            raise NumericalError(f"strategy {name}: {e}") from None

    report = build_report(traces)
    report_path = _write_report(report, out_dir, cfg["format"])
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
        _write_csv(out_path, ("t", "regret", "regret_rate"), (columns["t"], regret, rate))
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
    for key, spec in _SYNTHETIC_KEYS.items():
        gen.add_argument("--" + key.replace("_", "-"), **spec.flag)
    gen.set_defaults(func=cmd_generate)

    runp = sub.add_parser("run", help="execute strategies on one stream")
    runp.add_argument("--config", help="JSON run configuration file")
    runp.add_argument("--data", help="CSV path, or 'synthetic'")
    runp.add_argument("--strategy", action="append",
                      choices=[s.value for s in Strategy],
                      help="strategy to run (repeatable; default: all configured)")
    # a key of two tables (seed) has one flag
    for key, spec in {**_SCHEDULE_KEYS, **_STRATEGY_KEYS, **_RUN_KEYS}.items():
        if spec.flag is not None:
            runp.add_argument("--" + key.replace("_", "-"), **spec.flag)
    runp.set_defaults(func=cmd_run)

    reg = sub.add_parser("regret", help="cumulative per-step regret series from traces")
    reg.add_argument("traces", nargs="+", help="trace CSV files")
    reg.add_argument("--out", help="output directory (default: next to each trace)")
    reg.set_defaults(func=cmd_regret)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4

