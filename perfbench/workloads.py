"""The benchmark's workloads: inputs from a seed, one operation at a time.

All workloads use the synthetic stream ``y(t) = 1 + c1*AR(20) + c2*sin(t/omega)``
with c1 = c2 = 0.5, omega = 5, noise_sd = 0.1 and 20 lags. The benchmark's seed
is the series seed and the RANDOM strategy's seed; the program receives only
the generated series (for ``cli_adapt``, a CSV of it) and the configs.

* ``four_week`` - the paper's reference set-up: periodic + ARD-20 kernel,
  train window 96, validation window 336, refit every 96 steps, re-tune every
  672, a four-week stream. Small fits; per-query hyper-gradient work dominates.
* ``wide_window`` - the same kernel and schedule with a 1344-step training
  window: the 1344x1344 Gram matrix (14 MB) outgrows the L2 cache, so Gram
  builds, Cholesky and the ARD derivative matrices dominate.
* ``cli_adapt`` - ``mkridge run`` in-process on a JSON config: the
  multiple-kernel adaptation story (periodic + SE, weights [1, 0]) with many
  small refits, GRID re-tuning, and written traces and report.

An operation is one strategy run (batch workloads) or one CLI invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mkridge import cli, data, tuners
from mkridge.data import BURN_IN, SyntheticConfig
from mkridge.kernels import ArdKernel, CompositeKernel, PeriodicKernel
from mkridge.model import HyperParams
from mkridge.optim import FeasibleSet
from mkridge.tuners import Schedule, Strategy, TunerConfig

LAG = 20
WORKLOADS = ("four_week", "wide_window", "cli_adapt")
RMSE_REL_TOL = 1e-6  # final RMSE drift allowed against the reference (arithmetic reordering)


@dataclass
class OpResult:
    """What one operation did, as the measurement loop and the checks need it."""

    wall_s: float  # the timed call
    strategy_s: dict[str, float]  # wall time of each strategy's run call
    steps: dict[str, int]  # prediction steps of each strategy
    summary: dict[str, dict]  # per strategy: final RMSE and cost counts
    fingerprint: dict[str, bytes]  # outputs a traced run must reproduce exactly
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def _summary(final_rmse: float, counts: dict) -> dict:
    tuning, prediction = counts["tuning"], counts["prediction"]
    return {
        "final_rmse": float(final_rmse),
        "tuning_fits": tuning["fits"],
        "prediction_fits": prediction["fits"],
        "jacobian_builds": tuning["jacobian_builds"] + prediction["jacobian_builds"],
        "gradient_evals": tuning["gradient_evals"] + prediction["gradient_evals"],
    }


def _series(seed: int, history: int, steps: int):
    length = BURN_IN + LAG + history + steps
    return data.generate_synthetic(
        SyntheticConfig(0.5, 0.5, 5.0, length=length, seed=seed, noise_sd=0.1)
    )


class BatchWorkload:
    """Strategies run one after another through ``tuners.run`` on one stream."""

    def __init__(self, seed: int, train_window: int, steps: int, strategies: dict[str, dict]):
        validation_window = 336
        series = _series(seed, train_window + validation_window, steps)
        self.stream = data.build_features(series, LAG)
        self.schedule = Schedule(
            tune_every=672, fit_every=96,
            train_window=train_window, validation_window=validation_window,
        )
        hypers = HyperParams(
            CompositeKernel(
                (PeriodicKernel(1.5e-3, 96.0), ArdKernel(np.full(LAG, 1e-3))), [0.5, 0.5]
            ),
            0.3,
        )
        feasible = FeasibleSet.for_kinds(
            hypers.scalar_kinds(),
            {"scale": (1.5e-6, 1.5e-2), "period": (48.0, 672.0), "ridge": (0.03, 3.0)},
        )
        self.configs, self.op_steps = {}, {}
        for name, kw in strategies.items():
            kw = dict(kw)
            self.op_steps[name] = kw.pop("steps", steps)
            self.configs[name] = TunerConfig(
                strategy=Strategy(name), init=hypers, feasible=feasible, **kw)
        self.ops = list(self.configs)

    def run(self, op: str) -> OpResult:
        config, steps = self.configs[op], self.op_steps[op]
        t0 = time.perf_counter()
        trace = tuners.run(config, self.schedule, self.stream, steps)
        wall = time.perf_counter() - t0
        rmse = math.sqrt(float(np.mean(trace.sq_errors())))
        return OpResult(
            wall_s=wall,
            strategy_s={op: wall},
            steps={op: len(trace)},
            summary={op: _summary(rmse, tuners.fit_count_report(trace))},
            fingerprint={
                f"{op}.yhat": trace.yhat.tobytes(),
                f"{op}.lambdas": trace.lambdas.tobytes(),
            },
            problems=[] if len(trace) == steps else [f"{op}: {len(trace)} steps"],
        )


# An operation predicts the last ``steps`` points of the stream. Each count is
# a whole number of refit intervals (96), and of tune intervals (672) for the
# strategies that re-tune, so steps per second match a longer run's; each is
# small enough that a run repeats every operation, since run-to-run spread
# here falls with the number of samples a median rests on.


def four_week(seed: int) -> BatchWorkload:
    week = 672
    return BatchWorkload(seed, train_window=96, steps=4 * week, strategies={
        "OHL": {"eta": 1e-4, "steps": week},
        "RANDOM": {"draws": 50, "seed": seed, "steps": week},
        # 10 iterations per tune event, the least acceptance criterion 3 allows
        "OFFLINE_GRAD": {"eta": 1e-4, "tol": 1e-12, "max_iters": 10, "steps": week},
        "FIXED": {"steps": week},
    })


def wide_window(seed: int) -> BatchWorkload:
    return BatchWorkload(seed, train_window=1344, steps=672, strategies={
        "OHL": {"eta": 1e-4, "steps": 192},
        "RANDOM": {"draws": 10, "seed": seed},
        "FIXED": {"steps": 192},
    })


def _cli_model(periodic_scale: float, weights: list[float], ridge: float) -> dict:
    return {
        "kernel": [
            {"type": "periodic", "scale": periodic_scale, "period": 5.0},
            {"type": "se", "scale": 0.01},
        ],
        "weights": weights,
        "ridge": ridge,
    }


class CliWorkload:
    """``mkridge run`` invoked in-process through ``mkridge.cli.main``."""

    STEPS = 2000
    STRATEGIES = ("FIXED", "OHL", "GRID")

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        series = _series(seed, 100 + 200, self.STEPS)
        csv_path = workdir / "series.csv"
        with csv_path.open("w", encoding="utf-8") as fh:
            fh.write("timestamp,value\n")
            fh.writelines(f"{t},{v!r}\n" for t, v in zip(series.timestamps.tolist(), series.values.tolist()))
        grid = [
            _cli_model(scale, weights, ridge)
            for scale in (1.0, 10.0)
            for weights in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.0])
            for ridge in (0.1, 1.0)
        ]
        config = {
            "data": {"type": "csv", "path": str(csv_path)},
            "lag_order": LAG,
            "horizon": 1,
            "seed": seed,
            "predict_steps": self.STEPS,
            "schedule": {"n": 1000, "m": 10, "train_window": 100, "validation_window": 200},
            "model": _cli_model(10.0, [1.0, 0.0], 1.0),
            "bounds": {"scale": [1e-5, 50.0], "period": [2.0, 100.0], "ridge": [1e-3, 3.0]},
            "strategies": {"FIXED": {}, "OHL": {"eta": 1e-3}, "GRID": {"grid": grid}},
            "format": "json",
        }
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.ops = ["cli"]
        self._count = 0

    def run(self, op: str) -> OpResult:
        self._count += 1
        out = self.workdir / f"out{self._count}"
        run_fn = cli.run
        times: dict[str, float] = {}

        def timed_run(config, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_fn(config, *args, **kwargs)
            finally:
                times[config.strategy.value] = time.perf_counter() - t0

        cli.run = timed_run
        sink = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["run", "--config", str(self.config_path), "--out", str(out)])
            wall = time.perf_counter() - t0
        finally:
            cli.run = run_fn
        try:
            return self._read_outputs(code, wall, times, out, sink.getvalue())
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _read_outputs(self, code, wall, times, out: Path, printed: str) -> OpResult:
        result = OpResult(wall, times, {}, {}, {})
        if code != 0:
            result.problems.append(f"exit code {code}: {printed.strip()[-300:]}")
            return result
        result.output_bytes = sum(p.stat().st_size for p in out.iterdir())
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            result.problems.append(f"report.json unreadable: {e}")
            return result
        for name in self.STRATEGIES:
            path = out / f"trace_{name}.csv"
            try:
                columns = cli.read_trace_csv(path)
                entry = report["strategies"][name]
            except (OSError, ValueError, KeyError) as e:
                result.problems.append(f"{name}: {type(e).__name__}: {e}")
                continue
            rows = columns["t"].size
            if rows != self.STEPS:
                result.problems.append(f"{name}: trace has {rows} rows")
            result.steps[name] = rows
            result.summary[name] = _summary(entry["final_rmse"], entry["fit_counts"])
            result.fingerprint[f"{name}.trace_csv"] = path.read_bytes()
            result.fingerprint[f"{name}.lambdas"] = json.dumps(
                entry["hyperparameter_trajectory"]
            ).encode()
        return result


def setup(name: str, seed: int, workdir: Path):
    """Series generation, feature build and config construction for a workload."""
    if name == "four_week":
        return four_week(seed)
    if name == "wide_window":
        return wide_window(seed)
    if name == "cli_adapt":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")


# -- output check -----------------------------------------------------------------


def check(reference: dict, workload: str, seed: int, summary: dict[str, dict]) -> list[str]:
    """Compare one operation's per-strategy summaries with the stored reference.

    Cost counts must match exactly. The final RMSE must match within
    ``RMSE_REL_TOL`` for a seed with a stored value; for any other seed it
    must be finite and within a factor of two of the stored seeds' range,
    and the counts must equal those every stored seed agrees on.
    """
    problems = []
    for strategy, got in summary.items():
        stored = reference.get(workload, {}).get(strategy)
        if not stored:
            problems.append(f"{strategy}: no reference values")
            continue
        rmse = got["final_rmse"]
        exact = stored.get(str(seed))
        if exact is not None:
            want_counts = {k: v for k, v in exact.items() if k != "final_rmse"}
            if not abs(rmse - exact["final_rmse"]) <= RMSE_REL_TOL * abs(exact["final_rmse"]):
                problems.append(f"{strategy}: final RMSE {rmse!r} != {exact['final_rmse']!r}")
        else:
            values = [v["final_rmse"] for v in stored.values()]
            if not (math.isfinite(rmse) and 0.5 * min(values) <= rmse <= 2.0 * max(values)):
                problems.append(f"{strategy}: final RMSE {rmse!r} outside the reference band")
            shared = {json.dumps({k: v for k, v in e.items() if k != "final_rmse"}, sort_keys=True)
                      for e in stored.values()}
            want_counts = json.loads(shared.pop()) if len(shared) == 1 else {}
        for key, want in want_counts.items():
            if got[key] != want:
                problems.append(f"{strategy}: {key} {got[key]} != {want}")
    return problems
