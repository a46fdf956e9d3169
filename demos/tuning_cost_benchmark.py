"""Cost of hyperparameter tuning: online updates vs periodic re-search.

Four simulated weeks of 15-minute observations (2688 steps), refitting daily
(96 steps) and re-tuning weekly (672 steps) for the rolling baselines. Model
fits are the hardware-independent cost unit: every strategy pays one fit per
refit window, and the baselines pay extra fits for every backtest trial or
gradient iteration inside each weekly tuning phase. The online learner pays
nothing there - its hyper-gradients are byproducts of prediction.

Also prints two regret series of the online run, both read from its trace:
the per-step one (the running total of each step's squared projected
gradient) and the w-local regret of Hazan, Singh & Zhang (2017) with w = 96,
one term per lazy update: the squared projected gradient of the window's
averaged loss.

Run:  python3 demos/tuning_cost_benchmark.py
"""

import os
import sys

# The table prints wall clock: one BLAS thread, as the benchmark runs. The
# variables act only if set before numpy is imported; one the shell sets stays.
if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from mkridge import (
    ArdKernel,
    CompositeKernel,
    FeasibleSet,
    HyperParams,
    PeriodicKernel,
    Schedule,
    Strategy,
    SyntheticConfig,
    TunerConfig,
    build_features,
    fit_count_report,
    generate_synthetic,
    run,
)
from mkridge.data import BURN_IN

LAGS = 20
STEPS = 2688  # four weeks of 96 observations/day
TRAIN_WINDOW, VALIDATION_WINDOW = 96, 336

series = generate_synthetic(
    SyntheticConfig(c1=0.5, c2=0.5, omega=5.0, noise_sd=0.1, seed=0,
                    length=BURN_IN + LAGS + TRAIN_WINDOW + VALIDATION_WINDOW + STEPS)
)
stream = build_features(series, LAGS)

init = HyperParams(
    CompositeKernel((PeriodicKernel(1.5e-3, 96.0), ArdKernel(np.full(LAGS, 1e-3))),
                    weights=[0.5, 0.5]),
    ridge=0.3,
)
feasible = FeasibleSet.for_kinds(
    init.scalar_kinds(),
    {"scale": (1.5e-6, 1.5e-2), "period": (48.0, 672.0), "ridge": (0.03, 3.0)},
)
schedule = Schedule(tune_every=672, fit_every=96,
                    train_window=TRAIN_WINDOW, validation_window=VALIDATION_WINDOW)

configs = {
    "OHL": TunerConfig(strategy=Strategy.OHL, init=init, feasible=feasible, eta=1e-6),
    "RANDOM": TunerConfig(strategy=Strategy.RANDOM, init=init, feasible=feasible,
                          draws=50, seed=0),
    "OFFLINE_GRAD": TunerConfig(strategy=Strategy.OFFLINE_GRAD, init=init,
                                feasible=feasible, eta=1e-4, tol=1e-12, max_iters=40),
    "FIXED": TunerConfig(strategy=Strategy.FIXED, init=init, feasible=feasible),
}

traces = {}
print(f"{'strategy':>13}  {'tuning fits':>11}  {'model fits':>10}  {'total':>6}  "
      f"{'final RMSE':>10}  {'wall s':>7}")
for name, config in configs.items():
    trace = run(config, schedule, stream, steps=STEPS)
    traces[name] = trace
    counts = fit_count_report(trace)
    rmse = float(np.sqrt(np.mean(trace.sq_errors())))
    wall = trace.tuning.wall_clock + trace.prediction.wall_clock
    print(f"{name:>13}  {counts['tuning']['fits']:>11}  {counts['prediction']['fits']:>10}  "
          f"{counts['total_fits']:>6}  {rmse:>10.3f}  {wall:>7.1f}")

ohl = traces["OHL"]
m = schedule.fit_every
per_step = np.cumsum(ohl.proj_grad_sq)
local = np.cumsum(ohl.local_proj_grad_sq)
print(f"\nregret of the online run through step T: per step, and w-local (w = {m}) "
      "over the updates made from windows that end by T")
print(f"{'T':>6}  {'per-step':>10}  {'R_T/T':>9}  {'updates':>7}  {'w-local':>10}")
for t in (672, 1344, 2016, 2688):
    k = min(t // m, local.size)
    print(f"{t:>6}  {per_step[t - 1]:>10.4g}  {per_step[t - 1] / t:>9.4g}  {k:>7}  "
          f"{local[k - 1]:>10.4g}")
