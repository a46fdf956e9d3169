"""Rolling prediction with pluggable hyperparameter tuning strategies.

All strategies share one deployment loop: predict one step ahead, observe
the truth, refit the model on the latest training window every ``fit_every``
steps. Hyperparameters and the fitted model are frozen between refits, so
the loop evaluates each refit window (and each validation window while
tuning) with one batched call; the per-step records are the same as a
step-by-step loop would produce. Strategies differ in how hyperparameters
evolve:

* ``OHL``      - accumulate exact per-step hyper-gradients and apply one
                 lazy projected update per refit window (no backtesting).
* ``GRID``     - every ``tune_every`` steps, backtest a fixed candidate list
                 on held-out history and keep the best.
* ``RANDOM``   - like GRID but with fresh random candidates plus the
                 incumbent.
* ``OFFLINE_GRAD`` - projected gradient descent on the mean validation loss,
                 refitting once per iteration (exact-gradient variant of
                 offline gradient-based tuning).
* ``FIXED``    - never tune after initialization.

Every run produces a :class:`RunTrace` with per-step records and fit/build
counters split into tuning and prediction phases; counters are the
hardware-independent cost proxy, wall-clock is recorded but incidental.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .data import Dataset
from .model import (
    HyperParams,
    fit,
    loss_hyper_gradient,  # unused here; bound so that perfbench/layers.py can wrap it
    loss_hyper_gradient_batch,
    predict,  # unused here; bound so that perfbench/layers.py can wrap it
    predict_batch,
    theta_jacobian,
)
from .optim import (
    FeasibleSet,
    GradAccumulator,
    lazy_step,
    project_C,
    projected_gradient,
)

__all__ = [
    "Strategy",
    "Schedule",
    "TunerConfig",
    "PhaseCounters",
    "RunTrace",
    "run",
    "run_ohl",
    "run_rolling",
    "tune_grid",
    "tune_random",
    "tune_offline_gradient",
    "fit_count_report",
]


class Strategy(str, Enum):
    OHL = "OHL"
    GRID = "GRID"
    RANDOM = "RANDOM"
    OFFLINE_GRAD = "OFFLINE_GRAD"
    FIXED = "FIXED"


ROLLING_STRATEGIES = (Strategy.GRID, Strategy.RANDOM, Strategy.OFFLINE_GRAD, Strategy.FIXED)


@dataclass(frozen=True)
class Schedule:
    """Intervals of the rolling protocol, in prediction steps.

    ``tune_every`` is the hyperparameter re-selection interval for rolling
    tuners, ``fit_every`` the model refit (and lazy-update) interval, and the
    two windows give the number of training samples and the held-out history
    used for backtesting.
    """

    tune_every: int
    fit_every: int
    train_window: int
    validation_window: int = 0

    def __post_init__(self) -> None:
        if not self.fit_every >= 1:
            raise ValueError("fit interval must be >= 1")
        if not self.tune_every >= self.fit_every:
            raise ValueError("tune interval must be >= fit interval")
        if not self.train_window >= 1:
            raise ValueError("train_window must be >= 1")
        if self.validation_window < 0:
            raise ValueError("validation_window must be >= 0")


@dataclass(frozen=True, eq=False)
class TunerConfig:
    """Strategy selection plus everything the strategy needs to run."""

    strategy: Strategy
    init: HyperParams
    feasible: FeasibleSet
    eta: float = 1e-4
    grid: tuple[HyperParams, ...] = ()
    draws: int = 50
    tol: float = 1e-8
    max_iters: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.eta < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.feasible.dim != self.init.dim:
            raise ValueError(
                f"feasible set dimension {self.feasible.dim} does not match "
                f"hyperparameter dimension {self.init.dim}"
            )
        if not self.feasible.contains(self.init.to_vector()):
            raise ValueError("initial hyperparameters lie outside the feasible set")
        for g in self.grid:
            if not self.feasible.contains(g.to_vector()):
                raise ValueError("grid point lies outside the feasible set")


@dataclass
class PhaseCounters:
    fits: int = 0
    jacobian_builds: int = 0
    gradient_evals: int = 0
    wall_clock: float = 0.0


@dataclass
class RunTrace:
    """Everything one run produced: per-step records plus phase counters."""

    strategy: str
    start_index: int
    eta: float
    times: np.ndarray
    y: np.ndarray
    yhat: np.ndarray
    lambdas: np.ndarray
    grad_norms: np.ndarray
    proj_grad_sq: np.ndarray
    gradients: np.ndarray | None
    tuning: PhaseCounters
    prediction: PhaseCounters
    final_hypers: HyperParams

    def __len__(self) -> int:
        return self.y.size

    def sq_errors(self) -> np.ndarray:
        e = self.y - self.yhat
        return e * e


def _fit_counted(hypers: HyperParams, window: Dataset, counters: PhaseCounters):
    trained = fit(hypers, window)
    counters.fits += 1
    return trained


def _backtest_rmse(
    hypers: HyperParams, fit_window: Dataset, val_window: Dataset, counters: PhaseCounters
) -> float:
    """One-step-ahead validation RMSE with a single refit per trial."""
    trained = _fit_counted(hypers, fit_window, counters)
    err = val_window.targets - predict_batch(trained, val_window)
    return float(np.sqrt(np.mean(err * err)))


def tune_grid(
    candidates: Sequence[HyperParams],
    fit_window: Dataset,
    val_window: Dataset,
    counters: PhaseCounters | None = None,
) -> HyperParams:
    """Backtest every candidate and return the one with the lowest validation
    RMSE; ties keep the earliest candidate."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate grid")
    counters = counters if counters is not None else PhaseCounters()
    best = candidates[0]
    best_rmse = _backtest_rmse(best, fit_window, val_window, counters)
    for cand in candidates[1:]:
        rmse = _backtest_rmse(cand, fit_window, val_window, counters)
        if rmse < best_rmse:
            best, best_rmse = cand, rmse
    return best


def tune_random(
    config: TunerConfig,
    incumbent: HyperParams,
    fit_window: Dataset,
    val_window: Dataset,
    rng: np.random.Generator,
    counters: PhaseCounters | None = None,
) -> HyperParams:
    """Backtest the incumbent plus ``draws`` random feasible configurations."""
    candidates = [incumbent]
    for _ in range(config.draws):
        candidates.append(incumbent.from_vector(config.feasible.sample(rng)))
    return tune_grid(candidates, fit_window, val_window, counters)


def tune_offline_gradient(
    config: TunerConfig,
    incumbent: HyperParams,
    fit_window: Dataset,
    val_window: Dataset,
    counters: PhaseCounters | None = None,
) -> HyperParams:
    """Projected gradient descent on the mean validation loss.

    Each iteration refits on the training window, computes the exact
    hyper-gradient of the mean one-step-ahead validation loss, and applies
    one projected step. Stops when the projected-gradient norm falls to
    ``tol`` or after ``max_iters`` iterations.
    """
    counters = counters if counters is not None else PhaseCounters()
    hypers = incumbent
    lam = incumbent.to_vector()
    for _ in range(config.max_iters):
        trained = _fit_counted(hypers, fit_window, counters)
        jac = theta_jacobian(trained)
        counters.jacobian_builds += 1
        grads = loss_hyper_gradient_batch(trained, jac, val_window, val_window.targets)
        counters.gradient_evals += len(val_window)
        grad = grads.sum(axis=0) / len(val_window)
        pg = projected_gradient(lam, grad, config.eta, config.feasible)
        if float(np.linalg.norm(pg)) <= config.tol:
            break
        lam = project_C(lam - config.eta * grad, config.feasible)
        hypers = incumbent.from_vector(lam)
    return hypers


def _resolve_start(stream: Dataset, schedule: Schedule, needs_validation: bool, steps) -> int:
    min_hist = schedule.train_window + (schedule.validation_window if needs_validation else 0)
    if needs_validation and schedule.validation_window < 1:
        raise ValueError("tuning strategies need validation_window >= 1")
    total = len(stream)
    if steps is None:
        start = min_hist
    else:
        if steps < 1:
            raise ValueError("steps must be >= 1")
        start = total - steps
    if start < min_hist or total <= start:
        raise ValueError(
            f"stream too short: {total} points cannot supply {min_hist} history points "
            f"plus {steps if steps is not None else 'at least 1'} prediction steps"
        )
    return start


def run_ohl(config: TunerConfig, schedule: Schedule, stream: Dataset, steps: int | None = None) -> RunTrace:
    """Online hyperparameter learning over a stream.

    Every ``fit_every`` steps: apply the lazy projected update built from the
    accumulated gradients (skipped at the first step and when ``eta`` is 0),
    refit on the latest training window, rebuild the Jacobian, and clear the
    accumulator. Every step: predict, observe, and accumulate the exact
    hyper-gradient of the incurred loss. A window's predictions and
    gradients come from one batched call each, since nothing they depend on
    changes inside the window.
    """
    if config.strategy is not Strategy.OHL:
        raise ValueError(f"run_ohl requires the OHL strategy, got {config.strategy}")
    start = _resolve_start(stream, schedule, needs_validation=False, steps=steps)
    horizon = len(stream) - start
    m = schedule.fit_every
    d = config.init.dim
    feasible = config.feasible

    lam = config.init.to_vector()
    hypers = config.init
    acc = GradAccumulator(d)

    yhat = np.empty(horizon)
    lambdas = np.empty((horizon, d))
    grad_norms = np.empty(horizon)
    proj_sq = np.full(horizon, np.nan)
    gradients = np.empty((horizon, d))
    prediction = PhaseCounters()
    tuning = PhaseCounters()

    clock = time.perf_counter()
    for s in range(0, horizon, m):
        e = min(s + m, horizon)
        i = start + s
        if s > 0 and config.eta > 0:
            lam = lazy_step(lam, acc, config.eta, m, feasible)
            hypers = config.init.from_vector(lam)
        trained = _fit_counted(hypers, stream.slice(i - schedule.train_window, i), prediction)
        jac = theta_jacobian(trained)
        prediction.jacobian_builds += 1
        acc.reset()
        window = stream.slice(i, start + e)
        yhat[s:e] = predict_batch(trained, window)
        grads = loss_hyper_gradient_batch(trained, jac, window, window.targets)
        prediction.gradient_evals += e - s
        gradients[s:e] = grads
        grad_norms[s:e] = np.linalg.norm(grads, axis=1)
        lambdas[s:e] = lam
        for step, g in enumerate(grads, start=s):
            acc.add(g)
            if config.eta > 0:
                p = projected_gradient(lam, g, config.eta, feasible)
                proj_sq[step] = float(p @ p)
    prediction.wall_clock = time.perf_counter() - clock

    return RunTrace(
        strategy=config.strategy.value,
        start_index=start,
        eta=config.eta,
        times=stream.times[start:].copy(),
        y=stream.targets[start:].copy(),
        yhat=yhat,
        lambdas=lambdas,
        grad_norms=grad_norms,
        proj_grad_sq=proj_sq,
        gradients=gradients,
        tuning=tuning,
        prediction=prediction,
        final_hypers=hypers,
    )


def run_rolling(config: TunerConfig, schedule: Schedule, stream: Dataset, steps: int | None = None) -> RunTrace:
    """Rolling protocol with periodic re-tuning for the non-online strategies.

    Every ``tune_every`` steps the strategy's tune operation runs on the
    held-out validation window (FIXED skips this entirely); every
    ``fit_every`` steps the model refits on the latest training window. The
    steps between two such events are predicted with one batched call.
    """
    if config.strategy not in ROLLING_STRATEGIES:
        raise ValueError(f"run_rolling does not handle strategy {config.strategy}")
    tunes = config.strategy is not Strategy.FIXED
    start = _resolve_start(stream, schedule, needs_validation=tunes, steps=steps)
    horizon = len(stream) - start
    tw, vw = schedule.train_window, schedule.validation_window
    rng = np.random.default_rng(config.seed)

    hypers = config.init
    yhat = np.empty(horizon)
    lambdas = np.empty((horizon, config.init.dim))
    prediction = PhaseCounters()
    tuning = PhaseCounters()

    # segments run between consecutive refit or re-tune steps; a re-tune
    # that falls inside a refit window changes the recorded hyperparameters
    # at once but the model only at the next refit
    starts = set(range(0, horizon, schedule.fit_every))
    if tunes:
        starts.update(range(0, horizon, schedule.tune_every))
    starts = sorted(starts)

    clock = time.perf_counter()
    for s, e in zip(starts, starts[1:] + [horizon]):
        i = start + s
        if tunes and s % schedule.tune_every == 0:
            t0 = time.perf_counter()
            val_window = stream.slice(i - vw, i)
            fit_window = stream.slice(i - vw - tw, i - vw)
            if config.strategy is Strategy.GRID:
                hypers = tune_grid(config.grid, fit_window, val_window, tuning)
            elif config.strategy is Strategy.RANDOM:
                hypers = tune_random(config, hypers, fit_window, val_window, rng, tuning)
            else:
                hypers = tune_offline_gradient(config, hypers, fit_window, val_window, tuning)
            tuning.wall_clock += time.perf_counter() - t0
        if s % schedule.fit_every == 0:
            trained = _fit_counted(hypers, stream.slice(i - tw, i), prediction)
        yhat[s:e] = predict_batch(trained, stream.slice(i, start + e))
        lambdas[s:e] = hypers.to_vector()
    prediction.wall_clock = time.perf_counter() - clock - tuning.wall_clock

    return RunTrace(
        strategy=config.strategy.value,
        start_index=start,
        eta=config.eta,
        times=stream.times[start:].copy(),
        y=stream.targets[start:].copy(),
        yhat=yhat,
        lambdas=lambdas,
        grad_norms=np.full(horizon, np.nan),
        proj_grad_sq=np.full(horizon, np.nan),
        gradients=None,
        tuning=tuning,
        prediction=prediction,
        final_hypers=hypers,
    )


def run(config: TunerConfig, schedule: Schedule, stream: Dataset, steps: int | None = None) -> RunTrace:
    """Dispatch to :func:`run_ohl` or :func:`run_rolling` by strategy."""
    if config.strategy is Strategy.OHL:
        return run_ohl(config, schedule, stream, steps)
    return run_rolling(config, schedule, stream, steps)


def fit_count_report(trace: RunTrace) -> dict:
    """Counter summary split by phase; the portable efficiency metric."""

    def phase(c: PhaseCounters) -> dict:
        return {
            "fits": c.fits,
            "jacobian_builds": c.jacobian_builds,
            "gradient_evals": c.gradient_evals,
            "wall_clock_s": c.wall_clock,
        }

    return {
        "strategy": trace.strategy,
        "tuning": phase(trace.tuning),
        "prediction": phase(trace.prediction),
        "total_fits": trace.tuning.fits + trace.prediction.fits,
    }
