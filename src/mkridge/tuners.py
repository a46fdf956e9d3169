"""Rolling prediction with pluggable hyperparameter tuning strategies.

Every strategy runs in one deployment loop, :func:`run`: predict one step
ahead, observe the truth, refit the model on the latest training window
every ``fit_every`` steps. Hyperparameters and the fitted model are frozen
between refit and re-tune steps, so the loop evaluates each segment between
two of them with one batched call: :func:`predict_batch`, or for OHL one
gradient pass. The per-step records are the same as a step-by-step loop
would produce. Strategies differ only in how hyperparameters evolve:

* ``OHL``      - at each refit step, one lazy projected update with the
                 exact per-step hyper-gradients of the previous refit
                 window (no backtesting).
* ``GRID``     - every ``tune_every`` steps, backtest a fixed candidate list
                 on held-out history and keep the best.
* ``RANDOM``   - like GRID but with fresh random candidates plus the
                 incumbent.
* ``OFFLINE_GRAD`` - projected gradient descent on the mean validation loss,
                 refitting once per iteration (exact-gradient variant of
                 offline gradient-based tuning).
* ``FIXED``    - never tune after initialization.

OHL and OFFLINE_GRAD differ only in which window supplies the gradients
and when the step is taken: both get them from one gradient pass (a fit, its
Jacobian, and :func:`predict_and_hyper_gradient_batch` of the queries) and
step with :func:`lazy_step` over the block, OHL once per refit window and
OFFLINE_GRAD once per iteration over its validation block.

Every run produces a :class:`RunTrace` with per-step records and fit/build
counters split into tuning and prediction phases; counters are the
hardware-independent cost proxy, wall-clock is recorded but incidental. Its
diagnostic series (gradient and projected-gradient norms, per step and per
lazy update) are views of the records, computed only when read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .model import (
    HyperParams,
    fit,
    loss_hyper_gradient,  # unused here; bound so that perfbench/layers.py can wrap it
    predict,  # unused here; bound so that perfbench/layers.py can wrap it
    predict_and_hyper_gradient_batch,
    predict_batch,
    theta_jacobian,
)
from .optim import (
    FeasibleSet,
    lazy_step,
    project_C,  # unused here; bound so that perfbench/layers.py can wrap it
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
        if not 0 <= self.eta < np.inf:  # a NaN rate fails too
            raise ValueError(f"learning rate must be nonnegative and finite, got {self.eta!r}")
        if self.strategy is Strategy.OFFLINE_GRAD and self.eta == 0:
            raise ValueError("OFFLINE_GRAD needs a positive learning rate, got 0")
        if self.strategy is Strategy.GRID and not self.grid:
            raise ValueError("GRID needs at least one grid point")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if not 0 < self.tol < np.inf:  # an infinite tol would stop before every first step
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.feasible.dim != self.init.dim:
            raise ValueError(
                f"feasible set dimension {self.feasible.dim} does not match "
                f"hyperparameter dimension {self.init.dim}"
            )
        if self.strategy is Strategy.RANDOM:
            bounds = np.stack([self.feasible.lower, self.feasible.upper])
            if not np.isfinite(np.delete(bounds, self.feasible.simplex, axis=1)).all():
                raise ValueError("random search needs finite bounds on every box coordinate")
        if not self.feasible.contains(self.init.to_vector()):
            raise ValueError("initial hyperparameters lie outside the feasible set")
        layout = [type(c) for c in self.init.kernel.components], self.init.scalar_kinds()
        for g in self.grid:
            if ([type(c) for c in g.kernel.components], g.scalar_kinds()) != layout:
                raise ValueError("grid point's kernel layout differs from the initial one")
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
    """Everything one run produced: per-step records plus phase counters.

    The diagnostic series ``grad_norms``, ``proj_grad_sq`` and
    ``local_proj_grad_sq`` are views of the records, computed on first read;
    the first read of ``proj_grad_sq`` projects every step and may raise
    :class:`NumericalError` there (a step that overflows). Without
    gradients (every strategy but OHL) the first two are NaN and the last
    None; at ``eta`` 0 ``proj_grad_sq`` is NaN and the last None too.
    """

    strategy: str
    start_index: int
    eta: float
    fit_every: int
    times: np.ndarray
    y: np.ndarray
    yhat: np.ndarray
    lambdas: np.ndarray
    gradients: np.ndarray | None
    feasible: FeasibleSet
    tuning: PhaseCounters
    prediction: PhaseCounters
    final_hypers: HyperParams

    def __len__(self) -> int:
        return self.y.size

    @cached_property
    def grad_norms(self) -> np.ndarray:
        """Each step's hyper-gradient norm."""
        if self.gradients is None:
            return np.full(len(self), np.nan)
        return np.linalg.norm(self.gradients, axis=1)

    @cached_property
    def proj_grad_sq(self) -> np.ndarray:
        """Each step's squared projected-gradient norm ``|G|^2``, ``G`` the
        :func:`projected_gradient` of its gradient at its λ. One call
        projects every step: row by row, so each row has the bits of a
        one-step call."""
        if self.gradients is None or self.eta == 0:
            return np.full(len(self), np.nan)
        p = projected_gradient(self.lambdas, self.gradients, self.eta, self.feasible)
        # stacked one-row products: each equals the one-step p @ p bit for bit
        return (p[:, None, :] @ p[:, :, None])[:, 0, 0]

    @cached_property
    def local_proj_grad_sq(self) -> np.ndarray | None:
        """Each lazy update's ``|(λ_k - λ_{k+1}) / eta|^2``, ``λ_k`` the λ of
        refit window k: as ``λ_{k+1} = lazy_step(λ_k, G_k)``, the squared
        projected gradient of the window's averaged loss at ``λ_k``, read off
        the records. It is the w-local regret term of Hazan, Singh & Zhang
        (2017), w = ``fit_every``, at the window's last step. No update
        follows the last window, so a one-window run gives an empty series."""
        if self.gradients is None or self.eta == 0:
            return None
        lam = self.lambdas[:: self.fit_every]
        p = (lam[:-1] - lam[1:]) / self.eta
        return (p[:, None, :] @ p[:, :, None])[:, 0, 0]

    def sq_errors(self) -> np.ndarray:
        e = self.y - self.yhat
        return e * e


def _fit_counted(hypers: HyperParams, window: Dataset, counters: PhaseCounters):
    trained = fit(hypers, window)
    counters.fits += 1
    return trained


def _gradient_pass(hypers: HyperParams, window: Dataset, queries: Dataset,
                   counters: PhaseCounters, predictions: bool = True):
    """:func:`predict_and_hyper_gradient_batch` of the queries on a model
    fitted to ``window``; counts the fit, the Jacobian and one gradient
    evaluation per query."""
    trained = _fit_counted(hypers, window, counters)
    jac = theta_jacobian(trained)
    counters.jacobian_builds += 1
    counters.gradient_evals += len(queries)
    return predict_and_hyper_gradient_batch(trained, jac, queries, queries.targets, predictions)


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
    draws = config.feasible.sample_many(rng, config.draws)
    candidates = [incumbent] + [incumbent.from_vector(v) for v in draws]
    return tune_grid(candidates, fit_window, val_window, counters)


def tune_offline_gradient(
    config: TunerConfig,
    incumbent: HyperParams,
    fit_window: Dataset,
    val_window: Dataset,
    counters: PhaseCounters | None = None,
) -> HyperParams:
    """Projected gradient descent on the mean validation loss.

    Each iteration is one gradient pass over the validation block (a refit
    on the training window, its Jacobian and the exact per-step
    hyper-gradients) and one :func:`lazy_step` over those gradients, the
    projected step on their mean. Stops when the projected-gradient norm
    falls to ``tol`` or after ``max_iters`` iterations.
    """
    counters = counters if counters is not None else PhaseCounters()
    hypers = incumbent
    lam = incumbent.to_vector()
    for _ in range(config.max_iters):
        _, grads = _gradient_pass(hypers, fit_window, val_window, counters, predictions=False)
        step = lazy_step(lam, grads, config.eta, config.feasible)
        # the projected-gradient norm, from the step it projects
        if float(np.linalg.norm((lam - step) / config.eta)) <= config.tol:
            break
        lam = step
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


def run(config: TunerConfig, schedule: Schedule, stream: Dataset, steps: int | None = None) -> RunTrace:
    """The rolling protocol, for every strategy.

    The stream is cut into segments at refit steps (every ``fit_every``)
    and, for GRID, RANDOM and OFFLINE_GRAD, at re-tune steps (every
    ``tune_every``), where the strategy's tune operation runs on the
    held-out validation window. At a refit step OHL first applies its lazy
    update, built from the previous refit window's gradients (skipped at the
    first step and when ``eta`` is 0). OHL never re-tunes, so each of its
    segments starts at a refit and is one gradient pass, which gives its
    predictions and gradients; a non-finite gradient raises
    :class:`NumericalError` unless ``eta`` is 0. The trace's diagnostic
    series are computed when first read (:class:`RunTrace`). Every other
    strategy's segment predictions come from one
    :func:`predict_batch` call on the model of the last refit. A re-tune
    inside a refit window changes the recorded hyperparameters at once but
    the model only at the next refit.
    """
    ohl = config.strategy is Strategy.OHL
    tunes = config.strategy not in (Strategy.OHL, Strategy.FIXED)
    start = _resolve_start(stream, schedule, needs_validation=tunes, steps=steps)
    n_steps = len(stream) - start
    m, tw, vw = schedule.fit_every, schedule.train_window, schedule.validation_window
    d = config.init.dim
    rng = np.random.default_rng(config.seed)

    hypers = config.init
    yhat = np.empty(n_steps)
    lambdas = np.empty((n_steps, d))
    gradients = np.empty((n_steps, d)) if ohl else None
    prediction = PhaseCounters()
    tuning = PhaseCounters()

    starts = set(range(0, n_steps, m))
    if tunes:
        starts.update(range(0, n_steps, schedule.tune_every))
    starts = sorted(starts)

    clock = time.perf_counter()
    for s, e in zip(starts, starts[1:] + [n_steps]):
        i = start + s
        refit = s % m == 0
        if refit:
            trained = None  # free the last window's n x n matrices before this step's fits
            if ohl and s > 0 and config.eta > 0:
                hypers = config.init.from_vector(
                    lazy_step(lam, gradients[s - m : s], config.eta, config.feasible)
                )
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
        window = stream.slice(i, start + e)
        lam = hypers.to_vector()
        lambdas[s:e] = lam
        if not ohl:
            if refit:
                trained = _fit_counted(hypers, stream.slice(i - tw, i), prediction)
            yhat[s:e] = predict_batch(trained, window)
        else:
            yhat[s:e], grads = _gradient_pass(hypers, stream.slice(i - tw, i), window, prediction)
            # the step these gradients feed would fail on them; in the last
            # segment no step follows, so the test is made here for every one
            if config.eta > 0 and not np.isfinite(grads).all():
                raise NumericalError(f"non-finite hyper-gradient in the refit window at step {i}")
            gradients[s:e] = grads
    prediction.wall_clock = time.perf_counter() - clock - tuning.wall_clock

    return RunTrace(
        strategy=config.strategy.value,
        start_index=start,
        eta=config.eta,
        fit_every=m,
        times=stream.times[start:].copy(),
        y=stream.targets[start:].copy(),
        yhat=yhat,
        lambdas=lambdas,
        gradients=gradients,
        feasible=config.feasible,
        tuning=tuning,
        prediction=prediction,
        final_hypers=hypers,
    )


def run_ohl(config: TunerConfig, schedule: Schedule, stream: Dataset, steps: int | None = None) -> RunTrace:
    """:func:`run` for the OHL strategy only."""
    if config.strategy is not Strategy.OHL:
        raise ValueError(f"run_ohl requires the OHL strategy, got {config.strategy}")
    return run(config, schedule, stream, steps)


def run_rolling(config: TunerConfig, schedule: Schedule, stream: Dataset, steps: int | None = None) -> RunTrace:
    """:func:`run` for every strategy but OHL."""
    if config.strategy is Strategy.OHL:
        raise ValueError(f"run_rolling does not handle strategy {config.strategy}")
    return run(config, schedule, stream, steps)


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
