import dataclasses
import os
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mkridge.kernels
import mkridge.optim
from mkridge import tuners
from mkridge.data import BURN_IN, Dataset, SyntheticConfig, build_features, generate_synthetic
from mkridge.errors import NumericalError
from mkridge.kernels import ArdKernel, CompositeKernel, PeriodicKernel, SquaredExpKernel
from mkridge.model import (
    HyperParams,
    fit,
    loss_hyper_gradient,
    loss_hyper_gradient_batch,
    predict,
    predict_batch,
    theta_jacobian,
)
from mkridge.optim import FeasibleSet, RegretTrace, lazy_step, projected_gradient, regret_update
from mkridge.tuners import (
    PhaseCounters,
    Schedule,
    Strategy,
    TunerConfig,
    fit_count_report,
    run,
    run_ohl,
    run_rolling,
    tune_grid,
    tune_offline_gradient,
    tune_random,
)

from helpers import run_isolated

LAG = 5
BOUNDS = {"scale": (1e-4, 10.0), "period": (2.0, 100.0), "ridge": (1e-3, 3.0)}


def make_stream(n_points=260, noise=0.1, seed=0):
    length = BURN_IN + LAG + n_points
    series = generate_synthetic(
        SyntheticConfig(0.5, 0.5, 5.0, length=length, seed=seed, noise_sd=noise)
    )
    return build_features(series, LAG)


def se_config(strategy, scale=0.05, ridge=1.0, **kw):
    hypers = HyperParams(CompositeKernel((SquaredExpKernel(scale),), [1.0]), ridge)
    feasible = FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS)
    return TunerConfig(strategy=Strategy(strategy), init=hypers, feasible=feasible, **kw)


def mixed_hypers(periodic_scale, period, se_scale, weights, ridge):
    return HyperParams(
        CompositeKernel(
            (PeriodicKernel(periodic_scale, period), SquaredExpKernel(se_scale)), weights
        ),
        ridge,
    )


def mixed_config(strategy, **kw):
    hypers = mixed_hypers(1.0, 30.0, 0.05, [0.5, 0.5], 1.0)
    feasible = FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS)
    return TunerConfig(strategy=Strategy(strategy), init=hypers, feasible=feasible, **kw)


# strategy settings of the per-step comparison in TestRunOhl
PER_STEP_KW = {
    "OHL": {"eta": 1e-3},
    "FIXED": {},
    "GRID": {"grid": (
        mixed_hypers(1.0, 30.0, 0.05, [0.5, 0.5], 1.0),
        mixed_hypers(1.0, 30.0, 0.05, [0.5, 0.5], 0.01),
        mixed_hypers(1.0, 6.0, 0.05, [0.5, 0.5], 0.01),
    )},
    "RANDOM": {"draws": 3, "seed": 5},
    "OFFLINE_GRAD": {"eta": 1e-3, "tol": 1e-12, "max_iters": 2},
}


def backtest_oracle(hypers, fit_window, val_window):
    """Independent validation backtest: refit once, score one-step predictions."""
    model = fit(hypers, fit_window)
    err = val_window.targets - predict_batch(model, val_window)
    return float(np.sqrt(np.mean(err * err)))


def per_step_reference(config, schedule, stream, steps):
    """Step-by-step loop with one-query calls: ``(yhat, lambdas, gradients)``.

    Covers every strategy: re-tune every ``tune_every`` steps (GRID, RANDOM
    and OFFLINE_GRAD, with the run's seeded generator), refit every
    ``fit_every`` steps (OHL applies its lazy update first, from the last
    window's gradients), then predict, record the hyperparameters and (OHL)
    the gradient of each step.
    """
    start = len(stream) - steps
    tw, vw = schedule.train_window, schedule.validation_window
    ohl = config.strategy is Strategy.OHL
    tunes = config.strategy not in (Strategy.OHL, Strategy.FIXED)
    rng = np.random.default_rng(config.seed)
    hypers = config.init
    window_grads = []
    yhat, lambdas, grads = [], [], []
    for step in range(steps):
        i = start + step
        if tunes and step % schedule.tune_every == 0:
            fit_w, val_w = stream.slice(i - vw - tw, i - vw), stream.slice(i - vw, i)
            if config.strategy is Strategy.GRID:
                hypers = tune_grid(config.grid, fit_w, val_w)
            elif config.strategy is Strategy.RANDOM:
                hypers = tune_random(config, hypers, fit_w, val_w, rng)
            else:
                hypers = tune_offline_gradient(config, hypers, fit_w, val_w)
        if step % schedule.fit_every == 0:
            if ohl and step > 0:
                lam = lazy_step(hypers.to_vector(), window_grads, config.eta, config.feasible)
                hypers = config.init.from_vector(lam)
            model = fit(hypers, stream.slice(i - tw, i))
            jac = theta_jacobian(model)
            window_grads = []
        query = stream.query(i)
        yhat.append(predict(model, query))
        lambdas.append(hypers.to_vector())
        if ohl:
            grads.append(loss_hyper_gradient(model, jac, query, float(stream.targets[i])))
            window_grads.append(grads[-1])
    return np.array(yhat), np.array(lambdas), np.array(grads)


class TestSchedule:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Schedule(tune_every=5, fit_every=10, train_window=20)
        with pytest.raises(ValueError):
            Schedule(tune_every=10, fit_every=0, train_window=20)
        with pytest.raises(ValueError):
            Schedule(tune_every=10, fit_every=5, train_window=0)


class TestTunerConfig:
    def test_init_must_be_feasible(self):
        hypers = HyperParams(CompositeKernel((SquaredExpKernel(0.05),), [1.0]), 1.0)
        feasible = FeasibleSet.for_kinds(
            hypers.scalar_kinds(), {"scale": (1.0, 10.0), "ridge": (1e-3, 3.0)}
        )
        with pytest.raises(ValueError, match="feasible"):
            TunerConfig(strategy=Strategy.FIXED, init=hypers, feasible=feasible)

    def test_grid_points_must_be_feasible(self):
        bad = HyperParams(CompositeKernel((SquaredExpKernel(99.0),), [1.0]), 1.0)
        with pytest.raises(ValueError, match="grid"):
            se_config("GRID", grid=(bad,))

    @pytest.mark.parametrize(
        "components",
        [
            # read in the model's order, the period 1.5 (below its bound 2)
            # would pass as an SE scale
            (SquaredExpKernel(2.5), PeriodicKernel(3.0, 1.5)),
            # the model's scalar kinds, from other component types
            (PeriodicKernel(1.0, 30.0), ArdKernel([0.05])),
        ],
        ids=["swapped", "same-kinds"],
    )
    def test_grid_points_must_share_the_layout(self, components):
        bad = HyperParams(CompositeKernel(components, [0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="grid point's kernel layout differs"):
            mixed_config("GRID", grid=(bad,))

    def test_random_needs_finite_box(self):
        hypers = HyperParams(CompositeKernel((SquaredExpKernel(0.05),), [1.0]), 1.0)
        feasible = FeasibleSet.for_kinds(
            hypers.scalar_kinds(), {"scale": (1e-4, np.inf), "ridge": (1e-3, 3.0)}
        )
        TunerConfig(strategy=Strategy.FIXED, init=hypers, feasible=feasible)
        with pytest.raises(ValueError, match="finite bounds"):
            TunerConfig(strategy=Strategy.RANDOM, init=hypers, feasible=feasible)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            se_config("OFFLINE_GRAD", tol=tol)


class TestRunOhl:
    def test_zero_eta_matches_fixed_bitwise(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        for steps in (120, 125):  # 125 ends in a partial refit window
            ohl = run_ohl(se_config("OHL", eta=0.0), schedule, stream, steps=steps)
            fixed = run_rolling(se_config("FIXED"), schedule, stream, steps=steps)
            assert np.array_equal(ohl.yhat, fixed.yhat)
            assert np.array_equal(ohl.y, fixed.y)

    def test_single_kernel_weight_stays_one(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        trace = run_ohl(se_config("OHL", eta=1e-3), schedule, stream, steps=100)
        weight_index = trace.final_hypers.kernel.n_scalars - 1
        assert np.all(trace.lambdas[:, weight_index] == 1.0)

    def test_fit_and_jacobian_counts(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        trace = run_ohl(se_config("OHL", eta=1e-3), schedule, stream, steps=105)
        assert trace.tuning.fits == 0
        assert trace.prediction.fits == -(-105 // 10)  # ceil(T/m)
        assert trace.prediction.jacobian_builds == trace.prediction.fits
        assert trace.prediction.gradient_evals == 105

    def test_lambdas_stay_feasible(self):
        stream = make_stream()
        config = mixed_config("OHL", eta=1e-3)
        schedule = Schedule(tune_every=50, fit_every=5, train_window=60)
        trace = run_ohl(config, schedule, stream, steps=100)
        for lam in trace.lambdas:
            assert config.feasible.contains(lam)
        weights = trace.lambdas[:, config.init.kernel.n_scalars - 2 : config.init.kernel.n_scalars]
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12

    def test_updates_only_at_window_boundaries(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        trace = run_ohl(se_config("OHL", eta=1e-3), schedule, stream, steps=40)
        for step in range(1, 40):
            if step % 10 != 0:
                assert np.array_equal(trace.lambdas[step], trace.lambdas[step - 1])

    @pytest.mark.parametrize("strategy", ["OHL", "FIXED", "GRID", "RANDOM", "OFFLINE_GRAD"])
    def test_partial_last_window_matches_per_step_loop(self, strategy):
        # re-tunes at steps 0 and 15, inside the refit window 10..19; refits at 0, 10, 20
        stream = make_stream()
        schedule = Schedule(tune_every=15, fit_every=10, train_window=60, validation_window=40)
        config = mixed_config(strategy, **PER_STEP_KW[strategy])
        trace = run(config, schedule, stream, steps=25)
        yhat, lambdas, grads = per_step_reference(config, schedule, stream, 25)
        assert trace.prediction.fits == 3
        np.testing.assert_allclose(trace.yhat, yhat, rtol=1e-12, atol=1e-14)
        assert np.array_equal(trace.lambdas, lambdas)
        if strategy not in ("OHL", "FIXED"):
            assert not np.array_equal(lambdas[14], lambdas[15])  # the re-tune moved them
        if strategy == "OHL":
            assert trace.prediction.gradient_evals == 25
            assert np.array_equal(trace.gradients, grads)
            # the window's projected-gradient norms equal the one-step ones
            one_step = []
            for lam, g in zip(lambdas, grads):
                p = projected_gradient(lam, g, config.eta, config.feasible)
                one_step.append(float(p @ p))
            assert np.array_equal(trace.proj_grad_sq, one_step)

    def test_stream_too_short(self):
        stream = make_stream(n_points=30)
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        with pytest.raises(ValueError, match="too short"):
            run_ohl(se_config("OHL"), schedule, stream)

    def test_wrong_strategy_rejected(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        with pytest.raises(ValueError):
            run_ohl(se_config("FIXED"), schedule, stream)


class TestRunRolling:
    def test_fixed_counts(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        trace = run_rolling(se_config("FIXED"), schedule, stream, steps=100)
        assert trace.tuning.fits == 0
        assert trace.prediction.fits == 10
        assert trace.tuning.jacobian_builds == 0 and trace.prediction.jacobian_builds == 0
        assert np.all(np.isnan(trace.grad_norms))

    def test_random_tuning_fit_counts(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        trace = run_rolling(se_config("RANDOM", draws=5, seed=1), schedule, stream, steps=100)
        # two tuning events (steps 0 and 50), each evaluating incumbent + draws
        assert trace.tuning.fits == 2 * (5 + 1)
        assert trace.prediction.fits == 10

    def test_single_point_grid_matches_fixed(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        base = se_config("FIXED")
        grid_cfg = se_config("GRID", grid=(base.init,))
        fixed = run_rolling(base, schedule, stream, steps=100)
        grid = run_rolling(grid_cfg, schedule, stream, steps=100)
        assert np.array_equal(fixed.yhat, grid.yhat)

    def test_deterministic_given_seed(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        a = run_rolling(se_config("RANDOM", draws=4, seed=9), schedule, stream, steps=100)
        b = run_rolling(se_config("RANDOM", draws=4, seed=9), schedule, stream, steps=100)
        assert np.array_equal(a.yhat, b.yhat)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert a.tuning.fits == b.tuning.fits

    def test_tuned_lambdas_stay_feasible(self):
        stream = make_stream()
        config = mixed_config("RANDOM", draws=4, seed=5)
        schedule = Schedule(tune_every=40, fit_every=10, train_window=60, validation_window=40)
        trace = run_rolling(config, schedule, stream, steps=90)
        for lam in trace.lambdas:
            assert config.feasible.contains(lam)

    def test_retune_inside_refit_window(self):
        # re-tunes at steps 0, 15, 30; refits at 0, 10, 20, 30, 40
        stream = make_stream()
        schedule = Schedule(tune_every=15, fit_every=10, train_window=60, validation_window=40)
        config = se_config("OFFLINE_GRAD", eta=0.01, tol=1e-12, max_iters=2)
        trace = run_rolling(config, schedule, stream, steps=45)
        yhat, lambdas, _ = per_step_reference(config, schedule, stream, 45)
        assert not np.array_equal(trace.lambdas[14], trace.lambdas[15])
        assert np.array_equal(trace.lambdas, lambdas)
        np.testing.assert_allclose(trace.yhat, yhat, rtol=1e-12, atol=1e-14)
        assert trace.prediction.fits == 5 and trace.tuning.fits == 3 * 2

    def test_validation_window_required(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=0)
        with pytest.raises(ValueError, match="validation"):
            run_rolling(se_config("RANDOM"), schedule, stream, steps=50)

    def test_ohl_rejected(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        with pytest.raises(ValueError):
            run_rolling(se_config("OHL"), schedule, stream)

    def test_dispatch(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        trace = run(se_config("OHL", eta=0.0), schedule, stream, steps=30)
        assert trace.strategy == "OHL"
        trace = run(se_config("FIXED"), schedule, stream, steps=30)
        assert trace.strategy == "FIXED"


class TestTuneGrid:
    def test_single_candidate(self):
        stream = make_stream()
        cand = se_config("FIXED").init
        out = tune_grid([cand], stream.slice(0, 60), stream.slice(60, 100))
        assert out is cand

    def test_empty_grid_rejected(self):
        stream = make_stream()
        with pytest.raises(ValueError):
            tune_grid([], stream.slice(0, 60), stream.slice(60, 100))

    def test_selects_backtest_argmin(self):
        stream = make_stream()
        fit_w, val_w = stream.slice(0, 60), stream.slice(60, 120)
        a = HyperParams(CompositeKernel((SquaredExpKernel(0.01),), [1.0]), 0.05)
        b = HyperParams(CompositeKernel((SquaredExpKernel(5.0),), [1.0]), 2.0)
        rmse_a = backtest_oracle(a, fit_w, val_w)
        rmse_b = backtest_oracle(b, fit_w, val_w)
        expected = a if rmse_a < rmse_b else b
        counters = PhaseCounters()
        assert tune_grid([a, b], fit_w, val_w, counters) is expected
        assert counters.fits == 2

    def test_selects_matched_period_on_noiseless_stream(self):
        # pure sinusoid with period 10*pi: the matched periodic kernel wins
        series = generate_synthetic(SyntheticConfig(0.0, 1.0, 5.0, length=400, seed=0))
        stream = build_features(series, LAG)
        fit_w, val_w = stream.slice(0, 80), stream.slice(80, 160)
        matched = HyperParams(
            CompositeKernel((PeriodicKernel(2.0, 10.0 * np.pi),), [1.0]), 1e-3
        )
        mismatched = HyperParams(
            CompositeKernel((PeriodicKernel(2.0, 13.0),), [1.0]), 1e-3
        )
        assert backtest_oracle(matched, fit_w, val_w) < backtest_oracle(mismatched, fit_w, val_w)
        assert tune_grid([mismatched, matched], fit_w, val_w) is matched


class TestTuneRandom:
    def test_seed_determinism(self):
        stream = make_stream()
        cfg = se_config("RANDOM", draws=6)
        fit_w, val_w = stream.slice(0, 60), stream.slice(60, 120)
        a = tune_random(cfg, cfg.init, fit_w, val_w, np.random.default_rng(3))
        b = tune_random(cfg, cfg.init, fit_w, val_w, np.random.default_rng(3))
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_incumbent_retained_when_draw_worse(self):
        stream = make_stream()
        fit_w, val_w = stream.slice(0, 60), stream.slice(60, 120)
        cfg = se_config("RANDOM", draws=1)
        # find a seed whose single draw backtests worse than the incumbent
        incumbent_rmse = backtest_oracle(cfg.init, fit_w, val_w)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            draw = cfg.init.from_vector(cfg.feasible.sample(rng))
            if backtest_oracle(draw, fit_w, val_w) > incumbent_rmse:
                out = tune_random(cfg, cfg.init, fit_w, val_w, np.random.default_rng(seed))
                assert out is cfg.init
                return
        pytest.fail("no losing draw found in 50 seeds")

    def test_never_worse_than_incumbent(self):
        stream = make_stream()
        fit_w, val_w = stream.slice(0, 60), stream.slice(60, 120)
        cfg = se_config("RANDOM", draws=8)
        incumbent_rmse = backtest_oracle(cfg.init, fit_w, val_w)
        for seed in range(5):
            out = tune_random(cfg, cfg.init, fit_w, val_w, np.random.default_rng(seed))
            assert backtest_oracle(out, fit_w, val_w) <= incumbent_rmse


class TestTuneOfflineGradient:
    def test_stationary_init_returns_after_one_fit(self):
        stream = make_stream()
        cfg = se_config("OFFLINE_GRAD", eta=0.01, tol=1e9, max_iters=50)
        counters = PhaseCounters()
        out = tune_offline_gradient(cfg, cfg.init, stream.slice(0, 60), stream.slice(60, 120), counters)
        assert out is cfg.init
        assert counters.fits == 1
        assert counters.jacobian_builds == 1

    def test_zero_iterations_returns_init(self):
        stream = make_stream()
        cfg = se_config("OFFLINE_GRAD", eta=0.01, max_iters=0)
        counters = PhaseCounters()
        out = tune_offline_gradient(cfg, cfg.init, stream.slice(0, 60), stream.slice(60, 120), counters)
        assert out is cfg.init
        assert counters.fits == 0

    def test_converges_to_fine_grid_argmin_on_ridge_only_instance(self):
        # scale box is degenerate, so only the ridge constant can move
        series = generate_synthetic(SyntheticConfig(0.5, 0.5, 5.0, length=400, seed=11, noise_sd=4.0))
        stream = build_features(series, LAG)
        fit_w, val_w = stream.slice(0, 60), stream.slice(60, 120)
        hypers = HyperParams(CompositeKernel((SquaredExpKernel(0.02),), [1.0]), 2.5)
        feasible = FeasibleSet.for_kinds(
            hypers.scalar_kinds(), {"scale": (0.02, 0.02), "ridge": (0.03, 3.0)}
        )
        cfg = TunerConfig(
            strategy=Strategy.OFFLINE_GRAD, init=hypers, feasible=feasible,
            eta=0.01, tol=1e-7, max_iters=800,
        )

        def objective(ridge):
            return backtest_oracle(hypers.from_vector([0.02, 1.0, ridge]), fit_w, val_w)

        coarse = np.linspace(0.03, 3.0, 298)
        best = coarse[int(np.argmin([objective(r) for r in coarse]))]
        fine = np.arange(max(0.03, best - 0.02), min(3.0, best + 0.02), 2e-4)
        best = fine[int(np.argmin([objective(r) for r in fine]))]

        out = tune_offline_gradient(cfg, hypers, fit_w, val_w)
        assert abs(out.ridge - best) <= 1e-3


class TestFitCountReport:
    def test_ohl_summary(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        trace = run_ohl(se_config("OHL", eta=1e-3), schedule, stream, steps=100)
        report = fit_count_report(trace)
        assert report["strategy"] == "OHL"
        assert report["tuning"]["fits"] == 0
        assert report["prediction"]["fits"] == 10
        assert report["prediction"]["jacobian_builds"] == 10
        assert report["total_fits"] == 10

    def test_fixed_has_no_jacobians(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        trace = run_rolling(se_config("FIXED"), schedule, stream, steps=100)
        report = fit_count_report(trace)
        assert report["tuning"]["jacobian_builds"] == 0
        assert report["prediction"]["jacobian_builds"] == 0

    def test_random_summary(self):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60, validation_window=40)
        trace = run_rolling(se_config("RANDOM", draws=5, seed=1), schedule, stream, steps=100)
        report = fit_count_report(trace)
        assert report["tuning"]["fits"] == 2 * 6
        assert report["total_fits"] == 2 * 6 + 10


class TestModelRelease:
    """Each fit starts after every earlier model is gone, so a run holds one
    model's n x n matrices at a time (re-tunes fall on refit steps here)."""

    @pytest.mark.parametrize(
        "strategy, kw",
        [
            ("OHL", {"eta": 1e-3}),
            ("FIXED", {}),
            ("RANDOM", {"draws": 2}),
            ("OFFLINE_GRAD", {"eta": 0.01, "tol": 1e-12, "max_iters": 3}),
        ],
    )
    def test_previous_model_dead_when_next_fit_starts(self, monkeypatch, strategy, kw):
        models = []
        alive_at_fit = []
        real_fit = tuners.fit

        def tracked_fit(hypers, window):
            alive_at_fit.append(sum(ref() is not None for ref in models))
            model = real_fit(hypers, window)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(tuners, "fit", tracked_fit)
        schedule = Schedule(tune_every=20, fit_every=10, train_window=50, validation_window=30)
        run(mixed_config(strategy, **kw), schedule, make_stream(), steps=40)
        assert len(models) >= 4
        assert alive_at_fit == [0] * len(models)


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# one four_week-shaped tune event (periodic + ARD-20, train window 96,
# validation window 336) after one warm-up event, in a fresh process: the
# minor page faults of the second
TUNE_EVENT_FAULTS = """
import resource
import numpy as np
from mkridge import (ArdKernel, CompositeKernel, FeasibleSet, HyperParams, PeriodicKernel,
                     SyntheticConfig, TunerConfig, build_features, generate_synthetic,
                     tune_offline_gradient, tune_random)
from mkridge.data import BURN_IN

series = generate_synthetic(
    SyntheticConfig(0.5, 0.5, 5.0, length=BURN_IN + 20 + 432, seed=1, noise_sd=0.1))
stream = build_features(series, 20)
fit_window, val_window = stream.slice(0, 96), stream.slice(96, 432)
init = HyperParams(
    CompositeKernel((PeriodicKernel(1.5e-3, 96.0), ArdKernel(np.full(20, 1e-3))), [0.5, 0.5]), 0.3)
feasible = FeasibleSet.for_kinds(
    init.scalar_kinds(), {{"scale": (1.5e-6, 1.5e-2), "period": (48.0, 672.0), "ridge": (0.03, 3.0)}})
if "{strategy}" == "RANDOM":
    config = TunerConfig("RANDOM", init, feasible, draws=50)
    event = lambda: tune_random(config, init, fit_window, val_window, np.random.default_rng(0))
else:
    config = TunerConfig("OFFLINE_GRAD", init, feasible, eta=1e-4, tol=1e-12, max_iters=10)
    event = lambda: tune_offline_gradient(config, init, fit_window, val_window)
event()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
event()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapReuse:
    """A tune event reuses the heap its predecessor freed: glibc's malloc no
    longer gives a refit's working set back to the kernel between refits
    (thousands of faults per event without ``mkridge._compiled.keep_freed_heap``)."""

    @pytest.mark.skipif(not on_glibc(), reason="the malloc settings are glibc's")
    @pytest.mark.parametrize("strategy", ["OFFLINE_GRAD", "RANDOM"])
    def test_warm_tune_event_takes_few_minor_faults(self, strategy):
        code = TUNE_EVENT_FAULTS.format(strategy=strategy)
        assert int(run_isolated(code, OPENBLAS_NUM_THREADS="1")) < 200


# the kernel families of an OHL run whose predictions come from its gradient
# pass, and those (with SE) that take them from cross_many
ONE_PASS_FAMILIES = (("periodic", "ard"), ("ard",), ("periodic", "se"), ("se",))


@st.composite
def ohl_run_case(draw):
    """An OHL config, schedule and stream, on or off the unit time grid, whose
    run ends in a partial refit window."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    families = draw(st.sampled_from(ONE_PASS_FAMILIES))
    p, fit_every = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    train_window = draw(st.integers(3, 40))
    steps = fit_every * draw(st.integers(0, 3)) + draw(st.integers(1, fit_every - 1))
    total = train_window + steps
    if draw(st.booleans()):
        times = float(rng.integers(-50, 50)) + np.arange(total, dtype=float)
    else:
        times = np.cumsum(rng.uniform(0.5, 1.5, total))
    stream = Dataset(times, rng.normal(size=(total, p)), rng.normal(size=total))
    components = {
        "periodic": PeriodicKernel(rng.uniform(0.05, 2.0), rng.uniform(3.0, 40.0)),
        "se": SquaredExpKernel(rng.uniform(0.01, 1.0)),
        "ard": ArdKernel(rng.uniform(0.01, 1.0, p)),
    }
    spec = CompositeKernel(
        tuple(components[f] for f in families), rng.dirichlet(np.full(len(families), 2.0))
    )
    hypers = HyperParams(spec, rng.uniform(0.05, 1.5))
    feasible = FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS)
    config = TunerConfig(strategy=Strategy.OHL, init=hypers, feasible=feasible, eta=1e-3)
    schedule = Schedule(tune_every=fit_every, fit_every=fit_every, train_window=train_window)
    return config, schedule, stream, steps


class TestOnePassRefit:
    """OHL takes a refit window's predictions from its gradient pass: the
    values predict_batch gives on the same model and window, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(case=ohl_run_case())
    def test_predictions_equal_predict_batch_bitwise(self, case):
        config, schedule, stream, steps = case
        trace = run(config, schedule, stream, steps)
        start, m = trace.start_index, schedule.fit_every
        for s in range(0, steps, m):
            i, e = start + s, min(start + s + m, len(stream))
            hypers = config.init.from_vector(trace.lambdas[s])
            model = fit(hypers, stream.slice(i - schedule.train_window, i))
            window = stream.slice(i, e)
            assert np.array_equal(trace.yhat[s : s + m], predict_batch(model, window))
            grads = loss_hyper_gradient_batch(model, theta_jacobian(model), window, window.targets)
            assert np.array_equal(trace.gradients[s : s + m], grads)

    def test_ohl_builds_one_cross_matrix_per_refit(self, monkeypatch):
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tuners, "predict_batch", counted("predict_batch", tuners.predict_batch))
        for name in ("cross_many", "cross_contract"):
            monkeypatch.setattr(CompositeKernel, name, counted(name, getattr(CompositeKernel, name)))
        hypers = HyperParams(
            CompositeKernel((PeriodicKernel(1.0, 30.0), ArdKernel(np.full(LAG, 0.05))), [0.5, 0.5]),
            1.0,
        )
        feasible = FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS)
        schedule = Schedule(tune_every=10, fit_every=10, train_window=50)
        stream = make_stream()
        run(TunerConfig(Strategy.OHL, hypers, feasible, eta=1e-3), schedule, stream, steps=45)
        assert calls == {"cross_contract": 5}
        calls.clear()
        run(TunerConfig(Strategy.FIXED, hypers, feasible), schedule, stream, steps=45)
        assert calls == {"predict_batch": 5, "cross_many": 5}


def offline_gradient_reference(config, incumbent, fit_window, val_window):
    """OFFLINE_GRAD's tune event from the model functions: per iteration a
    refit, its Jacobian, the validation block's gradients and one lazy_step
    over them, stopping once ``||(lam - lam+) / eta|| <= tol``."""
    lam, hypers = incumbent.to_vector(), incumbent
    for _ in range(config.max_iters):
        model = fit(hypers, fit_window)
        grads = loss_hyper_gradient_batch(model, theta_jacobian(model), val_window, val_window.targets)
        step = lazy_step(lam, grads, config.eta, config.feasible)
        if np.linalg.norm((lam - step) / config.eta) <= config.tol:
            break
        lam = step
        hypers = incumbent.from_vector(lam)
    return lam


@st.composite
def offline_tune_case(draw):
    """An OFFLINE_GRAD config and its fit and validation windows, on one or
    more kernel families."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    families = draw(st.sampled_from(ONE_PASS_FAMILIES + (("periodic",), ("periodic", "se", "ard"))))
    p, n_fit, n_val = draw(st.integers(1, 5)), draw(st.integers(3, 30)), draw(st.integers(1, 30))
    total = n_fit + n_val
    times = float(rng.integers(0, 50)) + np.arange(total, dtype=float)
    stream = Dataset(times, rng.normal(size=(total, p)), rng.normal(size=total))
    components = {
        "periodic": PeriodicKernel(rng.uniform(0.05, 2.0), rng.uniform(3.0, 40.0)),
        "se": SquaredExpKernel(rng.uniform(0.01, 1.0)),
        "ard": ArdKernel(rng.uniform(0.01, 1.0, p)),
    }
    spec = CompositeKernel(
        tuple(components[f] for f in families), rng.dirichlet(np.full(len(families), 2.0))
    )
    hypers = HyperParams(spec, rng.uniform(0.05, 1.5))
    config = TunerConfig(
        strategy=Strategy.OFFLINE_GRAD, init=hypers,
        feasible=FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS),
        eta=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
        tol=draw(st.sampled_from([1e-12, 1e-3, 1e-1, 1.0, 10.0])),
        max_iters=draw(st.integers(0, 5)),
    )
    return config, stream.slice(0, n_fit), stream.slice(n_fit, total)


class TestOfflineGradientStep:
    """OFFLINE_GRAD takes OHL's step: one gradient pass and one lazy_step
    over the validation block per iteration."""

    @settings(max_examples=60, deadline=None)
    @given(case=offline_tune_case())
    def test_lambda_equals_reference_loop_bitwise(self, case):
        config, fit_w, val_w = case
        out = tune_offline_gradient(config, config.init, fit_w, val_w)
        assert np.array_equal(out.to_vector(), offline_gradient_reference(config, config.init, fit_w, val_w))

    @pytest.mark.parametrize("max_iters", [1, 2, 4])
    def test_counts_per_iteration(self, monkeypatch, max_iters):
        steps = []
        real_step = tuners.lazy_step

        def counted(*args):
            steps.append(args)
            return real_step(*args)

        monkeypatch.setattr(tuners, "lazy_step", counted)
        stream = make_stream()
        config = mixed_config("OFFLINE_GRAD", eta=1e-3, tol=1e-300, max_iters=max_iters)
        counters = PhaseCounters()
        out = tune_offline_gradient(config, config.init, stream.slice(0, 50), stream.slice(50, 80), counters)
        assert not np.array_equal(out.to_vector(), config.init.to_vector())
        assert counters.fits == counters.jacobian_builds == max_iters
        assert counters.gradient_evals == 30 * max_iters
        assert len(steps) == max_iters
        assert all(grads.shape == (30, config.init.dim) for _, grads, _, _ in steps)

    def test_ohl_counts_unchanged(self, monkeypatch):
        steps = []
        real_step = tuners.lazy_step
        monkeypatch.setattr(tuners, "lazy_step", lambda *args: steps.append(args) or real_step(*args))
        schedule = Schedule(tune_every=10, fit_every=10, train_window=50)
        trace = run(mixed_config("OHL", eta=1e-3), schedule, make_stream(), steps=45)
        assert fit_count_report(trace)["tuning"] == {
            "fits": 0, "jacobian_builds": 0, "gradient_evals": 0, "wall_clock_s": 0.0
        }
        assert (trace.prediction.fits, trace.prediction.jacobian_builds) == (5, 5)
        assert trace.prediction.gradient_evals == 45
        assert len(steps) == 4


def in_loop_diagnostics(trace, config, fit_every):
    """``grad_norms`` and ``proj_grad_sq`` as the rolling loop used to record
    them: one refit window at a time, at the window's λ."""
    norms, sq = np.full(len(trace), np.nan), np.full(len(trace), np.nan)
    for s in range(0, len(trace), fit_every):
        grads = trace.gradients[s : s + fit_every]
        norms[s : s + fit_every] = np.linalg.norm(grads, axis=1)
        if config.eta > 0:
            p = projected_gradient(trace.lambdas[s], grads, config.eta, config.feasible)
            sq[s : s + fit_every] = (p[:, None, :] @ p[:, :, None])[:, 0, 0]
    return norms, sq


def per_window_local(trace, config, fit_every):
    """Each lazy update's squared projected gradient of its window's averaged
    loss, from one ``lazy_step`` per window at the window's λ."""
    out = []
    for s in range(fit_every, len(trace), fit_every):
        z = trace.lambdas[s - fit_every]
        step = lazy_step(z, trace.gradients[s - fit_every : s], config.eta, config.feasible)
        p = (z - step) / config.eta
        out.append(float(p @ p))
    return out


def counting(monkeypatch, calls, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls in ``calls``."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestLazyDiagnostics:
    """OHL's diagnostic series are views of the trace: computed at the first
    read, with the bits the rolling loop used to record."""

    @settings(max_examples=60, deadline=None)
    @given(case=ohl_run_case(), eta=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]))
    def test_equal_in_loop_formulas_bitwise(self, case, eta):
        config, schedule, stream, steps = case
        config = dataclasses.replace(config, eta=eta)
        try:
            trace = run(config, schedule, stream, steps)
        except NumericalError:  # a large step can leave the kernel system indefinite
            return
        try:
            norms, sq = in_loop_diagnostics(trace, config, schedule.fit_every)
        except NumericalError:
            with pytest.raises(NumericalError):
                trace.proj_grad_sq
            return
        assert np.array_equal(trace.grad_norms, norms)
        assert np.array_equal(trace.proj_grad_sq, sq, equal_nan=True)
        assert np.isnan(trace.proj_grad_sq).all() == (eta == 0)

    @settings(max_examples=60, deadline=None)
    @given(case=ohl_run_case(), eta=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
           full_last_window=st.booleans())
    def test_local_view_equals_per_window_lazy_steps_bitwise(self, case, eta, full_last_window):
        config, schedule, stream, steps = case
        config, m = dataclasses.replace(config, eta=eta), schedule.fit_every
        if full_last_window and steps > m:
            steps -= steps % m
        try:
            trace = run(config, schedule, stream, steps)
        except NumericalError:  # a large step can leave the kernel system indefinite
            return
        if eta == 0:
            assert trace.local_proj_grad_sq is None
            return
        local = trace.local_proj_grad_sq
        assert local.shape == (-(-steps // m) - 1,)  # one per update; none after the last window
        assert np.array_equal(local, per_window_local(trace, config, m))

    @settings(max_examples=40, deadline=None)
    @given(case=ohl_run_case(), eta=st.sampled_from([1e-4, 1e-2, 1.0]))
    def test_regret_trace_totals_equal_cumsum_bitwise(self, case, eta):
        config, schedule, stream, steps = case
        config = dataclasses.replace(config, eta=eta)
        try:
            trace = run(config, schedule, stream, steps)
            sq = trace.proj_grad_sq
        except NumericalError:  # an indefinite kernel system, or a step that overflows
            return
        regret = RegretTrace()
        for lam, g in zip(trace.lambdas, trace.gradients):
            regret = regret_update(regret, lam, g, eta, config.feasible)
        assert np.array_equal(regret.sq_norms, sq)
        assert np.array_equal(regret.totals, np.cumsum(sq))

    def test_local_view_projects_nothing(self, monkeypatch):
        schedule = Schedule(tune_every=10, fit_every=10, train_window=50)
        trace = run(mixed_config("OHL", eta=1e-3), schedule, make_stream(), steps=45)
        one_window = run(mixed_config("OHL", eta=1e-3), schedule, make_stream(), steps=10)
        fixed = run(mixed_config("FIXED"), schedule, make_stream(), steps=45)
        calls = Counter()
        for name in ("_step", "project_C", "projected_gradient", "lazy_step"):
            counting(monkeypatch, calls, mkridge.optim, name)
        for name in ("projected_gradient", "lazy_step", "predict_and_hyper_gradient_batch"):
            counting(monkeypatch, calls, tuners, name)
        local = trace.local_proj_grad_sq
        assert local.shape == (4,) and trace.local_proj_grad_sq is local
        assert one_window.local_proj_grad_sq.shape == (0,)
        assert fixed.local_proj_grad_sq is None
        assert not calls

    def test_run_computes_none_of_them(self, monkeypatch):
        # a four-week-shaped model on a stream from build_features: one lag
        # moment computation per refit, no time-grid test and no projection
        hypers = HyperParams(
            CompositeKernel((PeriodicKernel(1.0, 30.0), ArdKernel(np.full(LAG, 0.05))), [0.5, 0.5]),
            1.0,
        )
        config = TunerConfig(
            Strategy.OHL, hypers, FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS), eta=1e-3
        )
        stream = make_stream()
        calls = Counter()
        counting(monkeypatch, calls, mkridge.kernels, "_on_one_grid")
        counting(monkeypatch, calls, mkridge.kernels, "_lag_moments")
        counting(monkeypatch, calls, tuners, "projected_gradient")
        trace = run(config, Schedule(tune_every=10, fit_every=10, train_window=50), stream, steps=45)
        assert calls == {"_lag_moments": 5}
        calls.clear()
        first, norms = trace.proj_grad_sq, trace.grad_norms
        assert calls == {"projected_gradient": 1}
        calls.clear()
        assert trace.proj_grad_sq is first and trace.grad_norms is norms
        assert not calls
        assert np.array_equal(first, in_loop_diagnostics(trace, config, 10)[1])

    @pytest.mark.parametrize("strategy", ["OHL", "FIXED", "GRID", "RANDOM", "OFFLINE_GRAD"])
    def test_no_time_grid_test_on_a_built_stream(self, monkeypatch, strategy):
        # the stream's grid was decided once, by build_features
        stream = make_stream()
        calls = Counter()
        counting(monkeypatch, calls, mkridge.kernels, "_on_one_grid")
        schedule = Schedule(tune_every=15, fit_every=10, train_window=60, validation_window=40)
        run(mixed_config(strategy, **PER_STEP_KW[strategy]), schedule, stream, steps=25)
        assert not calls

    @pytest.mark.parametrize("eta", [0.0, 1e-3])
    def test_non_finite_gradient_in_last_window(self, monkeypatch, eta):
        # no step follows the last refit window; its gradients are still tested
        real = tuners.predict_and_hyper_gradient_batch
        passes = []

        def poisoned(*args, **kwargs):
            yhat, grads = real(*args, **kwargs)
            passes.append(None)
            if len(passes) == 5:  # the last of 45 steps' refit windows
                grads[-1, 0] = np.inf
            return yhat, grads

        monkeypatch.setattr(tuners, "predict_and_hyper_gradient_batch", poisoned)
        schedule = Schedule(tune_every=10, fit_every=10, train_window=50)
        config = mixed_config("OHL", eta=eta)
        if eta > 0:
            with pytest.raises(NumericalError, match="non-finite"):
                run(config, schedule, make_stream(), steps=45)
        else:  # zero-rate OHL takes no step, as FIXED does, and records the gradient
            trace = run(config, schedule, make_stream(), steps=45)
            assert np.isinf(trace.grad_norms[-1]) and np.isnan(trace.proj_grad_sq).all()
