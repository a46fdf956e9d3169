import numpy as np
import pytest

from mkridge.data import BURN_IN, SyntheticConfig, build_features, generate_synthetic
from mkridge.kernels import CompositeKernel, PeriodicKernel, SquaredExpKernel
from mkridge.model import (
    HyperParams,
    fit,
    loss_hyper_gradient,
    predict,
    predict_batch,
    theta_jacobian,
)
from mkridge.optim import FeasibleSet, GradAccumulator, lazy_step
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


def mixed_config(strategy, **kw):
    hypers = HyperParams(
        CompositeKernel((PeriodicKernel(1.0, 30.0), SquaredExpKernel(0.05)), [0.5, 0.5]),
        1.0,
    )
    feasible = FeasibleSet.for_kinds(hypers.scalar_kinds(), BOUNDS)
    return TunerConfig(strategy=Strategy(strategy), init=hypers, feasible=feasible, **kw)


def backtest_oracle(hypers, fit_window, val_window):
    """Independent validation backtest: refit once, score one-step predictions."""
    model = fit(hypers, fit_window)
    err = val_window.targets - predict_batch(model, val_window)
    return float(np.sqrt(np.mean(err * err)))


def per_step_reference(config, schedule, stream, steps):
    """Step-by-step loop with one-query calls: ``(yhat, lambdas, gradients)``.

    Covers OHL, OFFLINE_GRAD and FIXED: re-tune every ``tune_every`` steps,
    refit every ``fit_every`` steps (OHL applies its lazy update first), then
    predict, record the hyperparameters and (OHL) the gradient of each step.
    """
    start = len(stream) - steps
    tw, vw = schedule.train_window, schedule.validation_window
    ohl = config.strategy is Strategy.OHL
    hypers = config.init
    acc = GradAccumulator(hypers.dim)
    yhat, lambdas, grads = [], [], []
    for step in range(steps):
        i = start + step
        if config.strategy is Strategy.OFFLINE_GRAD and step % schedule.tune_every == 0:
            hypers = tune_offline_gradient(
                config, hypers, stream.slice(i - vw - tw, i - vw), stream.slice(i - vw, i)
            )
        if step % schedule.fit_every == 0:
            if ohl and step > 0:
                lam = lazy_step(hypers.to_vector(), acc, config.eta, schedule.fit_every, config.feasible)
                hypers = config.init.from_vector(lam)
            model = fit(hypers, stream.slice(i - tw, i))
            jac = theta_jacobian(model)
            acc.reset()
        query = stream.query(i)
        yhat.append(predict(model, query))
        lambdas.append(hypers.to_vector())
        if ohl:
            grads.append(loss_hyper_gradient(model, jac, query, float(stream.targets[i])))
            acc.add(grads[-1])
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

    @pytest.mark.parametrize("strategy", ["OHL", "FIXED"])
    def test_partial_last_window_matches_per_step_loop(self, strategy):
        stream = make_stream()
        schedule = Schedule(tune_every=50, fit_every=10, train_window=60)
        config = mixed_config(strategy, eta=1e-3)
        trace = run(config, schedule, stream, steps=25)
        yhat, lambdas, grads = per_step_reference(config, schedule, stream, 25)
        assert trace.prediction.fits == 3
        np.testing.assert_allclose(trace.yhat, yhat, rtol=1e-12, atol=1e-14)
        assert np.array_equal(trace.lambdas, lambdas)
        if strategy == "OHL":
            assert trace.prediction.gradient_evals == 25
            assert np.array_equal(trace.gradients, grads)

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
