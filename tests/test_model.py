import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkridge.data import Dataset
from mkridge.errors import NumericalError
from mkridge.kernels import CompositeKernel, SquaredExpKernel, TimedPoint
from mkridge.model import (
    HyperParams,
    fit,
    loss,
    loss_hyper_gradient,
    loss_hyper_gradient_batch,
    predict,
    predict_batch,
    theta_jacobian,
)

from helpers import (
    fd_loss_gradient,
    fd_theta_column,
    random_instance,
    random_window,
    rel_errors,
)


def se_hypers(scale=1.0, ridge=1.0):
    return HyperParams(CompositeKernel((SquaredExpKernel(scale),), np.array([1.0])), ridge)


def single_point_model():
    # K = [1], ridge = 1, y = [2]  =>  theta = [1]
    window = Dataset(np.array([0.0]), np.array([[0.0]]), np.array([2.0]))
    return fit(se_hypers(), window), window


class TestFit:
    def test_single_point_solve(self):
        model, _ = single_point_model()
        assert model.theta[0] == pytest.approx(1.0, rel=1e-14)
        assert model.gram[0, 0] == 1.0

    def test_residual_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hypers, window = random_instance(rng, n_max=40, p_max=10)
            model = fit(hypers, window)
            a = model.gram + hypers.ridge * np.eye(model.n)
            residual = np.linalg.norm(a @ model.theta - window.targets)
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(window.targets))

    def test_theta_norm_bound(self):
        # smallest eigenvalue of the system matrix is at least the ridge
        rng = np.random.default_rng(1)
        for _ in range(50):
            hypers, window = random_instance(rng, n_max=30, p_max=6)
            model = fit(hypers, window)
            bound = np.linalg.norm(window.targets) / hypers.ridge
            assert np.linalg.norm(model.theta) <= bound * (1 + 1e-12)

    def test_factorization_failure_reports_ridge(self):
        # zero-scale kernel on two points gives an all-ones Gram matrix; a
        # denormal ridge cannot rescue the factorization
        window = Dataset(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        hypers = se_hypers(scale=0.0, ridge=1e-300)
        with pytest.raises(NumericalError, match="1e-300"):
            fit(hypers, window)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            fit(se_hypers(), [])

    def test_accepts_point_pairs(self):
        pairs = [(TimedPoint(0.0, [0.0]), 2.0)]
        model = fit(se_hypers(), pairs)
        assert model.theta[0] == pytest.approx(1.0, rel=1e-14)


class TestPredict:
    def test_zero_coefficients_predict_zero(self):
        window = Dataset(np.array([0.0, 1.0]), np.array([[0.0], [3.0]]), np.zeros(2))
        model = fit(se_hypers(), window)
        assert np.array_equal(model.theta, np.zeros(2))
        assert predict(model, TimedPoint(5.0, [1.25])) == 0.0

    def test_unit_coordinate_cross_vector(self):
        # points far enough apart that off-terms underflow to exactly 0,
        # so the cross vector at a training point is a coordinate vector
        window = Dataset(
            np.array([0.0, 1.0]), np.array([[0.0], [100.0]]), np.array([4.0, 6.0])
        )
        model = fit(se_hypers(scale=1.0, ridge=1.0), window)
        assert model.theta == pytest.approx([2.0, 3.0], rel=1e-14)
        # the cross vector is exactly a coordinate vector, so the prediction
        # is exactly the matching dual coefficient
        assert predict(model, TimedPoint(0.0, [0.0])) == model.theta[0]
        assert predict(model, TimedPoint(1.0, [100.0])) == model.theta[1]

    def test_single_point_self_prediction(self):
        model, _ = single_point_model()
        assert predict(model, TimedPoint(0.0, [0.0])) == pytest.approx(1.0, rel=1e-14)

    def test_dimension_mismatch(self):
        model, _ = single_point_model()
        with pytest.raises(ValueError):
            predict(model, TimedPoint(0.0, [1.0, 2.0]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        hypers, window = random_instance(rng, n_max=20, p_max=5)
        model = fit(hypers, window)
        queries = Dataset(
            np.arange(4, dtype=float),
            rng.normal(size=(4, window.lag_order)),
            np.zeros(4),
        )
        batch = predict_batch(model, queries)
        singles = [predict(model, queries.query(i)) for i in range(4)]
        assert np.allclose(batch, singles, rtol=0, atol=1e-12)


class TestLoss:
    def test_values(self):
        assert loss(3.0, 1.0) == 4.0
        assert loss(1.5, 1.5) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=2)
            assert loss(a, b) == loss(b, a)


class TestThetaJacobian:
    def test_single_point_ridge_column(self):
        # theta(ridge) = 2 / (1 + ridge): derivative at ridge=1 is -1/2
        model, _ = single_point_model()
        jac = theta_jacobian(model)
        assert jac.shape == (1, model.hypers.dim)
        assert jac[0, model.hypers.ridge_index] == pytest.approx(-0.5, rel=1e-14)

    def test_weight_column_single_component(self):
        # with one component the weight derivative of the system matrix is K itself
        rng = np.random.default_rng(4)
        hypers, window = random_instance(rng, n_max=15, p_max=4)
        single = HyperParams(
            CompositeKernel((hypers.kernel.components[0],), np.array([1.0])), hypers.ridge
        )
        model = fit(single, window)
        jac = theta_jacobian(model)
        weight_col = jac[:, single.kernel.n_scalars - 1]
        expected = model.solve(-(model.gram @ model.theta))
        assert np.array_equal(weight_col, expected)

    def test_matches_refit_finite_differences(self):
        # >= 100 random columns against the full-refit FD oracle
        rng = np.random.default_rng(5)
        checked = 0
        worst = 0.0
        while checked < 100:
            hypers, window = random_instance(rng, n_max=30, p_max=8)
            model = fit(hypers, window)
            jac = theta_jacobian(model)
            for i in range(hypers.dim):
                fd = fd_theta_column(hypers, window, i)
                err = np.linalg.norm(jac[:, i] - fd)
                scale = max(np.linalg.norm(fd), 1e-9 * (1 + np.linalg.norm(model.theta)))
                worst = max(worst, err / scale)
                checked += 1
        assert worst <= 1e-5, f"worst column relative error {worst:.3e}"


class TestLossHyperGradient:
    def test_zero_residual_gives_exact_zero(self):
        rng = np.random.default_rng(6)
        hypers, window = random_instance(rng, n_max=15, p_max=4)
        model = fit(hypers, window)
        jac = theta_jacobian(model)
        query = TimedPoint(11.0, rng.normal(size=window.lag_order))
        y_true = predict(model, query)
        grad = loss_hyper_gradient(model, jac, query, y_true)
        assert np.all(grad == 0.0)

    def test_single_point_ridge_component(self):
        # f(ridge) = (0 - 2/(1+ridge))^2 = 4/(1+ridge)^2; f'(1) = -8/(1+1)^3 = -1
        model, _ = single_point_model()
        jac = theta_jacobian(model)
        grad = loss_hyper_gradient(model, jac, TimedPoint(0.0, [0.0]), 0.0)
        assert grad[model.hypers.ridge_index] == pytest.approx(-1.0, rel=1e-13)

    def test_matches_refit_finite_differences(self):
        # >= 100 random instances against the full-refit FD oracle
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            hypers, window = random_instance(rng, n_max=25, p_max=6)
            model = fit(hypers, window)
            jac = theta_jacobian(model)
            query = TimedPoint(float(rng.integers(0, 200)), rng.normal(size=window.lag_order))
            y_true = float(rng.normal())
            grad = loss_hyper_gradient(model, jac, query, y_true)
            fd = fd_loss_gradient(hypers, window, query, y_true)
            floor = 1e-6 * (1.0 + np.abs(fd).max())
            worst = max(worst, float(rel_errors(grad, fd, floor).max()))
        assert worst <= 1e-4, f"worst component relative error {worst:.3e}"

    def test_cached_jacobian_equals_fresh(self):
        rng = np.random.default_rng(8)
        hypers, window = random_instance(rng, n_max=20, p_max=5)
        model = fit(hypers, window)
        jac = theta_jacobian(model)
        query = TimedPoint(3.0, rng.normal(size=window.lag_order))
        first = loss_hyper_gradient(model, jac, query, 1.25)
        again = loss_hyper_gradient(model, theta_jacobian(model), query, 1.25)
        assert np.array_equal(first, again)

    def test_jacobian_shape_checked(self):
        model, _ = single_point_model()
        with pytest.raises(ValueError):
            loss_hyper_gradient(model, np.zeros((1, 99)), TimedPoint(0.0, [0.0]), 0.0)


def one_query_gradient(model, jac, query, y_true):
    """The per-query gradient formula with one-query products throughout."""
    spec = model.hypers.kernel
    k = spec.cross(query.t, query.x, model.times, model.lags)
    dk = spec.cross_derivs_all(query.t, query.x, model.times, model.lags)
    residual = y_true - float(k @ model.theta)
    ns = spec.n_scalars
    grad = np.empty(model.hypers.dim)
    grad[:ns] = -2.0 * residual * (dk @ model.theta + k @ jac[:, :ns])
    grad[ns] = -2.0 * residual * float(k @ jac[:, ns])
    return grad


class TestBatchedEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30))
    def test_matches_stacked_single_queries(self, seed, m):
        rng = np.random.default_rng(seed)
        hypers, window = random_instance(rng)
        model = fit(hypers, window)
        jac = theta_jacobian(model)
        queries = random_window(rng, m, window.lag_order)
        singles = [queries.query(i) for i in range(m)]
        targets = queries.targets

        yhat = predict_batch(model, queries)
        yhat_ref = np.array([predict(model, q) for q in singles])
        floor = 1e-9 * (1.0 + float(np.abs(yhat_ref).max()))
        assert rel_errors(yhat, yhat_ref, floor).max() <= 1e-9

        # gradient rows use the same elementwise kernel arithmetic and the same
        # one-query products as a single call, so they agree bit for bit
        grads = loss_hyper_gradient_batch(model, jac, queries, targets)
        assert grads.shape == (m, hypers.dim)
        stacked = [loss_hyper_gradient(model, jac, q, y) for q, y in zip(singles, targets)]
        assert np.array_equal(grads, np.array(stacked))
        formula = [one_query_gradient(model, jac, q, y) for q, y in zip(singles, targets)]
        assert np.array_equal(grads, np.array(formula))

    def test_target_count_checked(self):
        model, window = single_point_model()
        with pytest.raises(ValueError, match="targets"):
            loss_hyper_gradient_batch(model, theta_jacobian(model), window, [0.0, 1.0])


class TestInterpolationLimit:
    def test_training_error_non_increasing_as_ridge_shrinks(self):
        rng = np.random.default_rng(9)
        window = Dataset(
            np.arange(12, dtype=float), rng.normal(size=(12, 3)), rng.normal(size=12)
        )
        errors = []
        for ridge in (1.0, 0.1, 0.01):
            model = fit(se_hypers(scale=0.5, ridge=ridge), window)
            resid = window.targets - predict_batch(model, window)
            errors.append(np.linalg.norm(resid))
        assert errors[0] >= errors[1] >= errors[2]
