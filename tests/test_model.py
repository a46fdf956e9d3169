import importlib.machinery
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import _flapack, cho_factor, cho_solve, get_lapack_funcs

import mkridge.model
from mkridge.data import Dataset
from mkridge.errors import NumericalError
from mkridge.kernels import (
    ArdKernel,
    CompositeKernel,
    PeriodicKernel,
    SquaredExpKernel,
    TimedPoint,
    _BLOCK_VALUES,
    gram_derivative,
)
from mkridge.model import (
    HyperParams,
    fit,
    loss,
    loss_hyper_gradient,
    loss_hyper_gradient_batch,
    predict,
    predict_and_hyper_gradient_batch,
    predict_batch,
    theta_jacobian,
)

from helpers import (
    fd_loss_gradient,
    fd_theta_column,
    random_instance,
    random_window,
    rel_errors,
    run_isolated,
)


def on_grid(window, origin=0.0):
    """The same window on the unit time grid starting at ``origin``."""
    return Dataset(origin + np.arange(len(window), dtype=float), window.lags, window.targets)


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
        # Zero-scale SE on two points gives an all-ones Gram, which a denormal
        # ridge cannot rescue. Off-simplex weights [2, -1] mix a near-identity
        # Gram with the all-ones one: 2I - 11^T is indefinite for n >= 3, and
        # its failed factor keeps a finite diagonal, so only the
        # factorization's status reports that failure.
        systems = (((0.0,), [1.0], 1e-300, 2), ((50.0, 0.0), [2.0, -1.0], 1e-3, 4))
        for scales, weights, ridge, n in systems:
            window = Dataset(np.arange(float(n)), np.arange(float(n))[:, None] * 10.0, np.ones(n))
            spec = CompositeKernel(
                tuple(SquaredExpKernel(s) for s in scales), np.array(weights), require_simplex=False
            )
            with pytest.raises(NumericalError, match=rf"ridge={ridge!r} \(n={n}\)"):
                fit(HyperParams(spec, ridge), window)

    def test_solve_rejects_wrong_length(self):
        model, _ = single_point_model()
        with pytest.raises(ValueError):
            model.solve(np.ones(2))

    def test_solves_leave_their_inputs_unchanged(self):
        rng = np.random.default_rng(15)
        hypers, window = random_instance(rng, n_max=30, p_max=4)
        model = fit(hypers, window)
        assert np.array_equal(model.targets, window.targets)
        b = rng.normal(size=model.n)
        kept = b.copy()
        model.solve(b)
        assert np.array_equal(b, kept)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            fit(se_hypers(), Dataset(np.empty(0), np.empty((0, 1)), np.empty(0)))

    def test_non_finite_gram_raises_numerical_error(self):
        # a NaN lag leaves NaN in the Gram's off-diagonal entries
        lags = np.array([[0.0], [np.nan], [2.0], [3.0]])
        window = Dataset(np.arange(4.0), lags, np.ones(4))
        with pytest.raises(NumericalError, match=r"ridge=1\.0 \(n=4\)"):
            fit(se_hypers(), window)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_raises_value_error(self, bad):
        window = Dataset(np.arange(3.0), np.array([[0.0], [1.0], [2.0]]), np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError):
            fit(se_hypers(), window)

    def test_gram_and_theta_match_unmixed_build(self):
        # the model mixes its stored component Grams and adds the ridge to the
        # diagonal in place; both give the bits of one composite Gram build
        # and the solve of gram + ridge * I
        rng = np.random.default_rng(13)
        for case in range(60):
            hypers, window = random_instance(rng, n_max=40, p_max=8)
            if case % 2:
                window = on_grid(window, origin=float(rng.integers(-50, 50)))
            model = fit(hypers, window)
            gram = hypers.kernel.block(window.times, window.lags)
            assert np.array_equal(model.gram, gram)
            a = gram + hypers.ridge * np.eye(len(window))
            factor = cho_factor(a, lower=True)
            theta = cho_solve(factor, window.targets)
            residual = window.targets - a @ theta
            if np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(window.targets)):
                theta = theta + cho_solve(factor, residual)
            assert np.array_equal(model.theta, theta)

    def test_refinement_pass_on_ill_conditioned_system(self, monkeypatch):
        # nearly identical SE rows and a tiny ridge (condition number ~4e10):
        # the first solve misses 1e-10 * max(1, |y|), so fit refines once, and
        # theta keeps the bits of the factor, solve and refinement of the
        # unmixed system
        rng = np.random.default_rng(3)
        window = Dataset(np.arange(40.0), rng.normal(size=(40, 3)), rng.normal(size=40))
        hypers = HyperParams(CompositeKernel((SquaredExpKernel(1e-3),), np.array([1.0])), 1e-9)
        solves = []
        potrs = mkridge.model._potrs

        def counted(*args, **kwargs):
            solves.append(args[1].copy())
            return potrs(*args, **kwargs)

        monkeypatch.setattr(mkridge.model, "_potrs", counted)
        model = fit(hypers, window)
        assert len(solves) == 2
        a = hypers.kernel.block(window.times, window.lags) + hypers.ridge * np.eye(len(window))
        factor = cho_factor(a, lower=True)
        theta = cho_solve(factor, window.targets)
        residual = window.targets - a @ theta
        assert np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(window.targets))
        assert np.array_equal(solves[1], residual)
        assert np.array_equal(model.theta, theta + cho_solve(factor, residual))

    def test_single_point_window(self):
        model = fit(se_hypers(), Dataset([0.0], [[0.0]], [2.0]))
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
        assert jac[0, model.hypers.kernel.n_scalars] == pytest.approx(-0.5, rel=1e-14)

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


class TestJacobianMemory:
    """theta_jacobian holds one n x n scratch array next to the model's Grams
    and factor; everything else it allocates is O(n (p + d))."""

    @pytest.mark.parametrize("grid", [True, False], ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("lag_kernel", ["ard", "se"])
    def test_peak_is_one_gram(self, lag_kernel, grid):
        n, p = 400, 20
        rng = np.random.default_rng(7)
        times = np.arange(n, dtype=float) if grid else np.sort(rng.uniform(0.0, 3.0 * n, n))
        window = Dataset(times, rng.normal(size=(n, p)), rng.normal(size=n))
        other = ArdKernel(rng.uniform(0.01, 0.1, p)) if lag_kernel == "ard" else SquaredExpKernel(0.05)
        spec = CompositeKernel((PeriodicKernel(0.5, 24.0), other), np.array([0.5, 0.5]))
        model = fit(HyperParams(spec, 0.3), window)
        d = model.hypers.dim
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jac = theta_jacobian(model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert jac.shape == (n, d)
        # one n x n float64 array plus at most 8 n (p + d) values
        assert peak <= 8 * (n * n + 8 * n * (p + d)), peak / (8 * n * n)


def memory_instance(lag_kernel, grid, n=400, p=20):
    """A periodic + ARD or periodic + SE model of ``n`` rows, and its window."""
    rng = np.random.default_rng(7)
    times = np.arange(n, dtype=float) if grid else np.sort(rng.uniform(0.0, 3.0 * n, n))
    window = Dataset(times, rng.normal(size=(n, p)), rng.normal(size=n))
    other = ArdKernel(rng.uniform(0.01, 0.1, p)) if lag_kernel == "ard" else SquaredExpKernel(0.05)
    spec = CompositeKernel((PeriodicKernel(0.5, 24.0), other), np.array([0.5, 0.5]))
    return HyperParams(spec, 0.3), window


class TestFitMemory:
    """On the time grid fit keeps the periodic Gram as its Toeplitz view and
    mixes the kernel system in one buffer: it peaks at the lag Gram, the
    system and the factor, and the model keeps the lag Gram and the factor."""

    @pytest.mark.parametrize("lag_kernel", ["ard", "se"])
    def test_peak_is_three_grams(self, lag_kernel):
        n, p = 400, 20
        hypers, window = memory_instance(lag_kernel, grid=True, n=n, p=p)
        d = hypers.dim
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = fit(hypers, window)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert model.n == n
        # float64 values: three (peak) and two (held) n x n arrays plus 8 n (p + d)
        assert peak <= 8 * (3 * n * n + 8 * n * (p + d)), peak / (8 * n * n)
        assert held <= 8 * (2 * n * n + 8 * n * (p + d)), held / (8 * n * n)


class TestGradientMemory:
    """The hyper-gradient's (queries, rows, n) tensor goes in blocks of at
    most _BLOCK_VALUES values."""

    @pytest.mark.parametrize("lag_kernel", ["ard", "se"])
    def test_peak_is_the_cross_matrix_and_a_few_blocks(self, lag_kernel):
        n, p, m = 400, 20, 336
        hypers, window = memory_instance(lag_kernel, grid=True, n=n, p=p)
        model = fit(hypers, window)
        jac = theta_jacobian(model)
        rng = np.random.default_rng(8)
        queries = Dataset(n + np.arange(m, dtype=float), rng.normal(size=(m, p)), rng.normal(size=m))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = loss_hyper_gradient_batch(model, jac, queries, queries.targets)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grads.shape == (m, hypers.dim)
        # the (m, n) cross matrix plus four blocks' worth of float64 values
        assert peak <= 8 * (m * n + 4 * _BLOCK_VALUES), peak / 1e6


def materialized_column(model, window, which):
    """Jacobian column ``which`` from the materialized Gram derivative."""
    return model.solve(-(gram_derivative(model.hypers.kernel, window, which) @ model.theta))


def scalar_owners(spec):
    """The component (or ``"weight"``) each flat kernel scalar belongs to."""
    owners = [c for c in spec.components for _ in range(c.n_params)]
    return owners + ["weight"] * spec.n_components


def contracted_instance(rng, case):
    """Random (model, window): a random composite, an all-ARD composite with
    some zero scales, or either with every lag offset by 1e3."""
    hypers, window = random_instance(rng, n_max=40, p_max=20)
    if case in ("all_ard", "all_ard_offset"):
        p = window.lag_order
        comps = []
        for _ in range(int(rng.integers(1, 4))):
            scales = rng.uniform(0.01, 1.0, p)
            scales[rng.random(p) < 0.3] = 0.0
            comps.append(ArdKernel(scales))
        spec = CompositeKernel(tuple(comps), rng.dirichlet(np.full(len(comps), 2.0)))
        hypers = HyperParams(spec, hypers.ridge)
    if case.endswith("offset"):
        window = Dataset(window.times, window.lags + 1e3, window.targets)
    return fit(hypers, window), window


CONTRACTED_CASES = ("random", "random_offset", "all_ard", "all_ard_offset")


class TestContractedJacobian:
    """theta_jacobian contracts the Gram derivatives instead of building them."""

    @pytest.mark.parametrize("case", CONTRACTED_CASES)
    def test_ard_columns_match_materialized(self, case):
        rng = np.random.default_rng(CONTRACTED_CASES.index(case))
        checked = 0
        worst = 0.0
        while checked < 200:
            model, window = contracted_instance(rng, case)
            jac = theta_jacobian(model)
            for i, owner in enumerate(scalar_owners(model.hypers.kernel)):
                if not isinstance(owner, ArdKernel):
                    continue
                ref = materialized_column(model, window, i)
                worst = max(worst, np.linalg.norm(jac[:, i] - ref) / np.linalg.norm(ref))
                checked += 1
        assert worst <= 1e-10, f"worst ARD column relative error {worst:.3e}"

    def test_other_columns_match_materialized_bitwise(self):
        # periodic, SE and weight columns are matrix-vector products of the
        # same matrices the materialized path builds
        rng = np.random.default_rng(11)
        for case in ("random", "random_offset") * 25:
            model, window = contracted_instance(rng, case)
            jac = theta_jacobian(model)
            for i, owner in enumerate(scalar_owners(model.hypers.kernel)):
                if not isinstance(owner, ArdKernel):
                    assert np.array_equal(jac[:, i], materialized_column(model, window, i))
            ridge = model.hypers.kernel.n_scalars
            assert np.array_equal(jac[:, ridge], model.solve(-model.theta))

    def test_builds_no_ard_derivative_matrix(self, monkeypatch):
        def refuse(self, times, lags):
            raise AssertionError("ARD derivative matrices must not be materialized")

        monkeypatch.setattr(ArdKernel, "iter_block_derivs", refuse)
        rng = np.random.default_rng(12)
        window = random_window(rng, 30, 5)
        spec = CompositeKernel(
            (PeriodicKernel(0.5, 7.0), ArdKernel(rng.uniform(0.0, 1.0, 5))), np.array([0.5, 0.5])
        )
        jac = theta_jacobian(fit(HyperParams(spec, 0.3), window))
        assert jac.shape == (30, spec.n_scalars + 1)
        assert np.all(np.isfinite(jac))

    @pytest.mark.parametrize("grid", [False, True], ids=["off-grid", "on-grid"])
    @pytest.mark.parametrize(
        "lag_kernel",
        [lambda rng: SquaredExpKernel(0.3), lambda rng: ArdKernel(rng.uniform(0.0, 1.0, 5))],
        ids=["se", "ard"],
    )
    def test_builds_no_gram(self, monkeypatch, lag_kernel, grid):
        # the Jacobian contracts the component Grams fit already built
        rng = np.random.default_rng(14)
        window = random_window(rng, 40, 5)
        if grid:
            window = on_grid(window, origin=300.0)
        spec = CompositeKernel(
            (PeriodicKernel(0.5, 7.0), lag_kernel(rng)), np.array([0.4, 0.6])
        )
        model = fit(HyperParams(spec, 0.3), window)
        expected = theta_jacobian(model)

        def refuse(*args):
            raise AssertionError("theta_jacobian must not build a Gram")

        for owner in (PeriodicKernel, SquaredExpKernel, ArdKernel):
            monkeypatch.setattr(owner, "block", refuse)
        monkeypatch.setattr(CompositeKernel, "component_blocks", refuse)
        assert np.array_equal(theta_jacobian(model), expected)


# families with their hyperparameter counts (ARD: one per lag, added below)
JACOBIAN_FAMILIES = {"periodic": 2, "se": 1, "ard": 0}


@st.composite
def jacobian_model(draw):
    """A fitted model of 1 to 200 rows, on or off the unit time grid, with a
    composite of one to three kernel families and at most 25 hyperparameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    families = draw(st.lists(st.sampled_from(sorted(JACOBIAN_FAMILIES)), min_size=1, max_size=3))
    dim = sum(JACOBIAN_FAMILIES[f] + 1 for f in families) + 1
    n_ard = families.count("ard")
    p = draw(st.integers(1, (25 - dim) // n_ard if n_ard else 20))
    components = []
    for family in families:
        if family == "periodic":
            components.append(PeriodicKernel(rng.uniform(0.05, 2.0), rng.uniform(3.0, 40.0)))
        elif family == "se":
            components.append(SquaredExpKernel(rng.uniform(0.01, 1.0)))
        else:
            components.append(ArdKernel(rng.uniform(0.01, 1.0, p)))
    spec = CompositeKernel(tuple(components), rng.dirichlet(np.full(len(components), 2.0)))
    window = random_window(rng, n, p)
    if draw(st.booleans()):
        window = on_grid(window, origin=float(rng.integers(-50, 50)))
    return fit(HyperParams(spec, rng.uniform(0.05, 1.5)), window)


@st.composite
def placed_periodic_instance(draw):
    """Hyperparameters and a window of 1 to 120 rows, on or off the unit time
    grid, with the periodic component first, last or absent among up to two
    lag components."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    placement = draw(st.sampled_from(["first", "last", "absent"]))
    min_size = 1 if placement == "absent" else 0
    lag_families = draw(st.lists(st.sampled_from(["se", "ard"]), min_size=min_size, max_size=2))
    n, p = draw(st.integers(1, 120)), draw(st.integers(1, 8))
    components = [
        SquaredExpKernel(rng.uniform(0.01, 1.0)) if f == "se" else ArdKernel(rng.uniform(0.01, 1.0, p))
        for f in lag_families
    ]
    periodic = PeriodicKernel(rng.uniform(0.05, 2.0), rng.uniform(3.0, 40.0))
    if placement == "first":
        components.insert(0, periodic)
    elif placement == "last":
        components.append(periodic)
    spec = CompositeKernel(tuple(components), rng.dirichlet(np.full(len(components), 2.0)))
    window = random_window(rng, n, p)
    if draw(st.booleans()):
        window = on_grid(window, origin=float(rng.integers(-50, 50)))
    return HyperParams(spec, rng.uniform(0.05, 1.5)), window


def dense_reference(hypers, window):
    """theta, factor and Jacobian from the C-ordered Grams of each component's
    ``block``, mixed with a full-size temporary per component and factored
    as ``fit`` factors."""
    spec, (times, lags, y) = hypers.kernel, (window.times, window.lags, window.targets)
    blocks = [c.block(times, lags) for c in spec.components]
    a = spec.weights[0] * blocks[0]
    for w, b in zip(spec.weights[1:], blocks[1:]):
        a += w * b
    a.flat[:: y.size + 1] += hypers.ridge
    factor, info = mkridge.model._potrf(a.T, lower=1, clean=0)
    assert info == 0
    theta = mkridge.model._potrs(factor, y, lower=1)[0]
    residual = y - a @ theta
    if np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(y)):
        theta = theta + mkridge.model._potrs(factor, residual, lower=1)[0]
    contracted = spec.block_contract(times, lags, blocks, theta)
    rhs = np.asfortranarray(np.column_stack([-contracted, -theta]))
    return theta, factor, mkridge.model._potrs(factor, rhs, lower=1)[0]


class TestCompactGram:
    """fit keeps a periodic Gram on the time grid as its Toeplitz view and
    mixes the system in place; theta, the factor and the Jacobian keep the
    bits of the dense build."""

    @settings(max_examples=120, deadline=None)
    @given(instance=placed_periodic_instance())
    def test_matches_dense_reference_bitwise(self, instance):
        hypers, window = instance
        model = fit(hypers, window)
        theta, factor, jac = dense_reference(hypers, window)
        assert np.array_equal(model.theta, theta)
        assert np.array_equal(model.factor, factor)
        assert np.array_equal(theta_jacobian(model), jac)
        for c, b in zip(hypers.kernel.components, model.blocks):
            assert not b.flags.writeable
            assert np.array_equal(b, c.block(window.times, window.lags))


class TestOneSolveJacobian:
    """theta_jacobian solves every column at once. For n up to 200 and d up
    to 25 that has the bits of one solve per column; beyond 384 rows
    OpenBLAS's blocked multi-right-hand-side solve can round differently."""

    @settings(max_examples=150, deadline=None)
    @given(model=jacobian_model())
    def test_equals_single_column_solves_bitwise(self, model):
        contracted = model.hypers.kernel.block_contract(
            model.times, model.lags, model.blocks, model.theta
        )
        cols = [model.solve(-c) for c in contracted.T] + [model.solve(-model.theta)]
        assert model.hypers.dim <= 25
        jac = theta_jacobian(model)
        assert np.array_equal(jac, np.column_stack(cols))
        # the layout of the stacked columns: products such as k @ jac round by it
        assert jac.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(model=jacobian_model())
    def test_gradient_bits_do_not_depend_on_jacobian_layout(self, model):
        # the stacked rows @ jac products round by the layout of jac
        jac = theta_jacobian(model)
        queries = Dataset(model.times + 0.5, model.lags[::-1].copy(), model.targets)
        grads = [
            loss_hyper_gradient_batch(model, layout(jac), queries, queries.targets)
            for layout in (np.asfortranarray, np.ascontiguousarray)
        ]
        assert np.array_equal(grads[0], grads[1])


class TestFusedPass:
    """predict_and_hyper_gradient_batch: predict_batch's values and the
    gradients of its view loss_hyper_gradient_batch, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(model=jacobian_model(), m=st.integers(1, 40), grid=st.booleans())
    def test_equals_predict_batch_and_gradient_view_bitwise(self, model, m, grid):
        rng = np.random.default_rng(m)
        queries = random_window(rng, m, model.lags.shape[1])
        if grid:
            queries = on_grid(queries, origin=float(rng.integers(-50, 250)))
        jac = theta_jacobian(model)
        yhat, grads = predict_and_hyper_gradient_batch(model, jac, queries, queries.targets)
        assert np.array_equal(yhat, predict_batch(model, queries))
        assert np.array_equal(grads, loss_hyper_gradient_batch(model, jac, queries, queries.targets))
        none, view = predict_and_hyper_gradient_batch(
            model, jac, queries, queries.targets, predictions=False
        )
        assert none is None and np.array_equal(view, grads)


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
        assert grad[model.hypers.kernel.n_scalars] == pytest.approx(-1.0, rel=1e-13)

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


def assert_rows_close(a, b, tol):
    """Every row of ``a`` within ``tol`` of the largest |entry| of ``b``'s row."""
    scale = np.maximum(np.abs(b).max(axis=1, keepdims=True), np.finfo(float).tiny)
    worst = float((np.abs(a - b) / scale).max())
    assert worst <= tol, f"worst row-relative error {worst:.3e}"


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
        # the formula's derivatives come from the Gram derivatives of the
        # window with the query in front: the same periodic arithmetic as the
        # batch, but other distance arithmetic for SE, and no query-side
        # contraction for ARD
        formula = np.array([one_query_gradient(model, jac, q, y) for q, y in zip(singles, targets)])
        if all(isinstance(c, PeriodicKernel) for c in hypers.kernel.components):
            assert np.array_equal(grads, formula)
        else:
            assert_rows_close(grads, formula, 1e-10)

    @pytest.mark.parametrize("grid", [False, True], ids=["off-grid", "on-grid"])
    def test_large_batch_matches_single_queries_bitwise(self, grid):
        # 400 queries against a 120-point window take one (400, 6, 120) tensor:
        # four times the 1 MB budget that once split such a batch into blocks
        rng = np.random.default_rng(13)
        p = 3
        spec = CompositeKernel(
            (PeriodicKernel(0.7, 37.0), SquaredExpKernel(0.2), ArdKernel(rng.uniform(0.05, 1.0, p))),
            [0.5, 0.3, 0.2],
        )
        window, queries = random_window(rng, 120, p), random_window(rng, 400, p)
        if grid:
            window, queries = on_grid(window), on_grid(queries, origin=120.0)
        model = fit(HyperParams(spec, 0.4), window)
        jac = theta_jacobian(model)
        grads = loss_hyper_gradient_batch(model, jac, queries, queries.targets)
        singles = [
            loss_hyper_gradient(model, jac, queries.query(i), queries.targets[i])
            for i in range(len(queries))
        ]
        assert np.array_equal(grads, np.array(singles))

    def test_target_count_checked(self):
        model, window = single_point_model()
        with pytest.raises(ValueError, match="targets"):
            loss_hyper_gradient_batch(model, theta_jacobian(model), window, [0.0, 1.0])


def periodic_ard_instance(rng, case):
    """A fitted periodic + ARD model and queries for one hard case of the
    query-side contraction."""
    n, p, m = int(rng.integers(5, 60)), int(rng.integers(1, 21)), int(rng.integers(1, 40))
    window = random_window(rng, n, p)
    queries = random_window(rng, m, p)
    scales = rng.uniform(0.01, 1.0, p)
    if case == "query_is_training_row":
        pick = rng.integers(0, n, m)
        queries = Dataset(window.times[pick], window.lags[pick], queries.targets)
    elif case == "far_apart":
        scales = rng.uniform(5.0, 50.0, p)
    elif case == "half_zero_scales":
        scales[rng.permutation(p)[: p // 2]] = 0.0
    elif case == "lags_offset":
        window = Dataset(window.times, window.lags + 1e3, window.targets)
        queries = Dataset(queries.times, queries.lags + 1e3, queries.targets)
    spec = CompositeKernel(
        (PeriodicKernel(float(rng.uniform(0.05, 2.0)), float(rng.uniform(3.0, 40.0))),
         ArdKernel(scales)),
        rng.dirichlet([2.0, 2.0]),
    )
    return fit(HyperParams(spec, float(rng.uniform(0.05, 1.5))), window), queries


class TestContractedGradient:
    """The hyper-gradient contracts the ARD cross derivatives on the query side."""

    def test_builds_no_ard_cross_derivatives(self, monkeypatch):
        rng = np.random.default_rng(21)
        model, queries = periodic_ard_instance(rng, "random")
        jac = theta_jacobian(model)
        expected = loss_hyper_gradient_batch(model, jac, queries, queries.targets)

        def refuse(*args):
            raise AssertionError("the gradient must not materialize derivative matrices")

        for cls in (PeriodicKernel, SquaredExpKernel, ArdKernel, CompositeKernel):
            monkeypatch.setattr(cls, "iter_block_derivs", refuse)
        got = loss_hyper_gradient_batch(model, jac, queries, queries.targets)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "case", ["query_is_training_row", "far_apart", "half_zero_scales", "lags_offset"]
    )
    def test_matches_one_query_formula(self, case):
        rng = np.random.default_rng(22)
        for _ in range(40):
            model, queries = periodic_ard_instance(rng, case)
            jac = theta_jacobian(model)
            grads = loss_hyper_gradient_batch(model, jac, queries, queries.targets)
            formula = np.array([
                one_query_gradient(model, jac, queries.query(i), y)
                for i, y in enumerate(queries.targets)
            ])
            assert_rows_close(grads, formula, 1e-10)


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


class TestLapackLoad:
    """fit's potrf and potrs come from scipy's LAPACK wrapper, loaded without
    scipy.linalg, or from get_lapack_funcs when that load fails."""

    def test_periodic_ard_models_leave_out_scipy_linalg(self):
        code = """
import sys
import numpy as np
from mkridge import ArdKernel, CompositeKernel, HyperParams, PeriodicKernel, SquaredExpKernel
from mkridge.data import Dataset
from mkridge.model import fit, loss_hyper_gradient_batch, predict_batch, theta_jacobian

def loaded():
    return [m for m in ('scipy._lib._array_api', 'scipy.linalg', 'scipy.spatial') if m in sys.modules]

def compiled():
    return sorted(m for m in sys.modules if m.endswith(('_flapack', '_distance_pybind', '_distance_wrap')))

rng = np.random.default_rng(0)
window = Dataset(np.arange(60.0), rng.normal(size=(60, 4)), rng.normal(size=60))
queries = Dataset(np.arange(60.0, 70.0), rng.normal(size=(10, 4)), rng.normal(size=10))
for second in (ArdKernel([0.1, 0.2, 0.3, 0.4]), SquaredExpKernel(0.1)):
    kernel = CompositeKernel((PeriodicKernel(0.5, 24.0), second), [0.5, 0.5])
    model = fit(HyperParams(kernel, 1.0), window)
    yhat = predict_batch(model, queries)
    grads = loss_hyper_gradient_batch(model, theta_jacobian(model), queries, queries.targets)
    assert np.isfinite(yhat).all() and np.isfinite(grads).all()
    print(loaded(), compiled())
"""
        # one private copy of each compiled module, and SE's loads at its first evaluation
        assert run_isolated(code).splitlines() == [
            "[] ['mkridge._flapack']",
            "[] ['mkridge._distance_pybind', 'mkridge._distance_wrap', 'mkridge._flapack']",
        ]

    def test_scipy_linalg_imports_after_mkridge(self):
        code = """
import mkridge
import scipy.linalg
print(scipy.linalg._flapack.__name__, hasattr(scipy.linalg, 'cho_factor'))
"""
        assert run_isolated(code) == "scipy.linalg._flapack True"

    @pytest.mark.parametrize("n", [5, 100, 1344])
    def test_same_bits_as_get_lapack_funcs(self, n):
        potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, n))
        a = x @ x.T + n * np.eye(n)
        rhs = rng.normal(size=(n, 7))
        mine, info = mkridge.model._potrf(a, lower=1, clean=0)
        theirs, their_info = potrf(a, lower=1, clean=0)
        assert info == their_info == 0
        assert mine.tobytes() == theirs.tobytes()
        assert (mkridge.model._potrs(mine, rhs, lower=1)[0].tobytes()
                == potrs(theirs, rhs, lower=1)[0].tobytes())

    @pytest.mark.parametrize("failure", ["missing", "load-raises"])
    def test_falls_back_to_get_lapack_funcs(self, monkeypatch, failure):
        if failure == "missing":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        else:
            def refuse(self, spec):
                raise ImportError(f"cannot load {spec.name}")

            monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", refuse)
        potrf, potrs = mkridge.model._load_lapack()
        assert potrf is _flapack.dpotrf and potrs is _flapack.dpotrs
        window = random_window(np.random.default_rng(4), 30, 3)
        hypers = se_hypers(scale=0.5)
        want = fit(hypers, window).theta
        monkeypatch.setattr(mkridge.model, "_potrf", potrf)
        monkeypatch.setattr(mkridge.model, "_potrs", potrs)
        assert fit(hypers, window).theta.tobytes() == want.tobytes()
