import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkridge.kernels import (
    ArdKernel,
    CompositeKernel,
    PeriodicKernel,
    SquaredExpKernel,
    TimedPoint,
    _on_one_grid,
    cross_matrix,
    cross_vector,
    eval_ard,
    eval_periodic,
    eval_se,
    gram,
    gram_derivative,
)
from mkridge.model import HyperParams

from helpers import fd_gram_derivative, fd_step, random_spec, random_window

EXP_MINUS_1 = 0.36787944117144233  # exp(-1), frozen


def make_points(rng, n, p):
    times = np.sort(rng.choice(10 * n, size=n, replace=False)).astype(float)
    return [TimedPoint(t, rng.normal(size=p)) for t in times]


def pairwise_cross(spec, query, point):
    """One composite kernel value, summed from the scalar evaluators."""
    total = 0.0
    for w, comp in zip(spec.weights, spec.components):
        if isinstance(comp, PeriodicKernel):
            value = eval_periodic(abs(query.t - point.t), comp)
        elif isinstance(comp, SquaredExpKernel):
            value = eval_se(query.x, point.x, comp)
        else:
            value = eval_ard(query.x, point.x, comp)
        total += w * value
    return total


class TestEvalPeriodic:
    def test_zero_dt_is_one(self):
        assert eval_periodic(0.0, PeriodicKernel(3.7, 11.0)) == 1.0

    def test_full_period_recurrence(self):
        assert eval_periodic(5.0, PeriodicKernel(2.0, 5.0)) == 1.0

    def test_half_period(self):
        assert eval_periodic(2.5, PeriodicKernel(1.0, 5.0)) == pytest.approx(EXP_MINUS_1, rel=1e-15)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            eval_periodic(-1.0, PeriodicKernel(1.0, 5.0))

    def test_bounded(self):
        k = PeriodicKernel(4.0, 7.0)
        for dt in np.linspace(0, 30, 100):
            v = eval_periodic(float(dt), k)
            assert 0.0 < v <= 1.0


class TestEvalSe:
    def test_identical_inputs(self):
        x = np.array([1.0, -2.0, 0.5])
        assert eval_se(x, x, SquaredExpKernel(0.7)) == 1.0

    def test_zero_scale(self):
        assert eval_se([1.0, 2.0], [5.0, -3.0], SquaredExpKernel(0.0)) == 1.0

    def test_unit_distance(self):
        assert eval_se([0.0], [1.0], SquaredExpKernel(1.0)) == pytest.approx(EXP_MINUS_1, rel=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, x2 = rng.normal(size=4), rng.normal(size=4)
            k = SquaredExpKernel(float(rng.uniform(0, 2)))
            assert eval_se(x, x2, k) == eval_se(x2, x, k)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_se([1.0, 2.0], [1.0], SquaredExpKernel(1.0))


class TestEvalArd:
    def test_reduces_to_se_with_equal_scales(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, x2 = rng.normal(size=5), rng.normal(size=5)
            c = float(rng.uniform(0.01, 2.0))
            ard = eval_ard(x, x2, ArdKernel(np.full(5, c)))
            se = eval_se(x, x2, SquaredExpKernel(c))
            assert ard == pytest.approx(se, rel=1e-12)

    def test_identical_inputs(self):
        x = np.array([1.0, 2.0])
        assert eval_ard(x, x, ArdKernel([0.3, 0.9])) == 1.0

    def test_zero_scale_masks_coordinate(self):
        # second coordinate differs by 7 but its scale is 0
        v = eval_ard([0.0, 0.0], [1.0, 7.0], ArdKernel([1.0, 0.0]))
        assert v == pytest.approx(EXP_MINUS_1, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_ard([1.0], [1.0], ArdKernel([1.0, 2.0]))
        with pytest.raises(ValueError):
            eval_ard([1.0, 2.0], [1.0], ArdKernel([1.0, 2.0]))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            ArdKernel([0.5, -0.1])


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: PeriodicKernel(INF, 5.0),
        lambda: PeriodicKernel(NAN, 5.0),
        lambda: PeriodicKernel(1.0, INF),
        lambda: PeriodicKernel(1.0, NAN),
        lambda: SquaredExpKernel(INF),
        lambda: SquaredExpKernel(NAN),
        lambda: ArdKernel([0.5, INF]),
        lambda: ArdKernel([NAN, 0.5]),
        lambda: CompositeKernel((SquaredExpKernel(1.0), SquaredExpKernel(2.0)), [NAN, 1.0]),
        lambda: HyperParams(CompositeKernel((SquaredExpKernel(1.0),), [1.0]), INF),
        lambda: HyperParams(CompositeKernel((SquaredExpKernel(1.0),), [1.0]), NAN),
    ],
    ids=[
        "periodic-scale-inf", "periodic-scale-nan", "period-inf", "period-nan", "se-scale-inf",
        "se-scale-nan", "ard-scale-inf", "ard-scale-nan", "weight-nan", "ridge-inf", "ridge-nan",
    ],
)
def test_non_finite_hyperparameter_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestCompositeSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CompositeKernel((SquaredExpKernel(1.0),), np.array([0.9]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            CompositeKernel(
                (SquaredExpKernel(1.0), SquaredExpKernel(2.0)), np.array([1.5, -0.5])
            )

    def test_needs_components(self):
        with pytest.raises(ValueError):
            CompositeKernel((), np.array([]))

    def test_off_simplex_allowed_when_unchecked(self):
        spec = CompositeKernel(
            (SquaredExpKernel(1.0), SquaredExpKernel(2.0)),
            np.array([0.7, 0.7]),
            require_simplex=False,
        )
        assert spec.weights.sum() == pytest.approx(1.4)

    def test_scalar_roundtrip(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, p=4)
        rebuilt = spec.with_scalars(spec.scalars())
        assert np.array_equal(rebuilt.scalars(), spec.scalars())


class TestGram:
    def test_degenerate_mixture_equals_first_component(self):
        rng = np.random.default_rng(3)
        pts = make_points(rng, 7, 3)
        prd = PeriodicKernel(1.2, 9.0)
        spec = CompositeKernel((prd, SquaredExpKernel(0.4)), np.array([1.0, 0.0]))
        single = CompositeKernel((prd,), np.array([1.0]))
        assert np.array_equal(gram(spec, pts), gram(single, pts))

    def test_single_point_window(self):
        spec = CompositeKernel(
            (PeriodicKernel(2.0, 5.0), SquaredExpKernel(1.0)), np.array([0.25, 0.75])
        )
        K = gram(spec, [TimedPoint(3, [1.0, 2.0])])
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_window_rejected(self):
        spec = CompositeKernel((SquaredExpKernel(1.0),), np.array([1.0]))
        with pytest.raises(ValueError):
            gram(spec, [])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = int(rng.integers(1, 6))
            spec = random_spec(rng, p)
            pts = make_points(rng, int(rng.integers(2, 12)), p)
            K = gram(spec, pts)
            assert np.array_equal(K, K.T)

    def test_diagonal_is_weight_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_spec(rng, 3)
            pts = make_points(rng, 6, 3)
            K = gram(spec, pts)
            assert np.max(np.abs(np.diag(K) - spec.weights.sum())) <= 1e-12

    def test_entries_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            spec = random_spec(rng, 4)
            pts = make_points(rng, 8, 4)
            K = gram(spec, pts)
            assert np.all(K > 0)
            assert np.all(K <= 1.0 + 1e-12)

    def test_positive_semidefinite(self):
        # eigenvalue-decomposition oracle over random specs and windows
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = int(rng.integers(1, 8))
            n = int(rng.integers(2, 33))
            spec = random_spec(rng, p)
            pts = make_points(rng, n, p)
            K = gram(spec, pts)
            min_eig = float(np.linalg.eigvalsh(K).min())
            assert min_eig >= -1e-8 * np.trace(K) / n

    def test_mixture_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = int(rng.integers(1, 5))
            spec = random_spec(rng, p, n_components=3)
            pts = make_points(rng, 6, p)
            total = np.zeros((6, 6))
            for w, comp in zip(spec.weights, spec.components):
                single = CompositeKernel((comp,), np.array([1.0]))
                total = total + w * gram(single, pts)
            assert np.max(np.abs(gram(spec, pts) - total)) <= 1e-12


class TestCrossVector:
    def test_query_equals_window_point(self):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, 3)
        pts = make_points(rng, 5, 3)
        k = cross_vector(spec, pts[2], pts)
        assert k[2] == pytest.approx(1.0, abs=1e-15)

    def test_periodicity_recurrence(self):
        spec = CompositeKernel(
            (PeriodicKernel(2.0, 5.0), SquaredExpKernel(0.3)), np.array([1.0, 0.0])
        )
        rng = np.random.default_rng(10)
        pts = [TimedPoint(5.0 * i, rng.normal(size=2)) for i in range(6)]
        query = TimedPoint(5.0 * 6, rng.normal(size=2))
        k = cross_vector(spec, query, pts)
        assert np.all(k == 1.0)

    def test_consistent_with_gram(self):
        # the cross vector is a row of the Gram matrix on window + query
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 4)
        pts = make_points(rng, 5, 4)
        query = TimedPoint(997.0, rng.normal(size=4))
        K = gram(spec, pts + [query])
        k = cross_vector(spec, query, pts)
        assert np.allclose(k, K[-1, :-1], rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 3)
        pts = make_points(rng, 4, 3)
        with pytest.raises(ValueError):
            cross_vector(spec, TimedPoint(0.0, [1.0, 2.0]), pts)

    def test_cross_matrix_rows_match_cross_vector(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 2)
        pts = make_points(rng, 6, 2)
        queries = make_points(rng, 3, 2)
        M = cross_matrix(spec, queries, pts)
        for j, q in enumerate(queries):
            assert np.allclose(M[j], cross_vector(spec, q, pts), rtol=0, atol=1e-14)

    def test_matches_pairwise_scalar_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            spec = random_spec(rng, p)
            pts = make_points(rng, int(rng.integers(1, 12)), p)
            queries = make_points(rng, int(rng.integers(1, 5)), p)
            M = cross_matrix(spec, queries, pts)
            for j, q in enumerate(queries):
                oracle = np.array([pairwise_cross(spec, q, pt) for pt in pts])
                assert np.allclose(cross_vector(spec, q, pts), oracle, rtol=0, atol=1e-14)
                assert np.allclose(M[j], oracle, rtol=0, atol=1e-14)


class TestGramDerivative:
    def test_weight_derivative_is_component_gram(self):
        rng = np.random.default_rng(14)
        pts = make_points(rng, 6, 3)
        comps = (PeriodicKernel(1.0, 8.0), SquaredExpKernel(0.5))
        spec = CompositeKernel(comps, np.array([0.3, 0.7]))
        # weight indices come after the 3 component parameters
        d_beta0 = gram_derivative(spec, pts, 3)
        single = CompositeKernel((comps[0],), np.array([1.0]))
        assert np.array_equal(d_beta0, gram(single, pts))

    def test_periodic_scale_derivative_diagonal_zero(self):
        rng = np.random.default_rng(15)
        pts = make_points(rng, 5, 2)
        spec = CompositeKernel((PeriodicKernel(1.5, 6.0),), np.array([1.0]))
        d = gram_derivative(spec, pts, 0)
        assert np.all(np.diag(d) == 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        spec = random_spec(rng, 3)
        pts = make_points(rng, 6, 3)
        for which in range(spec.n_scalars):
            d = gram_derivative(spec, pts, which)
            assert np.array_equal(d, d.T)

    def test_ridge_index_rejected(self):
        rng = np.random.default_rng(17)
        spec = random_spec(rng, 2)
        pts = make_points(rng, 4, 2)
        with pytest.raises(ValueError):
            gram_derivative(spec, pts, spec.n_scalars)
        with pytest.raises(ValueError):
            gram_derivative(spec, pts, -1)

    def test_matches_finite_differences(self):
        # >= 100 random (spec, window, index) draws against the FD oracle
        rng = np.random.default_rng(18)
        checked = 0
        worst = 0.0
        while checked < 120:
            p = int(rng.integers(1, 6))
            spec = random_spec(rng, p)
            window = random_window(rng, int(rng.integers(3, 9)), p)
            which = int(rng.integers(0, spec.n_scalars))
            analytic = gram_derivative(spec, window, which)
            fd = fd_gram_derivative(spec, window, which)
            scale = max(float(np.abs(fd).max()), 1e-12)
            rel = float(np.abs(analytic - fd).max()) / scale
            worst = max(worst, rel)
            checked += 1
        assert worst <= 1e-5, f"worst relative error {worst:.3e}"


class TestCrossDerivatives:
    def test_matches_finite_differences(self):
        # the cross-derivative oracle against central differences of cross()
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(200):
            p = int(rng.integers(1, 6))
            spec = random_spec(rng, p)
            window = random_window(rng, int(rng.integers(1, 9)), p)
            t, x = float(rng.integers(-20, 100)), rng.normal(size=p)
            analytic = spec.cross_derivs_all(t, x, window.times, window.lags)
            assert analytic.shape == (spec.n_scalars, len(window))
            scalars = spec.scalars()

            def cross_at(values):
                probe = spec.with_scalars(values, require_simplex=False)
                return probe.cross(t, x, window.times, window.lags)

            for which in range(spec.n_scalars):
                h = fd_step(scalars[which])
                up, down = scalars.copy(), scalars.copy()
                up[which] += h
                down[which] -= h
                fd = (cross_at(up) - cross_at(down)) / (2.0 * h)
                scale = max(float(np.abs(fd).max()), 1e-12)
                worst = max(worst, float(np.abs(analytic[which] - fd).max()) / scale)
        assert worst <= 1e-5, f"worst relative error {worst:.3e}"


def dense_periodic(kernel, ts, times):
    """The periodic kernel's values and derivatives on every time difference."""
    return kernel._value_and_derivs(np.abs(ts[:, None] - times[None, :]))


# per case: the step and origin of the window's times, and whether the query
# and window times lie on one integer grid
GRID_CASES = {
    "step-1": (1.0, 0.0, True),
    "step-300-unix": (300.0, 1.7e9, True),
    "gap": (1.0, 0.0, False),
    "fractional": (1.0, 0.5, False),
    "beyond-2**52": (1.0, 2.0**52, False),
    "query-step-2": (1.0, 0.0, False),
}


@st.composite
def periodic_case(draw):
    case = draw(st.sampled_from(sorted(GRID_CASES)))
    step, origin, on_grid = GRID_CASES[case]
    n = draw(st.integers(3 if case == "gap" else 2 if case == "query-step-2" else 1, 40))
    m = draw(st.integers(2 if case == "query-step-2" else 1, 12))
    origin += step * draw(st.integers(0 if case == "beyond-2**52" else -1000, 1000))
    times = origin + step * np.arange(n)
    # the query block starts before, inside (overlapping) or after the window
    ts = origin + step * (draw(st.integers(-m - 2, n + 5)) + np.arange(m))
    if case == "gap":
        times[draw(st.integers(1, n - 1)):] += step * draw(st.integers(1, 50))
    if case == "query-step-2":
        ts = ts[0] + 2 * step * np.arange(m)
    kernel = PeriodicKernel(
        draw(st.floats(1e-3, 10.0)), draw(st.floats(2.0, 700.0)) if draw(st.booleans()) else 96.0
    )
    return kernel, ts, times, on_grid


class TestPeriodicGrid:
    """On one integer grid the periodic evaluators gather the values of the
    distinct time differences; everywhere they equal the dense evaluation bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=periodic_case(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_bitwise(self, case, seed):
        kernel, ts, times, on_grid = case
        assert _on_one_grid(ts, times) == on_grid
        n, m = len(times), len(ts)
        k, d_scale, d_period = dense_periodic(kernel, times, times)
        assert np.array_equal(kernel.block(times, None), k)

        rng = np.random.default_rng(seed)
        v, w = rng.normal(size=n), float(rng.uniform(0.0, 1.0))
        out = np.empty((n, 2))
        gram = kernel.block(times, None)
        assert np.array_equal(kernel.block_contract(times, None, gram, v, w, out), k @ v)
        assert np.array_equal(out[:, 0], (w * d_scale) @ v)
        assert np.array_equal(out[:, 1], (w * d_period) @ v)

        k, d_scale, d_period = dense_periodic(kernel, ts, times)
        assert np.array_equal(kernel.cross_many(ts, None, times, None), k)
        out = np.empty((m, 2, n))
        assert np.array_equal(kernel.cross_derivs_many(ts, None, times, None, out), k)
        assert np.array_equal(out[:, 0], d_scale)
        assert np.array_equal(out[:, 1], d_period)
