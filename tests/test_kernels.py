import importlib.machinery
import math
import sys
from unittest.mock import patch

import mkridge.kernels

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from mkridge.kernels import (
    ArdKernel,
    CompositeKernel,
    PeriodicKernel,
    SquaredExpKernel,
    TimedPoint,
    WindowPlan,
    _distance_routines,
    _on_one_grid,
    _row_step,
    _sq_dists,
    cross_matrix,
    cross_vector,
    eval_ard,
    eval_periodic,
    eval_se,
    gram,
    gram_derivative,
)
from mkridge.data import TimeSeries, build_features
from mkridge.model import (
    HyperParams,
    fit,
    predict_and_hyper_gradient_batch,
    predict_batch,
    theta_jacobian,
)

from helpers import fd_gram_derivative, fd_step, random_spec, random_window, run_isolated

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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6))
    def test_layout(self, seed, p):
        """``slices`` partition the flat vector: each component's
        ``param_kinds`` in order, then the weights; the flat vector
        round-trips bit for bit."""
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, p)
        hypers = HyperParams(spec, float(rng.uniform(0.01, 3.0)))
        assert [j for s in spec.slices for j in range(s.start, s.stop)] == list(range(spec.n_scalars))
        sizes = [len(c.param_kinds) for c in spec.components] + [len(spec.components)]
        assert [s.stop - s.start for s in spec.slices] == sizes
        kinds = [k for c in spec.components for k in c.param_kinds]
        assert hypers.scalar_kinds() == kinds + ["mixture"] * len(spec.components) + ["ridge"]
        scalars = spec.scalars()
        for c, s in zip(spec.components, spec.slices):
            assert scalars[s].tobytes() == c.params().tobytes()
        rebuilt = spec.with_scalars(scalars)
        assert [type(c) for c in rebuilt.components] == [type(c) for c in spec.components]
        assert rebuilt.scalars().tobytes() == scalars.tobytes()
        assert rebuilt.weights.tobytes() == spec.weights.tobytes()
        vector = hypers.to_vector()
        assert hypers.from_vector(vector).to_vector().tobytes() == vector.tobytes()

    def test_with_scalars_hands_over_the_layout(self, monkeypatch):
        # the returned kernel has the template's component types in order, so
        # it takes the layout the template computed instead of computing it
        rng = np.random.default_rng(3)
        spec = CompositeKernel(
            (PeriodicKernel(0.5, 7.0), ArdKernel(rng.uniform(0.1, 1.0, 3)), SquaredExpKernel(0.3)),
            [0.2, 0.3, 0.5],
        )
        slices, columns = spec.slices, spec._tensor_columns

        def refuse(self):
            raise AssertionError("the layout must be handed over, not computed")

        for name in ("slices", "_tensor_columns"):
            monkeypatch.setattr(CompositeKernel.__dict__[name], "func", refuse)
        rebuilt = spec.with_scalars(spec.scalars() * 1.5, require_simplex=False)
        assert rebuilt.slices is slices and rebuilt._tensor_columns is columns
        assert rebuilt.with_scalars(spec.scalars()).slices is slices


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
                return probe.cross(WindowPlan(window.times, window.lags), t, x)

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
        scratch = np.empty((n, n))
        assert np.array_equal(kernel.block_contract(WindowPlan(times, None), gram, v, w, out, scratch), k @ v)
        assert np.array_equal(out[:, 0], (w * d_scale) @ v)
        assert np.array_equal(out[:, 1], (w * d_period) @ v)

        k, d_scale, d_period = dense_periodic(kernel, ts, times)
        assert np.array_equal(kernel.cross_many(WindowPlan(times, None), WindowPlan(ts, None)), k)
        out = np.empty((m, 2, n))
        assert np.array_equal(kernel.cross_derivs_many(WindowPlan(times, None), WindowPlan(ts, None), out), k)
        assert np.array_equal(out[:, 0], d_scale)
        assert np.array_equal(out[:, 1], d_period)


class TestPeriodicGridDecision:
    """Each periodic evaluator decides once whether its times lie on one grid,
    and the compact Gram gives the bits of the full one."""

    @pytest.mark.parametrize("grid", [True, False], ids=["on-grid", "off-grid"])
    def test_one_grid_decision_per_evaluator_call(self, monkeypatch, grid):
        rng = np.random.default_rng(2)
        n, m = 30, 7
        times = np.arange(n, dtype=float) if grid else np.sort(rng.uniform(0.0, 90.0, n))
        ts = times[-1] + 1.0 + np.arange(m, dtype=float)
        kernel = PeriodicKernel(0.6, 11.0)
        gram = kernel.compact_block(WindowPlan(times, None))
        decide = mkridge.kernels._on_one_grid
        calls = []

        def counted(*args):
            calls.append(decide(*args))
            return calls[-1]

        monkeypatch.setattr(mkridge.kernels, "_on_one_grid", counted)
        evaluations = {
            "block": lambda: kernel.block(times, None),
            "compact_block": lambda: kernel.compact_block(WindowPlan(times, None)),
            "cross_many": lambda: kernel.cross_many(WindowPlan(times, None), WindowPlan(ts, None)),
            "block_contract": lambda: kernel.block_contract(
                WindowPlan(times, None), gram, np.ones(n), 0.5, np.empty((n, 2)), np.empty((n, n))
            ),
            "cross_derivs_many": lambda: kernel.cross_derivs_many(
                WindowPlan(times, None), WindowPlan(ts, None), np.empty((m, 2, n))
            ),
        }
        for name, evaluate in evaluations.items():
            calls.clear()
            evaluate()
            assert calls == [grid], name

    @settings(max_examples=150, deadline=None)
    @given(case=periodic_case(), seed=st.integers(0, 2**32 - 1))
    def test_compact_block_matches_block_bitwise(self, case, seed):
        kernel, _, times, _ = case
        n = len(times)
        full, compact = kernel.block(times, None), kernel.compact_block(WindowPlan(times, None))
        assert full.flags.c_contiguous and full.flags.writeable
        assert np.array_equal(compact, full)
        if _on_one_grid(times, times):
            # the strided view of the 2n - 1 distinct values, read-only
            assert compact.base.size == 2 * n - 1
            assert not compact.flags.writeable
        rng = np.random.default_rng(seed)
        v, w = rng.normal(size=n), float(rng.uniform(0.0, 1.0))
        outs = [np.empty((n, 2)), np.empty((n, 2))]
        values = [
            kernel.block_contract(WindowPlan(times, None), g, v, w, out, np.full((n, n), np.nan))
            for g, out in zip((full, compact), outs)
        ]
        assert np.array_equal(values[0], values[1])
        assert np.array_equal(outs[0], outs[1])


class TestCrossValues:
    """``CompositeKernel.cross`` computes values only, with the bits of the
    values of a one-row ``cross_contract``."""

    @settings(max_examples=100, deadline=None)
    @given(
        families=st.lists(st.sampled_from(["periodic", "se", "ard"]), min_size=1, max_size=3),
        n=st.integers(1, 80),
        p=st.integers(1, 6),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_row_cross_contract_bitwise(self, families, n, p, grid, seed):
        rng = np.random.default_rng(seed)
        comps = []
        for family in families:
            if family == "periodic":
                comps.append(PeriodicKernel(float(rng.uniform(0.05, 2.0)), float(rng.uniform(3.0, 40.0))))
            elif family == "se":
                comps.append(SquaredExpKernel(float(rng.uniform(0.01, 1.0))))
            else:
                comps.append(ArdKernel(rng.uniform(0.01, 1.0, p)))
        spec = CompositeKernel(tuple(comps), rng.dirichlet(np.full(len(comps), 2.0)))
        if grid:
            times = float(rng.integers(-50, 50)) + np.arange(n, dtype=float)
            t = times[-1] + float(rng.integers(1, 5))
        else:
            times = np.sort(rng.uniform(0.0, 3.0 * n, n))
            t = float(rng.uniform(0.0, 3.0 * n))
        lags, x = rng.normal(size=(n, p)), rng.normal(size=p)
        plan = WindowPlan(times, lags)
        k, _ = spec.cross_contract(plan, WindowPlan(np.array([t]), x[None, :]), rng.normal(size=n))
        assert np.array_equal(spec.cross(plan, t, x), k[0])

    def test_computes_no_derivatives(self, monkeypatch):
        rng = np.random.default_rng(4)
        spec = CompositeKernel(
            (PeriodicKernel(0.5, 7.0), SquaredExpKernel(0.2), ArdKernel(rng.uniform(0.1, 1.0, 3))),
            [0.3, 0.3, 0.4],
        )
        window = random_window(rng, 20, 3)
        expected = spec.cross(WindowPlan.of(window), 5.5, np.ones(3))

        def refuse(*args, **kwargs):
            raise AssertionError("cross must not evaluate derivatives")

        monkeypatch.setattr(PeriodicKernel, "cross_derivs_many", refuse)
        monkeypatch.setattr(PeriodicKernel, "_deriv", refuse)
        monkeypatch.setattr(ArdKernel, "cross_contract", refuse)
        monkeypatch.setattr(mkridge.kernels, "_lag_moments", refuse)
        assert np.array_equal(spec.cross(WindowPlan.of(window), 5.5, np.ones(3)), expected)


class TestArdValues:
    """ARD values come from ``d = h_q + h_j - y_q . y_j`` of the centred,
    scaled lags: one symmetric product for the Gram, one product per query
    for the cross values."""

    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.default_rng(21)
        return 40.0 + 10.0 * rng.normal(size=(96 + 336, 20)), rng.uniform(1e-4, 1e-2, 20)

    @pytest.mark.parametrize("m", [1, 2, 7, 96, 336])
    def test_rows_match_one_query_calls_bitwise(self, stream, m):
        lags, scales = stream
        kernel, window, xs = ArdKernel(scales), lags[:96], lags[96 : 96 + m]
        k = kernel.cross_many(WindowPlan(None, window), WindowPlan(None, xs))
        assert k.flags.c_contiguous
        for q in range(m):
            one = kernel.cross_many(WindowPlan(None, window), WindowPlan(None, xs[q : q + 1]))
            assert np.array_equal(k[q], one[0])

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 90),
        p=st.integers(1, 20),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_exactly_symmetric_with_unit_diagonal(self, n, p, offset, seed):
        rng = np.random.default_rng(seed)
        lags = offset + rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-2, 2)
        if n > 3:
            lags[1] = lags[0]  # a repeated row, and one that rounds to d < 0
            lags[2] = lags[0] + 1e-9 * rng.normal(size=p)
        g = ArdKernel(np.exp(rng.uniform(np.log(1e-6), np.log(10.0), p))).block(None, lags)
        assert g.flags.c_contiguous
        assert np.array_equal(g, g.T)
        assert (np.diagonal(g) == 1.0).all()
        assert ((0.0 <= g) & (g <= 1.0)).all()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 8),
        p=st.integers(1, 20),
        offset=st.floats(-1e3, 1e3),
        spread=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eval_ard_within_centred_norms(self, n, m, p, offset, spread, seed):
        # The rounding of d grows with the centred, scaled norms
        # |x~|^2 = sum_i s_i (x_i - mean_i)^2 (the window's lag mean), not with
        # the offset: it is at most about (p + 2) eps (|x~_q|^2 + |x~_j|^2),
        # doubled for eval_ard's own rounding, plus the two exp roundings.
        rng = np.random.default_rng(seed)
        scales = np.exp(rng.uniform(np.log(1.5e-6), np.log(1.5e-2), p))  # the README's box
        kernel = ArdKernel(scales)
        lags = offset + spread * rng.normal(size=(n, p))
        xs = offset + spread * rng.normal(size=(m, p))
        xs[0] = lags[0] + 1e-9 * spread * rng.normal(size=p)  # rounds to d < 0 at times
        mean = lags.mean(axis=0)
        norm_w, norm_q = ((lags - mean) ** 2) @ scales, ((xs - mean) ** 2) @ scales
        eps = np.finfo(float).eps
        for got, rows, norm_rows in (
            (kernel.cross_many(WindowPlan(None, lags), WindowPlan(None, xs)), xs, norm_q),
            (kernel.block(None, lags), lags, norm_w),
        ):
            want = np.array([[eval_ard(a, b, kernel) for b in lags] for a in rows])
            bound = 2 * (p + 2) * eps * (norm_rows[:, None] + norm_w[None, :]) + 2 * eps
            assert (np.abs(got - want) <= bound).all()
            assert (got <= 1.0).all()


def counting(monkeypatch, calls):
    """Count every call of ``_lag_moments``, ``ArdKernel.window_terms`` and
    ``ArdKernel.cross_contract`` in ``calls``."""

    def counted(key, f):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mkridge.kernels, "_lag_moments", counted("moments", mkridge.kernels._lag_moments))
    monkeypatch.setattr(ArdKernel, "window_terms", counted("terms", ArdKernel.window_terms))
    monkeypatch.setattr(ArdKernel, "cross_contract", counted("blocks", ArdKernel.cross_contract))


class TestArdWindowTerms:
    def test_one_computation_per_cross_contract_call(self, monkeypatch):
        # at n = 1344, periodic + ARD-20, 96 queries go in four blocks; the
        # window's lag moments and ARD terms are computed once for all of them
        rng = np.random.default_rng(8)
        n, m, p = 1344, 96, 20
        spec = CompositeKernel(
            (PeriodicKernel(1.5e-3, 96.0), ArdKernel(rng.uniform(1e-4, 1e-2, p))), [0.5, 0.5]
        )
        times, lags, v = np.arange(float(n)), rng.normal(size=(n, p)), rng.normal(size=n)
        ts, xs = np.arange(float(n), float(n + m)), rng.normal(size=(m, p))
        calls = {"moments": 0, "terms": 0, "blocks": 0}
        counting(monkeypatch, calls)
        k, dkv = spec.cross_contract(WindowPlan(times, lags), WindowPlan(ts, xs), v)
        assert calls == {"moments": 1, "terms": 1, "blocks": 4}
        for q in (0, 23, 24, 95):  # the first and last query of a block
            one = WindowPlan(ts[q : q + 1], xs[q : q + 1])
            k1, dkv1 = spec.cross_contract(WindowPlan(times, lags), one, v)
            assert np.array_equal(k[q], k1[0])
            assert np.array_equal(dkv[q], dkv1[0])

    def test_one_computation_per_fitted_model(self, monkeypatch):
        # periodic + ARD-20 at n = 1344 with 336 queries: predict_batch takes
        # them in four blocks and the hyper-gradients in four blocks of four;
        # the model's plan computes the ARD window side once for all of them
        rng = np.random.default_rng(31)
        n, m, p = 1344, 336, 20
        stream = build_features(TimeSeries(np.arange(n + m + p), rng.normal(size=n + m + p)), p)
        window, queries = stream.slice(0, n), stream.slice(n, n + m)
        spec = CompositeKernel(
            (PeriodicKernel(1.5e-3, 96.0), ArdKernel(rng.uniform(1e-4, 1e-2, p))), [0.5, 0.5]
        )
        model = fit(HyperParams(spec, 0.3), window)
        calls = {"moments": 0, "terms": 0, "blocks": 0}
        counting(monkeypatch, calls)
        jac = theta_jacobian(model)
        yhat = predict_batch(model, queries)
        fused, grads = predict_and_hyper_gradient_batch(model, jac, queries, queries.targets)
        assert (calls["moments"], calls["terms"]) == (1, 1)
        assert np.array_equal(fused, yhat)
        for q in range(m):
            one = queries.slice(q, q + 1)
            _, row = predict_and_hyper_gradient_batch(model, jac, one, one.targets)
            assert np.array_equal(grads[q], row[0])
        assert (calls["moments"], calls["terms"]) == (1, 1)


class TestScratchContraction:
    """Each component writes its derivative matrices into one scratch array the
    composite lends it; the contraction keeps the bits of the materialized
    derivatives, whatever the scratch held before."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 6),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_materialized_bitwise(self, n, p, grid, seed):
        rng = np.random.default_rng(seed)
        times = np.arange(n, dtype=float) if grid else np.sort(rng.uniform(-50.0, 300.0, n))
        lags = rng.normal(size=(n, p))
        v, w = rng.normal(size=n), float(rng.uniform(0.0, 1.0))
        for kernel in (
            PeriodicKernel(float(rng.uniform(0.01, 5.0)), float(rng.uniform(2.0, 100.0))),
            SquaredExpKernel(float(rng.uniform(0.0, 2.0))),
        ):
            gram = kernel.block(times, lags)
            out = np.empty((n, len(kernel.param_kinds)))
            scratch = np.full((n, n), np.nan)
            plan = WindowPlan(times, lags)
            assert np.array_equal(kernel.block_contract(plan, gram, v, w, out, scratch), gram @ v)
            for j, d in enumerate(kernel.iter_block_derivs(times, lags)):
                assert np.array_equal(out[:, j], (w * d) @ v)

    @pytest.mark.parametrize("chunk", [1, 500, 1 << 12], ids=["one-row", "some-rows", "32kb"])
    @pytest.mark.parametrize("n", [17, 100, 333])
    def test_off_grid_periodic_chunks_match_dense_bitwise(self, n, chunk):
        # off the grid the periodic derivatives are filled chunk // n rows at a time
        rng = np.random.default_rng(n)
        times = np.sort(rng.uniform(0.0, 5.0 * n, n))
        kernel = PeriodicKernel(0.8, 23.7)
        k, d_scale, d_period = dense_periodic(kernel, times, times)
        v, w = rng.normal(size=n), 0.3
        out = np.empty((n, 2))
        gram = kernel.block(times, None)
        with patch("mkridge.kernels._CHUNK_VALUES", chunk):
            kernel.block_contract(WindowPlan(times, None), gram, v, w, out, np.full((n, n), np.nan))
        assert np.array_equal(out[:, 0], (w * d_scale) @ v)
        assert np.array_equal(out[:, 1], (w * d_period) @ v)


class TestRowBlockContraction:
    """The periodic and ARD contractions take their matrices' rows one block
    of a multiple of 8 rows at a time: the periodic columns keep the bits of
    the whole matrices' products, the ARD ones match them to rounding."""

    @pytest.mark.parametrize("grid", [True, False], ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("n, r", [(100, 8), (400, 24), (400, 80), (1000, 32)])
    def test_matches_materialized(self, n, r, grid):
        rng = np.random.default_rng(n + r)
        times = np.arange(n, dtype=float) if grid else np.sort(rng.uniform(0.0, 3.0 * n, n))
        lags = rng.normal(size=(n, 20))
        v, w = rng.normal(size=n), 0.3
        rows = np.full((r, n), np.nan)
        periodic = PeriodicKernel(0.8, 23.7)
        k, d_scale, d_period = dense_periodic(periodic, times, times)
        out = np.empty((n, 2))
        plan = WindowPlan(times, None)
        gram = periodic.compact_block(plan)
        assert np.array_equal(periodic.block_contract(plan, gram, v, w, out, rows), k @ v)
        assert np.array_equal(out[:, 0], (w * d_scale) @ v)
        assert np.array_equal(out[:, 1], (w * d_period) @ v)

        ard = ArdKernel(rng.uniform(0.01, 0.1, 20))
        gram = ard.block(None, lags)
        out = np.empty((n, 20))
        assert np.array_equal(ard.block_contract(WindowPlan(None, lags), gram, v, w, out, rows), gram @ v)
        want = np.column_stack([(w * d) @ v for d in ard.iter_block_derivs(None, lags)])
        assert np.abs(out - want).max() <= 1e-10 * np.abs(want).max()


# one BLAS thread, as the benchmark runs: blocks of _row_step rows (a multiple
# of 8, and never a last block of one row) reproduce the whole gemv bit for bit
ROW_BLOCK_GEMV = """
import numpy as np
from mkridge.kernels import _row_step

rng = np.random.default_rng(0)
broken = []
for n in [*range(2, 300, 7), 337, 400, 673, 777, 1009, 1344, 1345]:
    a, v = rng.normal(size=(n, n)), rng.normal(size=n)
    for budget in (1 << 10, 1 << 12, 1 << 15, 1 << 17):
        step = _row_step(n, n, budget)
        assert step == n or (step % 8 == 0 and n % step != 1)
        blocked = np.concatenate([a[lo : lo + step] @ v for lo in range(0, n, step)])
        if blocked.tobytes() != (a @ v).tobytes():
            broken.append((n, step))
print(broken)
"""


class TestRowStep:
    def test_blocks_hold_the_budget_in_multiples_of_8_rows(self):
        assert _row_step(96, 96, 1 << 15) == 96  # one block: the whole matrix
        assert _row_step(1344, 1344, 1 << 15) == 24
        assert _row_step(400, 400, 1 << 15) == 80
        assert _row_step(336, 1344, 1 << 17) == 96
        assert _row_step(105, 1000, 8000) == 16  # 8 rows would leave one for the last block
        assert _row_step(1, 10**6, 1 << 15) == 1

    def test_blocked_gemv_keeps_the_whole_products_bits(self):
        assert run_isolated(ROW_BLOCK_GEMV, OPENBLAS_NUM_THREADS="1") == "[]"


def se_cross_derivs_per_query(kernel, xs, lags):
    """The SE cross values and scale derivatives, one query at a time."""
    d2 = np.vstack([np.einsum("ij,ij->i", lags - x, lags - x) for x in xs])
    k = np.exp(-kernel.scale * d2)
    return k, -d2 * k


class TestSquaredExpCrossDerivs:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 30),
        n=st.integers(1, 60),
        p=st.integers(1, 8),
        budget=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_query_loop_bitwise(self, m, n, p, budget, seed):
        # blocks of queries whose difference tensors fit a (patched) budget
        rng = np.random.default_rng(seed)
        kernel = SquaredExpKernel(float(rng.uniform(0.0, 2.0)))
        xs, lags = rng.normal(size=(m, p)), rng.normal(size=(n, p)) * 2.0
        out = np.empty((m, 1, n))
        with patch("mkridge.kernels._BLOCK_VALUES", budget):
            k = kernel.cross_derivs_many(WindowPlan(None, lags), WindowPlan(None, xs), out)
        k_ref, d_ref = se_cross_derivs_per_query(kernel, xs, lags)
        assert np.array_equal(k, k_ref)
        assert np.array_equal(out[:, 0], d_ref)

    def test_wide_window_blocks(self):
        # at n = 1344, p = 20 the 1 MB budget takes four queries per block
        rng = np.random.default_rng(5)
        kernel = SquaredExpKernel(0.05)
        xs, lags = rng.normal(size=(10, 20)), rng.normal(size=(1344, 20))
        out = np.empty((10, 1, 1344))
        k = kernel.cross_derivs_many(WindowPlan(None, lags), WindowPlan(None, xs), out)
        k_ref, d_ref = se_cross_derivs_per_query(kernel, xs, lags)
        assert np.array_equal(k, k_ref)
        assert np.array_equal(out[:, 0], d_ref)


def lag_array(rng, n, p, layout):
    """An ``(n, p)`` array of lags, C-ordered, Fortran-ordered or strided."""
    base = rng.normal(size=(n, 2 * p))
    return {
        "C": np.ascontiguousarray(base[:, :p]),
        "F": np.asfortranarray(base[:, :p]),
        "strided": base[:, ::2],
    }[layout]


class TestDistanceRoutines:
    """SE's squared distances come from the compiled routines behind
    scipy.spatial.distance, loaded without it, with its bits."""

    def test_routines_are_the_private_modules(self):
        pdist_, cdist_, to_square = _distance_routines()
        assert pdist_ is sys.modules["mkridge._distance_pybind"].pdist_sqeuclidean
        assert cdist_ is sys.modules["mkridge._distance_pybind"].cdist_sqeuclidean
        assert to_square is sys.modules["mkridge._distance_wrap"].to_squareform_from_vector_wrap

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("p", [1, 20])
    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_same_bits_as_scipy_spatial(self, n, p, layout):
        rng = np.random.default_rng(100 * n + p)
        lags, xs = lag_array(rng, n, p, layout), lag_array(rng, 7, p, layout)
        want = squareform(pdist(lags, "sqeuclidean"), checks=False)
        assert _sq_dists(lags).tobytes() == want.tobytes()
        scratch = np.full((n, n), np.nan)
        assert _sq_dists(lags, out=scratch) is scratch
        assert scratch.tobytes() == want.tobytes()
        # the window against itself: cdist's bits, which block_contract took before
        assert cdist(lags, lags, "sqeuclidean").tobytes() == want.tobytes()
        assert _sq_dists(xs, lags).tobytes() == cdist(xs, lags, "sqeuclidean").tobytes()
        mine, theirs = np.full((7, n), np.nan), np.full((7, n), np.nan)
        _distance_routines()[1](xs, lags, out=mine)
        cdist(xs, lags, "sqeuclidean", out=theirs)
        assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("failure", ["missing", "load-raises"])
    def test_falls_back_to_scipy_spatial(self, monkeypatch, failure):
        if failure == "missing":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        else:
            def refuse(self, spec):
                raise ImportError(f"cannot load {spec.name}")

            monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "create_module", refuse)
        routines = _distance_routines.__wrapped__()
        assert routines[0].func is pdist and routines[1].func is cdist
        monkeypatch.setattr(mkridge.kernels, "_distance_routines", lambda: routines)
        rng = np.random.default_rng(6)
        lags, xs = rng.normal(size=(30, 3)), rng.normal(size=(5, 3))
        want = squareform(pdist(lags, "sqeuclidean"), checks=False)
        assert _sq_dists(lags).tobytes() == want.tobytes()
        scratch = np.full((30, 30), np.nan)
        assert _sq_dists(lags, out=scratch).tobytes() == want.tobytes()
        assert _sq_dists(xs, lags).tobytes() == cdist(xs, lags, "sqeuclidean").tobytes()

    def test_scipy_spatial_imports_after_se(self):
        code = """
import sys
import numpy as np
from mkridge.kernels import SquaredExpKernel, WindowPlan, _sq_dists
rng = np.random.default_rng(0)
times, lags, xs = np.arange(30.0), rng.normal(size=(30, 4)), rng.normal(size=(5, 4))
kernel = SquaredExpKernel(0.1)
plan, queries = WindowPlan(times, lags), WindowPlan(None, xs)
before = kernel.block(times, lags), kernel.cross_many(plan, queries)
assert 'scipy.spatial' not in sys.modules
from scipy.spatial.distance import cdist, pdist, squareform
print(sys.modules['scipy.spatial._distance_pybind'] is not sys.modules['mkridge._distance_pybind'],
      _sq_dists(lags).tobytes() == squareform(pdist(lags, 'sqeuclidean')).tobytes(),
      _sq_dists(xs, lags).tobytes() == cdist(xs, lags, 'sqeuclidean').tobytes(),
      kernel.block(times, lags).tobytes() == before[0].tobytes(),
      kernel.cross_many(plan, queries).tobytes() == before[1].tobytes())
"""
        assert run_isolated(code) == "True True True True True"
