import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkridge.errors import NumericalError
from mkridge.optim import (
    FeasibleSet,
    RegretTrace,
    lazy_step,
    project_box,
    project_C,
    project_simplex,
    projected_gradient,
    regret_update,
)

from helpers import brute_force_simplex


def standard_set(m=2):
    """Box(scale, period) x simplex(m) x box(ridge)."""
    kinds = ["scale", "period"] + ["mixture"] * m + ["ridge"]
    bounds = {"scale": (0.01, 10.0), "period": (2.0, 50.0), "ridge": (0.03, 3.0)}
    return FeasibleSet.for_kinds(kinds, bounds)


def random_feasible(rng, fs):
    return project_C(rng.normal(0.0, 5.0, fs.dim), fs)


class TestProjectBox:
    def test_interior_point_unchanged(self):
        fs = standard_set()
        v = np.array([1.0, 10.0, 0.4, 0.6, 1.0])
        assert np.array_equal(project_box(v, fs), v)

    def test_clamps_above_upper(self):
        fs = standard_set()
        v = np.array([100.0, 10.0, 0.4, 0.6, 1.0])
        out = project_box(v, fs)
        assert out[0] == 10.0

    def test_clamps_below_lower(self):
        fs = standard_set()
        v = np.array([1.0, -3.0, 0.4, 0.6, 1.0])
        assert project_box(v, fs)[1] == 2.0

    def test_simplex_block_untouched(self):
        fs = standard_set()
        v = np.array([1.0, 10.0, -5.0, 42.0, 1.0])
        out = project_box(v, fs)
        assert out[2] == -5.0 and out[3] == 42.0

    def test_idempotent(self):
        fs = standard_set()
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(0, 20, fs.dim)
            once = project_box(v, fs)
            assert np.array_equal(project_box(once, fs), once)


class TestProjectSimplex:
    def test_already_feasible(self):
        assert np.array_equal(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_corner(self):
        # KKT: threshold 1 leaves (1, 0)
        assert np.array_equal(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_interior_shift(self):
        # threshold (0.5 - 1)/2 = -0.25
        out = project_simplex([0.3, 0.2])
        assert out == pytest.approx([0.55, 0.45], abs=1e-15)

    def test_single_coordinate_exact(self):
        assert project_simplex([0.123]) == pytest.approx([1.0], abs=0)

    def test_feasible_output(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            w = project_simplex(rng.normal(0, 3, m))
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = int(rng.integers(2, 4))
            v = rng.normal(0, 2, m)
            exact = project_simplex(v)
            approx = brute_force_simplex(v)
            assert np.max(np.abs(exact - approx)) <= 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = project_simplex(rng.normal(0, 3, 4))
            assert np.array_equal(project_simplex(w), w)

    @pytest.mark.parametrize(
        "v", [[np.nan, 0.5], [np.inf, 0.2], [-np.inf, 0.5], [0.1, 0.2, np.nan], [np.nan]]
    )
    def test_non_finite_raises_numerical_error(self, v):
        with pytest.raises(NumericalError, match="non-finite"):
            project_simplex(v)
        good = np.full(len(v), 1.0 / len(v))
        with pytest.raises(NumericalError, match="non-finite"):
            project_simplex(np.vstack([good, v]))

    @pytest.mark.parametrize("v", [[5.6e29, -5.6e29], [1e300, -1e300, 0.5], [1e300, 1e300]])
    def test_lost_unit_sum_raises_numerical_error(self, v):
        # 1 vanishes next to entries this large: the projected row cannot sum to 1
        with pytest.raises(NumericalError, match="misses the unit sum"):
            project_simplex(v)
        good = np.full(len(v), 1.0 / len(v))
        with pytest.raises(NumericalError, match="misses the unit sum"):
            project_simplex(np.vstack([good, v]))


class TestProjectC:
    def test_composes_box_and_simplex(self):
        fs = standard_set()
        v = np.array([100.0, 1.0, 2.0, 0.0, 5.0])
        out = project_C(v, fs)
        assert out[0] == 10.0 and out[1] == 2.0 and out[4] == 3.0
        assert np.array_equal(out[2:4], [1.0, 0.0])

    def test_idempotent(self):
        fs = standard_set()
        rng = np.random.default_rng(4)
        for _ in range(100):
            once = project_C(rng.normal(0, 10, fs.dim), fs)
            assert np.array_equal(project_C(once, fs), once)

    def test_optimality(self):
        # variational characterization: the projection is the closest feasible point
        fs = standard_set()
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v = rng.normal(0, 10, fs.dim)
            proj = project_C(v, fs)
            c = random_feasible(rng, fs)
            assert np.linalg.norm(v - proj) <= np.linalg.norm(v - c) + 1e-12

    def test_non_finite_raises_numerical_error(self):
        fs = standard_set()
        v = np.array([1.0, 10.0, 0.4, 0.6, 1.0])
        for i in range(fs.dim):
            for bad_value in (np.nan, np.inf, -np.inf):
                bad = v.copy()
                bad[i] = bad_value
                with pytest.raises(NumericalError):
                    project_C(bad, fs)
                with pytest.raises(NumericalError):
                    project_C(np.vstack([v, bad]), fs)
        g = np.array([0.0, np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalError):
            projected_gradient(v, np.vstack([np.zeros(fs.dim), g]), 0.1, fs)


def random_box_simplex(rng, before, m, after):
    """Random feasible set: boxes (some of zero width) around one simplex block."""
    d = before + m + after
    lower = rng.normal(0.0, 5.0, d)
    upper = lower + rng.exponential(5.0, d) * (rng.random(d) > 0.1)
    return FeasibleSet(lower, upper, slice(before, before + m))


class TestBlockProjection:
    """A block of rows projects row by row, exactly as each row alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        before=st.integers(0, 3),
        m=st.integers(1, 6),
        after=st.integers(0, 3),
        spread=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_rows_equal_single_projections(self, seed, rows, before, m, after, spread):
        rng = np.random.default_rng(seed)
        fs = random_box_simplex(rng, before, m, after)
        block = rng.normal(0.0, spread, (rows, fs.dim))
        block[::3] = [project_C(row, fs) for row in block[::3]]  # some rows already feasible
        simplex = block[:, fs.simplex]
        assert np.array_equal(project_simplex(simplex), [project_simplex(r) for r in simplex])
        assert np.array_equal(project_C(block, fs), [project_C(r, fs) for r in block])
        z = project_C(rng.normal(0.0, spread, fs.dim), fs)
        eta = float(10.0 ** rng.uniform(-4, 0))
        pg = projected_gradient(z, block, eta, fs)
        assert np.array_equal(pg, [projected_gradient(z, g, eta, fs) for g in block])

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        before=st.integers(0, 3),
        m=st.integers(1, 6),
        after=st.integers(0, 3),
        spread=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_project_C_idempotent_and_feasible(self, seed, rows, before, m, after, spread):
        rng = np.random.default_rng(seed)
        fs = random_box_simplex(rng, before, m, after)
        once = project_C(rng.normal(0.0, spread, (rows, fs.dim)), fs)
        assert all(fs.contains(row) for row in once)
        assert np.array_equal(project_C(once, fs), once)


class TestProjectedGradient:
    def test_interior_step_returns_gradient(self):
        fs = standard_set()
        z = np.array([5.0, 20.0, 0.5, 0.5, 1.0])
        g = np.array([0.1, -0.2, 0.0, 0.0, 0.3])
        assert np.allclose(projected_gradient(z, g, 1e-3, fs), g, rtol=0, atol=1e-9)

    def test_zero_gradient(self):
        fs = standard_set()
        z = np.array([5.0, 20.0, 0.5, 0.5, 1.0])
        assert np.allclose(projected_gradient(z, np.zeros(5), 0.5, fs), 0.0, atol=0)

    def test_eta_must_be_positive(self):
        fs = standard_set()
        with pytest.raises(ValueError):
            projected_gradient(np.zeros(fs.dim), np.zeros(fs.dim), 0.0, fs)

    def test_nonexpansive_in_gradient(self):
        # ||P(z,g1,eta) - P(z,g2,eta)|| <= ||g1 - g2||
        fs = standard_set()
        rng = np.random.default_rng(6)
        for _ in range(1000):
            z = random_feasible(rng, fs)
            g1 = rng.normal(0, 2, fs.dim)
            g2 = rng.normal(0, 2, fs.dim)
            eta = float(rng.uniform(0.01, 2.0))
            lhs = np.linalg.norm(
                projected_gradient(z, g1, eta, fs) - projected_gradient(z, g2, eta, fs)
            )
            assert lhs <= np.linalg.norm(g1 - g2) + 1e-12

    def test_inner_product_lower_bound(self):
        # <g, P(z,g,eta)> >= ||P(z,g,eta)||^2
        fs = standard_set()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            z = random_feasible(rng, fs)
            g = rng.normal(0, 2, fs.dim)
            eta = float(rng.uniform(0.01, 2.0))
            p = projected_gradient(z, g, eta, fs)
            assert float(g @ p) >= float(p @ p) - 1e-12

    def test_vanishes_at_constrained_minimizer(self):
        # quadratic ||z - a||^2 with infeasible a: zero projected gradient at proj(a)
        fs = standard_set()
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(0, 20, fs.dim)
            z_star = project_C(a, fs)
            g = 2.0 * (z_star - a)
            p = projected_gradient(z_star, g, 0.25, fs)
            assert np.linalg.norm(p) <= 1e-8


class TestLazyStep:
    def test_zero_sum_keeps_iterate(self):
        fs = standard_set()
        z = np.array([5.0, 20.0, 0.25, 0.75, 1.0])
        assert np.array_equal(lazy_step(z, np.zeros((3, fs.dim)), 0.5, fs), z)

    def test_zero_eta_keeps_iterate(self):
        fs = standard_set()
        z = np.array([5.0, 20.0, 0.25, 0.75, 1.0])
        assert np.array_equal(lazy_step(z, np.ones((4, fs.dim)), 0.0, fs), z)

    def test_projected_update_hits_bound(self):
        # box [0,1] coordinate driven to its lower bound by the averaged step
        kinds = ["ridge", "mixture"]
        fs = FeasibleSet.for_kinds(kinds, {"ridge": (0.0, 1.0)})
        m = 5
        grads = np.tile([2.0, 0.0], (m, 1))
        out = lazy_step(np.array([0.5, 1.0]), grads, 0.5, fs)
        assert out[0] == 0.0
        assert out[1] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 100),
        eta=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        before=st.integers(0, 3),
        k=st.integers(1, 6),
        after=st.integers(0, 3),
        spread=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_stays_feasible(self, seed, m, eta, before, k, after, spread):
        rng = np.random.default_rng(seed)
        fs = random_box_simplex(rng, before, k, after)
        z = project_C(rng.normal(0.0, spread, fs.dim), fs)
        grads = rng.normal(0.0, spread, (m, fs.dim))
        assert fs.contains(lazy_step(z, grads, eta, fs))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 200),
        eta=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        before=st.integers(0, 3),
        k=st.integers(1, 6),
        after=st.integers(0, 3),
        fortran=st.booleans(),
    )
    def test_block_equals_running_sum_bitwise(self, seed, m, eta, before, k, after, fortran):
        """The block step equals the step from a per-row running sum that
        starts at zero (the order OHL's bit identity rests on), for any
        block layout and with signed-zero columns. The boxes are open, so no
        clamp can hide a difference in the sum."""
        rng = np.random.default_rng(seed)
        d = before + k + after
        fs = FeasibleSet(np.full(d, -np.inf), np.full(d, np.inf), slice(before, before + k))
        grads = rng.normal(0.0, 1.0, (m, d)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
        grads[:, rng.random(d) < 0.2] = -0.0
        grads[:, rng.random(d) < 0.1] = 0.0
        if fortran:
            grads = np.asfortranarray(grads)
        z = rng.normal(0.0, 1e-3, d)
        z[rng.random(d) < 0.2] = -0.0
        total = np.zeros(d)
        for g in grads:
            total = total + g
        want = project_C(z - (eta / m) * total, fs)
        got = lazy_step(z, grads, eta, fs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 400),
        d=st.integers(1, 30),
        layout=st.sampled_from(["C", "F", "row-strided", "column-strided", "both-strided", "reversed"]),
    )
    def test_sum_equals_running_sum_on_every_layout(self, seed, m, d, layout):
        """The block's sum is the running sum from zero whatever the block's
        memory layout and shape. The set is one open box per column but the
        last, a one-weight simplex, so every summed column but that one shows
        in the step."""
        rng = np.random.default_rng(seed)
        fs = FeasibleSet(np.full(d, -np.inf), np.full(d, np.inf), slice(d - 1, d))
        grads = rng.normal(0.0, 1.0, (m, d)) * 10.0 ** rng.uniform(-8, 8, (m, d))
        grads[:, rng.random(d) < 0.2] = -0.0
        if layout == "F":
            grads = np.asfortranarray(grads)
        elif layout == "row-strided":
            grads = np.repeat(grads, 2, axis=0)[1::2]
        elif layout == "column-strided":
            grads = np.repeat(grads, 3, axis=1)[:, ::3]
        elif layout == "reversed":
            grads = grads[::-1].copy()[::-1]
        elif layout == "both-strided":
            grads = np.repeat(np.repeat(grads, 2, axis=0), 2, axis=1)[::2, 1::2]
        total = np.zeros(d)
        for g in grads:
            total = total + g
        z = np.zeros(d)
        z[-1] = 1.0
        want = project_C(z - (0.5 / m) * total, fs)
        got = lazy_step(z, grads, 0.5, fs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_malformed_block_rejected(self):
        fs = standard_set()
        z = np.zeros(fs.dim)
        with pytest.raises(ValueError):
            lazy_step(z, np.ones((0, fs.dim)), 0.1, fs)  # empty
        with pytest.raises(ValueError):
            lazy_step(z, np.ones((2, fs.dim + 1)), 0.1, fs)  # wrong width
        with pytest.raises(ValueError):
            lazy_step(z, np.ones((2, 1)), 0.1, fs)  # would broadcast
        with pytest.raises(ValueError):
            lazy_step(z, np.ones(fs.dim), 0.1, fs)  # 1-d


class TestRegret:
    def test_zero_gradients_zero_regret(self):
        fs = standard_set()
        z = np.array([5.0, 20.0, 0.5, 0.5, 1.0])
        trace = RegretTrace()
        for _ in range(10):
            trace = regret_update(trace, z, np.zeros(fs.dim), 0.1, fs)
        assert trace.total == 0.0

    def test_single_interior_step(self):
        fs = standard_set()
        z = np.array([5.0, 20.0, 0.5, 0.5, 1.0])
        g = np.zeros(fs.dim)
        g[0] = 2.0
        trace = regret_update(RegretTrace(), z, g, 1e-3, fs)
        assert trace.total == pytest.approx(4.0, rel=1e-9)

    def test_monotone(self):
        fs = standard_set()
        rng = np.random.default_rng(9)
        trace = RegretTrace()
        prev = 0.0
        for _ in range(100):
            z = random_feasible(rng, fs)
            trace = regret_update(trace, z, rng.normal(0, 3, fs.dim), 0.2, fs)
            assert trace.total >= prev
            prev = trace.total


class TestFeasibleSet:
    def test_contains(self):
        fs = standard_set()
        assert fs.contains(np.array([1.0, 10.0, 0.5, 0.5, 1.0]))
        assert not fs.contains(np.array([1.0, 10.0, 0.5, 0.5, 10.0]))
        assert not fs.contains(np.array([1.0, 10.0, 0.7, 0.7, 1.0]))

    def test_sampling_is_feasible_and_seeded(self):
        fs = standard_set(m=3)
        rng = np.random.default_rng(10)
        draws = [fs.sample(rng) for _ in range(100)]
        for v in draws:
            assert fs.contains(v)
        again = [fs.sample(np.random.default_rng(10)) for _ in range(1)]
        assert np.array_equal(draws[0], again[0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "lower, upper, simplex, log",
        [
            # a log coordinate with lo == hi: exp(log(0.1)) rounds off 0.1 and is clamped
            ([1e-6, 0.1, 48.0, 0, 0, 0.03], [1e-2, 0.1, 672.0, 0, 0, 3.0], slice(3, 5),
             [True, True, False, False, False, False]),
            ([0, 0, -2.0], [0, 0, 5.0], slice(0, 2), [False, False, False]),
            ([1e-3, 1e-3, 0], [10.0, 2e-3, 0], slice(2, 3), [True, True, False]),
        ],
        ids=["mixed", "linear-only", "log-only"],
    )
    def test_sample_matches_per_coordinate_loop(self, lower, upper, simplex, log, seed):
        fs = FeasibleSet(np.array(lower, dtype=float), np.array(upper, dtype=float), simplex, log)

        def reference(rng):
            v = np.empty(fs.dim)
            for i in range(fs.dim):
                if fs.simplex.start <= i < fs.simplex.stop:
                    continue
                lo, hi = fs.lower[i], fs.upper[i]
                if fs.log_sample[i]:
                    v[i] = min(max(np.exp(rng.uniform(np.log(lo), np.log(hi))), lo), hi)
                else:
                    v[i] = rng.uniform(lo, hi)
            m = fs.simplex.stop - fs.simplex.start
            v[fs.simplex] = project_simplex(rng.uniform(0.0, 1.0, m))
            return v

        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            v = fs.sample(rng)
            assert np.array_equal(v, reference(rng_ref))
            assert fs.contains(v, tol=0.0)
        if lower[1] == upper[1] == 0.1:
            assert v[1] == 0.1 and np.exp(np.log(0.1)) != 0.1

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 60),
        before=st.integers(0, 3),
        m=st.integers(1, 5),
        after=st.integers(0, 3),
        log_frac=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_sample_many_equals_successive_samples(self, seed, k, before, m, after, log_frac):
        """Row i of one ``sample_many`` call is the i-th of k ``sample`` calls,
        bit for bit, and both leave the generator in the same state."""
        rng = np.random.default_rng(seed)
        d = before + m + after
        lower = rng.uniform(1e-6, 1.0, d) * 10.0 ** rng.integers(-3, 3, d)
        upper = lower * rng.uniform(1.0, 1e3, d) * (rng.random(d) > 0.1)
        upper = np.maximum(upper, lower)  # some zero-width boxes
        fs = FeasibleSet(lower, upper, slice(before, before + m), rng.random(d) < log_frac)
        many, one = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        rows = fs.sample_many(many, k)
        assert rows.shape == (k, d)
        want = np.array([fs.sample(one) for _ in range(k)])
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))
        assert many.bit_generator.state == one.bit_generator.state
        assert all(fs.contains(v, tol=0.0) for v in rows)

    def test_sample_many_rejects_no_draws(self):
        with pytest.raises(ValueError):
            standard_set().sample_many(np.random.default_rng(0), 0)

    def test_sample_rejects_unbounded_box_coordinate(self):
        fs = FeasibleSet(np.array([0.0, -np.inf]), np.array([1.0, 1.0]), slice(0, 1))
        with pytest.raises(ValueError, match="unbounded"):
            fs.sample(np.random.default_rng(0))

    def test_scale_bounds_marked_log(self):
        fs = standard_set()
        assert fs.log_sample[0]
        assert not fs.log_sample[1]

    def test_mixture_block_must_be_contiguous(self):
        with pytest.raises(ValueError):
            FeasibleSet.for_kinds(
                ["mixture", "scale", "mixture"], {"scale": (0.1, 1.0)}
            )

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            FeasibleSet.for_kinds(["scale", "mixture"], {"scale": (2.0, 1.0)})
