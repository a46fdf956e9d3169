import numpy as np
import pytest

from helpers import run_isolated as _run_isolated
from mkridge.data import (
    BURN_IN,
    Dataset,
    SyntheticConfig,
    TimeSeries,
    bin_series,
    build_features,
    generate_synthetic,
    load_csv,
)
from mkridge.errors import DataError


class TestTimeSeries:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 2, 2], [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1], [1.0, np.nan])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries([0, 1, 2], [1.0, 2.0])


class TestGenerateSynthetic:
    def test_no_components_gives_constant_ones(self):
        series = generate_synthetic(SyntheticConfig(c1=0.0, c2=0.0, omega=5.0, length=200))
        assert np.array_equal(series.values, np.ones(100))

    def test_pure_sinusoid(self):
        series = generate_synthetic(SyntheticConfig(c1=0.0, c2=1.0, omega=5.0, length=400))
        t = series.timestamps
        assert np.array_equal(series.values, 1.0 + np.sin(t / 5.0))

    def test_reference_configuration_is_bounded(self):
        # AR normalization keeps the recursion stable: no divergence over 5000 steps
        series = generate_synthetic(SyntheticConfig(c1=0.5, c2=0.5, omega=5.0, length=5000 + BURN_IN))
        assert len(series) == 5000
        assert np.max(np.abs(series.values)) < 100.0

    def test_deterministic_given_seed(self):
        cfg = SyntheticConfig(c1=0.5, c2=0.5, omega=5.0, length=400, seed=7, noise_sd=0.3)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_seed_changes_noise(self):
        a = generate_synthetic(SyntheticConfig(0.5, 0.5, 5.0, length=400, seed=1, noise_sd=0.3))
        b = generate_synthetic(SyntheticConfig(0.5, 0.5, 5.0, length=400, seed=2, noise_sd=0.3))
        assert not np.array_equal(a.values, b.values)

    def test_row_count_excludes_burn_in(self):
        series = generate_synthetic(SyntheticConfig(0.5, 0.5, 5.0, length=321))
        assert len(series) == 321 - BURN_IN

    def test_length_must_exceed_burn_in(self):
        with pytest.raises(ValueError):
            SyntheticConfig(0.5, 0.5, 5.0, length=90)

    @pytest.mark.parametrize("ar_order", [1, 2, 7, 20])
    @pytest.mark.parametrize("c1", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("omega", [5.0, 96.0 / (2.0 * np.pi)])
    def test_ar_recursion_matches_lfilter_bitwise(self, ar_order, c1, omega):
        from scipy.signal import lfilter

        for length in (BURN_IN + 1, 750, 4000):
            series = generate_synthetic(SyntheticConfig(c1, 0.5, omega, ar_order, length))
            t = np.arange(length, dtype=float)
            alpha = np.arange(1, ar_order + 1, dtype=float)
            coeffs = alpha / (2.0 * np.linalg.norm(alpha))
            denom = np.concatenate(([1.0], -c1 * coeffs))
            want = lfilter([1.0], denom, 1.0 + 0.5 * np.sin(t / omega))[BURN_IN:]
            assert series.values.tobytes() == want.tobytes()


_HEAVY = "('scipy.signal', 'scipy.stats', 'scipy.spatial', 'scipy.linalg', 'scipy._lib._array_api')"


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal (and the scipy.stats it imports) doubled the import time and
    # memory; scipy.spatial adds about 32 MB, with the scipy.linalg and the
    # array-API layer it imports
    code = f"import sys, mkridge; print(sorted(m for m in sys.modules if m.startswith({_HEAVY})))"
    assert _run_isolated(code) == "[]"


def test_periodic_ard_models_leave_out_scipy_spatial():
    # fit, batched prediction, the Jacobian and batched hyper-gradients of the
    # paper's periodic + ARD model, then of a periodic + SE model
    code = f"""
import sys
import numpy as np
from mkridge import ArdKernel, CompositeKernel, HyperParams, PeriodicKernel, SquaredExpKernel
from mkridge.data import Dataset
from mkridge.model import fit, loss_hyper_gradient_batch, predict_batch, theta_jacobian

def loaded():
    return sorted(m for m in sys.modules if m.startswith({_HEAVY}))

rng = np.random.default_rng(0)
window = Dataset(np.arange(60.0), rng.normal(size=(60, 4)), rng.normal(size=60))
queries = Dataset(np.arange(60.0, 70.0), rng.normal(size=(10, 4)), rng.normal(size=10))
for second in (ArdKernel([0.1, 0.2, 0.3, 0.4]), SquaredExpKernel(0.1)):
    kernel = CompositeKernel((PeriodicKernel(0.5, 24.0), second), [0.5, 0.5])
    model = fit(HyperParams(kernel, 1.0), window)
    yhat = predict_batch(model, queries)
    grads = loss_hyper_gradient_batch(model, theta_jacobian(model), queries, queries.targets)
    assert np.isfinite(yhat).all() and np.isfinite(grads).all()
    print(loaded())
"""
    assert _run_isolated(code).splitlines() == ["[]", "[]"]


class TestBuildFeatures:
    def test_direct_construction(self):
        series = TimeSeries([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
        ds = build_features(series, lag_order=2)
        assert len(ds) == 2
        assert np.array_equal(ds.lags, [[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(ds.targets, [3.0, 4.0])
        assert np.array_equal(ds.times, [2.0, 3.0])

    def test_maximal_lag_gives_single_pair(self):
        series = TimeSeries(range(5), [1.0, 2.0, 3.0, 4.0, 5.0])
        ds = build_features(series, lag_order=4)
        assert len(ds) == 1
        assert np.array_equal(ds.lags[0], [1.0, 2.0, 3.0, 4.0])
        assert ds.targets[0] == 5.0

    def test_round_trip(self):
        # first lag vector + all targets reproduce the series
        rng = np.random.default_rng(0)
        values = rng.normal(size=30)
        series = TimeSeries(range(30), values)
        ds = build_features(series, lag_order=7)
        rebuilt = np.concatenate([ds.lags[0], ds.targets])
        assert np.array_equal(rebuilt, values)

    def test_lag_vectors_match_source_slices(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=40)
        series = TimeSeries(range(40), values)
        p = 5
        ds = build_features(series, p)
        for k in range(len(ds)):
            target_pos = p + k
            assert np.array_equal(ds.lags[k], values[target_pos - p : target_pos])
            assert ds.targets[k] == values[target_pos]

    def test_horizon_shifts_lags(self):
        values = np.arange(10.0)
        series = TimeSeries(range(10), values)
        ds = build_features(series, lag_order=3, horizon=2)
        # target at t=4 sees values ending 2 steps earlier: (0, 1, 2)
        assert ds.times[0] == 4.0
        assert np.array_equal(ds.lags[0], [0.0, 1.0, 2.0])
        assert ds.targets[0] == 4.0

    def test_too_short_rejected(self):
        series = TimeSeries([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            build_features(series, lag_order=2)

    def test_slice_and_query(self):
        series = TimeSeries(range(10), np.arange(10.0))
        ds = build_features(series, 2)
        part = ds.slice(1, 4)
        assert len(part) == 3
        q = part.query(0)
        assert q.t == ds.times[1]
        assert np.array_equal(q.x, ds.lags[1])


class TestLoadCsv(object):
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_rows(self, tmp_path):
        path = self.write(tmp_path, "timestamp,value\n0,1.5\n1,2.5\n")
        series = load_csv(path)
        assert len(series) == 2
        assert np.array_equal(series.values, [1.5, 2.5])

    def test_whitespace_values_parsed(self, tmp_path):
        path = self.write(tmp_path, "timestamp,value\n0,  1.5 \n1, 2.5\n")
        series = load_csv(path)
        assert np.array_equal(series.values, [1.5, 2.5])

    def test_out_of_order_names_first_offending_row(self, tmp_path):
        path = self.write(tmp_path, "timestamp,value\n0,1.0\n5,2.0\n3,3.0\n")
        with pytest.raises(DataError, match="row 4"):
            load_csv(path)

    def test_missing_values_reported_with_rows(self, tmp_path):
        path = self.write(tmp_path, "timestamp,value\n0,1.0\n1,\n2,x\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "row 3" in str(err.value)
        assert "row 4" in str(err.value)

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "time,value\n0,1.0\n")
        with pytest.raises(DataError, match="timestamp"):
            load_csv(path)

    def test_custom_columns(self, tmp_path):
        path = self.write(tmp_path, "t,flow\n0,1.0\n1,2.0\n")
        series = load_csv(path, timestamp_column="t", value_column="flow")
        assert len(series) == 2

    def test_iso_timestamps(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,value\n2017-01-01T00:00:00+00:00,1.0\n2017-01-01T00:15:00+00:00,2.0\n",
        )
        series = load_csv(path)
        assert series.timestamps[1] - series.timestamps[0] == 900

    def test_naive_iso_timestamps_are_utc_in_every_time_zone(self, tmp_path):
        # POSIX rules, which need no time zone database: New York and Tokyo
        # in winter, with New York crossing into daylight saving time
        path = self.write(
            tmp_path,
            "timestamp,value\n2024-01-01T00:00:00,1.0\n2024-03-10T06:30:00,2.0\n"
            "2024-03-10T07:30:00,3.0\n2024-03-10T18:00:00+01:00,4.0\n",
        )
        code = f"from mkridge.data import load_csv; print(load_csv({str(path)!r}).timestamps.tolist())"
        seen = {
            tz: _run_isolated(code, TZ=tz)
            for tz in ("UTC", "EST+5EDT,M3.2.0/2,M11.1.0", "JST-9")
        }
        assert set(seen.values()) == {"[1704067200, 1710052200, 1710055800, 1710090000]"}, seen


class TestBinSeries:
    def test_one_day_of_minutes_into_quarter_hours(self):
        series = TimeSeries(range(1440), np.ones(1440))
        out = bin_series(series, 15, aggregator="mean")
        assert len(out) == 96

    def test_unit_width_is_identity(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(range(20), rng.normal(size=20))
        out = bin_series(series, 1)
        assert np.array_equal(out.timestamps, series.timestamps)
        assert np.array_equal(out.values, series.values)

    def test_mean_of_constant(self):
        series = TimeSeries(range(30), np.full(30, 4.25))
        out = bin_series(series, 5, aggregator="mean")
        assert np.all(out.values == 4.25)

    def test_sum_aggregator(self):
        series = TimeSeries(range(10), np.ones(10))
        out = bin_series(series, 5, aggregator="sum")
        assert np.array_equal(out.values, [5.0, 5.0])

    def test_strict_mode_rejects_empty_bins(self):
        series = TimeSeries([0, 1, 30, 31], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="empty bins"):
            bin_series(series, 10)

    def test_lenient_mode_forward_fills(self):
        series = TimeSeries([0, 1, 30, 31], [1.0, 2.0, 3.0, 4.0])
        out = bin_series(series, 10, aggregator="mean", mode="lenient")
        assert np.array_equal(out.values, [1.5, 1.5, 1.5, 3.5])

    def test_strict_bin_count(self):
        # aligned input with no empty bins: ceil(span / width) outputs
        rng = np.random.default_rng(3)
        for width in (1, 3, 7, 15):
            n = int(rng.integers(3, 200))
            series = TimeSeries(range(n), rng.normal(size=n))
            out = bin_series(series, width)
            assert len(out) == -(-n // width)

    def test_empty_series_rejected(self):
        series = TimeSeries(np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(DataError):
            bin_series(series, 5)
