"""Time-series ingestion, synthetic stream generation, binning, and lag features.

A :class:`TimeSeries` pairs strictly increasing integer timestamps with float
values. :func:`build_features` turns a series into a :class:`Dataset` of
``(time, lag-vector) -> target`` pairs ready for kernel regression.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import DataError
from .kernels import TimedPoint, _readonly

__all__ = [
    "TimeSeries",
    "Dataset",
    "SyntheticConfig",
    "BURN_IN",
    "generate_synthetic",
    "build_features",
    "load_csv",
    "bin_series",
]

BURN_IN = 100  # synthetic warm-up steps discarded before the series is emitted


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Strictly increasing integer timestamps with finite float values."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or vals.ndim != 1 or ts.size != vals.size:
            raise ValueError("timestamps and values must be 1-d arrays of equal length")
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "values", _readonly(vals))

    def __len__(self) -> int:
        return self.timestamps.size


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature/target pairs derived from a series with a fixed lag order.

    Row ``k`` holds the target's timestamp, the ``p`` observations preceding
    it (oldest first, ending ``horizon`` steps before the target), and the
    target value itself.
    """

    times: np.ndarray
    lags: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        lags = np.asarray(self.lags, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if lags.ndim != 2 or times.ndim != 1 or targets.ndim != 1:
            raise ValueError("expected times (n,), lags (n,p), targets (n,)")
        if not (times.size == lags.shape[0] == targets.size):
            raise ValueError("times, lags and targets must have equal length")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "lags", _readonly(lags))
        object.__setattr__(self, "targets", _readonly(targets))

    def __len__(self) -> int:
        return self.times.size

    @property
    def lag_order(self) -> int:
        return self.lags.shape[1]

    def slice(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.times[start:stop], self.lags[start:stop], self.targets[start:stop])

    def query(self, i: int) -> TimedPoint:
        return TimedPoint(self.times[i], self.lags[i])


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic stream ``y(t) = 1 + c1*AR(q) + c2*sin(t/omega)``.

    The AR part feeds back the previous ``ar_order`` outputs with coefficients
    ``i / (2*||(1..q)||_2)``; the normalization keeps the recursion stable for
    ``c1 <= 1``. ``length`` counts raw steps including the warm-up that is
    discarded before emission.
    """

    c1: float = 0.5
    c2: float = 0.5
    omega: float = 5.0
    ar_order: int = 20
    length: int = 1500
    seed: int = 0
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c1) and np.isfinite(self.c2)):
            raise ValueError(f"c1 and c2 must be finite, got {self.c1} and {self.c2}")
        if self.ar_order < 1:
            raise ValueError("ar_order must be >= 1")
        if self.length <= self.ar_order:
            raise ValueError("length must exceed ar_order")
        if self.length <= BURN_IN:
            raise ValueError(f"length must exceed the {BURN_IN}-step burn-in")
        if not 0 <= self.noise_sd < np.inf:  # a NaN fails too
            raise ValueError(f"noise_sd must be nonnegative and finite, got {self.noise_sd}")
        if not 0 < self.omega < np.inf:  # an infinite omega would drop the sinusoid
            raise ValueError(f"omega must be positive and finite, got {self.omega}")


def _ar_filter(drive: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter([1.0], [1.0, *a], drive)`` bit for bit: its
    transposed direct form II recursion in its order of operations, less the
    numerator's zero taps, which add only signed zeros. ``state[-1]`` stays 0.
    An overflowing series comes out non-finite, without a warning."""
    state = np.zeros(a.size + 1)
    y = np.empty_like(drive)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, x in enumerate(drive):
            y[t] = state[0] + x
            state[:-1] = state[1:] - y[t] * a
    return y


def generate_synthetic(config: SyntheticConfig) -> TimeSeries:
    """Generate the synthetic stream; deterministic given the seed.

    Missing lags during warm-up count as 0 and the first ``BURN_IN`` steps
    are dropped. Emitted timestamps keep their raw step index, so the
    sinusoid phase matches ``sin(t/omega)`` exactly. Measurement noise (if
    any) is added on top of the recursion output.
    """
    t = np.arange(config.length, dtype=float)
    drive = 1.0 + config.c2 * np.sin(t / config.omega)
    alpha = np.arange(1, config.ar_order + 1, dtype=float)
    coeffs = alpha / (2.0 * np.linalg.norm(alpha))
    clean = _ar_filter(drive, -config.c1 * coeffs)
    values = clean
    if config.noise_sd > 0:
        rng = np.random.default_rng(config.seed)
        values = clean + rng.normal(0.0, config.noise_sd, config.length)
    return TimeSeries(np.arange(BURN_IN, config.length), values[BURN_IN:])


def build_features(series: TimeSeries, lag_order: int, horizon: int = 1) -> Dataset:
    """Lagged feature construction: target at ``t`` gets the ``lag_order``
    values ending ``horizon`` steps earlier, oldest first."""
    if lag_order < 1:
        raise ValueError("lag_order must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    needed = lag_order + horizon
    if len(series) < needed:
        raise ValueError(
            f"series of length {len(series)} too short for lag order {lag_order} "
            f"and horizon {horizon}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(series.values, lag_order)
    first = lag_order + horizon - 1
    n = len(series) - first
    return Dataset(
        series.timestamps[first:].astype(float),
        windows[:n],
        series.values[first:],
    )


def _parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        instant = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"not an integer or ISO-8601 timestamp: {text!r}") from None
    if instant.tzinfo is None:  # a time without an offset is UTC, not the host's local time
        instant = instant.replace(tzinfo=timezone.utc)
    return int(instant.timestamp())


def load_csv(path, timestamp_column: str = "timestamp", value_column: str = "value") -> TimeSeries:
    """Read a two-column time series from a headered CSV file.

    Timestamps may be integers or ISO-8601 instants (converted to epoch
    seconds; an instant without a UTC offset is read as UTC). Rows with
    missing, malformed or non-finite fields are reported together by row
    number; non-increasing timestamps name the first offending row.
    """
    path = Path(path)
    timestamps: list[int] = []
    values: list[float] = []
    bad_rows: list[str] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        for col in (timestamp_column, value_column):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing column {col!r} (header: {reader.fieldnames})")
        for i, row in enumerate(reader, start=2):  # data rows start after the header
            raw_ts = row.get(timestamp_column)
            raw_val = row.get(value_column)
            if raw_ts is None or raw_val is None or not raw_ts.strip() or not raw_val.strip():
                bad_rows.append(f"row {i}: missing value")
                continue
            try:
                ts = _parse_timestamp(raw_ts)
            except ValueError as e:
                bad_rows.append(f"row {i}: {e}")
                continue
            try:
                val = float(raw_val.strip())
            except ValueError:
                bad_rows.append(f"row {i}: not a number: {raw_val.strip()!r}")
                continue
            if not math.isfinite(val):
                bad_rows.append(f"row {i}: not a finite number: {raw_val.strip()!r}")
                continue
            timestamps.append(ts)
            values.append(val)
    if bad_rows:
        raise DataError(f"{path}: " + "; ".join(bad_rows))
    if not timestamps:
        raise DataError(f"{path}: no data rows")
    ts = np.asarray(timestamps, dtype=np.int64)
    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        k = int(np.argmax(diffs <= 0))
        raise DataError(
            f"{path}: timestamps not strictly increasing at row {k + 3} "
            f"({ts[k + 1]} follows {ts[k]})"
        )
    return TimeSeries(ts, np.asarray(values, dtype=float))


def bin_series(series: TimeSeries, bin_width: int, aggregator: str = "mean", mode: str = "strict") -> TimeSeries:
    """Aggregate a series into fixed-width bins ``[k*w, (k+1)*w)``.

    Output timestamps are the bin indices ``k = timestamp // bin_width``, so
    ``bin_width=1`` on step-indexed input is the identity. Empty interior
    bins raise in strict mode and are forward-filled in lenient mode.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if aggregator not in ("sum", "mean"):
        raise ValueError(f"aggregator must be 'sum' or 'mean', got {aggregator!r}")
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    if len(series) == 0:
        raise DataError("cannot bin an empty series")
    k = series.timestamps // bin_width
    k_min, k_max = int(k[0]), int(k[-1])
    n_bins = k_max - k_min + 1
    idx = (k - k_min).astype(np.int64)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    np.add.at(sums, idx, series.values)
    np.add.at(counts, idx, 1)
    empty = counts == 0
    if np.any(empty) and mode == "strict":
        missing = np.flatnonzero(empty) + k_min
        shown = ", ".join(str(int(b)) for b in missing[:5])
        more = "" if missing.size <= 5 else f" (+{missing.size - 5} more)"
        raise DataError(f"empty bins in strict mode: {shown}{more}")
    out = sums.copy()
    occupied = ~empty
    if aggregator == "mean":
        out[occupied] = sums[occupied] / counts[occupied]
    if np.any(empty):
        # forward-fill: the first bin is never empty because k_min is occupied
        last = out[0]
        for i in range(n_bins):
            if empty[i]:
                out[i] = last
            else:
                last = out[i]
    return TimeSeries(np.arange(k_min, k_max + 1, dtype=np.int64), out)
