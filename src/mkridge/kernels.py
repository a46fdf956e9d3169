"""Kernel families over (time index, lag vector) observations.

Each observation is a :class:`TimedPoint`: an integer-like time index ``t``
together with a vector ``x`` of lagged values. Three base kernels are
provided:

* :class:`PeriodicKernel` on the time difference ``dt = |t - t'|``:
  ``exp(-scale * sin^2(pi * dt / period))``
* :class:`SquaredExpKernel` on lag vectors:
  ``exp(-scale * ||x - x'||^2)``
* :class:`ArdKernel`, the per-coordinate generalization:
  ``exp(-sum_i scales[i] * (x_i - x'_i)^2)``

``scale`` parameters are reciprocal (squared) length scales, so larger
values mean faster decay. A :class:`CompositeKernel` mixes base kernels
with convex weights; every base kernel equals 1 on identical inputs, so a
composite Gram matrix has ``sum(weights)`` on its diagonal.

All scalar kernel hyperparameters are addressable through one flat index
(component parameters in declaration order, then the mixture weights).
Every base kernel has four evaluators, and the composite mixes the same
four:

* ``block(times, lags)``: the Gram matrix of a window;
* ``block_contract(times, lags, gram, v, ...)``: every Gram derivative
  applied to a vector, ``(dA/d lam_i) v``, from the Gram ``block`` already
  built for the same window and without building the derivative matrices
  (the ARD columns come from one matrix product, see
  :meth:`ArdKernel.block_contract`);
* ``iter_block_derivs(times, lags)``: the Gram derivatives themselves, in
  flat order; the materialized path, kept as the one oracle of the
  derivative code and the finite-difference tests;
* ``cross_many(ts, xs, times, lags)``: cross values of a block of queries.

The query side of the hyper-gradient is
:meth:`CompositeKernel.cross_contract`: cross values and every cross
derivative applied to a vector. Its periodic and SE parts come from those
kernels' ``cross_derivs_many`` (cross values with their derivatives), its
ARD part from :meth:`ArdKernel.cross_contract`, the query-side twin of
``block_contract``, which builds no ``(queries, n, p)`` tensor.

``CompositeKernel.cross`` and :func:`cross_vector` are one-row views of
``cross_contract``, and :func:`gram_derivative` picks one item of
``iter_block_derivs``. ``CompositeKernel.cross_derivs_all``, the oracle of
the cross derivatives, is row 0 of every Gram derivative of the window with
the query in front. The ARD cross values are :meth:`ArdKernel.cross_many`'s
on every path. Gram matrices are exactly symmetric: the lag kernels are
assembled from their upper triangle and mirrored, and the periodic kernel
depends on ``|dt|``.

On a uniform integer time grid (a synthetic stream, a binned CSV) the
periodic kernel's matrices are Toeplitz, and every periodic evaluator but
``iter_block_derivs`` runs ``sin`` and ``exp`` on the distinct differences
only (:func:`_eval_dt`), with the same bits as the dense evaluation.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import islice
from typing import Iterator, Union

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

__all__ = [
    "TimedPoint",
    "PeriodicKernel",
    "SquaredExpKernel",
    "ArdKernel",
    "CompositeKernel",
    "KernelComponent",
    "eval_periodic",
    "eval_se",
    "eval_ard",
    "gram",
    "cross_vector",
    "cross_matrix",
    "gram_derivative",
    "window_arrays",
]

SIMPLEX_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a read-only array, copying only if it is writeable."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TimedPoint:
    """One observation location: time index ``t`` plus lag vector ``x``."""

    t: float
    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("lag vector must be a non-empty 1-d array")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "t", float(self.t))


def window_arrays(window) -> tuple[np.ndarray, np.ndarray]:
    """Extract ``(times, lags)`` arrays from a window.

    Accepts anything exposing ``times``/``lags`` array attributes (such as a
    dataset) or a sequence of :class:`TimedPoint`.
    """
    times = getattr(window, "times", None)
    lags = getattr(window, "lags", None)
    if times is not None and lags is not None:
        times = np.asarray(times, dtype=float)
        lags = np.asarray(lags, dtype=float)
    else:
        points = list(window)
        if not points:
            raise ValueError("window must contain at least one point")
        times = np.array([p.t for p in points], dtype=float)
        lags = np.vstack([p.x for p in points]).astype(float)
    if len(times) == 0:
        raise ValueError("window must contain at least one point")
    if lags.shape[0] != times.shape[0]:
        raise ValueError("times and lag rows must have equal length")
    return times, lags


def _sq_dists(rows: np.ndarray) -> np.ndarray:
    # upper triangle via pdist, mirrored by squareform: exactly symmetric
    return squareform(pdist(rows, "sqeuclidean"), checks=False)


def _abs_dt(ts: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.abs(ts[:, None] - times[None, :])


_EXACT_TIME = 2.0**52  # integers below this differ by exactly representable amounts


def _on_one_grid(ts: np.ndarray, times: np.ndarray) -> bool:
    """True if all times are integers below 2**52 and every consecutive
    difference within ``ts`` and within ``times`` equals one common step.

    Then ``|ts[q] - times[j]|`` is computed exactly and depends only on
    ``q - j``. A window evaluated against itself (``ts is times``) is tested
    once.
    """
    if ts.size == 0 or times.size == 0:
        return False
    step = None
    for a in (ts,) if ts is times else (ts, times):
        if not (np.abs(a).max() < _EXACT_TIME and (np.trunc(a) == a).all()):
            return False
        if a.size > 1:
            steps = a[1:] - a[:-1]
            if step is None:
                step = steps[0]
            if not (steps == step).all():
                return False
    return True


def _toeplitz(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The Toeplitz matrix with first column ``col`` and first row ``row``
    (``row[0]`` is not used), gathered from one strided view."""
    values = np.concatenate((row[:0:-1], col))
    # entry (i, j) of the view is values[len(row) - 1 + i - j]: col[i - j]
    # below the diagonal, row[j - i] above it. The raw constructor because at
    # n = 96 sliding_window_view (20 us) and as_strided (15 us) cost as much
    # as scipy's toeplitz; this view and its copy take 6 us.
    step = values.itemsize
    view = np.ndarray(
        (col.size, row.size), values.dtype, values, (row.size - 1) * step, (step, -step)
    )
    return view.copy()


def _eval_dt(f, ts: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """``f(|ts[:, None] - times[None, :]|)`` for an elementwise ``f`` that
    returns a tuple of arrays.

    On one grid (:func:`_on_one_grid`) the matrices are Toeplitz: ``f`` runs
    on the ``len(ts) + len(times)`` differences of their first column and
    row, and the results are gathered. Each element passes the same
    difference through the same contiguous float64 operations as in the
    dense evaluation, so both give the same bits.
    """
    if not _on_one_grid(ts, times):
        return f(_abs_dt(ts, times))
    first_col = f(np.abs(ts - times[0]))
    first_row = f(np.abs(ts[0] - times))
    return tuple(_toeplitz(c, r) for c, r in zip(first_col, first_row))


def _sq_dists_to(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    d = rows - x
    return np.einsum("ij,ij->i", d, d)


@dataclass(frozen=True)
class PeriodicKernel:
    """Periodic kernel on the time index, ``exp(-scale * sin^2(pi*dt/period))``."""

    scale: float
    period: float

    def __post_init__(self) -> None:
        if not 0 < self.scale < np.inf:
            raise ValueError(f"periodic scale must be positive and finite, got {self.scale}")
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")

    @property
    def n_params(self) -> int:
        return 2

    @property
    def param_kinds(self) -> tuple[str, ...]:
        return ("scale", "period")

    def params(self) -> np.ndarray:
        return np.array([self.scale, self.period])

    def with_params(self, values) -> "PeriodicKernel":
        return PeriodicKernel(float(values[0]), float(values[1]))

    def from_dt(self, dt):
        return np.exp(-self.scale * np.sin(np.pi * dt / self.period) ** 2)

    def _values(self, dt):
        return (self.from_dt(dt),)

    def block(self, times, lags) -> np.ndarray:
        return _eval_dt(self._values, times, times)[0]

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        return _eval_dt(self._values, ts, times)[0]

    def _value_and_derivs(self, dt):
        """Kernel values at ``dt`` and their scale and period derivatives."""
        u = np.pi * dt / self.period
        s = np.sin(u)
        k = np.exp(-self.scale * s**2)
        return k, -(s**2) * k, self.scale * np.pi * dt / self.period**2 * np.sin(2 * u) * k

    def _derivs(self, dt):
        return self._value_and_derivs(dt)[1:]

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        _, d_scale, d_period = self._value_and_derivs(_abs_dt(times, times))
        yield d_scale
        yield d_period

    def block_contract(self, times, lags, gram, v, w, out) -> np.ndarray:
        """Fills ``out[:, j]`` with ``(w * dB/d p_j) @ v`` and returns ``B @ v``,
        given ``gram = block(times, lags)``."""
        d_scale, d_period = _eval_dt(self._derivs, times, times)
        out[:, 0] = (w * d_scale) @ v
        out[:, 1] = (w * d_period) @ v
        return gram @ v

    def cross_derivs_many(self, ts, xs, times, lags, out) -> np.ndarray:
        """Cross matrix of many queries; fills ``out[:, j]`` with its derivative
        w.r.t. parameter ``j``."""
        k, out[:, 0], out[:, 1] = _eval_dt(self._value_and_derivs, ts, times)
        return k


@dataclass(frozen=True)
class SquaredExpKernel:
    """Squared exponential kernel on lag vectors, ``exp(-scale * ||x-x'||^2)``."""

    scale: float

    def __post_init__(self) -> None:
        if not 0 <= self.scale < np.inf:
            raise ValueError(f"scale must be nonnegative and finite, got {self.scale}")

    @property
    def n_params(self) -> int:
        return 1

    @property
    def param_kinds(self) -> tuple[str, ...]:
        return ("scale",)

    def params(self) -> np.ndarray:
        return np.array([self.scale])

    def with_params(self, values) -> "SquaredExpKernel":
        return SquaredExpKernel(float(values[0]))

    def block(self, times, lags) -> np.ndarray:
        return np.exp(-self.scale * _sq_dists(lags))

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        return np.exp(-self.scale * cdist(xs, lags, "sqeuclidean"))

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        d2 = _sq_dists(lags)
        yield -d2 * np.exp(-self.scale * d2)

    def block_contract(self, times, lags, gram, v, w, out) -> np.ndarray:
        """Fills ``out[:, 0]`` with ``(w * dB/d scale) @ v`` and returns ``B @ v``,
        given ``gram = block(times, lags)``."""
        out[:, 0] = (w * (-_sq_dists(lags) * gram)) @ v
        return gram @ v

    def cross_derivs_many(self, ts, xs, times, lags, out) -> np.ndarray:
        """Cross matrix of many queries; fills ``out[:, j]`` with its derivative
        w.r.t. parameter ``j``."""
        d2 = np.vstack([_sq_dists_to(x, lags) for x in xs])
        k = np.exp(-self.scale * d2)
        out[:, 0] = -d2 * k
        return k


@dataclass(frozen=True, eq=False)
class ArdKernel:
    """Automatic-relevance kernel: ``exp(-sum_i scales[i] * (x_i - x'_i)^2)``.

    One nonnegative scale per lag coordinate; coordinates with scale 0 are
    ignored entirely.
    """

    scales: np.ndarray

    def __post_init__(self) -> None:
        s = np.atleast_1d(np.asarray(self.scales, dtype=float))
        if s.ndim != 1 or s.size < 1:
            raise ValueError("ARD scales must be a non-empty 1-d array")
        if not np.all((0 <= s) & (s < np.inf)):
            raise ValueError("ARD scales must be nonnegative and finite")
        object.__setattr__(self, "scales", _readonly(s))

    @property
    def n_params(self) -> int:
        return self.scales.size

    @property
    def param_kinds(self) -> tuple[str, ...]:
        return ("scale",) * self.scales.size

    def params(self) -> np.ndarray:
        return self.scales.copy()

    def with_params(self, values) -> "ArdKernel":
        return ArdKernel(np.asarray(values, dtype=float))

    def _check_dim(self, lags) -> None:
        if lags.shape[1] != self.scales.size:
            raise ValueError(
                f"ARD kernel expects {self.scales.size} lags, got {lags.shape[1]}"
            )

    def block(self, times, lags) -> np.ndarray:
        self._check_dim(lags)
        b = _sq_dists(lags * np.sqrt(self.scales))
        np.negative(b, out=b)
        return np.exp(b, out=b)

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        self._check_dim(lags)
        root = np.sqrt(self.scales)
        return np.exp(-cdist(xs * root, lags * root, "sqeuclidean"))

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        base = self.block(None, lags)
        for j in range(self.n_params):
            col = lags[:, j]
            d = col[:, None] - col[None, :]
            yield -(d * d) * base

    def block_contract(self, times, lags, gram, v, w, out) -> np.ndarray:
        """Fills ``out[:, j]`` with ``(w * dB/d s_j) @ v`` and returns ``B @ v``,
        given ``gram = block(times, lags)``.

        ``dB/d s_j = -(x_j - x_j')^2 * B`` expands to
        ``-(X_j^2 * (B v) - 2 X_j * (B (v * X_j)) + B (v * X_j^2))``, so every
        column comes from one ``(n, n) @ (n, 2p + 1)`` product. Two things
        keep the three terms small where they cancel: the product uses ``B``
        without its diagonal, which ``dB/d s_j`` does not have either, and the
        lag columns are centred, which leaves every difference unchanged.
        """
        bv = gram @ v
        base = gram.copy()  # the caller keeps gram, diagonal included
        np.fill_diagonal(base, 0.0)
        mean, moments = _lag_moments(lags, v)
        _expand_contraction(lags - mean, base @ moments, w, out)
        return bv

    def cross_contract(self, ts, xs, times, lags, v, w, out) -> np.ndarray:
        """Fills ``out[q, j]`` with ``(w * dk_q/d s_j) @ v`` and returns the
        cross matrix ``k = cross_many(ts, xs, times, lags)``.

        The query-side twin of :meth:`block_contract`: with query and window
        lags centred by the window's lag mean, ``dk_q/d s_j`` applied to
        ``v`` is ``-(xq_j^2 (k_q v) - 2 xq_j (k_q (v X_j)) + k_q (v X_j^2))``.
        Each query takes one ``(1, n) @ (n, 2p + 1)`` product, so its row does
        not depend on the other queries of the block; one ``(m, n)`` product
        would round differently for different blocks.
        """
        k = self.cross_many(ts, xs, times, lags)
        mean, moments = _lag_moments(lags, v)
        _expand_contraction(xs - mean, (k[:, None, :] @ moments)[:, 0], w, out)
        return k


def _lag_moments(lags: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lags' column means and ``v[:, None] * [1, X, X^2]`` of the centred
    lags ``X``, shape ``(n, 2p + 1)``."""
    mean = lags.mean(axis=0)
    x = lags - mean
    return mean, v[:, None] * np.hstack([np.ones((len(v), 1)), x, x * x])


def _expand_contraction(xq: np.ndarray, kx: np.ndarray, w: float, out: np.ndarray) -> None:
    """``out[q, j] = w * -(xq_j^2 kx_0 - 2 xq_j kx_{1+j} + kx_{1+p+j})``, the
    ARD derivative contraction from the products ``kx`` of a kernel block
    with :func:`_lag_moments`."""
    p = xq.shape[1]
    out[:] = w * -(xq * xq * kx[:, :1] - 2.0 * xq * kx[:, 1 : p + 1] + kx[:, p + 1 :])


KernelComponent = Union[PeriodicKernel, SquaredExpKernel, ArdKernel]


@dataclass(frozen=True, eq=False)
class CompositeKernel:
    """Convex combination of base kernels.

    ``weights`` live on the probability simplex whenever ``require_simplex``
    is true (the default). Derivative routines accept off-simplex weights so
    that finite-difference probes of individual coordinates remain valid.
    """

    components: tuple[KernelComponent, ...]
    weights: np.ndarray
    require_simplex: InitVar[bool] = True

    def __post_init__(self, require_simplex: bool) -> None:
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("composite kernel needs at least one component")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (len(comps),):
            raise ValueError(
                f"got {w.size} weights for {len(comps)} components"
            )
        if require_simplex:
            if not abs(float(w.sum()) - 1.0) <= SIMPLEX_TOL:  # a NaN weight fails too
                raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
            if np.any(w < 0):
                raise ValueError("mixture weights must be nonnegative")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_scalars(self) -> int:
        """Number of scalar kernel hyperparameters (component params + weights)."""
        return sum(c.n_params for c in self.components) + self.n_components

    def scalar_kinds(self) -> list[str]:
        kinds: list[str] = []
        for c in self.components:
            kinds.extend(c.param_kinds)
        kinds.extend(["mixture"] * self.n_components)
        return kinds

    def scalars(self) -> np.ndarray:
        """Flat hyperparameter vector: component params in order, then weights."""
        parts = [c.params() for c in self.components]
        parts.append(self.weights)
        return np.concatenate(parts)

    def with_scalars(self, values, require_simplex: bool = True) -> "CompositeKernel":
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_scalars,):
            raise ValueError(f"expected {self.n_scalars} scalars, got {values.shape}")
        comps = []
        pos = 0
        for c in self.components:
            comps.append(c.with_params(values[pos : pos + c.n_params]))
            pos += c.n_params
        w = values[pos:]
        return CompositeKernel(tuple(comps), w, require_simplex=require_simplex)

    # -- evaluation -------------------------------------------------------

    def mix(self, blocks) -> np.ndarray:
        """Weighted sum of per-component matrices, in component order, as a
        new array."""
        out = self.weights[0] * blocks[0]
        for w, b in zip(self.weights[1:], blocks[1:]):
            out += w * b
        return out

    def component_blocks(self, times, lags) -> list[np.ndarray]:
        return [c.block(times, lags) for c in self.components]

    def block(self, times, lags) -> np.ndarray:
        return self.mix(self.component_blocks(times, lags))

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        # The batch predictor. The gradient and cross() take their values from
        # cross_contract instead: the ARD values are the same (cross_many's),
        # but the SE values there come from the einsum distances of
        # cross_derivs_many, and OHL's updates can amplify a last-digit change
        # until it shows in the forecasts.
        return self.mix([c.cross_many(ts, xs, times, lags) for c in self.components])

    # -- derivatives ------------------------------------------------------

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        """All Gram derivatives in flat scalar order (params first, then weights)."""
        for w, c in zip(self.weights, self.components):
            for d in c.iter_block_derivs(times, lags):
                yield w * d
        for c in self.components:
            yield c.block(times, lags)

    def block_contract(self, times, lags, blocks, v) -> np.ndarray:
        """Every Gram derivative applied to ``v``, shape ``(len(times), n_scalars)``.

        ``blocks`` are the component Grams of the window,
        ``component_blocks(times, lags)``; no Gram is built here. Column ``i``
        is ``(dA/d lam_i) v`` in flat scalar order. The periodic
        and SE columns are the matrix-vector products of the matrices
        :meth:`iter_block_derivs` yields, and each weight column is
        ``block @ v``, so all of these are bit-identical to the materialized
        path; only the ARD columns are contracted differently.
        """
        out = np.empty((len(times), self.n_scalars))
        pos = 0
        for i, (w, c, b) in enumerate(zip(self.weights, self.components, blocks)):
            value = c.block_contract(times, lags, b, v, w, out[:, pos : pos + c.n_params])
            out[:, self.n_scalars - self.n_components + i] = value
            pos += c.n_params
        return out

    @property
    def cross_rows(self) -> list[int]:
        """Flat indices of the derivatives :meth:`cross_contract` materializes:
        all but the ARD parameters', which it contracts on the query side."""
        owners = [c for c in self.components for _ in range(c.n_params)]
        owners += [None] * self.n_components  # the weights
        return [i for i, c in enumerate(owners) if not isinstance(c, ArdKernel)]

    def cross_contract(self, ts, xs, times, lags, v) -> tuple[np.ndarray, np.ndarray]:
        """Cross vectors of many queries, and ``dkv[q, i] = (dk_q/d lam_i) @ v``.

        The ARD columns come from :meth:`ArdKernel.cross_contract`, without
        the ``(queries, n, p)`` tensor. The :attr:`cross_rows` are the
        periodic and SE derivatives of ``cross_derivs_many`` and the
        component cross values, applied to ``v`` as stacked one-query
        products. Row ``q`` does not depend on the other queries of the block.
        """
        rows = self.cross_rows
        dk = np.empty((len(ts), len(rows), len(times)))
        dkv = np.empty((len(ts), self.n_scalars))
        ks = []
        pos = row = 0
        for w, c in zip(self.weights, self.components):
            if isinstance(c, ArdKernel):
                ks.append(c.cross_contract(ts, xs, times, lags, v, w, dkv[:, pos : pos + c.n_params]))
            else:
                block = dk[:, row : row + c.n_params]
                ks.append(c.cross_derivs_many(ts, xs, times, lags, block))
                block *= w
                row += c.n_params
            pos += c.n_params
        for k in ks:
            dk[:, row] = k
            row += 1
        dkv[:, rows] = dk @ v
        return self.mix(ks), dkv

    def cross(self, t, x, times, lags) -> np.ndarray:
        """Cross vector of one query, shape ``(len(times),)``: the values of a
        one-row :meth:`cross_contract`, the hyper-gradient's path."""
        ts = np.array([t], dtype=float)
        xs = np.asarray(x, dtype=float)[None, :]
        return self.cross_contract(ts, xs, times, lags, np.zeros(len(times)))[0][0]

    def cross_derivs_all(self, t, x, times, lags) -> np.ndarray:
        """Cross-vector derivatives of one query, shape ``(n_scalars, len(times))``.

        The materialized oracle: row 0, columns 1 on, of every Gram
        derivative (:meth:`iter_block_derivs`) of the window with the query
        in front.
        """
        ts = np.concatenate(([t], times))
        xs = np.vstack((np.asarray(x, dtype=float)[None, :], lags))
        return np.array([d[0, 1:] for d in self.iter_block_derivs(ts, xs)])


# -- module-level operations ----------------------------------------------


def eval_periodic(dt: float, params: PeriodicKernel) -> float:
    """Periodic kernel value for a time difference ``dt`` (in steps)."""
    if dt < 0:
        raise ValueError(f"time difference must be nonnegative, got {dt}")
    return float(params.from_dt(float(dt)))


def eval_se(x, x2, params: SquaredExpKernel) -> float:
    """Squared exponential kernel value for a pair of lag vectors."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise ValueError(f"lag vectors differ in shape: {x.shape} vs {x2.shape}")
    d = x - x2
    return float(np.exp(-params.scale * (d @ d)))


def eval_ard(x, x2, params: ArdKernel) -> float:
    """ARD kernel value for a pair of lag vectors."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise ValueError(f"lag vectors differ in shape: {x.shape} vs {x2.shape}")
    if x.shape != params.scales.shape:
        raise ValueError(
            f"lag vectors of length {x.size} do not match {params.scales.size} ARD scales"
        )
    d = x - x2
    return float(np.exp(-(d * d) @ params.scales))


def gram(spec: CompositeKernel, window) -> np.ndarray:
    """Composite Gram matrix over a window of observations."""
    times, lags = window_arrays(window)
    return spec.block(times, lags)


def cross_vector(spec: CompositeKernel, query: TimedPoint, window) -> np.ndarray:
    """Composite kernel values between one query point and every window point."""
    times, lags = window_arrays(window)
    if query.x.shape[0] != lags.shape[1]:
        raise ValueError(
            f"query lag vector of length {query.x.shape[0]} does not match window "
            f"lag order {lags.shape[1]}"
        )
    return spec.cross(query.t, query.x, times, lags)


def cross_matrix(spec: CompositeKernel, queries, window) -> np.ndarray:
    """Cross kernel matrix between query points (rows) and window points (columns)."""
    qt, qx = window_arrays(queries)
    times, lags = window_arrays(window)
    if qx.shape[1] != lags.shape[1]:
        raise ValueError(
            f"query lag order {qx.shape[1]} does not match window lag order {lags.shape[1]}"
        )
    return spec.cross_many(qt, qx, times, lags)


def gram_derivative(spec: CompositeKernel, window, which: int) -> np.ndarray:
    """Entrywise derivative of the composite Gram matrix w.r.t. one scalar.

    ``which`` indexes the flat kernel hyperparameter vector (component
    parameters, then mixture weights). The ridge constant is not a kernel
    hyperparameter and is rejected.
    """
    if not 0 <= which < spec.n_scalars:
        raise ValueError(
            f"index {which} addresses the ridge term or is out of range "
            f"(kernel has {spec.n_scalars} scalar hyperparameters)"
        )
    times, lags = window_arrays(window)
    return next(islice(spec.iter_block_derivs(times, lags), which, None))

