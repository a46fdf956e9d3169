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
(component parameters in declaration order, then the mixture weights), and
analytic derivatives of Gram matrices and cross vectors are available for
every index. ``cross_derivs_many`` evaluates cross vectors and all their
derivatives for a block of queries at once, elementwise, so each query's
numbers equal a one-query evaluation bit for bit. Gram matrices are
assembled from their upper triangle and mirrored, so they are exactly
symmetric.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterator, Sequence, Union

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


def _abs_dt(times: np.ndarray) -> np.ndarray:
    return squareform(pdist(times[:, None], "cityblock"), checks=False)


def _sq_dists_to(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    d = rows - x
    return np.einsum("ij,ij->i", d, d)


@dataclass(frozen=True)
class PeriodicKernel:
    """Periodic kernel on the time index, ``exp(-scale * sin^2(pi*dt/period))``."""

    scale: float
    period: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"periodic scale must be positive, got {self.scale}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")

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

    def block(self, times, lags) -> np.ndarray:
        return self.from_dt(_abs_dt(times))

    def cross(self, t, x, times, lags) -> np.ndarray:
        return self.from_dt(np.abs(times - t))

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        return self.from_dt(np.abs(ts[:, None] - times[None, :]))

    def _value_and_derivs(self, dt):
        """Kernel values at ``dt`` and their scale and period derivatives."""
        u = np.pi * dt / self.period
        s = np.sin(u)
        k = np.exp(-self.scale * s**2)
        return k, -(s**2) * k, self.scale * np.pi * dt / self.period**2 * np.sin(2 * u) * k

    def block_deriv(self, j, times, lags) -> np.ndarray:
        if j not in (0, 1):
            raise IndexError(f"periodic kernel has 2 parameters, index {j} out of range")
        return self._value_and_derivs(_abs_dt(times))[1 + j]

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        _, d_scale, d_period = self._value_and_derivs(_abs_dt(times))
        yield d_scale
        yield d_period

    def cross_derivs_many(self, ts, xs, times, lags, out) -> np.ndarray:
        """Cross matrix of many queries; fills ``out[:, j]`` with its derivative
        w.r.t. parameter ``j``, row by row as :meth:`cross` would compute it."""
        k, out[:, 0], out[:, 1] = self._value_and_derivs(np.abs(ts[:, None] - times[None, :]))
        return k


@dataclass(frozen=True)
class SquaredExpKernel:
    """Squared exponential kernel on lag vectors, ``exp(-scale * ||x-x'||^2)``."""

    scale: float

    def __post_init__(self) -> None:
        if not self.scale >= 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")

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

    def cross(self, t, x, times, lags) -> np.ndarray:
        return np.exp(-self.scale * _sq_dists_to(x, lags))

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        return np.exp(-self.scale * cdist(xs, lags, "sqeuclidean"))

    def block_deriv(self, j, times, lags) -> np.ndarray:
        if j != 0:
            raise IndexError(f"squared exponential kernel has 1 parameter, index {j} out of range")
        d2 = _sq_dists(lags)
        return -d2 * np.exp(-self.scale * d2)

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        yield self.block_deriv(0, times, lags)

    def cross_derivs_many(self, ts, xs, times, lags, out) -> np.ndarray:
        """Cross matrix of many queries; fills ``out[:, j]`` with its derivative
        w.r.t. parameter ``j``, row by row as :meth:`cross` would compute it."""
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
        if np.any(s < 0):
            raise ValueError("ARD scales must be nonnegative")
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
        return np.exp(-_sq_dists(lags * np.sqrt(self.scales)))

    def cross(self, t, x, times, lags) -> np.ndarray:
        self._check_dim(lags)
        d = lags - x
        return np.exp(-(d * d) @ self.scales)

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        self._check_dim(lags)
        root = np.sqrt(self.scales)
        return np.exp(-cdist(xs * root, lags * root, "sqeuclidean"))

    def block_deriv(self, j, times, lags) -> np.ndarray:
        if not 0 <= j < self.n_params:
            raise IndexError(f"ARD kernel has {self.n_params} parameters, index {j} out of range")
        col = lags[:, j]
        d = col[:, None] - col[None, :]
        return -(d * d) * self.block(None, lags)

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        base = self.block(None, lags)
        for j in range(self.n_params):
            col = lags[:, j]
            d = col[:, None] - col[None, :]
            yield -(d * d) * base

    def cross_derivs_many(self, ts, xs, times, lags, out) -> np.ndarray:
        """Cross matrix of many queries; fills ``out[:, j]`` with its derivative
        w.r.t. parameter ``j``, row by row as :meth:`cross` would compute it."""
        self._check_dim(lags)
        sq = lags[None, :, :] - xs[:, None, :]
        sq *= sq
        k = np.exp(-(sq @ self.scales))  # one (|W|, p) @ (p,) product per query, as in cross()
        np.negative(sq.transpose(0, 2, 1), out=out)
        out *= k[:, None, :]
        return k


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
            if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
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

    def _locate(self, which: int) -> tuple[str, int, int]:
        """Map a flat scalar index to ('param', m, j) or ('weight', m, 0)."""
        if not 0 <= which < self.n_scalars:
            raise ValueError(
                f"index {which} addresses the ridge term or is out of range "
                f"(kernel has {self.n_scalars} scalar hyperparameters)"
            )
        pos = 0
        for m, c in enumerate(self.components):
            if which < pos + c.n_params:
                return "param", m, which - pos
            pos += c.n_params
        return "weight", which - pos, 0

    # -- evaluation -------------------------------------------------------

    def _mix(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Weighted sum of per-component matrices, in component order."""
        out = self.weights[0] * blocks[0]
        for w, b in zip(self.weights[1:], blocks[1:]):
            out += w * b
        return out

    def component_blocks(self, times, lags) -> list[np.ndarray]:
        return [c.block(times, lags) for c in self.components]

    def block(self, times, lags) -> np.ndarray:
        return self._mix(self.component_blocks(times, lags))

    def cross(self, t, x, times, lags) -> np.ndarray:
        out = self.weights[0] * self.components[0].cross(t, x, times, lags)
        for w, c in zip(self.weights[1:], self.components[1:]):
            out += w * c.cross(t, x, times, lags)
        return out

    def cross_many(self, ts, xs, times, lags) -> np.ndarray:
        return self._mix([c.cross_many(ts, xs, times, lags) for c in self.components])

    # -- derivatives ------------------------------------------------------

    def block_scalar_deriv(self, which: int, times, lags) -> np.ndarray:
        kind, m, j = self._locate(which)
        if kind == "weight":
            return self.components[m].block(times, lags)
        return self.weights[m] * self.components[m].block_deriv(j, times, lags)

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        """All Gram derivatives in flat scalar order (params first, then weights)."""
        for w, c in zip(self.weights, self.components):
            for d in c.iter_block_derivs(times, lags):
                yield w * d
        for c in self.components:
            yield c.block(times, lags)

    def cross_derivs_many(self, ts, xs, times, lags) -> tuple[np.ndarray, np.ndarray]:
        """Cross vectors and all their derivatives for many queries.

        Returns ``(k, dk)``: ``k[q]`` is the cross vector of query ``q``, shape
        ``(len(ts), len(times))``, and ``dk[q, i]`` its derivative w.r.t.
        scalar ``i`` in flat order, shape ``(len(ts), n_scalars, len(times))``.
        Everything is elementwise per query, so row ``q`` equals the
        one-query :meth:`cross` / :meth:`cross_derivs_all` bit for bit.
        """
        dk = np.empty((len(ts), self.n_scalars, len(times)))
        ks = []
        pos = 0
        for w, c in zip(self.weights, self.components):
            block = dk[:, pos : pos + c.n_params]
            ks.append(c.cross_derivs_many(ts, xs, times, lags, block))
            block *= w
            pos += c.n_params
        for k in ks:
            dk[:, pos] = k
            pos += 1
        return self._mix(ks), dk

    def cross_derivs_all(self, t, x, times, lags) -> np.ndarray:
        """Cross-vector derivatives of one query, shape ``(n_scalars, len(times))``."""
        ts = np.array([t], dtype=float)
        xs = np.asarray(x, dtype=float)[None, :]
        return self.cross_derivs_many(ts, xs, times, lags)[1][0]


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
    times, lags = window_arrays(window)
    return spec.block_scalar_deriv(which, times, lags)

