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
(component parameters in declaration order, then the mixture weights), whose
layout has one home, :attr:`CompositeKernel.slices`; each component's
``param_kinds`` states its parameters' count and kinds.
Every base kernel has four evaluators, and the composite mixes the same
four. All but the oracle take a :class:`WindowPlan` of the window, which
keeps what the evaluators derive from it, and the queries' as a plan too:

* ``block(times, lags)``: the Gram matrix of a window;
* ``block_contract(plan, gram, v, ..., rows)``: every Gram
  derivative applied to a vector, ``(dA/d lam_i) v``, from the Gram
  ``block`` already built for the same window. The composite lends every
  component a buffer of :func:`_row_step` rows: the periodic kernel writes
  its Gram and each derivative matrix there a block of rows at a time and
  applies it, and the ARD kernel copies its Gram's rows there without the
  diagonal (:meth:`ArdKernel.block_contract`). Only SE, which mirrors
  ``pdist``'s distances, needs an ``(n, n)`` scratch array, whose first rows
  the others then use. Every block's product with a vector has the bits of
  the whole matrix's;
* ``iter_block_derivs(times, lags)``: the Gram derivatives themselves, in
  flat order; the materialized path, kept as the one oracle of the
  derivative code and the finite-difference tests;
* ``cross_many(plan, queries)``: cross values of a block of queries.

The query side of the hyper-gradient is
:meth:`CompositeKernel.cross_contract`: cross values and every cross
derivative applied to a vector, for all queries of a batch in one call. Its
periodic and SE parts come from those kernels' ``cross_derivs_many`` (cross
values with their derivatives), its ARD part from
:meth:`ArdKernel.cross_contract`, the query-side twin of ``block_contract``,
which builds no ``(queries, n, p)`` tensor.

Its queries go in blocks whose ``(queries, rows, n)`` tensor holds at most
``_BLOCK_VALUES`` values. The ARD window side (the lag mean,
:meth:`ArdKernel.window_terms`, the lag moments of the vector applied) is
computed once per plan, however many blocks and calls read it.
``CompositeKernel.cross`` and :func:`cross_vector`
compute the values of a one-row ``cross_contract`` with its bits, and no
derivative; :func:`gram_derivative` picks one item of
``iter_block_derivs``. ``CompositeKernel.cross_derivs_all``, the oracle of
the cross derivatives, is row 0 of every Gram derivative of the window with
the query in front.

The ARD values come from one symmetric matrix product for the Gram and one
product per query for the cross values, on every path (:class:`ArdKernel`).
Gram matrices are exactly symmetric: numpy mirrors the ARD product, the SE
Gram is ``pdist``'s upper triangle mirrored, and the periodic kernel depends
on ``|dt|``. SE keeps the bits of ``scipy.spatial.distance``'s ``pdist`` and
``cdist``, since OHL's updates amplify a last-digit change of its values. It
calls the compiled routines behind them, loaded at its first evaluation
without importing ``scipy.spatial`` (:func:`_distance_routines`), so no
model loads that package.

Every periodic matrix but the oracle's is filled by :func:`_eval_dt`. On a
uniform integer time grid (a synthetic stream, a binned CSV) the matrix is
Toeplitz, and ``sin`` and ``exp`` run on the distinct differences only;
off the grid it is filled a chunk of rows at a time. Each evaluator call
asks the window's plan once which applies (:meth:`WindowPlan.on_grid`),
which knows it without a test for windows and queries cut from a stream
that :func:`grid_step` found on one grid (``Dataset.grid_step``). The
derivatives read their ``k`` factor from the values already built. Every
path gives the bits of the dense evaluation.

``CompositeKernel.component_blocks``, the Grams a fitted model keeps, holds
a periodic Gram on the grid as :meth:`PeriodicKernel.compact_block`'s
read-only strided view of its ``2n - 1`` distinct values, O(n) memory.
``CompositeKernel.mix`` writes the first weighted Gram into its output and
adds the others in place, a chunk of rows at a time, without a temporary of
the full size; its output, like every ``block`` and ``cross_many``, is a
C-ordered array.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache, cached_property, partial
from itertools import accumulate, islice
from typing import Iterator, Union

import numpy as np

from ._compiled import scipy_routines

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
    "grid_step",
    "window_arrays",
    "WindowPlan",
]

SIMPLEX_TOL = 1e-12
_BLOCK_VALUES = 1 << 17  # float64 values per block of queries' cross values or tensor (1 MB)
_CHUNK_VALUES = 1 << 12  # float64 values per chunk of an off-grid periodic matrix
_CACHE_VALUES = 1 << 15  # float64 values per row block of an n x n matrix or a mix (256 kB)


def _row_step(rows: int, cols: int, budget: int) -> int:
    """Rows per block of a ``(rows, cols)`` matrix that is built and applied to
    a vector one block of rows at a time: all rows if they fit in ``budget``
    values, else a multiple of 8 rows holding at most ``budget`` values (at
    least 8), grown by 8 while it would leave one row for the last block.

    Every block's product then has the bits of the whole matrix's on one BLAS
    thread. OpenBLAS's single-thread gemv takes a C-ordered matrix's rows in
    groups of 8, so blocks that start on a multiple of 8 rows group them as
    the whole product does; numpy computes a product of one row as a dot
    product, which rounds differently.
    """
    if rows * cols <= budget or rows == 1:
        return rows
    step = max(8, budget // cols // 8 * 8)
    while rows % step == 1:
        step += 8
    return min(step, rows)


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


@dataclass(frozen=True, eq=False)
class WindowPlan:
    """A window's ``times``, ``lags`` and stream grid step (``Dataset.grid_step``,
    or None), and what the evaluators derive from them, computed at the first
    read and kept: the grid decision, the lag mean, each ARD component's
    window terms and the lag moments of the vector contracted. ``fit`` builds
    one per model (``TrainedModel.plan``); a block of queries is a plan too."""

    times: np.ndarray
    lags: np.ndarray
    grid_step: float | None = None

    @classmethod
    def of(cls, window) -> "WindowPlan":
        """The plan of anything :func:`window_arrays` accepts."""
        return cls(*window_arrays(window), getattr(window, "grid_step", None))

    def rows(self, lo: int, hi: int) -> "WindowPlan":
        """The plan of rows ``lo:hi``, itself if that is every row."""
        if lo == 0 and hi >= len(self.times):
            return self
        return WindowPlan(self.times[lo:hi], self.lags[lo:hi], self.grid_step)

    @cached_property
    def grid(self) -> bool:
        """True if the times lie on one integer time grid: known from the
        stream's grid step, else :func:`_on_one_grid` of the times."""
        return self.grid_step is not None or _on_one_grid(self.times, self.times)

    def on_grid(self, queries: "WindowPlan") -> bool:
        """True if ``queries`` and the window lie on one integer time grid:
        known for slices of streams of one grid step, else :func:`_on_one_grid`."""
        if queries is self:
            return self.grid
        if queries.grid_step is not None and queries.grid_step == self.grid_step:
            return True
        return _on_one_grid(queries.times, self.times)

    @cached_property
    def mean(self) -> np.ndarray:
        return self.lags.mean(axis=0)

    @cached_property
    def _kept(self) -> dict:
        return {}  # ARD window terms by component, and "moments": the last (v, moments)

    def window_terms(self, kernel: "ArdKernel") -> np.ndarray:
        """``kernel.window_terms(lags, mean)``, computed once per component."""
        if kernel not in self._kept:
            self._kept[kernel] = kernel.window_terms(self.lags, self.mean)
        return self._kept[kernel]

    def moments(self, v: np.ndarray) -> np.ndarray:
        """:func:`_lag_moments` with ``v``, the window side of every ARD
        contraction with ``v``; kept for the last ``v``, since a model's plan
        is asked for its read-only ``theta``'s only."""
        kept = self._kept.get("moments")
        if kept is None or kept[0] is not v:
            kept = self._kept["moments"] = (v, _lag_moments(self.lags, self.mean, v))
        return kept[1]


@cache
def _distance_routines():
    """``(pdist, cdist, to_square)``: the squared distances among the rows of
    one array (condensed) and between the rows of two, and the mirror of a
    condensed vector into a zero-diagonal C-ordered square array.

    They are the compiled routines behind ``scipy.spatial.distance``'s
    ``pdist``, ``cdist`` and ``squareform``, loaded once, at SE's first
    evaluation, without ``scipy.spatial`` (:func:`._compiled.scipy_routines`),
    whose package init imports scipy's array-API layer and ``scipy.linalg``.
    If either module fails to load, they come from ``scipy.spatial.distance``.
    """
    pairs = scipy_routines("spatial", "_distance_pybind", ("pdist_sqeuclidean", "cdist_sqeuclidean"))
    mirror = scipy_routines("spatial", "_distance_wrap", ("to_squareform_from_vector_wrap",))
    if pairs is not None and mirror is not None:
        return (*pairs, *mirror)
    from scipy.spatial.distance import cdist, pdist, squareform

    def to_square(out, v):
        out[...] = squareform(v, checks=False)

    return partial(pdist, metric="sqeuclidean"), partial(cdist, metric="sqeuclidean"), to_square


def _sq_dists(xs: np.ndarray, lags: np.ndarray | None = None, out=None) -> np.ndarray:
    """SE's squared distances: from the rows of ``xs`` to the rows of ``lags``
    (cdist's) or, without ``lags``, among the rows of ``xs`` (pdist's,
    mirrored: exactly symmetric), written into ``out`` if given, a C-ordered
    ``(n, n)`` float64 array."""
    # This helper goes once SE evaluates as an ARD kernel with one tied scale.
    pdist, cdist, to_square = _distance_routines()
    if lags is not None:
        return cdist(xs, lags)
    v = pdist(xs)
    if out is None:
        out = np.zeros((len(xs), len(xs)), dtype=v.dtype)
    else:
        np.fill_diagonal(out, 0.0)
    to_square(out, v)
    return out


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


def grid_step(times: np.ndarray) -> float | None:
    """The step of the one integer grid that :func:`_on_one_grid` finds all
    of ``times`` on, or None if it finds none or there are fewer than two
    times. Every slice of such times lies on the same grid, and any two of
    them lie on one grid together."""
    if len(times) < 2 or not _on_one_grid(times, times):
        return None
    return float(times[1] - times[0])


def _eval_dt(f, ts: np.ndarray, times: np.ndarray, grid: bool, out=None, k=None) -> np.ndarray:
    """Fills ``out`` with ``f(|ts[:, None] - times[None, :]|, kv)`` and returns it.

    ``f`` is elementwise in the differences it receives and in ``kv``, the
    entries of ``k`` (a matrix of the same shape, already built) at the same
    places, or None if ``k`` is not given. ``grid`` is the window plan's
    answer (:meth:`WindowPlan.on_grid`), asked once for every fill of one
    evaluation. On the grid ``f`` runs once, on the first column and first
    row (the ``len(ts) + len(times) - 1`` distinct differences), and the
    Toeplitz matrix is gathered from its values; without ``out`` it is
    returned as a read-only strided view of them. Off the grid it is filled
    ``_CHUNK_VALUES`` values of rows at a time, into a new array if ``out``
    is not given. Every element gets the bits of the dense evaluation.
    """
    if not grid:
        if out is None:
            out = np.empty((len(ts), len(times)))
        step = max(1, _CHUNK_VALUES // len(times))
        for lo in range(0, len(ts), step):
            rows = slice(lo, lo + step)
            out[rows] = f(_abs_dt(ts[rows], times), None if k is None else k[rows])
        return out
    # the first column bottom up, then the first row after its first entry
    dt = np.concatenate((np.abs(ts[::-1] - times[0]), np.abs(ts[0] - times[1:])))
    kv = None if k is None else np.concatenate((k[::-1, 0], k[0, 1:]))
    values = f(dt, kv)
    m, n = len(ts), len(times)
    # entry (i, j) of the view is values[m - 1 - i + j]: the first column's
    # entry i - j below the diagonal, the first row's j - i above it. Its rows
    # run forward through memory, which at n = 96 reads them 30 % faster than
    # the mirrored layout. The raw constructor because at n = 96
    # sliding_window_view (20 us) and as_strided (15 us) cost as much as
    # scipy's toeplitz.
    item = values.itemsize
    view = np.ndarray((m, n), values.dtype, values, (m - 1) * item, (-item, item))
    if out is None:
        view.setflags(write=False)
        return view
    out[...] = view
    return out


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
    def param_kinds(self) -> tuple[str, ...]:
        return ("scale", "period")

    def params(self) -> np.ndarray:
        return np.array([self.scale, self.period])

    def with_params(self, values) -> "PeriodicKernel":
        return PeriodicKernel(float(values[0]), float(values[1]))

    def from_dt(self, dt):
        return np.exp(-self.scale * np.sin(np.pi * dt / self.period) ** 2)

    def block(self, times, lags) -> np.ndarray:
        plan = WindowPlan(times, lags)
        return self.cross_many(plan, plan)

    def compact_block(self, plan: WindowPlan) -> np.ndarray:
        """The Gram :meth:`block` returns, with its bits, but on the time grid
        a read-only strided view of its ``2n - 1`` distinct values: O(n)
        memory instead of ``n x n``. Off the grid it is ``block``'s array."""
        return _eval_dt(self._values, plan.times, plan.times, plan.grid)

    def cross_many(self, plan: WindowPlan, queries: WindowPlan) -> np.ndarray:
        out = np.empty((len(queries.times), len(plan.times)))
        return _eval_dt(self._values, queries.times, plan.times, plan.on_grid(queries), out)

    def _values(self, dt, kv):
        return self.from_dt(dt)

    def _value_and_derivs(self, dt):
        """Kernel values at ``dt`` and their scale and period derivatives: the
        dense oracle of :meth:`iter_block_derivs`."""
        u = np.pi * dt / self.period
        s = np.sin(u)
        k = np.exp(-self.scale * s**2)
        return k, -(s**2) * k, self.scale * np.pi * dt / self.period**2 * np.sin(2 * u) * k

    def _deriv(self, j, dt, k):
        """Derivative ``j`` (scale, period) of :meth:`_value_and_derivs`, with
        its bits, given the kernel values ``k = from_dt(dt)``: one ``sin``."""
        u = np.pi * dt / self.period
        if j == 0:
            return -(np.sin(u) ** 2) * k
        return self.scale * np.pi * dt / self.period**2 * np.sin(2 * u) * k

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        _, d_scale, d_period = self._value_and_derivs(_abs_dt(times, times))
        yield d_scale
        yield d_period

    def block_contract(self, plan: WindowPlan, gram, v, w, out, rows) -> np.ndarray:
        """Fills ``out[:, j]`` with ``(w * dB/d p_j) @ v`` and returns ``B @ v``,
        given ``gram``, :meth:`block` or :meth:`compact_block` of the window.

        One block of ``r`` rows at a time, ``r = len(rows)`` from
        :func:`_row_step`, ``gram``'s rows are copied into ``rows``, a
        C-ordered array the caller owns, for ``B @ v`` (matmul on the Toeplitz
        view's negative stride skips BLAS and rounds differently), then each
        ``w * dB/d p_j``'s rows are written there and applied to ``v``: on the
        grid gathered from its ``2n - 1`` distinct values, computed once. The
        ``k`` factor is read from ``gram``, which holds ``from_dt``'s bits, so
        every element has the bits of ``w *`` the matrix
        :meth:`iter_block_derivs` yields.
        """
        times, grid = plan.times, plan.grid
        derivs = [lambda dt, kv, j=j: w * self._deriv(j, dt, kv) for j in range(2)]
        if grid:
            derivs = [_eval_dt(f, times, times, True, k=gram) for f in derivs]
        n, step = len(times), len(rows)
        bv = np.empty(n)
        for lo in range(0, n, step):
            r = slice(lo, lo + step)
            block = rows[: min(step, n - lo)]
            block[...] = gram[r]
            bv[r] = block @ v
            for j, d in enumerate(derivs):
                if grid:
                    block[...] = d[r]
                else:
                    _eval_dt(d, times[r], times, False, block, gram[r])
                out[r, j] = block @ v
        return bv

    def cross_derivs_many(self, plan: WindowPlan, queries: WindowPlan, out, w=1.0) -> np.ndarray:
        """Cross matrix of many queries; fills ``out[:, j]`` with ``w *`` its
        derivative w.r.t. parameter ``j``, reading ``k`` from the cross
        matrix. On the grid ``w`` multiplies the distinct values before the
        gather, as in :meth:`block_contract`."""
        ts, times, grid = queries.times, plan.times, plan.on_grid(queries)
        k = _eval_dt(self._values, ts, times, grid, np.empty((len(ts), len(times))))
        for j in range(2):
            _eval_dt(lambda dt, kv: w * self._deriv(j, dt, kv), ts, times, grid, out[:, j], k)
        return k


@dataclass(frozen=True)
class SquaredExpKernel:
    """Squared exponential kernel on lag vectors, ``exp(-scale * ||x-x'||^2)``."""

    scale: float

    def __post_init__(self) -> None:
        if not 0 <= self.scale < np.inf:
            raise ValueError(f"scale must be nonnegative and finite, got {self.scale}")

    @property
    def param_kinds(self) -> tuple[str, ...]:
        return ("scale",)

    def params(self) -> np.ndarray:
        return np.array([self.scale])

    def with_params(self, values) -> "SquaredExpKernel":
        return SquaredExpKernel(float(values[0]))

    def block(self, times, lags) -> np.ndarray:
        return self._from_sq_dists(_sq_dists(lags))

    def cross_many(self, plan: WindowPlan, queries: WindowPlan) -> np.ndarray:
        return self._from_sq_dists(_sq_dists(queries.lags, plan.lags))

    def _from_sq_dists(self, d2) -> np.ndarray:
        """``exp(-scale * d2)``, computed in ``d2``'s own array: no second
        matrix of its size."""
        np.multiply(d2, -self.scale, out=d2)
        return np.exp(d2, out=d2)

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        d2 = _sq_dists(lags)
        yield -d2 * np.exp(-self.scale * d2)

    def block_contract(self, plan: WindowPlan, gram, v, w, out, scratch) -> np.ndarray:
        """Fills ``out[:, 0]`` with ``(w * dB/d scale) @ v`` and returns ``B @ v``,
        given ``gram = block(plan.times, plan.lags)``.

        ``w * dB/d scale = w * (-d2 * B)`` is built in place in ``scratch``,
        an ``(n, n)`` array the caller owns, from the squared distances
        :func:`_sq_dists` mirrors there, with the bits :meth:`block` uses.
        """
        d = _sq_dists(plan.lags, out=scratch)
        np.negative(d, out=d)
        np.multiply(d, gram, out=d)
        np.multiply(w, d, out=d)
        out[:, 0] = d @ v
        return gram @ v

    def cross_derivs_many(self, plan: WindowPlan, queries: WindowPlan, out=None, w=1.0) -> np.ndarray:
        """Cross matrix of many queries from :func:`_query_sq_dists` (the
        hyper-gradient's values, which can differ in the last digit from
        :meth:`cross_many`'s ``cdist``); fills ``out[:, 0]``, if given, with
        ``w *`` its scale derivative."""
        d2 = _query_sq_dists(queries.lags, plan.lags)
        k = np.exp(-self.scale * d2)
        if out is not None:
            d = np.multiply(-d2, k, out=out[:, 0])
            d *= w
        return k


def _query_sq_dists(xs: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Squared distances of every query row to every lag row, summed per query
    row as ``np.einsum("ij,ij->i")`` of one query would, for a block of
    queries whose differences fit the budget."""
    d2 = np.empty((len(xs), len(lags)))
    block = max(1, _BLOCK_VALUES // lags.size)
    for lo in range(0, len(xs), block):
        d = lags - xs[lo : lo + block, None, :]
        d2[lo : lo + block] = np.einsum("qij,qij->qi", d, d)
    return d2


@dataclass(frozen=True, eq=False)
class ArdKernel:
    """Automatic-relevance kernel: ``exp(-sum_i scales[i] * (x_i - x'_i)^2)``.

    One nonnegative scale per lag coordinate; coordinates with scale 0 are
    ignored entirely. Every value comes from ``d = h + h' - y . y'``, with
    ``y`` the lags centred by the window's lag mean and scaled by
    ``sqrt(2 * scales)`` and ``h = |y|^2 / 2``, clamped at ``d >= 0``: the
    Gram from one symmetric matrix product (:meth:`block`), the cross values
    from one product per query (:meth:`cross_many`). Centring keeps the
    cancellation error near ``eps * (h + h')`` whatever the lags' offset.
    """

    scales: np.ndarray

    def __post_init__(self) -> None:
        s = np.atleast_1d(np.asarray(self.scales, dtype=float))
        if s.ndim != 1 or s.size < 1:
            raise ValueError("ARD scales must be a non-empty 1-d array")
        if not ((0 <= s) & (s < np.inf)).all():
            raise ValueError("ARD scales must be nonnegative and finite")
        object.__setattr__(self, "scales", _readonly(s))

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
        """The Gram. ``y @ y.T`` is one symmetric product (numpy computes it
        with BLAS ``syrk`` and mirrors it) and ``h`` is read from its
        diagonal, so the Gram is exactly symmetric and its diagonal is exactly
        ``exp(0) = 1``. The products become kernel values in place,
        ``_CACHE_VALUES`` values of rows at a time: no distance matrix is
        built beside the Gram.
        """
        self._check_dim(lags)
        y = lags - lags.mean(axis=0)
        y *= np.sqrt(2.0 * self.scales)
        out = y @ y.T
        half = np.diagonal(out) * 0.5
        n = len(half)
        step = max(1, _CACHE_VALUES // n)
        sums = np.empty((min(step, n), n))
        for lo in range(0, n, step):
            rows = out[lo : lo + step]
            h = np.add(half[lo : lo + step, None], half, out=sums[: len(rows)])
            np.subtract(rows, h, out=rows)  # -d
            np.minimum(rows, 0.0, out=rows)
            np.exp(rows, out=rows)
        return out

    def cross_many(self, plan: WindowPlan, queries: WindowPlan) -> np.ndarray:
        return self._cross(queries.lags, plan.mean, plan.window_terms(self))

    def window_terms(self, lags, mean) -> np.ndarray:
        """The window side of the cross values, shape ``(p + 2, n)``: column
        ``j`` is ``[y_j, 1, h_j]``, with ``y_j`` the lags minus ``mean``
        scaled by ``sqrt(2 s)`` and ``h_j = |y_j|^2 / 2``. Stored transposed,
        so each query's product reads it row by row."""
        self._check_dim(lags)
        p = lags.shape[1]
        terms = np.empty((p + 2, len(lags)))
        y = np.subtract(lags, mean, out=terms[:p].T)
        y *= np.sqrt(2.0 * self.scales)
        terms[p] = 1.0
        np.einsum("ji,ji->i", terms[:p], terms[:p], out=terms[p + 1])
        terms[p + 1] *= 0.5
        return terms

    def _cross(self, xs, mean, terms) -> np.ndarray:
        """Cross values of the queries ``xs`` against the window of
        :meth:`window_terms`: ``exp(-max(d, 0))`` with ``-d_qj = [y_q, -h_q,
        -1] . [y_j, 1, h_j]``, one ``(1, p + 2) @ (p + 2, n)`` product per
        query. One ``(m, p + 2)`` product would round row ``q`` differently
        for different numbers of queries; this way row ``q`` has the bits of
        a one-query call."""
        p = xs.shape[1]
        a = np.empty((len(xs), p + 2))
        y = np.subtract(xs, mean, out=a[:, :p])
        y *= np.sqrt(2.0 * self.scales)
        np.einsum("ij,ij->i", y, y, out=a[:, p])
        a[:, p] *= -0.5
        a[:, p + 1] = -1.0
        k = np.empty((len(xs), terms.shape[1]))
        np.matmul(a[:, None, :], terms, out=k[:, None, :])
        np.minimum(k, 0.0, out=k)
        return np.exp(k, out=k)

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        base = self.block(None, lags)
        for j in range(self.scales.size):
            col = lags[:, j]
            d = col[:, None] - col[None, :]
            yield -(d * d) * base

    def block_contract(self, plan: WindowPlan, gram, v, w, out, rows) -> np.ndarray:
        """Fills ``out[:, j]`` with ``(w * dB/d s_j) @ v`` and returns ``B @ v``,
        given ``gram = block(plan.times, plan.lags)``, from the window's lag
        moments with ``v`` (:meth:`WindowPlan.moments`).

        ``dB/d s_j = -(x_j - x_j')^2 * B`` expands to
        ``-(X_j^2 * (B v) - 2 X_j * (B (v * X_j)) + B (v * X_j^2))``, so every
        column comes from ``B``'s product with one ``(n, 2p + 1)`` array. Two
        things keep the three terms small where they cancel: the product uses
        ``B`` without its diagonal, which ``dB/d s_j`` does not have either,
        and the lag columns are centred, which leaves every difference
        unchanged. ``B``'s rows are copied into ``rows``, a C-ordered array
        the caller owns, ``len(rows)`` rows at a time, and their diagonal
        entries zeroed there; the caller keeps ``gram``, diagonal included.
        Each block's product is a gemm, whose row blocks keep the whole
        product's bits at some shapes only (at n = 1344, p = 20 they do).
        """
        bv = gram @ v
        products = plan.moments(v)
        n, step = len(plan.lags), len(rows)
        kx = np.empty(products.shape)
        for lo in range(0, n, step):
            block = rows[: min(step, n - lo)]
            block[...] = gram[lo : lo + step]
            np.fill_diagonal(block[:, lo:], 0.0)
            np.matmul(block, products, out=kx[lo : lo + step])
        _expand_contraction(plan.lags - plan.mean, kx, w, out)
        return bv

    def cross_contract(self, plan: WindowPlan, queries: WindowPlan, v, w, out) -> np.ndarray:
        """Fills ``out[q, j]`` with ``(w * dk_q/d s_j) @ v`` and returns the
        cross matrix ``k`` of :meth:`cross_many`, from the window side the
        plan keeps for every block of queries (:meth:`WindowPlan.moments`).

        The query-side twin of :meth:`block_contract`: with query and window
        lags centred by the window's lag mean, ``dk_q/d s_j`` applied to
        ``v`` is ``-(xq_j^2 (k_q v) - 2 xq_j (k_q (v X_j)) + k_q (v X_j^2))``.
        Each query takes one ``(1, n) @ (n, 2p + 1)`` product, so its row does
        not depend on the other queries of the block; one ``(m, n)`` product
        would round differently for different blocks.
        """
        k = self.cross_many(plan, queries)
        _expand_contraction(queries.lags - plan.mean, (k[:, None, :] @ plan.moments(v))[:, 0], w, out)
        return k


def _lag_moments(lags: np.ndarray, mean: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v[:, None] * [1, X, X^2]`` of the lags ``X`` centred by ``mean``,
    shape ``(n, 2p + 1)``."""
    x = lags - mean
    return v[:, None] * np.hstack([np.ones((len(v), 1)), x, x * x])


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
                raise ValueError(f"mixture weights must sum to 1, got {float(w.sum())}")
            if (w < 0).any():
                raise ValueError("mixture weights must be nonnegative")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", _readonly(w))

    @cached_property  # read several times per evaluation, and the kernel is frozen
    def slices(self) -> tuple[slice, ...]:
        """The flat scalar vector's layout, its one home: one slice per
        component over its ``param_kinds``, in order, then the weights'."""
        sizes = [len(c.param_kinds) for c in self.components] + [len(self.components)]
        ends = list(accumulate(sizes, initial=0))
        return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))

    @property
    def n_scalars(self) -> int:
        """Number of scalar kernel hyperparameters (component params + weights)."""
        return self.slices[-1].stop

    def scalars(self) -> np.ndarray:
        """Flat hyperparameter vector: component params in order, then weights."""
        parts = [c.params() for c in self.components]
        parts.append(self.weights)
        return np.concatenate(parts)

    def with_scalars(self, values, require_simplex: bool = True) -> "CompositeKernel":
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_scalars,):
            raise ValueError(f"expected {self.n_scalars} scalars, got {values.shape}")
        comps = [c.with_params(values[s]) for c, s in zip(self.components, self.slices)]
        kernel = CompositeKernel(comps, values[self.slices[-1]], require_simplex=require_simplex)
        # the same component types in the same order: the same layout, so the
        # new kernel takes the cached layout properties this one has computed
        for name in ("slices", "_tensor_columns"):
            if name in self.__dict__:
                kernel.__dict__[name] = self.__dict__[name]
        return kernel

    # -- evaluation -------------------------------------------------------

    def mix(self, blocks, out=None) -> np.ndarray:
        """Weighted sum of per-component matrices, in component order, into
        ``out``, a new C-ordered array if it is not given.

        The first weighted component is written into ``out`` and every other
        one is added in place, ``_CACHE_VALUES`` values of rows at a time, so
        no temporary of the full size is made. The work is elementwise: every
        entry has the bits of ``w0 * b0 + w1 * b1 + ...``.
        """
        if out is None:
            out = np.empty(blocks[0].shape)
        np.multiply(self.weights[0], blocks[0], out=out)
        step = max(1, _CACHE_VALUES // out.shape[-1])
        for w, b in zip(self.weights[1:], blocks[1:]):
            for lo in range(0, len(out), step):
                out[lo : lo + step] += w * b[lo : lo + step]
        return out

    def component_blocks(self, plan: WindowPlan) -> list[np.ndarray]:
        """The component Grams of a window. A periodic one is
        :meth:`PeriodicKernel.compact_block`, on the time grid a read-only
        view of O(n) values; every other is a new C-ordered array."""
        return [
            c.compact_block(plan)
            if isinstance(c, PeriodicKernel)
            else c.block(plan.times, plan.lags)
            for c in self.components
        ]

    def block(self, times, lags) -> np.ndarray:
        return self.mix(self.component_blocks(WindowPlan(times, lags)))

    def cross_many(self, plan: WindowPlan, queries: WindowPlan) -> np.ndarray:
        # The batch predictor. The gradient, OHL's predictions and cross()
        # take their values from the cross_contract path instead: the periodic
        # and ARD values are the same (cross_many's), but the SE values there
        # come from the einsum distances of cross_derivs_many, and OHL's
        # updates can amplify a last-digit change until it shows in the
        # forecasts. So OHL's predictions come from here when SE is present.
        return self.mix([c.cross_many(plan, queries) for c in self.components])

    # -- derivatives ------------------------------------------------------

    def iter_block_derivs(self, times, lags) -> Iterator[np.ndarray]:
        """All Gram derivatives in flat scalar order (params first, then weights)."""
        for w, c in zip(self.weights, self.components):
            for d in c.iter_block_derivs(times, lags):
                yield w * d
        for c in self.components:
            yield c.block(times, lags)

    def block_contract(self, plan: WindowPlan, blocks, v) -> np.ndarray:
        """Every Gram derivative applied to ``v``, shape ``(len(plan.times), n_scalars)``.

        ``blocks`` are the component Grams of the window,
        ``component_blocks(plan)``; no Gram is built here. Column ``i`` is
        ``(dA/d lam_i) v`` in flat scalar order. The periodic and SE columns
        are the matrix-vector products of the matrices
        :meth:`iter_block_derivs` yields, and each weight column is
        ``block @ v``, so all of these are bit-identical to the materialized
        path; only the ARD columns are contracted differently.

        One buffer of :func:`_row_step` rows (about ``_CACHE_VALUES`` values)
        is lent to the periodic and ARD components in turn, which contract
        their matrices a block of rows at a time there. SE needs the full
        square of ``pdist``'s distances: with an SE component the buffer is
        its ``(n, n)`` scratch, and the others use its first rows. Each
        product sees the rows a fresh C-ordered array would hold, so the bits
        do not depend on the buffer.
        """
        n = len(plan.times)
        out = np.empty((n, self.n_scalars))
        step = _row_step(n, n, _CACHE_VALUES)
        se = any(isinstance(c, SquaredExpKernel) for c in self.components)
        scratch = np.empty((n if se else step, n))
        *parts, weights = self.slices
        weight_cols = out[:, weights]
        for i, (w, c, b, s) in enumerate(zip(self.weights, self.components, blocks, parts)):
            rows = scratch if isinstance(c, SquaredExpKernel) else scratch[:step]
            weight_cols[:, i] = c.block_contract(plan, b, v, w, out[:, s], rows)
        return out

    def cross_contract(self, plan: WindowPlan, queries: WindowPlan, v) -> tuple[np.ndarray, np.ndarray]:
        """Cross vectors of many queries, and ``dkv[q, i] = (dk_q/d lam_i) @ v``.

        The ARD columns come from :meth:`ArdKernel.cross_contract`, without
        the ``(queries, n, p)`` tensor, from the window side the plan keeps.
        Every other column (the periodic and SE derivatives of
        ``cross_derivs_many``, then the component cross values) is one row of
        a ``(queries, rows, n)`` tensor, applied to ``v`` as stacked
        one-query products, so row ``q`` does not depend on the other
        queries. The queries go in blocks whose tensor holds at most
        ``_BLOCK_VALUES`` values, which for the same reason changes no bits.
        """
        m, n = len(queries.times), len(plan.times)
        k = np.empty((m, n))
        dkv = np.empty((m, self.n_scalars))
        step = max(1, _BLOCK_VALUES // (len(self._tensor_columns) * n))
        for lo in range(0, m, step):
            q = slice(lo, lo + step)
            self._contract_block(plan, queries.rows(lo, lo + step), v, k[q], dkv[q])
        return k, dkv

    @cached_property
    def _tensor_columns(self) -> list[int]:
        """The flat columns of :meth:`_contract_block`'s ``(queries, rows, n)``
        tensor, in row order: the periodic and SE parameters, then the
        weights (the ARD columns are contracted without it)."""
        *parts, weights = self.slices
        kept = [s for c, s in zip(self.components, parts) if not isinstance(c, ArdKernel)]
        return [j for s in (*kept, weights) for j in range(s.start, s.stop)]

    def _contract_block(self, plan, queries, v, k, dkv) -> None:
        """:meth:`cross_contract` of one block of queries, into ``k`` and ``dkv``."""
        columns = self._tensor_columns
        dk = np.empty((len(queries.times), len(columns), len(plan.times)))
        ks = []
        for w, c, s in zip(self.weights, self.components, self.slices):
            if isinstance(c, ArdKernel):
                ks.append(c.cross_contract(plan, queries, v, w, dkv[:, s]))
            else:
                row = columns.index(s.start)
                block = dk[:, row : row + s.stop - s.start]
                ks.append(c.cross_derivs_many(plan, queries, block, w))
        row = len(columns) - len(ks)  # the weights' rows come last
        for i, ki in enumerate(ks):
            dk[:, row + i] = ki
        dkv[:, columns] = dk @ v
        self.mix(ks, out=k)

    def cross(self, plan: WindowPlan, t, x) -> np.ndarray:
        """Cross vector of one query, shape ``(len(plan.times),)``, with the
        bits of a one-row :meth:`cross_contract`'s values (the
        hyper-gradient's path), from the components' values alone: SE's from
        its einsum distances."""
        query = WindowPlan(np.array([t], dtype=float), np.asarray(x, dtype=float)[None, :])
        ks = [
            c.cross_derivs_many(plan, query)
            if isinstance(c, SquaredExpKernel)
            else c.cross_many(plan, query)
            for c in self.components
        ]
        return self.mix(ks)[0]

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
    plan = WindowPlan.of(window)
    if query.x.shape[0] != plan.lags.shape[1]:
        raise ValueError(
            f"query lag vector of length {query.x.shape[0]} does not match window "
            f"lag order {plan.lags.shape[1]}"
        )
    return spec.cross(plan, query.t, query.x)


def cross_matrix(spec: CompositeKernel, queries, window) -> np.ndarray:
    """Cross kernel matrix between query points (rows) and window points (columns)."""
    queries, plan = WindowPlan.of(queries), WindowPlan.of(window)
    qp, p = queries.lags.shape[1], plan.lags.shape[1]
    if qp != p:
        raise ValueError(f"query lag order {qp} does not match window lag order {p}")
    return spec.cross_many(plan, queries)


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

