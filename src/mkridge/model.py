"""Closed-form kernel ridge regression with exact hyperparameter gradients.

Fitting solves ``(K + ridge*I) theta = y`` through a cached Cholesky
factorization. The factorization and the solves call LAPACK's ``potrf`` and
``potrs`` directly, without scipy's per-call wrappers and their O(n^2)
finiteness scans: ``fit`` checks the targets, the factorization's status and
the factor's diagonal, which every non-finite entry of the system reaches, in
O(n). The two routines are loaded from scipy's compiled LAPACK wrapper
without importing ``scipy.linalg``, whose package init costs more than the
rest of ``import mkridge`` (:func:`_load_lapack`, through
:mod:`mkridge._compiled`; it falls back to ``get_lapack_funcs`` when that
load fails). The same factorization backs the
Jacobian of the dual coefficients with respect to every hyperparameter,

    d theta / d lam_i = -(K + ridge*I)^{-1} (dA/d lam_i) theta,

where ``dA/d lam_i`` is the analytic Gram derivative for kernel
hyperparameters and the identity for the ridge constant. The Jacobian
columns are contracted, not materialized: the products
``(dA/d lam_i) theta`` come from the kernel directly
(``CompositeKernel.block_contract``), which fills and applies each
derivative matrix one row block at a time (only SE takes an ``n x n``
scratch array); all columns then come from one multi-right-hand-side
solve. A :class:`TrainedModel` keeps the Gram of each kernel component that
``fit`` built, and ``block_contract`` works from those, so each component
Gram is built once per fit. On a uniform integer time grid the periodic
Gram is kept as a read-only Toeplitz view of its ``2n - 1`` distinct values,
and ``fit`` mixes the system ``K + ridge*I`` into one buffer without a
temporary per component. A system larger than one row block (about
``_CACHE_VALUES`` values) is factored in place, and the refinement residual
mixes its rows again from the Grams a block at a time: ``fit`` holds the
lag Grams and the system, which becomes the factor, plus a row block, and
the model keeps the lag Grams and the factor. The per-step
squared-error loss then has an exact gradient assembled from the cross
vector, its analytic derivatives, and the cached Jacobian columns.

Row blocks are ``kernels._row_step``'s, so each blocked matrix-vector
product (the residual, the periodic Jacobian columns, the predictions) has
the bits of the whole one.

Predictions and hyper-gradients are evaluated for a block of queries at
once, in blocks whose cross values hold at most ``_BLOCK_VALUES`` values.
:func:`predict_and_hyper_gradient_batch` returns both from one
``CompositeKernel.cross_contract`` call per block, so an OHL refit
evaluates its window's cross matrix once: the gradient needs the cross
derivatives only applied to ``theta``, the ARD ones are contracted on the
query side, and no ``(queries, n, lags)`` tensor is built; the predictions
have :func:`predict_batch`'s bits (with an SE component they are its
values). :func:`loss_hyper_gradient_batch` is the gradients alone, and
:func:`loss_hyper_gradient` a one-row view of those. :func:`predict`
takes its cross vector from ``CompositeKernel.cross``, the values of a
one-row ``cross_contract`` without its derivatives, so its value is the
gradient's residual bit for bit. The materialized derivatives (``CompositeKernel.iter_block_derivs`` and
``cross_derivs_all``, its rows) are the tests' oracle; nothing here calls them.

``fit`` builds one window plan per model (``TrainedModel.plan``), which
every evaluation of the model reads. It decides once whether the window
lies on one integer time grid (a stream's window by ``Dataset.grid_step``,
without a test), and keeps the ARD window side (the lag mean, the window
terms, the lag moments of ``theta``) from its first read on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._compiled import scipy_routines
from .errors import NumericalError
from .kernels import CompositeKernel, SquaredExpKernel, TimedPoint, WindowPlan, _readonly, window_arrays
from .kernels import _BLOCK_VALUES, _CACHE_VALUES, _row_step


def _load_lapack():
    """``(dpotrf, dpotrs)`` from scipy's compiled LAPACK wrapper, ``_flapack``,
    loaded without ``scipy.linalg`` (:func:`._compiled.scipy_routines`). If
    that load fails, they come from ``scipy.linalg.get_lapack_funcs``: the
    same functions of the same file.
    """
    routines = scipy_routines("linalg", "_flapack", ("dpotrf", "dpotrs"))
    if routines is not None:
        return routines
    from scipy.linalg import get_lapack_funcs

    return tuple(get_lapack_funcs(("potrf", "potrs"), dtype=np.float64))


# Looked up once, and called directly: at the window sizes of a refit, scipy's
# cho_factor and cho_solve spend longer on batch dispatch, asarray and a
# get_lapack_funcs lookup than LAPACK spends on the solve. They are the
# functions get_lapack_funcs returns, so every factor and solve keeps its bits.
_potrf, _potrs = _load_lapack()

__all__ = [
    "HyperParams",
    "TrainedModel",
    "fit",
    "predict",
    "predict_batch",
    "loss",
    "theta_jacobian",
    "loss_hyper_gradient",
    "loss_hyper_gradient_batch",
    "predict_and_hyper_gradient_batch",
]


@dataclass(frozen=True, eq=False)
class HyperParams:
    """Full hyperparameter vector: composite kernel scalars plus the ridge constant.

    The flat ordering is the kernel's (``CompositeKernel.slices``), then
    ``ridge`` last.
    """

    kernel: CompositeKernel
    ridge: float

    def __post_init__(self) -> None:
        if not 0 < self.ridge < np.inf:
            raise ValueError(f"ridge constant must be positive and finite, got {self.ridge}")
        object.__setattr__(self, "ridge", float(self.ridge))

    @property
    def dim(self) -> int:
        return self.kernel.n_scalars + 1

    def scalar_kinds(self) -> list[str]:
        comps = self.kernel.components
        return [*(k for c in comps for k in c.param_kinds), *["mixture"] * len(comps), "ridge"]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.kernel.scalars(), [self.ridge]])

    def from_vector(self, values, require_simplex: bool = True) -> "HyperParams":
        """Rebuild hyperparameters of this shape from a flat vector."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {values.shape}")
        kernel = self.kernel.with_scalars(values[:-1], require_simplex=require_simplex)
        return HyperParams(kernel, float(values[-1]))


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Dual coefficients plus the cached factorization and training window.

    ``blocks`` holds the read-only Gram of each kernel component, in
    component order (``CompositeKernel.component_blocks``): a periodic Gram
    on the time grid is a strided Toeplitz view of ``2n - 1`` values, every
    other Gram an ``n x n`` array. With the factor that is one ``n x n``
    matrix per lag component, and per periodic component off the grid, plus
    one: two for an on-grid periodic + ARD model. ``factor`` is
    Fortran-ordered and holds the Cholesky factor of ``K + ridge*I`` in its
    lower triangle (its upper triangle is not cleaned); beyond one row block
    it is the buffer ``fit`` mixed the system into, factored in place.
    ``plan`` is the training window's plan, with read-only times and lags.
    """

    hypers: HyperParams
    plan: WindowPlan
    targets: np.ndarray
    theta: np.ndarray
    blocks: tuple[np.ndarray, ...]
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def times(self) -> np.ndarray:
        return self.plan.times

    @property
    def lags(self) -> np.ndarray:
        return self.plan.lags

    @property
    def gram(self) -> np.ndarray:
        """The composite Gram matrix, mixed afresh from ``blocks``."""
        return self.hypers.kernel.mix(self.blocks)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the cached factorization: solve ``(K + ridge*I) x = b``.

        ``b`` is not overwritten; a right-hand side of the wrong length raises
        ``ValueError``.
        """
        return _potrs(self.factor, b, lower=1)[0]


def fit(hypers: HyperParams, window) -> TrainedModel:
    """Solve the regularized kernel system on a :class:`~mkridge.data.Dataset`
    (or anything with its ``times``, ``lags`` and ``targets``) in closed form.

    Raises :class:`NumericalError` if the factorization fails despite the
    positive ridge (a numerically indefinite or non-finite system), and
    ``ValueError`` if a target is not finite.
    """
    times, lags = window_arrays(window)
    y = np.asarray(window.targets, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("training targets must be finite")
    plan = WindowPlan(_readonly(times), _readonly(lags), getattr(window, "grid_step", None))
    blocks = hypers.kernel.component_blocks(plan)
    a = hypers.kernel.mix(blocks)
    a.flat[:: y.size + 1] += hypers.ridge
    # a is exactly symmetric, so a.T is the same matrix already in Fortran
    # order. Beyond one row block it is factored in place, and the refinement
    # residual mixes its rows again from the blocks; a smaller system is
    # copied without transposing and stays intact for the residual. The
    # factor has the same bits either way.
    step = _row_step(y.size, y.size, _CACHE_VALUES)
    factor, info = _potrf(a.T, lower=1, clean=0, overwrite_a=int(step < y.size))
    # Nothing scans the n x n system for NaN or inf, and the Cholesky routine
    # may carry a NaN through instead of failing. A non-finite entry of the
    # lower triangle ends on the diagonal of its row (or fails the
    # factorization), so this O(n) test catches it. A failed factorization
    # (info > 0) can leave a finite diagonal, so info is tested too.
    if info != 0 or not np.isfinite(np.diagonal(factor)).all():
        raise NumericalError(
            f"kernel system factorization failed at ridge={hypers.ridge!r} (n={y.size})"
        )
    theta = _potrs(factor, y, lower=1)[0]
    residual = y - (a @ theta if step == y.size else _system_product(hypers, blocks, theta, step))
    if np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(y)):
        # a single refinement pass keeps the residual bound on ill-conditioned systems
        theta = theta + _potrs(factor, residual, lower=1, overwrite_b=1)[0]
    # the blocks and theta were built here and nothing else holds them: freeze in place
    for b in blocks:
        b.setflags(write=False)
    theta.setflags(write=False)
    return TrainedModel(
        hypers=hypers,
        plan=plan,
        targets=_readonly(y),
        theta=theta,
        blocks=tuple(blocks),
        factor=factor,
    )


def _system_product(hypers: HyperParams, blocks, v: np.ndarray, step: int) -> np.ndarray:
    """``(K + ridge*I) @ v`` with the bits of the mixed system's product, from
    the component Grams ``blocks`` alone: each block of ``step`` rows
    (:func:`~mkridge.kernels._row_step`) is mixed again, gets the ridge on its
    diagonal entries and is applied to ``v``, so no more than ``step`` rows
    of the system exist at a time."""
    n = v.size
    out = np.empty(n)
    rows = np.empty((step, n))
    for lo in range(0, n, step):
        block = hypers.kernel.mix([b[lo : lo + step] for b in blocks], rows[: min(step, n - lo)])
        block.reshape(-1)[lo :: n + 1] += hypers.ridge  # entries (i, lo + i)
        out[lo : lo + step] = block @ v
    return out


def _check_query(model: TrainedModel, x: np.ndarray) -> None:
    if x.shape[-1] != model.lags.shape[1]:
        raise ValueError(
            f"query lag vector of length {x.shape[-1]} does not match training "
            f"lag order {model.lags.shape[1]}"
        )


def predict(model: TrainedModel, query: TimedPoint) -> float:
    """Kernel prediction: cross vector against the window, dotted with theta.

    The same arithmetic as the residual inside :func:`loss_hyper_gradient`.
    """
    _check_query(model, query.x)
    k = model.hypers.kernel.cross(model.plan, query.t, query.x)
    return float(k @ model.theta)


def predict_batch(model: TrainedModel, queries) -> np.ndarray:
    """Predictions for many query points at once: cross matrix times theta."""
    queries = WindowPlan.of(queries)
    _check_query(model, queries.lags)
    kernel, yhat = model.hypers.kernel, np.empty(len(queries.times))
    for q, block in _query_blocks(queries, model.n):
        yhat[q] = kernel.cross_many(model.plan, block) @ model.theta
    return yhat


def _query_blocks(queries: WindowPlan, n: int) -> list[tuple[slice, WindowPlan]]:
    """The row slices and plans of the blocks of ``queries`` against ``n``
    rows whose cross matrices hold at most ``_BLOCK_VALUES`` values each
    (:func:`~mkridge.kernels._row_step`), so each block's product with
    ``theta`` has the bits of one ``(m, n) @ (n,)`` product."""
    m = len(queries.times)
    step = _row_step(m, n, _BLOCK_VALUES)
    return [(slice(lo, lo + step), queries.rows(lo, lo + step)) for lo in range(0, m, step)]


def loss(y_true: float, y_pred: float) -> float:
    """Squared error."""
    return (y_true - y_pred) ** 2


def theta_jacobian(model: TrainedModel) -> np.ndarray:
    """Jacobian of the dual coefficients, shape ``(n, dim)``.

    Column ``i`` solves the cached system against ``-(dA/d lam_i) theta``;
    the final column is the ridge direction with ``dA/d ridge = I``. The
    right-hand sides come from one kernel contraction of the model's
    component Grams, which builds no Gram and allocates no ``n x n`` array
    but an SE component's scratch, and all columns come from one solve. The
    result is C-contiguous.
    """
    contracted = model.hypers.kernel.block_contract(model.plan, model.blocks, model.theta)
    ns = contracted.shape[1]
    rhs = np.empty((model.n, ns + 1), order="F")
    np.negative(contracted, out=rhs[:, :ns])
    np.negative(model.theta, out=rhs[:, ns])
    # Returned row-major, the layout of a stack of columns: a product such as
    # k @ jac rounds by the layout of jac, so a caller's products keep their bits.
    return np.ascontiguousarray(_potrs(model.factor, rhs, lower=1, overwrite_b=1)[0])


def loss_hyper_gradient(
    model: TrainedModel, jac: np.ndarray, query: TimedPoint, y_true: float
) -> np.ndarray:
    """Exact gradient of one squared prediction error w.r.t. all hyperparameters.

    A one-row :func:`loss_hyper_gradient_batch`.
    """
    return loss_hyper_gradient_batch(model, jac, [query], [y_true])[0]


def loss_hyper_gradient_batch(model: TrainedModel, jac: np.ndarray, queries, targets) -> np.ndarray:
    """Exact squared-error hyper-gradients for many queries, shape ``(m, dim)``:
    the gradients of :func:`predict_and_hyper_gradient_batch`, which computes
    no predictions for this view."""
    return predict_and_hyper_gradient_batch(model, jac, queries, targets, predictions=False)[1]


def predict_and_hyper_gradient_batch(
    model: TrainedModel, jac: np.ndarray, queries, targets, predictions: bool = True
):
    """``(yhat, grads)``: :func:`predict_batch` of the queries, bit for bit,
    and their exact squared-error hyper-gradients, shape ``(m, dim)``, from
    one evaluation of the cross matrix. ``yhat`` is None, and not computed,
    if ``predictions`` is false.

    Row ``q`` of ``grads`` is ``-2 r_q (dk_q theta + k_q J)`` with ``k_q`` the
    cross vector, ``dk_q`` its derivatives (no ridge row: the cross vector
    does not depend on the ridge), ``r_q = y_q - k_q theta`` the residual and
    ``J`` the cached Jacobian. The hyperparameters are fixed across the
    queries, so ``k`` and ``dk theta`` of all of them come from one call of
    ``CompositeKernel.cross_contract``; the ARD part of ``dk`` is contracted
    with ``theta`` there and never built. ``yhat`` is ``k @ theta``, the
    product :func:`predict_batch` takes of the same values.
    """
    d = model.hypers.dim
    if jac.shape != (model.n, d):
        raise ValueError(f"Jacobian shape {jac.shape} does not match (n, dim)=({model.n}, {d})")
    # The stacked (1, n) @ (n, d) products below round by the layout of jac,
    # and OHL's updates can amplify a last-digit difference until it shows in
    # the forecasts: a jac of any layout is used row-major (no copy for
    # theta_jacobian's).
    jac = np.ascontiguousarray(jac)
    queries = WindowPlan.of(queries)
    _check_query(model, queries.lags)
    y = np.asarray(targets, dtype=float)
    if y.shape != queries.times.shape:
        raise ValueError(f"got {y.size} targets for {queries.times.size} queries")
    kernel, ns = model.hypers.kernel, model.hypers.kernel.n_scalars
    se = any(isinstance(c, SquaredExpKernel) for c in kernel.components)
    grads = np.empty((y.size, d))
    yhat = np.empty(y.size) if predictions else None
    for q, block in _query_blocks(queries, model.n):
        k, dk_theta = kernel.cross_contract(model.plan, block, model.theta)
        # Every product is a stack of one-query products (matmul loops over the
        # leading axis with the BLAS call a single query makes), so each row is
        # bit-identical to a one-query evaluation whatever the number of queries.
        # One (m, n) @ (n,) product would round differently, and OHL's updates can
        # amplify a last-digit difference until it shows in the forecasts.
        rows = k[:, None, :]
        scale = -2.0 * (y[q] - (rows @ model.theta)[:, 0])
        grads[q, :ns] = scale[:, None] * (dk_theta + (rows @ jac[:, :ns])[:, 0])
        grads[q, ns] = scale * (rows @ jac[:, ns])[:, 0]
        if not predictions:
            continue
        if se:
            # SE's values here come from einsum distances, predict_batch's from
            # cdist, which round differently: the predictions take cross_many's.
            # This branch goes once SE evaluates as an ARD kernel with one tied scale.
            del k, rows  # one block's cross matrix at a time
            k = kernel.cross_many(model.plan, block)
        # predict_batch's product on the same values and blocks: its bits,
        # which can differ in the last digit from the residual's stacked products
        yhat[q] = k @ model.theta
    return yhat, grads
