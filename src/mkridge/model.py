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
(``CompositeKernel.block_contract``), which holds each derivative matrix it
needs in one ``n x n`` scratch array, in turn; all columns then come from
one multi-right-hand-side solve. A
:class:`TrainedModel` keeps the Gram of each kernel component that
``fit`` built, and ``block_contract`` works from those, so each component
Gram is built once per fit. On a uniform integer time grid the periodic
Gram is kept as a read-only Toeplitz view of its ``2n - 1`` distinct values,
and ``fit`` mixes the system ``K + ridge*I`` into one buffer without a
temporary per component: it holds the lag Grams, the system and the factor
at its peak, and the model keeps the lag Grams and the factor. The per-step
squared-error loss then has an exact gradient assembled from the cross
vector, its analytic derivatives, and the cached Jacobian columns.

Predictions and hyper-gradients are evaluated for a block of queries at once.
:func:`predict_and_hyper_gradient_batch` returns both from one
``CompositeKernel.cross_contract`` call for all its queries, so an OHL refit
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._compiled import scipy_routines
from .errors import NumericalError
from .kernels import CompositeKernel, SquaredExpKernel, TimedPoint, _readonly, window_arrays


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

    The flat ordering is kernel component parameters, then mixture weights,
    then ``ridge`` last.
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
        return [*self.kernel.scalar_kinds(), "ridge"]

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
    one. ``factor`` is Fortran-ordered and holds the Cholesky factor of
    ``K + ridge*I`` in its lower triangle (its upper triangle is not
    cleaned).
    """

    hypers: HyperParams
    times: np.ndarray
    lags: np.ndarray
    targets: np.ndarray
    theta: np.ndarray
    blocks: tuple[np.ndarray, ...]
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.theta.size

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
    blocks = hypers.kernel.component_blocks(times, lags)
    a = hypers.kernel.mix(blocks)
    a.flat[:: y.size + 1] += hypers.ridge
    # a is exactly symmetric, so a.T is the same matrix already in Fortran
    # order: potrf copies it without transposing, and a stays intact for the
    # refinement residual.
    factor, info = _potrf(a.T, lower=1, clean=0)
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
    residual = y - a @ theta
    if np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(y)):
        # a single refinement pass keeps the residual bound on ill-conditioned systems
        theta = theta + _potrs(factor, residual, lower=1, overwrite_b=1)[0]
    # the blocks and theta were built here and nothing else holds them: freeze in place
    for b in blocks:
        b.setflags(write=False)
    theta.setflags(write=False)
    return TrainedModel(
        hypers=hypers,
        times=_readonly(times),
        lags=_readonly(lags),
        targets=_readonly(y),
        theta=theta,
        blocks=tuple(blocks),
        factor=factor,
    )


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
    k = model.hypers.kernel.cross(query.t, query.x, model.times, model.lags)
    return float(k @ model.theta)


def predict_batch(model: TrainedModel, queries) -> np.ndarray:
    """Predictions for many query points at once: cross matrix times theta."""
    qt, qx = window_arrays(queries)
    _check_query(model, qx)
    return model.hypers.kernel.cross_many(qt, qx, model.times, model.lags) @ model.theta


def loss(y_true: float, y_pred: float) -> float:
    """Squared error."""
    return (y_true - y_pred) ** 2


def theta_jacobian(model: TrainedModel) -> np.ndarray:
    """Jacobian of the dual coefficients, shape ``(n, dim)``.

    Column ``i`` solves the cached system against ``-(dA/d lam_i) theta``;
    the final column is the ridge direction with ``dA/d ridge = I``. The
    right-hand sides come from one kernel contraction of the model's
    component Grams, which builds no Gram and allocates one ``n x n``
    scratch array, and all columns come from one solve. The result is
    C-contiguous.
    """
    contracted = model.hypers.kernel.block_contract(
        model.times, model.lags, model.blocks, model.theta
    )
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
    qt, qx = window_arrays(queries)
    _check_query(model, qx)
    y = np.asarray(targets, dtype=float)
    if y.shape != qt.shape:
        raise ValueError(f"got {y.size} targets for {qt.size} queries")
    kernel, ns = model.hypers.kernel, model.hypers.kernel.n_scalars
    k, dk_theta = kernel.cross_contract(qt, qx, model.times, model.lags, model.theta)
    # Every product is a stack of one-query products (matmul loops over the
    # leading axis with the BLAS call a single query makes), so each row is
    # bit-identical to a one-query evaluation whatever the number of queries.
    # One (m, n) @ (n,) product would round differently, and OHL's updates can
    # amplify a last-digit difference until it shows in the forecasts.
    rows = k[:, None, :]
    scale = -2.0 * (y - (rows @ model.theta)[:, 0])
    grads = np.empty((y.size, d))
    grads[:, :ns] = scale[:, None] * (dk_theta + (rows @ jac[:, :ns])[:, 0])
    grads[:, ns] = scale * (rows @ jac[:, ns])[:, 0]
    if not predictions:
        return None, grads
    if any(isinstance(c, SquaredExpKernel) for c in kernel.components):
        # SE's values here come from einsum distances, predict_batch's from
        # cdist, which round differently: the predictions take cross_many's.
        # This branch goes once SE evaluates as an ARD kernel with one tied scale.
        del k, rows  # one (m, n) cross matrix at a time
        k = kernel.cross_many(qt, qx, model.times, model.lags)
    # predict_batch's one (m, n) @ (n,) product on the same values: its bits,
    # which can differ in the last digit from the residual's stacked products
    return k @ model.theta, grads
