"""Closed-form kernel ridge regression with exact hyperparameter gradients.

Fitting solves ``(K + ridge*I) theta = y`` through a cached Cholesky
factorization. The factorization and the solves call LAPACK's ``potrf`` and
``potrs`` directly, without scipy's per-call wrappers and their O(n^2)
finiteness scans: ``fit`` checks the targets, the factorization's status and
the factor's diagonal, which every non-finite entry of the system reaches, in
O(n). The same factorization backs the Jacobian of the dual coefficients with
respect to every hyperparameter,

    d theta / d lam_i = -(K + ridge*I)^{-1} (dA/d lam_i) theta,

where ``dA/d lam_i`` is the analytic Gram derivative for kernel
hyperparameters and the identity for the ridge constant. The Jacobian
columns are contracted, not materialized: the products
``(dA/d lam_i) theta`` come from the kernel directly
(``CompositeKernel.block_contract``), and no ``n x n`` derivative matrix is
built; all columns then come from one multi-right-hand-side solve. A
:class:`TrainedModel` keeps the Gram of each kernel component that
``fit`` built, and ``block_contract`` works from those, so each component
Gram is built once per fit. The per-step squared-error loss then has an
exact gradient assembled from the cross vector, its analytic derivatives,
and the cached Jacobian columns.

Predictions and hyper-gradients are evaluated for a block of queries at once
(:func:`predict_batch`, :func:`loss_hyper_gradient_batch`);
:func:`loss_hyper_gradient` is a one-row view of the batched gradient. The
gradient needs the cross derivatives only applied to ``theta``, and takes
them from ``CompositeKernel.cross_contract``: the ARD ones are contracted on
the query side, and no ``(queries, n, lags)`` tensor is built. :func:`predict`
takes its cross vector from a one-row ``cross_contract`` (through
``CompositeKernel.cross``), so its value is the gradient's residual bit for
bit. The materialized derivatives (``CompositeKernel.iter_block_derivs`` and
``cross_derivs_all``, its rows) are the tests' oracle; nothing here calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import NumericalError
from .kernels import CompositeKernel, TimedPoint, _readonly, window_arrays

# Looked up once: at the window sizes of a refit, scipy's cho_factor and
# cho_solve spend longer on batch dispatch, asarray and this lookup than
# LAPACK spends on the solve.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)

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
    "training_arrays",
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

    @property
    def ridge_index(self) -> int:
        return self.kernel.n_scalars

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
    component order; with the factor that is one ``n x n`` matrix per
    component plus one. ``factor`` is Fortran-ordered and holds the Cholesky
    factor of ``K + ridge*I`` in its lower triangle (its upper triangle is
    not cleaned).
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


def training_arrays(window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, lags, targets)`` from a dataset or ``(TimedPoint, y)`` pairs."""
    targets = getattr(window, "targets", None)
    if targets is not None:
        times, lags = window_arrays(window)
        return times, lags, np.asarray(targets, dtype=float)
    pairs = list(window)
    if not pairs:
        raise ValueError("training window must contain at least one pair")
    points, ys = zip(*pairs)
    times, lags = window_arrays(points)
    return times, lags, np.asarray(ys, dtype=float)


def fit(hypers: HyperParams, window) -> TrainedModel:
    """Solve the regularized kernel system in closed form.

    Raises :class:`NumericalError` if the factorization fails despite the
    positive ridge (a numerically indefinite or non-finite system), and
    ``ValueError`` if a target is not finite.
    """
    times, lags, y = training_arrays(window)
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


_BLOCK_VALUES = 1 << 17  # float64 values per block of cross derivatives (1 MB)


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
    component Grams, so neither a Gram nor a derivative matrix is built, and
    all columns come from one solve. The result is C-contiguous.
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
    """Exact squared-error hyper-gradients for many queries, shape ``(m, dim)``.

    Row ``q`` is ``-2 r_q (dk_q theta + k_q J)`` with ``k_q`` the cross
    vector, ``dk_q`` its derivatives (no ridge row: the cross vector does not
    depend on the ridge), ``r_q = y_q - k_q theta`` the residual and ``J``
    the cached Jacobian. The hyperparameters are fixed across the block, so
    ``k`` and ``dk theta`` of many queries come from one batched evaluation,
    ``CompositeKernel.cross_contract``; the ARD part of ``dk`` is contracted
    with ``theta`` there and never built.
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
    spec = model.hypers.kernel
    ns = spec.n_scalars
    grads = np.empty((y.size, d))
    # queries go in blocks so the (block, rows, n) derivative tensor stays near 1 MB
    block = max(1, _BLOCK_VALUES // (len(spec.cross_rows) * model.n))
    for lo in range(0, y.size, block):
        hi = lo + block
        k, dk_theta = spec.cross_contract(
            qt[lo:hi], qx[lo:hi], model.times, model.lags, model.theta
        )
        # Every product is a stack of one-query products (matmul loops over the
        # leading axis with the BLAS call a single query makes), so each row is
        # bit-identical to a one-query evaluation whatever the block size. One
        # (m, n) @ (n,) product would round differently, and OHL's updates can
        # amplify a last-digit difference until it shows in the forecasts.
        rows = k[:, None, :]
        scale = -2.0 * (y[lo:hi] - (rows @ model.theta)[:, 0])
        grads[lo:hi, :ns] = scale[:, None] * (dk_theta + (rows @ jac[:, :ns])[:, 0])
        grads[lo:hi, ns] = scale * (rows @ jac[:, ns])[:, 0]
    return grads
