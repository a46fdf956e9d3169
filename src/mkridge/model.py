"""Closed-form kernel ridge regression with exact hyperparameter gradients.

Fitting solves ``(K + ridge*I) theta = y`` through a cached Cholesky
factorization. The same factorization backs the Jacobian of the dual
coefficients with respect to every hyperparameter,

    d theta / d lam_i = -(K + ridge*I)^{-1} (dA/d lam_i) theta,

where ``dA/d lam_i`` is the analytic Gram derivative for kernel
hyperparameters and the identity for the ridge constant. The per-step
squared-error loss then has an exact gradient assembled from the cross
vector, its analytic derivatives, and the cached Jacobian columns.

Predictions and hyper-gradients are evaluated for a block of queries at once
(:func:`predict_batch`, :func:`loss_hyper_gradient_batch`);
:func:`loss_hyper_gradient` is a one-row view of the batched gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import NumericalError
from .kernels import CompositeKernel, TimedPoint, _readonly, window_arrays

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
        if not self.ridge > 0:
            raise ValueError(f"ridge constant must be positive, got {self.ridge}")
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
    """Dual coefficients plus the cached factorization and training window."""

    hypers: HyperParams
    times: np.ndarray
    lags: np.ndarray
    targets: np.ndarray
    theta: np.ndarray
    gram: np.ndarray
    cho: tuple

    @property
    def n(self) -> int:
        return self.theta.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply the cached factorization: solve ``(K + ridge*I) x = b``."""
        return cho_solve(self.cho, b)


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
    positive ridge (a numerically indefinite system).
    """
    times, lags, y = training_arrays(window)
    gram = hypers.kernel.block(times, lags)
    a = gram + hypers.ridge * np.eye(y.size)
    try:
        factor = cho_factor(a, lower=True)
    except LinAlgError as exc:
        raise NumericalError(
            f"kernel system factorization failed at ridge={hypers.ridge!r} (n={y.size})"
        ) from exc
    theta = cho_solve(factor, y)
    residual = y - a @ theta
    if np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(y)):
        # a single refinement pass keeps the residual bound on ill-conditioned systems
        theta = theta + cho_solve(factor, residual)
    # gram and theta were built here and nothing else holds them: freeze in place
    gram.setflags(write=False)
    theta.setflags(write=False)
    return TrainedModel(
        hypers=hypers,
        times=_readonly(times),
        lags=_readonly(lags),
        targets=_readonly(y),
        theta=theta,
        gram=gram,
        cho=factor,
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
    the final column is the ridge direction with ``dA/d ridge = I``.
    """
    cols = [
        model.solve(-(da @ model.theta))
        for da in model.hypers.kernel.iter_block_derivs(model.times, model.lags)
    ]
    cols.append(model.solve(-model.theta))
    return np.column_stack(cols)


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
    the kernel values and derivatives of many queries come from one batched
    evaluation.
    """
    d = model.hypers.dim
    if jac.shape != (model.n, d):
        raise ValueError(f"Jacobian shape {jac.shape} does not match (n, dim)=({model.n}, {d})")
    qt, qx = window_arrays(queries)
    _check_query(model, qx)
    y = np.asarray(targets, dtype=float)
    if y.shape != qt.shape:
        raise ValueError(f"got {y.size} targets for {qt.size} queries")
    spec = model.hypers.kernel
    ns = spec.n_scalars
    grads = np.empty((y.size, d))
    # queries go in blocks so the (block, ns, n) derivative tensor stays near 1 MB
    block = max(1, _BLOCK_VALUES // (ns * model.n))
    for lo in range(0, y.size, block):
        hi = lo + block
        k, dk = spec.cross_derivs_many(qt[lo:hi], qx[lo:hi], model.times, model.lags)
        # Every product is a stack of one-query products (matmul loops over the
        # leading axis with the BLAS call a single query makes), so each row is
        # bit-identical to a one-query evaluation whatever the block size. One
        # (m, n) @ (n,) product would round differently, and OHL's updates can
        # amplify a last-digit difference until it shows in the forecasts.
        rows = k[:, None, :]
        scale = -2.0 * (y[lo:hi] - (rows @ model.theta)[:, 0])
        grads[lo:hi, :ns] = scale[:, None] * (dk @ model.theta + (rows @ jac[:, :ns])[:, 0])
        grads[lo:hi, ns] = scale * (rows @ jac[:, ns])[:, 0]
    return grads
