"""Feasible sets, projections, projected gradients, and regret bookkeeping.

The feasible set is a product of per-coordinate boxes and one probability
simplex (the mixture-weight block), so the Euclidean projection decomposes
into a componentwise clamp plus a sort-and-threshold simplex projection.

The projections and the projected-gradient map take one vector or an
``(m, d)`` block of rows; every operation is row by row, so each row of a
block equals the projection of that row alone, bit for bit. A non-finite
input raises :class:`NumericalError`.

One projected step ``proj(z - eta*g)`` serves :func:`lazy_step`, the update
of both gradient tuners, and :func:`projected_gradient`, which measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError
from .kernels import SIMPLEX_TOL

__all__ = [
    "FeasibleSet",
    "RegretTrace",
    "project_box",
    "project_simplex",
    "project_C",
    "projected_gradient",
    "lazy_step",
    "regret_update",
]


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Box bounds per scalar plus one simplex block.

    ``lower``/``upper`` hold the box bounds; entries inside the simplex block
    are ``-inf``/``+inf`` so a componentwise clamp leaves that block alone.
    ``log_sample`` marks box coordinates that random search should draw
    log-uniformly (wide positive scale ranges).
    """

    lower: np.ndarray
    upper: np.ndarray
    simplex: slice
    log_sample: np.ndarray | None = None

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float).copy()
        upper = np.asarray(self.upper, dtype=float).copy()
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper bounds must be 1-d arrays of equal length")
        d = lower.size
        start, stop, step = self.simplex.indices(d)
        if step != 1 or stop - start < 1:
            raise ValueError("simplex block must be a contiguous slice of length >= 1")
        lower[self.simplex] = -np.inf
        upper[self.simplex] = np.inf
        if not np.all(lower <= upper):  # a NaN bound fails too
            raise ValueError(
                "every bound must be a number, and no lower bound may exceed its upper bound"
            )
        log_sample = self.log_sample
        if log_sample is None:
            log_sample = np.zeros(d, dtype=bool)
        else:
            log_sample = np.asarray(log_sample, dtype=bool).copy()
            if log_sample.shape != (d,):
                raise ValueError("log_sample mask must match the vector length")
        log_sample[self.simplex] = False
        for a in (lower, upper, log_sample):
            a.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "log_sample", log_sample)
        object.__setattr__(self, "simplex", slice(start, stop))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, v, tol: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            return False
        if np.any(v < self.lower - tol) or np.any(v > self.upper + tol):
            return False
        w = v[self.simplex]
        return bool(np.all(w >= -tol) and abs(float(w.sum()) - 1.0) <= max(tol, SIMPLEX_TOL))

    @classmethod
    def for_kinds(cls, kinds: Sequence[str], bounds: Mapping[str, tuple[float, float]]) -> "FeasibleSet":
        """Build a feasible set from per-scalar kind labels.

        ``kinds`` contains one of ``"scale" | "period" | "mixture" | "ridge"``
        per coordinate (the mixture block must be contiguous); ``bounds`` maps
        each non-mixture kind to its ``(lower, upper)`` interval. Positive
        scale intervals are marked for log-uniform sampling.
        """
        kinds = list(kinds)
        d = len(kinds)
        lower = np.full(d, -np.inf)
        upper = np.full(d, np.inf)
        log_sample = np.zeros(d, dtype=bool)
        mix = [i for i, k in enumerate(kinds) if k == "mixture"]
        if not mix:
            raise ValueError("kinds must contain at least one 'mixture' entry")
        if mix != list(range(mix[0], mix[-1] + 1)):
            raise ValueError("mixture block must be contiguous")
        for i, kind in enumerate(kinds):
            if kind == "mixture":
                continue
            try:
                lo, hi = bounds[kind]
            except KeyError:
                raise ValueError(f"no bounds given for hyperparameter kind {kind!r}") from None
            lower[i], upper[i] = float(lo), float(hi)
            if kind == "scale" and lo > 0:
                log_sample[i] = True
        return cls(lower, upper, slice(mix[0], mix[-1] + 1), log_sample)

    def sample_many(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Draw ``k`` feasible vectors, the rows of a ``(k, dim)`` array:
        uniform (or log-uniform) boxes, uniform simplex.

        One ``rng.random`` call draws every row, its box coordinates in index
        order and then its simplex block, and maps them as ``rng.uniform``
        does (``a + (b - a) * u``). So the rows and the generator's state
        afterwards equal those of ``k`` successive :meth:`sample` calls, bit
        for bit.
        """
        if k < 1:
            raise ValueError(f"expected k >= 1 draws, got {k}")
        # the box coordinates, their log-sampled ones, and the (log-)interval of each
        box = np.ones(self.dim, dtype=bool)
        box[self.simplex] = False
        log = self.log_sample[box]
        lo, hi = self.lower[box], self.upper[box]
        a, b = lo.copy(), hi.copy()
        # a log-sampled lower bound <= 0 gives a non-finite span
        with np.errstate(divide="ignore", invalid="ignore"):
            a[log], b[log] = np.log(lo[log]), np.log(hi[log])
            span = b - a
        if not np.isfinite(span).all():
            raise ValueError(
                "cannot sample from an unbounded box coordinate, "
                "or from a log-sampled one whose lower bound is not positive"
            )
        u = rng.random((k, span.size + self.simplex.stop - self.simplex.start))
        x = a + span * u[:, : span.size]
        x[:, log] = np.clip(np.exp(x[:, log]), lo[log], hi[log])
        v = np.empty((k, self.dim))
        v[:, box] = x
        v[:, self.simplex] = _project_simplex_rows(u[:, span.size :])
        return v

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one feasible vector: one row of :meth:`sample_many`."""
        return self.sample_many(rng, 1)[0]


def _check_finite(v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        raise NumericalError("cannot project a vector with non-finite entries")


def project_box(v, feasible: FeasibleSet) -> np.ndarray:
    """Clamp box coordinates to their bounds; the simplex block passes through."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != feasible.dim:
        raise ValueError(f"expected vectors of length {feasible.dim}, got shape {v.shape}")
    _check_finite(v)
    return np.clip(v, feasible.lower, feasible.upper)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto ``{w : sum(w) = 1, w >= 0}``, row by row.

    Sort-and-threshold method, O(M log M) per row. Raises
    :class:`NumericalError` if a projected row misses the unit sum by more
    than ``SIMPLEX_TOL``, as rounding makes it do once a row's entries dwarf
    1 (an overflowing gradient step: at 1e16 and more, ``css - 1`` rounds
    the 1 away).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 1:
        raise ValueError("expected a non-empty 1-d vector or a 2-d block of rows")
    _check_finite(v)
    return _project_simplex_rows(v)


def _project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """:func:`project_simplex` of a vector or a block of rows that holds
    only finite values."""
    rows = v.reshape(-1, v.shape[-1])
    if rows.shape[1] == 1:
        return np.ones_like(v)
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    j = np.arange(1, rows.shape[1] + 1)
    # rho is the last j that passes the test; j = 1 always passes
    rho = rows.shape[1] - np.argmax((u + (1.0 - css) / j > 0)[:, ::-1], axis=1)
    tau = (css[np.arange(len(rows)), rho - 1] - 1.0) / rho
    out = np.maximum(rows - tau[:, None], 0.0)
    # already feasible rows stay as they are, so the projection is exactly
    # idempotent; u's last column is each row's minimum
    keep = (u[:, -1] >= 0.0) & (np.abs(rows.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    np.copyto(out, rows, where=keep[:, None])
    miss = np.abs(out.sum(axis=1) - 1.0).max()  # a NaN row's NaN fails the test too
    if not miss <= SIMPLEX_TOL:
        raise NumericalError(
            f"simplex projection misses the unit sum by {float(miss):.3g}: "
            f"entries up to {float(np.abs(rows).max()):.3g} are too large to project"
        )
    return out.reshape(v.shape)


def project_C(v, feasible: FeasibleSet) -> np.ndarray:
    """Projection onto the full feasible set (box clamp + simplex block)."""
    out = project_box(v, feasible)
    # project_box has checked that every entry is finite, and clamping keeps it so
    out[..., feasible.simplex] = _project_simplex_rows(out[..., feasible.simplex])
    return out


def projected_gradient(z, g, eta: float, feasible: FeasibleSet) -> np.ndarray:
    """The projected-gradient map ``(z - proj(z - eta*g)) / eta``.

    ``g`` may be an ``(m, d)`` block of gradients at the same point ``z``;
    row ``i`` is then the map of ``g[i]``. Vanishes exactly at constrained
    stationary points and reduces to ``g`` whenever the step stays interior.
    """
    if not eta > 0:
        raise ValueError(f"step size must be positive, got {eta}")
    z = np.asarray(z, dtype=float)
    return (z - _step(z, np.asarray(g, dtype=float), eta, feasible)) / eta


def lazy_step(z, grads, eta: float, feasible: FeasibleSet) -> np.ndarray:
    """One lazy projected update ``proj(z - (eta/m) * sum(grads))`` from the
    ``(m, d)`` block of one update window's gradients.

    The sum runs row by row from zero, whatever the block's memory layout,
    so the step equals the one a per-step running sum gives, bit for bit.
    """
    grads = np.asarray(grads, dtype=float)
    if grads.ndim != 2 or grads.shape[0] < 1 or grads.shape[1] != feasible.dim:
        raise ValueError(
            f"expected a non-empty (m, {feasible.dim}) block of gradients, got shape {grads.shape}"
        )
    # Along axis 0 of a C-ordered block numpy adds one row after another into
    # one output row; along a contiguous axis, as a column-major block has
    # it, it sums pairwise. A lone column is summed pairwise too: it is a
    # one-weight simplex, which the step maps to 1 whenever the sum is finite.
    # + 0.0 turns an all -0.0 column into the +0.0 a sum from zero gives.
    total = np.add.reduce(np.ascontiguousarray(grads), axis=0) + 0.0
    return _step(np.asarray(z, dtype=float), total, eta / len(grads), feasible)


def _step(z: np.ndarray, g: np.ndarray, eta: float, feasible: FeasibleSet) -> np.ndarray:
    """``proj(z - eta*g)``; a step that overflows fails in :func:`project_C`."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = z - eta * g
    return project_C(step, feasible)


@dataclass
class RegretTrace:
    """Per-step squared projected-gradient norms and their running total,
    one step at a time: of a run, ``np.cumsum(RunTrace.proj_grad_sq)``."""

    sq_norms: list[float] = field(default_factory=list)
    totals: list[float] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.totals[-1] if self.totals else 0.0


def regret_update(trace: RegretTrace, z, g, eta: float, feasible: FeasibleSet) -> RegretTrace:
    """Append ``||P(z, g, eta)||^2`` to the trace and update the running total."""
    p = projected_gradient(z, g, eta, feasible)
    s = float(p @ p)
    trace.sq_norms.append(s)
    trace.totals.append(trace.total + s)
    return trace

