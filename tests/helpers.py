"""Shared test oracles: finite differences, brute-force projections, generators.

The finite-difference oracles re-evaluate the public construction functions at
perturbed hyperparameters; they never touch the analytic derivative code they
are used to check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mkridge
from mkridge.data import Dataset
from mkridge.kernels import (
    ArdKernel,
    CompositeKernel,
    PeriodicKernel,
    SquaredExpKernel,
    gram,
)
from mkridge.model import HyperParams, fit, loss, predict


def fd_step(value: float, h: float = 1e-6) -> float:
    return h * max(1.0, abs(value))


def fd_gram_derivative(spec: CompositeKernel, window, which: int) -> np.ndarray:
    """Central finite difference of the Gram matrix in one scalar coordinate."""
    scalars = spec.scalars()
    h = fd_step(scalars[which])
    up = scalars.copy()
    up[which] += h
    down = scalars.copy()
    down[which] -= h
    g_up = gram(spec.with_scalars(up, require_simplex=False), window)
    g_down = gram(spec.with_scalars(down, require_simplex=False), window)
    return (g_up - g_down) / (2.0 * h)


def fd_theta_column(hypers: HyperParams, window, which: int) -> np.ndarray:
    """Central finite difference of the refit dual coefficients in coordinate ``which``."""
    vec = hypers.to_vector()
    h = fd_step(vec[which])
    up = vec.copy()
    up[which] += h
    down = vec.copy()
    down[which] -= h
    theta_up = fit(hypers.from_vector(up, require_simplex=False), window).theta
    theta_down = fit(hypers.from_vector(down, require_simplex=False), window).theta
    return (theta_up - theta_down) / (2.0 * h)


def fd_loss_gradient(hypers: HyperParams, window, query, y_true: float) -> np.ndarray:
    """Central finite difference of the per-step loss under full refits."""
    vec = hypers.to_vector()
    out = np.empty(vec.size)
    for i in range(vec.size):
        h = fd_step(vec[i])
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        f_up = loss(y_true, predict(fit(hypers.from_vector(up, require_simplex=False), window), query))
        f_down = loss(y_true, predict(fit(hypers.from_vector(down, require_simplex=False), window), query))
        out[i] = (f_up - f_down) / (2.0 * h)
    return out


def rel_errors(a: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    """Componentwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def brute_force_simplex(v: np.ndarray, coarse: float = 1e-3) -> np.ndarray:
    """Grid projection onto the simplex (dims <= 3), refined locally twice."""
    v = np.asarray(v, dtype=float)
    m = v.size
    if m == 1:
        return np.array([1.0])

    def search_2(center: np.ndarray, radius: float, step: float) -> np.ndarray:
        b0 = np.arange(max(0.0, center[0] - radius), min(1.0, center[0] + radius) + step / 2, step)
        cand = np.column_stack([b0, 1.0 - b0])
        cand = cand[cand[:, 1] >= -1e-15]
        d = ((cand - v) ** 2).sum(axis=1)
        return cand[np.argmin(d)]

    def search_3(center: np.ndarray, radius: float, step: float) -> np.ndarray:
        b0 = np.arange(max(0.0, center[0] - radius), min(1.0, center[0] + radius) + step / 2, step)
        b1 = np.arange(max(0.0, center[1] - radius), min(1.0, center[1] + radius) + step / 2, step)
        g0, g1 = np.meshgrid(b0, b1, indexing="ij")
        g2 = 1.0 - g0 - g1
        keep = g2 >= -1e-15
        cand = np.column_stack([g0[keep], g1[keep], g2[keep]])
        d = ((cand - v) ** 2).sum(axis=1)
        return cand[np.argmin(d)]

    search = search_2 if m == 2 else search_3
    if m > 3:
        raise ValueError("brute-force oracle supports dimensions 1..3")
    best = search(np.full(m, 0.5), 0.5, coarse)
    best = search(best, 2 * coarse, coarse / 100)
    best = search(best, 2 * coarse / 100, coarse / 10000)
    return best


def random_spec(rng: np.random.Generator, p: int, n_components: int | None = None) -> CompositeKernel:
    """Random composite kernel with interior weights and moderate scales."""
    m = int(n_components if n_components is not None else rng.integers(1, 4))
    components = []
    for _ in range(m):
        kind = rng.integers(0, 3)
        if kind == 0:
            components.append(PeriodicKernel(float(rng.uniform(0.05, 2.0)), float(rng.uniform(3.0, 40.0))))
        elif kind == 1:
            components.append(SquaredExpKernel(float(rng.uniform(0.01, 1.0))))
        else:
            components.append(ArdKernel(rng.uniform(0.01, 1.0, p)))
    weights = rng.dirichlet(np.full(m, 2.0))
    return CompositeKernel(tuple(components), weights)


def random_window(rng: np.random.Generator, n: int, p: int) -> Dataset:
    times = np.sort(rng.choice(10 * n, size=n, replace=False)).astype(float)
    lags = rng.normal(0.0, 1.0, (n, p))
    targets = rng.normal(0.0, 1.0, n)
    return Dataset(times, lags, targets)


def random_instance(rng: np.random.Generator, n_max: int = 50, p_max: int = 20):
    """Random (hypers, window) pair for derivative checks."""
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    spec = random_spec(rng, p)
    hypers = HyperParams(spec, float(rng.uniform(0.05, 1.5)))
    return hypers, random_window(rng, n, p)


def run_isolated(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this mkridge."""
    src = str(Path(mkridge.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()
