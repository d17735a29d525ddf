"""Sphere sampling, two-point gradient estimation, and momentum averaging.

The gradient of the ball-averaged surrogate of an objective F admits unbiased
single-query and double-query estimators built from uniform directions on the
unit sphere.  These are the only derivative probes the optimizers use; the
momentum recursion then damps their variance across iterations.
"""

from __future__ import annotations

import numpy as np

from .constraints import _count


def sample_sphere(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the unit sphere, via normalized Gaussians.

    Returns shape (dim,) when ``size`` is None, else (size, dim) for an
    integer ``size >= 0``.  The norms are ``np.linalg.norm``'s own formula for
    rows, ``sqrt(add.reduce(u * u))``, without its Python-level wrapper.
    """
    dim = _count(dim, "dimension")
    n = 1 if size is None else _count(size, "sample count", 0)
    u = rng.standard_normal((n, dim))
    norms = np.sqrt(np.add.reduce(u * u, axis=1))
    while (norms < 1e-12).any():
        bad = norms < 1e-12
        u[bad] = rng.standard_normal((np.count_nonzero(bad), dim))
        norms = np.sqrt(np.add.reduce(u * u, axis=1))
    u /= norms[:, None]
    return u[0] if size is None else u


def batch_grad(
    oracle, x_t: np.ndarray, delta: float, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Average of ``batch`` two-point estimates centered at c = x_t + delta*1.

    A direction u gives ``(d/2delta) * (F(c + delta*u) - F(c - delta*u)) * u``,
    unbiased for the gradient of the delta-ball average of F.  The center
    shift keeps both probe points inside the original box whenever x_t lies
    in the twice-shrunk domain.  Spends exactly ``2 * batch`` queries, for an
    integer ``batch >= 1``.
    """
    batch = _count(batch, "batch size")
    center = np.asarray(x_t, dtype=float) + delta
    d = center.size
    total = np.zeros(center.shape)
    for u in sample_sphere(d, rng, size=batch):
        diff = oracle(center + delta * u) - oracle(center - delta * u)
        total += (d / (2.0 * delta)) * diff * u
    return total / batch


def momentum_update(g_bar: np.ndarray, g_t: np.ndarray, rho_t: float) -> np.ndarray:
    """One step of the averaging recursion g_bar <- (1-rho) g_bar + rho g_t."""
    g_t = np.asarray(g_t, dtype=float)
    if g_t.shape != g_bar.shape:
        raise ValueError(f"gradient has shape {g_t.shape}, expected {g_bar.shape}")
    if not 0.0 < rho_t <= 1.0:
        raise ValueError("momentum weight must lie in (0, 1]")
    return (1.0 - rho_t) * g_bar + rho_t * g_t


def rho_schedule(t: int) -> float:
    """Decaying momentum weight 2 / (t + 3)^(2/3), clamped into (0, 1]."""
    if t < 1:
        raise ValueError("step index must be >= 1")
    return min(1.0, 2.0 / (t + 3.0) ** (2.0 / 3.0))
