"""Sphere sampling, two-point gradient estimation, and momentum averaging.

The gradient of the ball-averaged surrogate of an objective F admits unbiased
single-query and double-query estimators built from uniform directions on the
unit sphere.  These are the only derivative probes the optimizers use; the
momentum recursion then damps their variance across iterations.
"""

from __future__ import annotations

import numpy as np

from .constraints import DomainError
from .oracles import SetOracle, multilinear_sample


def sample_sphere(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the unit sphere, via normalized Gaussians.

    Returns shape (dim,) when ``size`` is None, else (size, dim).
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    n = 1 if size is None else int(size)
    u = rng.standard_normal((n, dim))
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        u[bad] = rng.standard_normal((int(np.sum(bad)), dim))
        norms = np.linalg.norm(u, axis=1)
    u /= norms[:, None]
    return u[0] if size is None else u


def two_point_grad(oracle, x: np.ndarray, delta: float, u: np.ndarray) -> np.ndarray:
    """Antithetic estimate (d/2delta) * (F(x + delta*u) - F(x - delta*u)) * u.

    Unbiased for the gradient of the delta-ball average of F; two queries.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = x.size
    diff = oracle(x + delta * u) - oracle(x - delta * u)
    return (d / (2.0 * delta)) * diff * u


def batch_grad(
    oracle, x_t: np.ndarray, delta: float, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Average of ``batch`` two-point estimates centered at x_t + delta*1.

    The center shift keeps both probe points inside the original box whenever
    x_t lies in the twice-shrunk domain.  Spends exactly ``2 * batch`` queries.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    center = np.asarray(x_t, dtype=float) + delta
    total = np.zeros_like(center)
    for u in sample_sphere(center.size, rng, size=batch):
        total += two_point_grad(oracle, center, delta, u)
    return total / batch


def discrete_batch_grad(
    f: SetOracle,
    x_t: np.ndarray,
    delta: float,
    batch: int,
    inner_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Two-point estimate for a multilinear extension known only by sampling.

    This is :func:`batch_grad` over the ``inner_samples``-sample multilinear
    extension: each probe value is the average of ``inner_samples``
    evaluations f(S), with S drawn from the probe point's product
    distribution on the same ``rng``.  Spends exactly
    ``2 * batch * inner_samples`` set evaluations.
    """
    if batch < 1 or inner_samples < 1:
        raise ValueError("batch and inner sample sizes must be >= 1")

    def probe(y: np.ndarray) -> float:
        if np.any(y < -1e-9) or np.any(y > 1.0 + 1e-9):
            raise DomainError(
                "probe point leaves the unit cube; keep x_t + delta in "
                "[delta, 1 - delta] per coordinate"
            )
        return multilinear_sample(f, y, inner_samples, rng)

    return batch_grad(probe, x_t, delta, batch, rng)


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
