"""The per-step code calls numpy's ufuncs and ndarray methods directly.

``sample_sphere``, the Frank-Wolfe and projected steps, ``project``,
``coverage_batch``, the coverage gradient, ``batch_grad`` and the
multilinear oracle's counted calls skip numpy's Python-level wrappers
(``np.linalg.norm``, ``np.clip``, ``np.sum``, ``np.mean``, ``np.prod``,
``np.cumsum``, ``np.argsort``, ``np.argmax``, ``np.zeros_like``,
``np.flatnonzero``) and call what those wrappers call.  Each test here runs
the same computation written with the wrappers and compares the bits, on
random inputs with ``-0.0`` entries, ties at the caps and between blocks,
and norms at ``sample_sphere``'s 1e-12 redraw threshold.
"""

import numpy as np
import pytest

from zogreedy import (
    ConstraintSpec,
    SetOracle,
    batch_grad,
    lmo,
    momentum_update,
    project,
    rho_schedule,
    sample_sphere,
)
from zogreedy.algorithms import _frank_wolfe, _projected
from zogreedy.objectives import _coverage_gradient, coverage_batch
from zogreedy.oracles import MultilinearOracle, sample_masks

from support import batch_grad_reference, random_geometry


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def signed_zeros(rng, a, share=0.2):
    """``a`` with a random ``share`` of its entries set to ``-0.0``."""
    a = np.array(a, dtype=float)
    a[rng.random(a.shape) < share] = -0.0
    return a


class ScriptedNormals:
    """A generator stand-in for ``sample_sphere``: Gaussian rows, some replaced
    by a row of signed zeros, a subnormal row, or a direction scaled to within
    a few ulps of norm 1e-12.  Two instances with one seed give one stream."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.shapes = []
        self.near = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        rng = self.rng
        u = rng.standard_normal(shape)
        for i in np.flatnonzero(rng.random(shape[0]) < 0.4).tolist():
            kind = int(rng.integers(4))
            if kind == 0:
                u[i] = np.where(rng.random(shape[1]) < 0.5, -0.0, 0.0)
            elif kind == 1:
                u[i] *= 1e-310
            elif kind == 2:
                u[i] *= 1e-12 / np.linalg.norm(u[i]) * (1.0 + int(rng.integers(-4, 5)) * 2.0**-52)
                self.near.append(u[i].copy())
            else:
                u[i] = signed_zeros(rng, u[i], 0.5)
        return u


def sample_sphere_wrapped(dim, rng, size):
    """``sample_sphere`` written with ``np.linalg.norm``, ``np.any`` and ``np.sum``."""
    n = 1 if size is None else int(size)
    u = rng.standard_normal((n, dim))
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        u[bad] = rng.standard_normal((int(np.sum(bad)), dim))
        norms = np.linalg.norm(u, axis=1)
    u /= norms[:, None]
    return u[0] if size is None else u


def test_sample_sphere_equals_linalg_norm():
    near = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        d = int(rng.choice([1, 2, 3, 7, 20, 24, 34, 1000]))
        size = None if seed % 10 == 0 else int(rng.integers(1, 17))
        got, want = ScriptedNormals(seed), ScriptedNormals(seed)
        assert bits(sample_sphere(d, got, size=size)) == bits(sample_sphere_wrapped(d, want, size))
        assert got.shapes == want.shapes
        near += got.near
    norms = np.array([np.linalg.norm(u) for u in near])
    # rows both just below the threshold (redrawn) and at or above it (kept)
    assert (norms < 1e-12).sum() >= 20 and (norms >= 1e-12).sum() >= 20


def project_wrapped(constraint, y):
    """``project`` written with ``np.clip``, ``np.sum``, ``np.argsort``,
    ``np.cumsum`` and ``np.argmax``."""
    upper = constraint.upper
    y = np.asarray(y, dtype=float)
    x = np.clip(y, 0.0, upper)
    for idx, budget in zip(constraint.block_index, constraint.budgets):
        if float(np.sum(x[idx])) <= budget:
            continue
        yb, cb = y[idx], upper[idx]
        points = np.concatenate((yb, yb - cb))
        order = np.argsort(-points)
        points = points[order]
        signs = np.where(order < idx.size, 1.0, -1.0)
        h = np.cumsum(signs * points) - np.cumsum(signs) * points
        j = int(np.argmax(h > budget))
        if j == 0:
            continue
        frac = (h[j] - budget) / (h[j] - h[j - 1])
        lam = points[j] + frac * (points[j - 1] - points[j])
        x[idx] = np.clip(yb - lam, 0.0, cb)
    return x


def project_point(rng, C):
    """A point to project: ties at the caps and at 0, values shared across
    blocks, tied breakpoints, and ``-0.0`` entries."""
    d = C.dim
    y = rng.uniform(-1.0, 3.0, d)
    r = rng.random()
    if r < 0.25:
        y = np.round(y, 1)
    elif r < 0.5:
        at_cap = rng.random(d) < 0.5
        y[at_cap] = C.upper[at_cap]
    elif r < 0.75:
        y = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 2.0], d)
    return signed_zeros(rng, y)


def test_project_equals_wrapped_calls():
    rng = np.random.default_rng(41)
    filled = signed = 0
    for _ in range(3000):
        C = random_geometry(rng, int(rng.integers(1, 13)))
        y = project_point(rng, C)
        assert bits(project(C, y)) == bits(project_wrapped(C, y))
        filled += any(np.sum(np.clip(y[idx], 0.0, C.upper[idx])) > budget
                      for idx, budget in zip(C.block_index, C.budgets))
        signed += bool(np.signbit(y).any() and (y == 0.0).any())
    assert filled >= 500 and signed >= 500
    # the budget is the block capacity summed in another order
    caps = np.array([0.7, 0.3, 1 / 3, 0.3, 0.7, 0.3, 0.3, 0.7, 1 / 3, 0.2, 0.2, 0.3, 0.2])
    C = ConstraintSpec(kind="block_budget", upper=caps, blocks=(tuple(range(caps.size)),),
                       budgets=(float(np.cumsum(caps[::-1])[-1]),))
    for y in (caps, caps + 0.5, signed_zeros(rng, caps - 0.1, 0.5)):
        assert bits(project(C, y)) == bits(project_wrapped(C, y))


def step_gradient(rng, d):
    """A gradient with ``-0.0`` entries, at a scale whose squares may underflow."""
    scale = float(rng.choice([1e-160, 1e-3, 1.0, 1e3]))
    return signed_zeros(rng, scale * rng.standard_normal(d))


@pytest.mark.parametrize("projected", [False, True], ids=["frank_wolfe", "projected"])
def test_step_norms_equal_linalg_norm(projected):
    """Each step's point and reported norm, against the step written with
    ``np.linalg.norm``, ``np.sqrt`` and the wrapped ``project``."""
    rng = np.random.default_rng(42 + projected)
    for _ in range(300):
        d = int(rng.choice([1, 2, 5, 12])) if rng.random() < 0.9 else 1000
        C = random_geometry(rng, d) if d <= 12 else ConstraintSpec.box(rng.uniform(0.1, 1.0, d))
        T, eta0 = 8, float(rng.uniform(0.01, 1.0))
        step = _projected(C, eta0, 1.0) if projected else _frank_wolfe(C, T)
        x, g_bar = np.zeros(d), np.zeros(d)
        for t in range(1, 7):
            g = step_gradient(rng, d)
            got_x, got_norm = step(x, g, t)
            if projected:
                want_x = project_wrapped(C, x + (eta0 / np.sqrt(t)) * g)
                want_norm = float(np.linalg.norm(g))
            else:
                g_bar = momentum_update(g_bar, g, rho_schedule(t))
                want_x = x + lmo(C, g_bar) / T
                want_norm = float(np.linalg.norm(g_bar))
            assert bits(got_x) == bits(want_x)
            assert float.hex(got_norm) == float.hex(want_norm)
            x = got_x


def coverage_instance(rng):
    """A topic matrix with exact 0, -0.0 and 1 entries, and a selection whose
    1 entries under a P of 1 make factors vanish."""
    k, d = int(rng.integers(1, 41)), int(rng.integers(1, 41))
    P = rng.random((k, d))
    r = rng.random((k, d))
    P[r < 0.1] = 1.0
    P[(r >= 0.1) & (r < 0.2)] = 0.0
    P[(r >= 0.2) & (r < 0.3)] = -0.0
    x = rng.random(d)
    x[rng.random(d) < 0.2] = 1.0
    return P, signed_zeros(rng, x)


def test_coverage_batch_equals_prod_and_mean():
    rng = np.random.default_rng(43)
    for _ in range(800):
        P, _ = coverage_instance(rng)
        n, d = int(rng.integers(0, 20)), P.shape[1]
        if rng.random() < 0.5:
            rows = rng.random((n, d)) < 0.5
        else:
            rows = signed_zeros(rng, np.where(rng.random((n, d)) < 0.2, 1.0, rng.random((n, d))))
        factors = 1.0 - P[None, :, :] * rows[:, None, :]
        want = np.mean(1.0 - np.prod(factors, axis=2), axis=1)
        assert bits(coverage_batch(P, rows)) == bits(want)


def coverage_gradient_wrapped(P, x):
    """The coverage gradient written with ``np.prod`` and ``np.cumsum``."""
    k, d = P.shape
    factors = 1.0 - P * x
    vanishing = np.abs(factors) < 1e-300
    counts = np.count_nonzero(vanishing, axis=1)
    if counts.any():
        free = counts == 0
        contrib = np.zeros((k, d))
        contrib[free] = P[free] * (np.prod(factors[free], axis=1)[:, None] / factors[free])
        for j in np.flatnonzero(counts == 1).tolist():
            a = int(np.flatnonzero(vanishing[j])[0])
            contrib[j, a] = P[j, a] * np.prod(np.delete(factors[j], a))
    else:
        contrib = P * (np.prod(factors, axis=1)[:, None] / factors)
    return (np.cumsum(contrib, axis=0)[-1] + 0.0) / k


def test_coverage_gradient_equals_prod_and_cumsum():
    rng = np.random.default_rng(44)
    vanished = 0
    for _ in range(800):
        P, x = coverage_instance(rng)
        assert bits(_coverage_gradient(P, x)) == bits(coverage_gradient_wrapped(P, x))
        vanished += bool((np.abs(1.0 - P * x) < 1e-300).any())
    assert vanished >= 200


@pytest.mark.parametrize("value", [lambda x: 0.5, lambda x: float(x @ np.arange(x.size))],
                         ids=["constant", "linear"])
def test_batch_grad_equals_zeros_like_start(value):
    """A constant objective makes every term of the sum a signed zero."""
    for d, batch in ((1, 3), (7, 1), (7, 5), (40, 16)):
        x = np.full(d, 0.3)
        got = batch_grad(value, x, 0.05, batch, np.random.default_rng(d))
        want = batch_grad_reference(value, x, 0.05, batch, np.random.default_rng(d))
        assert bits(got) == bits(want)


@pytest.mark.parametrize("point", [0.0, 1.0, 0.5], ids=["empty", "full", "half"])
def test_multilinear_sets_equal_flatnonzero(point):
    """Counted calls and gradients query the sets ``np.flatnonzero`` reads off
    the masks drawn from the same stream, the empty and the full set included."""
    d, l = 9, 5
    seen = []
    f = SetOracle(lambda S: seen.append(S) or float(len(S)), ground_size=d, bound_M=float(d))
    x = np.full(d, point)
    F = MultilinearOracle(f, l, np.random.default_rng(3), np.random.default_rng(0), 1)
    F(x)
    F.gradient(x)
    ref_rng = np.random.default_rng(3)
    sets = [frozenset(np.flatnonzero(m).tolist()) for m in sample_masks(x, l, ref_rng)]
    base = frozenset(np.flatnonzero(sample_masks(x, 1, ref_rng)[0]).tolist())
    pairs = [(base, base - {i}) if i in base else (base | {i}, base) for i in range(d)]
    assert seen == sets + [S for pair in pairs for S in pair]
