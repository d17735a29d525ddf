"""Linear maximization, Euclidean projection, and randomized rounding.

The conditional-gradient optimizers touch their feasible set only through
:func:`lmo`; the projected-ascent baselines only through :func:`project`.
Both are exact for the three supported families (boxes, block-budget
polytopes, partition-matroid polytopes), which are polymatroid-like:
per-block fractional greedy assignment solves the linear problem and
per-block water-filling solves the projection.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .constraints import PARTITION_MATROID, ConstraintSpec, contains

_INTEGRALITY_EPS = 1e-12


def lmo(constraint: ConstraintSpec, g: np.ndarray) -> np.ndarray:
    """argmax over the constraint set of <v, g>, solved in closed form.

    Coordinates with non-positive weight receive 0 (the sets are down-closed,
    so they never help).  Within a block, capacity is granted in decreasing
    weight order, ties broken toward the lowest index, and the last coordinate
    funded may be fractional.  One stable sort, keyed by block and then by
    weight, orders every block at once.  The budget left before each grant is
    a running difference along the block's row of the constraint's scan
    matrix, the same arithmetic as granting one coordinate at a time.
    """
    upper = constraint.upper
    g = np.asarray(g, dtype=float)
    if g.shape != upper.shape:
        raise ValueError(f"gradient has shape {g.shape}, expected {upper.shape}")
    v = np.where(g > 0.0, upper, 0.0)
    if constraint.blocks:
        members, block_of, slots, table = constraint.block_scan
        order = members[np.lexsort((-g[members], block_of))]
        caps = upper[order]
        scan = table.copy()
        scan.reshape(-1)[slots] = caps
        remaining = np.subtract.accumulate(scan, axis=1).reshape(-1)[slots - 1]
        funded = (g[order] > 0.0) & (remaining > 0.0)
        v[order] = np.where(funded, np.minimum(caps, remaining), 0.0)
    return v


def project(constraint: ConstraintSpec, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto a box or block-budget set.

    Per block the KKT conditions give ``x_i = clip(y_i - lam, 0, cap_i)`` with
    ``lam = 0`` when the clipped point already meets the budget and otherwise
    the exact water level where the block sum ``h(lam)`` equals the budget.
    ``h`` is piecewise linear with breakpoints ``y`` and ``y - cap``; running
    sums over them in decreasing order give ``h`` at each breakpoint, and
    ``lam`` is interpolated on the piece where ``h`` crosses the budget.
    """
    upper = constraint.upper
    y = np.asarray(y, dtype=float)
    if y.shape != upper.shape:
        raise ValueError(f"point has shape {y.shape}, expected {upper.shape}")
    x = y.clip(0.0, upper)
    for idx, budget in zip(constraint.block_index, constraint.budgets):
        if np.add.reduce(x[idx]) <= budget:
            continue
        yb, cb = y[idx], upper[idx]
        points = np.concatenate((yb, yb - cb))
        order = (-points).argsort()
        points = points[order]
        signs = np.where(order < idx.size, 1.0, -1.0)
        h = np.add.accumulate(signs * points) - np.add.accumulate(signs) * points
        j = int((h > budget).argmax())
        if j == 0:  # the budget equals the block capacity up to rounding
            continue
        frac = (h[j] - budget) / (h[j] - h[j - 1])
        lam = points[j] + frac * (points[j - 1] - points[j])
        x[idx] = (yb - lam).clip(0.0, cb)
    return x


def _fractional(v: float) -> bool:
    return _INTEGRALITY_EPS < v < 1.0 - _INTEGRALITY_EPS


def _merge_pair(x: np.ndarray, i: int, j: int, rng: np.random.Generator) -> None:
    """Make one of x_i, x_j integral while preserving both marginals.

    When the pair mass fits under the cap, all of it moves to one coordinate
    (to i with probability x_i / (x_i + x_j)); otherwise one coordinate
    saturates at 1 (i with probability (1 - x_j) / (2 - x_i - x_j)) and the
    other keeps the excess.
    """
    total = x[i] + x[j]
    if total <= 1.0:
        if rng.random() < x[i] / total:
            x[i], x[j] = total, 0.0
        else:
            x[i], x[j] = 0.0, total
    else:
        if rng.random() < (1.0 - x[j]) / (2.0 - total):
            x[i], x[j] = 1.0, total - 1.0
        else:
            x[i], x[j] = total - 1.0, 1.0


def swap_round(
    x: np.ndarray, matroid: ConstraintSpec, rng: np.random.Generator
) -> frozenset:
    """Round a fractional matroid-polytope point to an independent set.

    Walks each block once, merging every fractional coordinate into the one
    fractional coordinate the block carries so far, then resolves what is
    left by a Bernoulli draw; coordinates outside every block come last, each
    as a block of its own.  Every step preserves per-coordinate marginals, so
    ``P[i in S] = x_i``, and for submodular objectives the expected set value
    never drops below the multilinear extension at ``x``.
    """
    if matroid.kind != PARTITION_MATROID:
        raise ValueError("swap rounding requires a partition matroid")
    x = np.asarray(x, dtype=float)
    if not contains(matroid, x, tol=1e-9):
        raise ValueError("point lies outside the matroid polytope")
    x = np.clip(x, 0.0, 1.0)
    covered = set(chain.from_iterable(matroid.blocks))
    singletons = [(i,) for i in range(matroid.dim) if i not in covered]
    for block in (*matroid.blocks, *singletons):
        carry = None
        for k in block:
            if not _fractional(x[k]):
                continue
            if carry is not None:
                _merge_pair(x, carry, k, rng)
                carry = next((i for i in (carry, k) if _fractional(x[i])), None)
            else:
                carry = k
        if carry is not None:
            x[carry] = 1.0 if rng.random() < x[carry] else 0.0
    return frozenset(int(i) for i in np.flatnonzero(x > 0.5))
