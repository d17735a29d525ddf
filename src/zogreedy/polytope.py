"""Linear maximization, Euclidean projection, and randomized rounding.

The conditional-gradient optimizers touch their feasible set only through
:func:`lmo`; the projected-ascent baselines only through :func:`project`.
Both are exact for the three supported families (boxes, block-budget
polytopes, partition-matroid polytopes), which are polymatroid-like:
per-block fractional greedy assignment solves the linear problem and
per-block water-filling solves the projection.
"""

from __future__ import annotations

import itertools

import numpy as np

from .constraints import PARTITION_MATROID, ConstraintSpec, contains

_INTEGRALITY_EPS = 1e-12


def lmo(constraint, g: np.ndarray) -> np.ndarray:
    """argmax over the constraint set of <v, g>, solved in closed form.

    Coordinates with non-positive weight receive 0 (the sets are down-closed,
    so they never help).  Within a block, capacity is granted in decreasing
    weight order, ties broken toward the lowest index, and the last coordinate
    funded may be fractional.
    """
    upper = constraint.upper
    g = np.asarray(g, dtype=float)
    if g.shape != upper.shape:
        raise ValueError(f"gradient has shape {g.shape}, expected {upper.shape}")
    v = np.where(g > 0.0, upper, 0.0)
    for block, budget in zip(constraint.blocks, constraint.budgets):
        order = sorted(block, key=lambda i: (-g[i], i))
        remaining = budget
        for i in order:
            if g[i] <= 0.0 or remaining <= 0.0:
                v[i] = 0.0
                continue
            take = min(upper[i], remaining)
            v[i] = take
            remaining -= take
    return v


def project(constraint, y: np.ndarray, bisect_tol: float = 1e-10) -> np.ndarray:
    """Euclidean projection onto a box or block-budget set.

    Per block the KKT conditions give ``x_i = clip(y_i - lam, 0, cap_i)`` with
    ``lam = 0`` when the clipped point already meets the budget and otherwise
    the water level at which the block sum equals the budget, found by
    bisection.
    """
    upper = constraint.upper
    y = np.asarray(y, dtype=float)
    if y.shape != upper.shape:
        raise ValueError(f"point has shape {y.shape}, expected {upper.shape}")
    x = np.clip(y, 0.0, upper)
    for block, budget in zip(constraint.blocks, constraint.budgets):
        idx = list(block)
        if float(np.sum(x[idx])) <= budget:
            continue
        yb = y[idx]
        cb = upper[idx]
        lo, hi = 0.0, float(np.max(yb))
        while hi - lo > bisect_tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if float(np.sum(np.clip(yb - mid, 0.0, cb))) > budget:
                lo = mid
            else:
                hi = mid
        x[idx] = np.clip(yb - hi, 0.0, cb)
    return x


def _round_leftover(x: np.ndarray, i: int, rng: np.random.Generator) -> None:
    x[i] = 1.0 if rng.random() < x[i] else 0.0


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

    Repeatedly merges two fractional coordinates of the same block until each
    block holds at most one fractional entry, then resolves leftovers by a
    Bernoulli draw.  Every step preserves per-coordinate marginals, so
    ``P[i in S] = x_i``, and for submodular objectives the expected set value
    never drops below the multilinear extension at ``x``.
    """
    if matroid.kind != PARTITION_MATROID:
        raise ValueError("swap rounding requires a partition matroid")
    x = np.asarray(x, dtype=float)
    if not contains(matroid, x, tol=1e-9):
        raise ValueError("point lies outside the matroid polytope")
    x = np.clip(x, 0.0, 1.0).copy()
    covered = set()
    for block in matroid.blocks:
        covered.update(block)
        frac = [i for i in block if _INTEGRALITY_EPS < x[i] < 1.0 - _INTEGRALITY_EPS]
        while len(frac) >= 2:
            i, j = frac[0], frac[1]
            _merge_pair(x, i, j, rng)
            frac = [k for k in frac if _INTEGRALITY_EPS < x[k] < 1.0 - _INTEGRALITY_EPS]
        if frac:
            _round_leftover(x, frac[0], rng)
    for i in range(matroid.dim):
        if i not in covered and _INTEGRALITY_EPS < x[i] < 1.0 - _INTEGRALITY_EPS:
            _round_leftover(x, i, rng)
    return frozenset(int(i) for i in np.flatnonzero(x > 0.5))


def enumerate_vertices(constraint, max_dim: int = 10) -> list[np.ndarray]:
    """All vertices of a small constraint polytope (plus boundary candidates).

    Intended as a brute-force optimum oracle for :func:`lmo`: the returned
    list is a feasibility-filtered superset of the vertex set, built from all
    per-block assignments that saturate caps and budgets.
    """
    upper, blocks, budgets = constraint.upper, constraint.blocks, constraint.budgets
    d = upper.size
    if d > max_dim:
        raise ValueError(f"vertex enumeration limited to dim <= {max_dim}")

    covered = sorted(set(itertools.chain.from_iterable(blocks)))
    free = [i for i in range(d) if i not in covered]

    block_choices: list[list[dict[int, float]]] = []
    for block, budget in zip(blocks, budgets):
        choices: list[dict[int, float]] = []
        members = list(block)
        for r in range(len(members) + 1):
            for subset in itertools.combinations(members, r):
                cap_sum = float(np.sum(upper[list(subset)])) if subset else 0.0
                if cap_sum <= budget + 1e-12:
                    choices.append({i: float(upper[i]) for i in subset})
                    residual = budget - cap_sum
                    for j in members:
                        if j in subset:
                            continue
                        if 1e-12 < residual < upper[j] - 1e-12:
                            partial = {i: float(upper[i]) for i in subset}
                            partial[j] = residual
                            choices.append(partial)
        block_choices.append(choices)

    free_choices = [[(i, 0.0), (i, float(upper[i]))] for i in free]

    points: list[np.ndarray] = []
    seen: set[bytes] = set()
    for combo in itertools.product(*block_choices) if block_choices else [()]:
        base = np.zeros(d)
        for assignment in combo:
            for i, val in assignment.items():
                base[i] = val
        for free_combo in itertools.product(*free_choices) if free_choices else [()]:
            v = base.copy()
            for i, val in free_combo:
                v[i] = val
            if not contains(constraint, v, tol=1e-9):
                continue
            key = np.round(v, 12).tobytes()
            if key not in seen:
                seen.add(key)
                points.append(v)
    return points
