"""Shared brute-force oracles and random instance generators for the tests.

Everything here is deliberately independent of the library's own computation
paths: multilinear values and partial derivatives are computed by direct
subset enumeration with explicit probability products, so they can act as
ground truth for the package's closed-form and sampled implementations.
"""

from __future__ import annotations

import numpy as np

from zogreedy import ConstraintSpec, SetOracle


def random_weighted_coverage(
    d: int, rng: np.random.Generator, universe: int = 10
) -> tuple[SetOracle, np.ndarray]:
    """Random bounded monotone submodular function with its full value table.

    Element i covers a random subset of a weighted universe; f(S) is the
    weight covered by the union.  Returns the oracle and the table of values
    indexed by bitmask (bit i set <=> element i in S).
    """
    weights = rng.uniform(0.2, 1.0, size=universe)
    covers = rng.random((d, universe)) < 0.45
    table = np.empty(2**d)
    for mask in range(2**d):
        covered = np.zeros(universe, dtype=bool)
        for i in range(d):
            if mask >> i & 1:
                covered |= covers[i]
        table[mask] = float(weights[covered].sum())
    bound = max(float(np.max(np.abs(table))), 1e-9)
    oracle = SetOracle(
        lambda S: float(table[sum(1 << i for i in S)]),
        ground_size=d,
        bound_M=bound,
        name="weighted-coverage",
    )
    return oracle, table


def table_set_oracle(table: np.ndarray, d: int) -> SetOracle:
    bound = max(float(np.max(np.abs(table))), 1e-9)
    return SetOracle(
        lambda S: float(table[sum(1 << i for i in S)]), ground_size=d, bound_M=bound
    )


def multilinear_bruteforce(table: np.ndarray, x: np.ndarray) -> float:
    """E_{S~x}[f(S)] by explicit per-subset probability products."""
    d = x.size
    total = 0.0
    for mask in range(2**d):
        prob = 1.0
        for i in range(d):
            prob *= x[i] if mask >> i & 1 else 1.0 - x[i]
        total += prob * table[mask]
    return total


def partial_bruteforce(table: np.ndarray, x: np.ndarray, i: int) -> float:
    """Exact dF/dx_i: enumeration over subsets with coordinate i marginalized."""
    d = x.size
    total = 0.0
    for mask in range(2**d):
        if mask >> i & 1:
            continue
        prob = 1.0
        for j in range(d):
            if j == i:
                continue
            prob *= x[j] if mask >> j & 1 else 1.0 - x[j]
        total += prob * (table[mask | (1 << i)] - table[mask])
    return total


def gradient_bruteforce(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.array([partial_bruteforce(table, x, i) for i in range(x.size)])


def mixed_second_bruteforce(table: np.ndarray, x: np.ndarray, i: int, j: int) -> float:
    """Exact d2F/dx_i dx_j by double marginalization (i != j)."""
    d = x.size
    total = 0.0
    for mask in range(2**d):
        if mask >> i & 1 or mask >> j & 1:
            continue
        prob = 1.0
        for k in range(d):
            if k in (i, j):
                continue
            prob *= x[k] if mask >> k & 1 else 1.0 - x[k]
        f11 = table[mask | (1 << i) | (1 << j)]
        f10 = table[mask | (1 << i)]
        f01 = table[mask | (1 << j)]
        f00 = table[mask]
        total += prob * (f11 - f10 - f01 + f00)
    return total


def random_small_constraint(rng: np.random.Generator, d: int) -> ConstraintSpec:
    """Random constraint from the three supported families."""
    kind = rng.integers(0, 3)
    if kind == 0:
        # caps stay below 1 so these fit inside a unit-cube domain
        return ConstraintSpec.box(rng.uniform(0.4, 1.0, size=d))
    # split [0, d) into contiguous blocks of random size, possibly leaving
    # trailing coordinates free
    blocks = []
    i = 0
    while i < d:
        size = int(rng.integers(1, min(3, d - i) + 1))
        blocks.append(tuple(range(i, i + size)))
        i += size
    if len(blocks) > 1 and rng.random() < 0.3:
        blocks = blocks[:-1]
    if kind == 1:
        budgets = [
            float(rng.uniform(0.3, 1.0) * len(b)) for b in blocks
        ]
        return ConstraintSpec.block_budget(d, blocks, budgets, cap=1.0)
    limits = [int(rng.integers(1, len(b) + 1)) for b in blocks]
    return ConstraintSpec.partition_matroid(d, blocks, limits)


def random_matroid(rng: np.random.Generator, d: int) -> ConstraintSpec:
    blocks = []
    i = 0
    while i < d:
        size = int(rng.integers(1, min(4, d - i) + 1))
        blocks.append(tuple(range(i, i + size)))
        i += size
    limits = [int(rng.integers(1, len(b) + 1)) for b in blocks]
    return ConstraintSpec.partition_matroid(d, blocks, limits)


def random_point_in(constraint, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish feasible point: scale a random box point into every budget."""
    from zogreedy import contains

    x = rng.uniform(0.0, 1.0, size=constraint.dim) * np.asarray(constraint.upper)
    for block, budget in zip(constraint.blocks, constraint.budgets):
        idx = list(block)
        s = float(np.sum(x[idx]))
        if s > budget:
            x[idx] *= rng.uniform(0.5, 1.0) * budget / s
    assert contains(constraint, x, 1e-9)
    return x


def lmo_reference(constraint, g: np.ndarray) -> np.ndarray:
    """Coordinate-at-a-time greedy linear maximization (the original scalar loop)."""
    upper = constraint.upper
    g = np.asarray(g, dtype=float)
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


def project_reference(constraint, y: np.ndarray, bisect_tol: float = 1e-10) -> np.ndarray:
    """Euclidean projection with the water level found by bisection."""
    upper = constraint.upper
    y = np.asarray(y, dtype=float)
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
