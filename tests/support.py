"""Shared brute-force oracles and random instance generators for the tests.

Everything here is deliberately independent of the library's own computation
paths: multilinear values and partial derivatives are computed by direct
subset enumeration with explicit probability products, so they can act as
ground truth for the package's closed-form and sampled implementations.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from zogreedy import (
    BoxDomain,
    ConstraintSpec,
    SetOracle,
    contains,
    sample_sphere,
    transform_constraint,
)
from zogreedy.objectives import NQP_BAND_ROWS


def with_one_row_chunks(cases, ids) -> list:
    """Parameters for a test that also takes ``budget``: each case at the default
    chunk budget (``None``) under its id, then at a budget of 1 byte, one row per
    chunk, under its id plus ``-one_row_chunks``."""
    cases = [case if isinstance(case, tuple) else (case,) for case in cases]
    return ([pytest.param(*case, None, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, 1, id=f"{i}-one_row_chunks") for case, i in zip(cases, ids)])


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


def random_geometry(rng: np.random.Generator, d: int) -> ConstraintSpec:
    """A random constraint: shipped family, shrunk image, or zero caps/budgets."""
    C = random_small_constraint(rng, d)
    r = rng.random()
    if r < 0.3:
        try:
            return transform_constraint(
                BoxDomain.unit_cube(d), C, float(rng.choice([0.02, 0.1, 1 / 3, 0.45]))
            )
        except ValueError:
            return C
    if r < 0.5:
        upper = np.where(rng.random(d) < 0.3, 0.0, rng.uniform(0.0, 1.0, d))
        budgets = [float(rng.choice([0.0, rng.uniform(0.0, 1.5)])) for _ in C.blocks]
        return ConstraintSpec._shrunk(upper, C.blocks, budgets)
    return C


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
    x = rng.uniform(0.0, 1.0, size=constraint.dim) * np.asarray(constraint.upper)
    for block, budget in zip(constraint.blocks, constraint.budgets):
        idx = list(block)
        s = float(np.sum(x[idx]))
        if s > budget:
            x[idx] *= rng.uniform(0.5, 1.0) * budget / s
    assert contains(constraint, x, 1e-9)
    return x


def blind_point(constraint) -> np.ndarray:
    """The point a method that spends no queries can pick: each block's budget
    spread evenly over the block's members, capped at ``upper``, and every
    coordinate outside the blocks at its cap."""
    x = np.array(constraint.upper, dtype=float)
    for block, budget in zip(constraint.blocks, constraint.budgets):
        idx = list(block)
        x[idx] = np.minimum(budget / len(idx), x[idx])
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


def sampled_peeks_reference(f: SetOracle, Z: np.ndarray, samples: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Uncounted sampled set values at each row of ``Z``, one ``fn`` call per sampled set.

    The per-iteration, per-set path the discrete traces used before set values
    were batched: for each row in turn it draws ``(samples, d)`` masks from
    ``rng`` and evaluates each set with the oracle's per-set kernel, not its
    ``batch_fn``.
    """
    values = []
    for x in np.asarray(Z, dtype=float):
        masks = rng.random((samples, x.size)) < x
        values.append(np.mean([f._fn(frozenset(np.flatnonzero(m).tolist())) for m in masks]))
    return np.array(values)


def set_gradient_reference(f: SetOracle, base: frozenset) -> np.ndarray:
    """``f(S | {i}) - f(S - {i})`` at ``S = base``, a fresh set per query (the original loop).

    Spends ``2 * ground_size`` counted queries of ``f``, plus side first.
    """
    return np.array([f(base | {i}) - f(base - {i}) for i in range(f.ground_size)])


def ascend_reference(oracle, x, grad, step, lift, T, constraint, tol, cost):
    """The ascent loop with each iterate checked and valued inside it, one at a time.

    The loop before trace values were deferred to one pass after it: at every
    iteration it checks that the step spent ``cost`` queries and the lifted
    iterate with one ``contains`` call on the point, raising ``RuntimeError``
    at the first one that did not or lies outside ``constraint``, and calls
    ``oracle.peek_rows`` on a one-row matrix.
    """
    from zogreedy.algorithms import RunTrace, TraceRecord

    def accesses():
        return oracle.query_count + getattr(oracle, "gradient_query_count", 0)

    q0 = accesses()
    trace = RunTrace()
    for t in range(1, T + 1):
        before = accesses()
        x, grad_norm = step(x, grad(x), t)
        spent = accesses() - before
        if spent != cost:
            raise RuntimeError(f"iteration {t} spent {spent} queries, not {cost}; internal error")
        z = x + lift
        if not contains(constraint, z, tol):
            raise RuntimeError(f"iteration {t} left the constraint set; internal error")
        trace.records.append(TraceRecord(
            t=t, queries=accesses() - q0, elapsed_s=0.0, z=z,
            value=float(next(iter(oracle.peek_rows(z[None])))), grad_norm=grad_norm,
        ))
    return x, trace


def nqp_generate_reference(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic instance through two full temporaries (the original builder)."""
    rng = np.random.default_rng(seed)
    H = -np.abs(rng.standard_normal((d, d)))
    H = 0.5 * (H + H.T)
    b = -H.T @ np.ones(d)
    return H, b


def nqp_reference(H: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """x^T H x / 2 + b^T x as one product with all of ``H`` (the original kernel)."""
    return float(0.5 * x @ H @ x + b @ x)


def nqp_band_reference(H: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """x^T H x / 2 + b^T x from the upper band triangle of a symmetric ``H``, one
    point, bands first to last, adding each product as it is made (the banded
    kernel before its sweep could run backwards or over rows)."""
    d = b.size
    if d <= NQP_BAND_ROWS:
        return float(0.5 * x @ H @ x + b @ x)
    half = 0.0
    for lo in range(0, d, NQP_BAND_ROWS):
        hi = min(lo + NQP_BAND_ROWS, d)
        xb = x[lo:hi]
        half += 0.5 * xb @ H[lo:hi, lo:hi] @ xb
        if hi < d:
            half += xb @ H[lo:hi, hi:] @ x[hi:]
    return float(half + b @ x)


def logdet_reference(sigma: np.ndarray, S) -> float:
    """log det(I + Sigma[S, S]) through ``np.ix_`` and ``np.eye`` (the original kernel)."""
    idx = sorted(int(i) for i in S)
    if not idx:
        return 0.0
    sub = np.eye(len(idx)) + sigma[np.ix_(idx, idx)]
    chol = np.linalg.cholesky(sub)
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def influence_reference(graph, S) -> float:
    """One-hop reach of ``S`` as a union of Python sets (the original kernel)."""
    members = set(int(i) for i in S)
    reached = set(members)
    for u in members:
        reached |= graph.neighbors[u]
    return float(len(reached))


def box_contains_reference(upper: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Box membership with two ``np.all`` tests (the original predicate)."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= -tol) and np.all(x <= upper + tol))


def contains_reference(constraint, x: np.ndarray, tol: float) -> bool:
    """Membership of one point: the box predicate, then one ``np.sum`` per block
    (the original predicate)."""
    x = np.asarray(x, dtype=float)
    return box_contains_reference(constraint.upper, x, tol) and all(
        np.sum(x[list(block)]) <= budget + tol
        for block, budget in zip(constraint.blocks, constraint.budgets)
    )


def batch_grad_reference(oracle, x_t: np.ndarray, delta: float, batch: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Two-point batch estimate with one ``sample_sphere`` draw per direction."""
    from zogreedy import sample_sphere

    center = np.asarray(x_t, dtype=float) + delta
    d = center.size
    total = np.zeros_like(center)
    for _ in range(batch):
        u = sample_sphere(d, rng)
        diff = oracle(center + delta * u) - oracle(center - delta * u)
        total += (d / (2.0 * delta)) * diff * u
    return total / batch


def brute_force_reference(f: SetOracle, matroid: ConstraintSpec) -> tuple[frozenset, float]:
    """First maximum over ``iter_feasible_sets`` with one per-set ``fn`` call per set
    (the original loop, on the oracle's per-set kernel)."""
    best_set, best_value = frozenset(), -np.inf
    for candidate in iter_feasible_sets(matroid):
        value = float(f._fn(candidate))
        if value > best_value:
            best_set, best_value = candidate, value
    return best_set, best_value


def coverage_gradient_reference(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of probabilistic topic coverage by a loop over the topics.

    Topic ``j`` adds ``P[j] * prod(row) / row`` for ``row = 1 - P[j] * x``;
    a row with one vanishing factor adds only the partial in that factor's
    coordinate, and a row with two or more adds nothing.
    """
    P = np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float)
    k, d = P.shape
    factors = 1.0 - P * x
    grad = np.zeros(d)
    for j in range(k):
        row = factors[j]
        zeros = np.flatnonzero(np.abs(row) < 1e-300)
        if zeros.size == 0:
            full = np.prod(row)
            grad += P[j] * (full / row)
        elif zeros.size == 1:
            others = np.prod(np.delete(row, zeros[0]))
            contrib = np.zeros(d)
            contrib[zeros[0]] = P[j, zeros[0]] * others
            grad += contrib
    return grad / k


# ---------------------------------------------------------------------------
# Reference-only helpers: brute-force oracles and estimators the package's own
# code paths never use, kept here as ground truth for the tests.
# ---------------------------------------------------------------------------

MAX_EXACT_EXTENSION_DIM = 25


def _mask_to_set(mask: int, dim: int) -> frozenset:
    return frozenset(i for i in range(dim) if mask >> i & 1)


def _membership_weights(x: np.ndarray) -> np.ndarray:
    """Probability of each of the 2^d subsets under independent inclusion x."""
    w = np.ones(1)
    for xi in x:
        w = np.concatenate([w * (1.0 - xi), w * xi])
    return w


def multilinear_exact(f: SetOracle, x: np.ndarray) -> float:
    """Exact multilinear extension E_{S~x}[f(S)] by full subset enumeration.

    Queries ``f`` once per subset with non-zero probability under ``x``;
    guarded to ``ground_size <= 25``.
    """
    d = f.ground_size
    if d > MAX_EXACT_EXTENSION_DIM:
        raise ValueError(
            f"exact extension enumerates 2^{d} subsets; refusing beyond "
            f"d={MAX_EXACT_EXTENSION_DIM}"
        )
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"point has shape {x.shape}, expected ({d},)")
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    weights = _membership_weights(np.clip(x, 0.0, 1.0))
    total = 0.0
    for mask in np.flatnonzero(weights > 0.0):
        total += weights[mask] * f(_mask_to_set(int(mask), d))
    return float(total)


def sample_ball(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the unit ball: sphere direction times U^(1/dim)."""
    n = 1 if size is None else int(size)
    u = sample_sphere(dim, rng, size=n)
    r = rng.random(n) ** (1.0 / dim)
    out = u * r[:, None]
    return out[0] if size is None else out


def one_point_grad(oracle, x: np.ndarray, delta: float, u: np.ndarray) -> np.ndarray:
    """Single-query estimate (d/delta) * F(x + delta*u) * u."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = x.size
    return (d / delta) * oracle(x + delta * u) * u


def iter_feasible_sets(matroid: ConstraintSpec):
    """Yield every independent set of a partition matroid (free coords too).

    The order is the one :func:`zogreedy.bench.brute_force_opt` scans: one
    choice per block in block order, then one subset of the free coordinates,
    the last varying fastest; each list of choices runs by size, then
    lexicographically.
    """
    covered = set(itertools.chain.from_iterable(matroid.blocks))
    free = [i for i in range(matroid.dim) if i not in covered]
    groups = [(list(block), int(round(limit)))
              for block, limit in zip(matroid.blocks, matroid.budgets)]
    groups.append((free, len(free)))
    choices = [
        [subset for r in range(min(k, len(members)) + 1)
         for subset in itertools.combinations(members, r)]
        for members, k in groups
    ]
    for combo in itertools.product(*choices):
        yield frozenset(itertools.chain.from_iterable(combo))


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
