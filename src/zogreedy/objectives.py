"""The four benchmark objective families and their oracle builders.

Continuous objectives: non-convex quadratic programs with a symmetric,
non-positive interaction matrix H, and probabilistic topic coverage (the
closed-form multilinear extension of a coverage set function).  Discrete
objectives: log-determinant active-set selection and one-hop influence
coverage on an undirected graph.  All four are monotone (DR-)submodular on
their domains.

Each public function here is a data builder, an oracle builder, or
:func:`nqp_eval`.  The builders check their data once, :class:`Graph` its
adjacency, and the oracles each point or set, so the kernels behind counted
set queries check nothing again.  The set-function builders also hand their
oracle a batched kernel for the sets given as the rows of a boolean mask
matrix.

The quadratic oracle checks once that H is symmetric, in bands of rows, and
each query then reads only the upper band triangle of H (:func:`nqp_eval`):
at d = 1000 that is 0.63 of its entries, and the kernel is bound by how fast
they stream from memory.  So consecutive queries sweep the bands in
alternate directions, each starting on the bands the last one left in cache,
and trace values are computed a chunk of rows at a time, band by band, so
that each band is read once per chunk.  Every value is bitwise that of one
forward sweep over its point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constraints import BoxDomain, _count, _members
from .oracles import SetOracle, ValueOracle, row_chunks

# Set values memoized per built-in logdet and coverage set oracle.  Counted
# queries repeat sets often (each pair f(S + i) - f(S - i) of scg asks for the
# sampled S itself), and a hit skips only the Cholesky or coverage arithmetic:
# SetOracle still counts and checks every query.  The values are deterministic,
# so a hit returns the same float.
SET_VALUE_CACHE = 1024


# ---------------------------------------------------------------------------
# Quadratic programs
# ---------------------------------------------------------------------------

def nqp_generate(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random monotone DR-submodular quadratic instance.

    Entries of H are minus the absolute value of standard normals; H is then
    symmetrized so the gradient H x + b is entrywise non-negative on the unit
    cube, and b = -H^T 1 pins the gradient to zero at the all-ones corner.

    H is built in place, so one ``(d, d)`` array is alive at a time, plus a
    band of rows (:func:`~zogreedy.oracles.row_chunks`): the absolute value
    and sign flip write into the drawn matrix, and each band of rows
    ``lo:hi`` is symmetrized against its columns ``lo:hi``.  Entry
    ``(i, j)`` is ``(H[i, j] + H[j, i]) * 0.5``, the same sum and product as in
    ``0.5 * (H + H.T)``, and ``-(H.T @ 1)`` negates exactly, so ``H`` and ``b``
    are bitwise those of ``H = -abs(draw); H = 0.5 * (H + H.T); b = -H.T @ 1``.
    """
    d = _count(d, "dimension")
    rng = np.random.default_rng(_count(seed, "seed", 0))
    H = rng.standard_normal((d, d))
    np.negative(np.abs(H, out=H), out=H)
    for rows in row_chunks(d, 8 * d):
        lo, hi = rows.start, rows.stop
        # rows lo:hi from column lo on, with their mirror entries; the entries
        # left of column lo were written by the earlier bands
        band = H[lo:hi, lo:] + H[lo:, lo:hi].T
        band *= 0.5
        H[lo:hi, lo:] = band
        H[lo:, lo:hi] = band.T
    b = -(H.T @ np.ones(d))
    return H, b


# Rows of one band of nqp_eval.  At d = 1000 (H is 8 MB, past L2) 256-row bands
# read 0.63 d^2 entries and took 300 us a call against 400 us for the full
# product; 128-row bands read 0.56 d^2 but took 310 us, in more, smaller calls
# (OpenBLAS 0.3.31 on one thread of a 2-core x86-64 host).  Sweeping the bands
# in alternate directions on consecutive calls, as nqp_oracle does, starts each
# call on the 1.4 MB of blocks the last one read last, still in the 2 MB L2:
# 240-281 us a call against 269-297 us forward only.  A chunk of 16 trace rows
# reads each band once, not 16 times: 300 rows took 35-37 ms, not 76-82 ms.
NQP_BAND_ROWS = 256


@functools.cache
def _nqp_blocks(d: int, band_rows: int) -> tuple[tuple[slice, slice, bool], ...]:
    """The blocks of :func:`nqp_eval`'s products at dimension ``d``, in the
    forward order: per band ``lo:hi`` of ``band_rows`` rows, its diagonal
    block ``(lo:hi, lo:hi, False)``, then the block right of it
    ``(lo:hi, hi:d, True)``, if any."""
    blocks = []
    for lo in range(0, d, band_rows):
        hi = min(lo + band_rows, d)
        blocks.append((slice(lo, hi), slice(lo, hi), False))
        if hi < d:
            blocks.append((slice(lo, hi), slice(hi, d), True))
    return tuple(blocks)


def nqp_eval(
    H: np.ndarray, b: np.ndarray, x: np.ndarray, *, reverse: bool = False,
) -> float | np.ndarray:
    """Evaluate x^T H x / 2 + b^T x for a symmetric H, reading its upper band triangle.

    For each band of :data:`NQP_BAND_ROWS` rows ``lo:hi`` it adds the diagonal
    block's ``0.5 * x[lo:hi] @ H[lo:hi, lo:hi] @ x[lo:hi]`` and the block right
    of it, ``x[lo:hi] @ H[lo:hi, hi:] @ x[hi:]``, which stands for its mirror
    below the diagonal too; the entries below the diagonal blocks are never
    read.  With ``reverse`` the products run in exactly the opposite order,
    bands last to first and each band's right block before its diagonal block,
    and are then added in the forward order, so the value is bitwise the same.
    When ``d <= NQP_BAND_ROWS``, one band, it returns
    ``0.5 * x @ H @ x + b @ x`` as written.  Symmetry is not checked here:
    :func:`nqp_oracle` checks it once.

    ``x`` is one point ``(d,)``, giving a float, or the rows of an ``(n, d)``
    matrix, giving their ``n`` values: each band is read once for all rows
    and each row gets the products of a one-point call, so every value is
    bitwise that of one call on its row.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    d = b.size
    if H.shape != (d, d) or x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ValueError(f"inconsistent shapes H{H.shape}, b{b.shape}, x{x.shape}")
    if d <= NQP_BAND_ROWS:
        # one band: the full product, without the loop's 2 us a call at d = 20
        if x.ndim == 1:
            return float(0.5 * x @ H @ x + b @ x)
        return np.array([0.5 * z @ H @ z + b @ z for z in x])
    points = [x] if x.ndim == 1 else list(x)
    blocks = _nqp_blocks(d, NQP_BAND_ROWS)
    terms = [[0.0] * len(blocks) for _ in points]
    for k in reversed(range(len(blocks))) if reverse else range(len(blocks)):
        rows, cols, right = blocks[k]
        block = H[rows, cols]
        for z, z_terms in zip(points, terms):
            zb = z[rows]
            z_terms[k] = zb @ block @ z[cols] if right else 0.5 * zb @ block @ zb
    values = []
    for z, z_terms in zip(points, terms):
        half = 0.0
        for term in z_terms:
            half += term
        values.append(float(half + b @ z))
    return values[0] if x.ndim == 1 else np.array(values)


def _require_symmetric(A: np.ndarray, what: str, not_finite: str) -> None:
    """``ValueError(not_finite)`` unless the square ``A`` is finite, and one naming
    ``what`` unless it equals its transpose exactly.  One pass in bands of rows
    ``lo:hi`` from column ``lo`` on, against their mirror columns, so no ``(d, d)``
    temporary is made; equal bands make ``A`` symmetric, so finite ones make it finite."""
    d = A.shape[0]
    for rows in row_chunks(d, d):
        lo, hi = rows.start, rows.stop
        band = A[lo:hi, lo:]
        if not (np.isfinite(band).all() and np.array_equal(band, A[lo:, lo:hi].T)):
            # min and max are not finite when any entry is not (NaN included)
            if np.isfinite(A.min()) and np.isfinite(A.max()):
                raise ValueError(f"{what} must be symmetric; rows {lo}:{hi} "
                                 "differ from their columns")
            raise ValueError(not_finite)


def nqp_oracle(H: np.ndarray, b: np.ndarray) -> ValueOracle:
    """Value oracle for a quadratic instance with exact gradient H x + b.

    With entrywise non-positive symmetric H and b = -H^T 1, the gradient over
    the unit cube stays in [0, b] per coordinate, so ||b|| is a valid
    Lipschitz constant.  ``H`` must be ``(d, d)`` for ``d = b.size``, both
    must be finite, and ``H`` must equal its transpose exactly, or
    ``ValueError`` is raised.  Symmetry is checked once, here, in bands of
    rows (:func:`_require_symmetric`); each query then runs
    :func:`nqp_eval`, which reads only the upper band triangle of ``H``.
    ``H`` is not copied.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b.size
    if b.shape != (d,) or d < 1 or H.shape != (d, d):
        raise ValueError(f"nqp needs a non-empty vector b and a square H of its size, "
                         f"got H{H.shape}, b{b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("nqp entries of H and b must be finite")
    _require_symmetric(H, "nqp H", "nqp entries of H and b must be finite")
    G = float(np.linalg.norm(b))
    # Consecutive calls, counted queries and trace chunks alike, sweep the
    # bands in alternate directions, so each starts on the bands the last one
    # left in cache; the values do not depend on the direction.
    reverse = itertools.cycle((False, True))
    return ValueOracle(
        fn=lambda x: nqp_eval(H, b, x, reverse=next(reverse)),
        dim=d,
        lipschitz_G=max(G, 1e-12),
        grad=lambda x: H @ x + b,
        domain=BoxDomain.unit_cube(d),
        name="nqp",
        batch_fn=lambda Z: nqp_eval(H, b, Z, reverse=next(reverse)),
    )


# ---------------------------------------------------------------------------
# Probabilistic coverage of topics
# ---------------------------------------------------------------------------

def _topic_matrix(P) -> np.ndarray:
    """Read-only float copy of a (topics x articles) matrix with entries in [0, 1]."""
    P = np.array(P, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise ValueError(f"topic matrix must be a non-empty 2-D array, got shape {P.shape}")
    # "not (min >= 0 and max <= 1)" so that NaN fails too
    if not (P.min() >= 0.0 and P.max() <= 1.0):
        raise ValueError("topic matrix entries must lie in [0, 1]")
    P.setflags(write=False)
    return P


def _coverage_gradient(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact gradient of :func:`coverage_batch` in the selection, for checked ``P`` and ``x``.

    Topic ``j`` adds ``P[j] * prod(row) / row`` with ``row = 1 - P[j] * x``.
    A row with one vanishing factor adds only that factor's partial, the
    product of the others; a row with two or more adds nothing.  The rows are
    summed one after another, in topic order.
    """
    k, d = P.shape
    factors = 1.0 - P * x
    vanishing = np.abs(factors) < 1e-300
    counts = np.count_nonzero(vanishing, axis=1)
    if counts.any():
        free = counts == 0
        contrib = np.zeros((k, d))
        contrib[free] = P[free] * (np.multiply.reduce(factors[free], axis=1)[:, None]
                                   / factors[free])
        for j in np.flatnonzero(counts == 1).tolist():
            a = int(np.flatnonzero(vanishing[j])[0])
            contrib[j, a] = P[j, a] * np.multiply.reduce(np.delete(factors[j], a))
    else:
        contrib = P * (np.multiply.reduce(factors, axis=1)[:, None] / factors)
    # A cumulative sum adds the rows in order (a plain sum may pair them up);
    # "+ 0.0" turns a column of -0.0 terms into the 0.0 that summing from 0 gives.
    return (np.add.accumulate(contrib, axis=0)[-1] + 0.0) / k


def coverage_batch(P: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Average probabilistic topic coverage ``mean_j [1 - prod_a (1 - P[j, a] * x[a])]``
    at each row ``x`` of an ``(n, articles)`` mask or selection matrix.

    At 0/1 rows this is the coverage set function, and at fractional rows its
    multilinear extension.  ``P`` and the rows are not checked here.  The
    reductions are the ufuncs behind ``np.prod`` and ``np.mean``, called
    directly: the values equal theirs bit for bit.
    """
    factors = 1.0 - P[None, :, :] * masks[:, None, :]
    return np.add.reduce(1.0 - np.multiply.reduce(factors, axis=2), axis=1) / P.shape[0]


def coverage_value_oracle(P: np.ndarray) -> ValueOracle:
    """Continuous coverage oracle with exact gradient, on the unit cube.

    ``P`` is a (topics x articles) matrix with entries in [0, 1], column ``a``
    the topic distribution of article ``a``; it is checked and copied once, here.
    Each call checks its point and runs :func:`coverage_batch` on it as one row.
    """
    P = _topic_matrix(P)
    d = P.shape[1]
    col = P.sum(axis=0) / P.shape[0]
    G = float(np.linalg.norm(col))
    return ValueOracle(
        fn=lambda x: float(coverage_batch(P, x[None])[0]),
        dim=d,
        lipschitz_G=max(G, 1e-12),
        grad=lambda x: _coverage_gradient(P, x),
        domain=BoxDomain.unit_cube(d),
        name="coverage",
        batch_fn=lambda Z: coverage_batch(P, Z),
    )


def coverage_set_oracle(P: np.ndarray) -> SetOracle:
    """Coverage as a set function, the 0/1 rows of :func:`coverage_batch`.

    ``P`` is checked and copied once, here.  Set values are memoized
    (:data:`SET_VALUE_CACHE`).
    """
    P = _topic_matrix(P)
    d = P.shape[1]

    @functools.lru_cache(maxsize=SET_VALUE_CACHE)
    def fn(S: frozenset) -> float:
        mask = np.zeros((1, d), dtype=bool)
        mask[0, list(S)] = True
        return float(coverage_batch(P, mask)[0])

    return SetOracle(
        fn, ground_size=d, bound_M=1.0, name="coverage",
        batch_fn=lambda masks: coverage_batch(P, masks),
    )


# ---------------------------------------------------------------------------
# Active set selection
# ---------------------------------------------------------------------------

def rbf_covariance(X: np.ndarray, h: float) -> np.ndarray:
    """Gaussian-kernel similarity between the columns of a data matrix.

    ``Sigma[i, j] = exp(-||X[:, i] - X[:, j]||^2 / h^2)``; symmetric with unit
    diagonal.
    """
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError("bandwidth h must be finite and strictly positive")
    X = np.asarray(X, dtype=float)
    sq = np.sum(X * X, axis=0)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * X.T @ X
    np.maximum(dist2, 0.0, out=dist2)
    sigma = np.exp(-dist2 / (h * h))
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def logdet_eval(sigma: np.ndarray, S: frozenset) -> float:
    """log det(I + Sigma[S, S]) via Cholesky; 0 on the empty set.

    The logdet oracle's kernel for one counted query: ``sigma`` is the float
    array and ``S`` the set of indices ``SetOracle`` has already checked, so
    neither is checked again.  Raises ``numpy.linalg.LinAlgError`` when
    I + Sigma[S, S] is not positive definite (i.e. Sigma is not PSD).
    """
    idx = sorted(S)
    if not idx:
        return 0.0
    sub = sigma.take(idx, 0).take(idx, 1)
    sub.reshape(-1)[::len(idx) + 1] += 1.0  # I + Sigma[S, S], in place
    chol = np.linalg.cholesky(sub)
    return float(2.0 * np.log(chol.diagonal()).sum())


def logdet_batch(sigma: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """:func:`logdet_eval` at each row of a boolean ``(n, d)`` mask matrix.

    Groups the rows by set size ``k`` and factors each group's ``I + Sigma[S, S]``
    blocks as stacked ``(rows, k, k)`` Cholesky calls, a chunk of rows at a
    time (:func:`~zogreedy.oracles.row_chunks`): the ``k x k`` factorization of
    :func:`logdet_eval`, so the values are bitwise equal.  The empty set gives 0.
    """
    sizes = np.count_nonzero(masks, axis=1)
    out = np.zeros(masks.shape[0])
    for k in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():
        group = np.flatnonzero(sizes == k)
        for rows in row_chunks(group.size, 8 * k * k):
            at = group[rows]
            idx = np.nonzero(masks[at])[1].reshape(-1, k)
            stack = sigma[idx[:, :, None], idx[:, None, :]]
            stack.reshape(-1, k * k)[:, ::k + 1] += 1.0
            chol = np.linalg.cholesky(stack)
            out[at] = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return out


def logdet_set_oracle(sigma: np.ndarray) -> SetOracle:
    """Active-set selection objective f(S) = log det(I + Sigma[S, S]).

    ``Sigma`` must be non-empty, square, finite and exactly its transpose (pass
    ``0.5 * (S + S.T)``), or ``ValueError``.  It is copied once, here, so the
    memoized set values (:data:`SET_VALUE_CACHE`) cannot go stale; a
    ``LinAlgError`` is not memoized.
    """
    sigma = np.array(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or not sigma.size:
        raise ValueError(f"logdet Sigma must be a non-empty square matrix, got {sigma.shape}")
    _require_symmetric(sigma, "logdet Sigma", "logdet entries of Sigma must be finite")
    sigma.setflags(write=False)
    d = sigma.shape[0]
    bound = max(logdet_eval(sigma, frozenset(range(d))), 1e-12)
    fn = functools.lru_cache(maxsize=SET_VALUE_CACHE)(lambda S: logdet_eval(sigma, S))
    return SetOracle(
        fn, ground_size=d, bound_M=bound, name="logdet",
        batch_fn=lambda masks: logdet_batch(sigma, masks),
    )


# ---------------------------------------------------------------------------
# Influence coverage on a graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Undirected simple graph as per-node neighbor sets.

    ``neighbors[u]`` holds the neighbors of node ``u``.  They are checked
    once, here: each id an integer, not a bool, in ``range(num_nodes)``; no
    node its own neighbor; and ``v`` in ``neighbors[u]`` exactly when ``u``
    is in ``neighbors[v]``; or ``ValueError``.  The sets are stored as
    frozensets of Python ints.
    """

    neighbors: tuple[frozenset, ...]

    def __post_init__(self):
        nodes = frozenset(range(len(self.neighbors)))
        neighbors = tuple(_members(nbrs, nodes) for nbrs in self.neighbors)
        for u, nbrs in enumerate(neighbors):
            if u in nbrs:
                raise ValueError(f"node {u} is its own neighbor")
            if any(u not in neighbors[v] for v in nbrs):
                raise ValueError(f"node {u} lists a neighbor that does not list it")
        object.__setattr__(self, "neighbors", neighbors)

    @property
    def num_nodes(self) -> int:
        return len(self.neighbors)

    @property
    def num_edges(self) -> int:
        return sum(len(n) for n in self.neighbors) // 2

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Graph":
        """Repeated edges and self-loops are dropped; all ids are checked first."""
        edges = list(edges)
        nodes = frozenset(range(_count(num_nodes, "num_nodes", 0)))
        _members(itertools.chain.from_iterable(edges), nodes)
        adj: list[set] = [set() for _ in nodes]
        for u, v in edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return cls(tuple(map(frozenset, adj)))


def _influence(reach: tuple[int, ...], S) -> float:
    """Nodes reached through one hop from seeds already checked to be nodes,
    seeds included: the OR of their bitmasks ``reach[u]`` of ``u`` and its neighbors."""
    reached = 0
    for u in S:
        reached |= reach[u]
    return float(reached.bit_count())


def influence_batch(reach: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """:func:`_influence` at each row of a boolean mask matrix.

    ``reach`` is the dense float32 ``A + I`` of the graph (exact up to 2^24 nodes):
    node ``v`` is reached from seeds ``m`` exactly when ``(m @ reach)[v] > 0``.
    """
    return np.count_nonzero(masks @ reach > 0, axis=1).astype(float)


def influence_set_oracle(graph: Graph) -> SetOracle:
    """One-hop influence of a seed set as a set function on the graph's nodes.

    Counted queries run :func:`_influence` on the members ``SetOracle`` has
    checked, and uncounted batches of masks :func:`influence_batch`; both read
    ``A + I``, built once, here, as bitmasks and as a dense matrix.  Unlike the
    logdet and coverage oracles, it does not memoize values.
    """
    n = graph.num_nodes
    dense = np.eye(n, dtype=np.float32)
    bits = []
    for u, nbrs in enumerate(graph.neighbors):
        dense[u, list(nbrs)] = 1.0
        bits.append(sum(1 << v for v in nbrs | {u}))
    return SetOracle(
        functools.partial(_influence, tuple(bits)),
        ground_size=n,
        bound_M=float(n),
        name="influence",
        batch_fn=lambda masks: influence_batch(dense, masks),
    )
