"""The four benchmark objective families and their oracle builders.

Continuous objectives: non-convex quadratic programs with non-positive
interaction matrix, and probabilistic topic coverage (the closed-form
multilinear extension of a coverage set function).  Discrete objectives:
log-determinant active-set selection and one-hop influence coverage on an
undirected graph.  All four are monotone (DR-)submodular on their domains.

Each public function here is a data builder, an oracle builder, or the kernel
an oracle runs on each counted query (:func:`nqp_eval`, :func:`logdet_eval`).
The builders check their data once, and the oracles each point or set.  The
set-function builders also hand their oracle a batched kernel that evaluates
the sets given as rows of a boolean mask matrix in one array pass.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .constraints import BoxDomain
from .oracles import SAMPLE_CHUNK_BYTES, SetOracle, ValueOracle

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
    band of rows of at most :data:`~zogreedy.oracles.SAMPLE_CHUNK_BYTES`: the
    absolute value and sign flip write into the drawn matrix, and each band of
    rows ``lo:hi`` is symmetrized against its columns ``lo:hi``.  Entry
    ``(i, j)`` is ``(H[i, j] + H[j, i]) * 0.5``, the same sum and product as in
    ``0.5 * (H + H.T)``, and ``-(H.T @ 1)`` negates exactly, so ``H`` and ``b``
    are bitwise those of ``H = -abs(draw); H = 0.5 * (H + H.T); b = -H.T @ 1``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((d, d))
    np.negative(np.abs(H, out=H), out=H)
    rows = max(1, SAMPLE_CHUNK_BYTES // (8 * d))
    for lo in range(0, d, rows):
        hi = min(lo + rows, d)
        # rows lo:hi from column lo on, with their mirror entries; the entries
        # left of column lo were written by the earlier bands
        band = H[lo:hi, lo:] + H[lo:, lo:hi].T
        band *= 0.5
        H[lo:hi, lo:] = band
        H[lo:, lo:hi] = band.T
    b = -(H.T @ np.ones(d))
    return H, b


def nqp_eval(H: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Evaluate x^T H x / 2 + b^T x."""
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    d = b.size
    if H.shape != (d, d) or x.shape != (d,):
        raise ValueError(f"inconsistent shapes H{H.shape}, b{b.shape}, x{x.shape}")
    return float(0.5 * x @ H @ x + b @ x)


def nqp_oracle(H: np.ndarray, b: np.ndarray) -> ValueOracle:
    """Value oracle for a quadratic instance with exact gradient H x + b.

    With entrywise non-positive symmetric H and b = -H^T 1, the gradient over
    the unit cube stays in [0, b] per coordinate, so ||b|| is a valid
    Lipschitz constant.  ``H`` must be ``(d, d)`` for ``d = b.size`` and both
    must be finite, or ``ValueError`` is raised.  ``H`` is not copied.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b.size
    if b.shape != (d,) or d < 1 or H.shape != (d, d):
        raise ValueError(f"nqp needs a non-empty vector b and a square H of its size, "
                         f"got H{H.shape}, b{b.shape}")
    # min and max rather than isfinite(H), which would make a (d, d) temporary;
    # a NaN entry makes both NaN
    if not (np.isfinite(H.min()) and np.isfinite(H.max()) and np.isfinite(b).all()):
        raise ValueError("nqp entries of H and b must be finite")
    G = float(np.linalg.norm(b))
    return ValueOracle(
        fn=lambda x: nqp_eval(H, b, x),
        dim=d,
        lipschitz_G=max(G, 1e-12),
        grad=lambda x: H @ x + b,
        domain=BoxDomain.unit_cube(d),
        name="nqp",
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


def _unit_range(x: np.ndarray) -> np.ndarray:
    """``x``, after checking that its entries lie in [0, 1] up to 1e-12 (NaN fails)."""
    if not (x.min() >= -1e-12 and x.max() <= 1 + 1e-12):
        raise ValueError("selection entries must lie in [0, 1]")
    return x


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
        contrib[free] = P[free] * (np.prod(factors[free], axis=1)[:, None] / factors[free])
        for j in np.flatnonzero(counts == 1).tolist():
            a = int(np.flatnonzero(vanishing[j])[0])
            contrib[j, a] = P[j, a] * np.prod(np.delete(factors[j], a))
    else:
        contrib = P * (np.prod(factors, axis=1)[:, None] / factors)
    # A cumulative sum adds the rows in order (a plain sum may pair them up);
    # "+ 0.0" turns a column of -0.0 terms into the 0.0 that summing from 0 gives.
    return (np.cumsum(contrib, axis=0)[-1] + 0.0) / k


def coverage_batch(P: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Average probabilistic topic coverage ``mean_j [1 - prod_a (1 - P[j, a] * x[a])]``
    at each row ``x`` of an ``(n, articles)`` mask or selection matrix.

    At 0/1 rows this is the coverage set function, and at fractional rows its
    multilinear extension.  ``P`` and the rows are not checked here.
    """
    factors = 1.0 - P[None, :, :] * masks[:, None, :]
    return np.mean(1.0 - np.prod(factors, axis=2), axis=1)


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
        batch_fn=lambda Z: coverage_batch(P, _unit_range(Z)),
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
    if not h > 0:  # NaN fails too
        raise ValueError("bandwidth h must be strictly positive")
    X = np.asarray(X, dtype=float)
    sq = np.sum(X * X, axis=0)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * X.T @ X
    np.maximum(dist2, 0.0, out=dist2)
    sigma = np.exp(-dist2 / (h * h))
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def logdet_eval(sigma: np.ndarray, S) -> float:
    """log det(I + Sigma[S, S]) via Cholesky; 0 on the empty set.

    ``S`` is read as a set of integers: repeats count once, ``0.5`` raises.

    Raises ``numpy.linalg.LinAlgError`` when I + Sigma[S, S] is not positive
    definite (i.e. Sigma is not PSD).
    """
    sigma = np.asarray(sigma, dtype=float)
    idx = sorted(set(map(operator.index, S)))
    if not idx:
        return 0.0
    if idx[0] < 0 or idx[-1] >= sigma.shape[0]:
        raise ValueError(f"subset {idx} outside the index range of Sigma")
    sub = sigma.take(idx, 0).take(idx, 1)
    sub.reshape(-1)[::len(idx) + 1] += 1.0  # I + Sigma[S, S], in place
    chol = np.linalg.cholesky(sub)
    return float(2.0 * np.log(chol.diagonal()).sum())


# Bytes of one stacked (rows, k, k) block of k-element sets in logdet_batch;
# bounds the batch's working memory whatever the number of masks or attributes.
LOGDET_CHUNK_BYTES = 2**20


def logdet_batch(sigma: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """:func:`logdet_eval` at each row of a boolean ``(n, d)`` mask matrix.

    Groups the rows by set size ``k`` and factors each group's ``I + Sigma[S, S]``
    blocks as stacked ``(rows, k, k)`` Cholesky calls of at most
    :data:`LOGDET_CHUNK_BYTES`: the ``k x k`` factorization of :func:`logdet_eval`,
    so the values are bitwise equal.  The empty set gives 0.
    """
    sizes = np.count_nonzero(masks, axis=1)
    out = np.zeros(masks.shape[0])
    for k in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():
        group = np.flatnonzero(sizes == k)
        rows = max(1, LOGDET_CHUNK_BYTES // (8 * k * k))
        for lo in range(0, group.size, rows):
            at = group[lo:lo + rows]
            idx = np.nonzero(masks[at])[1].reshape(-1, k)
            stack = sigma[idx[:, :, None], idx[:, None, :]]
            stack.reshape(-1, k * k)[:, ::k + 1] += 1.0
            chol = np.linalg.cholesky(stack)
            out[at] = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return out


def logdet_set_oracle(sigma: np.ndarray) -> SetOracle:
    """Active-set selection objective f(S) = log det(I + Sigma[S, S]).

    ``Sigma`` is copied once, here, so the memoized set values
    (:data:`SET_VALUE_CACHE`) cannot go stale; a ``LinAlgError`` is not memoized.
    """
    sigma = np.array(sigma, dtype=float)
    sigma.setflags(write=False)
    d = sigma.shape[0]
    bound = max(logdet_eval(sigma, range(d)), 1e-12)
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

    ``reach[u]`` is the bitmask (bit ``v`` set <=> ``v`` reached) of node
    ``u`` and its neighbors, built once per graph.
    """

    neighbors: tuple[frozenset, ...]
    reach: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reach = tuple(
            sum(1 << v for v in nbrs | {u}) for u, nbrs in enumerate(self.neighbors)
        )
        object.__setattr__(self, "reach", reach)

    @property
    def num_nodes(self) -> int:
        return len(self.neighbors)

    @property
    def num_edges(self) -> int:
        return sum(len(n) for n in self.neighbors) // 2

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Graph":
        adj: list[set] = [set() for _ in range(num_nodes)]
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        return cls(tuple(frozenset(a) for a in adj))


def _influence(reach: tuple[int, ...], S) -> float:
    """Nodes reached through one hop from seeds already checked to be nodes of
    the graph, seeds included: the OR of their ``Graph.reach`` bitmasks."""
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

    Counted queries run the bitmask kernel :func:`_influence` on the members
    ``SetOracle`` has already checked; uncounted batches of masks run
    :func:`influence_batch` on a dense ``A + I`` built once, here.  Unlike the
    logdet and coverage oracles, it does not memoize values.
    """
    n = graph.num_nodes
    reach = np.eye(n, dtype=np.float32)
    for u, nbrs in enumerate(graph.neighbors):
        reach[u, list(nbrs)] = 1.0
    return SetOracle(
        functools.partial(_influence, graph.reach),
        ground_size=n,
        bound_M=float(n),
        name="influence",
        batch_fn=lambda masks: influence_batch(reach, masks),
    )
