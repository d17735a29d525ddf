"""Function-evaluation oracles and multilinear extensions of set functions.

Every optimizer in this package sees its objective through one of these
wrappers, which do exact bookkeeping of how many evaluations were spent.
Counted calls go through ``__call__``; ``peek`` evaluates without counting and
is reserved for instrumentation (trace columns, final reporting), as is
``peek_rows``, which evaluates every row of a matrix of points.  Set oracles
also evaluate whole batches of sets, given as rows of a boolean mask matrix,
without counting (:meth:`SetOracle.peek_masks`).
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Callable, Optional

import numpy as np

from .constraints import BoxDomain, DomainError


class ValueOracle:
    """Deterministic real-valued objective with known Lipschitz bound.

    Parameters
    ----------
    fn : callable mapping a length-``dim`` array to a float.
    dim : ambient dimension.
    lipschitz_G : known (or conservative) Lipschitz constant of ``fn``.
    grad : optional gradient callable; required by the first-order baselines.
    domain : optional box; when given, counted evaluations outside it raise
        :class:`DomainError`.
    peek_fn : optional uncounted evaluation for :meth:`peek`; defaults to ``fn``.
    peek_rows_fn : optional uncounted evaluation of every row of a
        ``(n, dim)`` matrix at once, for :meth:`peek_rows`; defaults to
        :meth:`peek` row by row.

    The evaluation counter is lock-protected so concurrent workers never lose
    increments.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        dim: int,
        lipschitz_G: float,
        grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        domain: Optional[BoxDomain] = None,
        peek_fn: Optional[Callable[[np.ndarray], float]] = None,
        name: str = "",
        peek_rows_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if lipschitz_G <= 0:
            raise ValueError("lipschitz_G must be strictly positive")
        self._fn = fn
        self._peek_fn = peek_fn if peek_fn is not None else fn
        self._peek_rows_fn = peek_rows_fn
        self.dim = int(dim)
        self.lipschitz_G = float(lipschitz_G)
        self._grad = grad
        self.domain = domain
        self.name = name
        self._lock = threading.Lock()
        self._queries = 0
        self._grad_queries = 0

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        if self.domain is not None and not self.domain.contains(x):
            raise DomainError(f"evaluation point {x} leaves the box domain")
        return x

    def __call__(self, x: np.ndarray) -> float:
        x = self._check(x)
        with self._lock:
            self._queries += 1
        value = float(self._fn(x))
        if not math.isfinite(value):
            raise ValueError(f"oracle {self.name!r} returned non-finite value {value}")
        return value

    def peek(self, x: np.ndarray) -> float:
        """Evaluate without touching the query counter (instrumentation only)."""
        value = float(self._peek_fn(np.asarray(x, dtype=float)))
        if not math.isfinite(value):
            raise ValueError(f"oracle {self.name!r} peeked non-finite value {value}")
        return value

    def peek_rows(self, Z: np.ndarray) -> np.ndarray:
        """Uncounted values at the rows of a ``(n, dim)`` matrix, in row order."""
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.dim:
            raise ValueError(f"points have shape {Z.shape}, expected (n, {self.dim})")
        if self._peek_rows_fn is None:
            return np.array([self.peek(z) for z in Z])
        values = np.asarray(self._peek_rows_fn(Z), dtype=float)
        if values.shape != (Z.shape[0],):
            raise ValueError(f"{Z.shape[0]} points gave values of shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"oracle {self.name!r} peeked a non-finite value")
        return values

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self._grad is None:
            raise ValueError(f"oracle {self.name!r} exposes no gradient")
        x = self._check(x)
        with self._lock:
            self._grad_queries += 1
        g = np.asarray(self._grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"oracle {self.name!r} returned a non-finite gradient")
        return g

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    @property
    def query_count(self) -> int:
        return self._queries

    @property
    def gradient_query_count(self) -> int:
        return self._grad_queries


class NoisyOracle:
    """Value oracle whose counted evaluations carry additive zero-mean noise.

    The default noise is Gaussian with standard deviation ``sigma0``; any
    zero-mean sampler ``noise(rng) -> float`` may be plugged in instead.  The
    instance owns a seeded generator stream, so it should be confined to one
    worker unless re-seeded per worker.  ``peek`` passes through to the exact
    inner oracle.
    """

    def __init__(
        self,
        inner: ValueOracle,
        sigma0: float,
        seed: int = 0,
        noise: Optional[Callable[[np.random.Generator], float]] = None,
    ):
        if sigma0 < 0:
            raise ValueError("sigma0 must be non-negative")
        self.inner = inner
        self.sigma0 = float(sigma0)
        self._noise = noise
        self._rng = np.random.default_rng(seed)

    def __call__(self, x: np.ndarray) -> float:
        value = self.inner(x)
        if self._noise is not None:
            value += float(self._noise(self._rng))
        elif self.sigma0 != 0.0:
            value += self._rng.normal(0.0, self.sigma0)
        if not math.isfinite(value):
            raise ValueError(f"noisy oracle returned non-finite value {value}")
        return value

    def peek(self, x: np.ndarray) -> float:
        return self.inner.peek(x)

    def peek_rows(self, Z: np.ndarray) -> np.ndarray:
        return self.inner.peek_rows(Z)

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def lipschitz_G(self) -> float:
        return self.inner.lipschitz_G

    @property
    def query_count(self) -> int:
        return self.inner.query_count


def noisy_wrap(oracle: ValueOracle, sigma0: float, seed: int = 0) -> NoisyOracle:
    """Wrap an exact oracle so each counted call returns F(x) + N(0, sigma0^2)."""
    return NoisyOracle(oracle, sigma0, seed=seed)


class SetOracle:
    """Set function on ground set ``{0, .., ground_size-1}`` with |f| <= bound_M.

    ``batch_fn``, when given, maps a boolean ``(n, ground_size)`` mask matrix
    to the ``n`` values of the sets its rows select; it must agree with ``fn``
    and serves only the uncounted :meth:`peek_masks`.
    """

    def __init__(
        self,
        fn: Callable[[frozenset], float],
        ground_size: int,
        bound_M: float,
        name: str = "",
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if bound_M <= 0:
            raise ValueError("bound_M must be strictly positive")
        self._fn = fn
        self._batch_fn = batch_fn
        self.ground_size = int(ground_size)
        self.bound_M = float(bound_M)
        self.name = name
        self._lock = threading.Lock()
        self._queries = 0

    def _check(self, subset) -> frozenset:
        try:
            members = frozenset(map(operator.index, subset))
        except TypeError as exc:
            raise ValueError(f"set elements must be integers: {exc}") from None
        n = self.ground_size
        if members and (min(members) < 0 or max(members) >= n):
            i = next(i for i in members if not 0 <= i < n)
            raise ValueError(f"element {i} outside the ground set")
        return members

    def __call__(self, subset) -> float:
        members = self._check(subset)
        with self._lock:
            self._queries += 1
        value = float(self._fn(members))
        if not math.isfinite(value):
            raise ValueError(f"set function returned non-finite value {value}")
        if abs(value) > self.bound_M + 1e-9:
            raise ValueError(
                f"set function value {value} exceeds declared bound {self.bound_M}"
            )
        return value

    def peek(self, subset) -> float:
        value = float(self._fn(self._check(subset)))
        if not math.isfinite(value):
            raise ValueError(f"set function peeked non-finite value {value}")
        return value

    def peek_masks(self, masks: np.ndarray) -> np.ndarray:
        """Uncounted values of the sets selected by the rows of a boolean matrix.

        Uses ``batch_fn`` when the oracle has one and ``fn`` row by row
        otherwise.  Never touches the query counter.
        """
        masks = np.asarray(masks)
        if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != self.ground_size:
            raise ValueError(
                f"masks must be a bool array of shape (n, {self.ground_size}), "
                f"got {masks.dtype} {masks.shape}"
            )
        if self._batch_fn is not None:
            values = np.asarray(self._batch_fn(masks), dtype=float)
        else:
            values = np.array(
                [self._fn(frozenset(np.flatnonzero(m).tolist())) for m in masks], dtype=float
            )
        if values.shape != (masks.shape[0],):
            raise ValueError(
                f"batch of {masks.shape[0]} sets gave values of shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("set function peeked a non-finite value")
        return values

    @property
    def query_count(self) -> int:
        return self._queries


def sample_subset(x: np.ndarray, rng: np.random.Generator) -> frozenset:
    """Draw one set S ~ x: the single row of :func:`sample_masks`, as a frozenset."""
    return frozenset(np.flatnonzero(sample_masks(x, 1, rng)[0]).tolist())


def sample_masks(x: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are ``samples`` sets S ~ x as boolean masks, drawn at once from ``rng``.

    A ``(points, d)`` matrix ``x`` gives ``(points, samples, d)``, drawn point by point.
    """
    x = np.asarray(x, dtype=float)
    return rng.random(x.shape[:-1] + (samples, x.shape[-1])) < x[..., None, :]


SAMPLE_CHUNK_BYTES = 2**16


def peek_sampled_values(
    f: SetOracle, Z: np.ndarray, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uncounted :func:`multilinear_sample` of ``f`` at each row of ``Z``, in row order.

    Draws the same sets from ``rng`` as one :func:`multilinear_sample` per row, with
    one ``peek_masks`` call per chunk of rows whose uniform draws take at most
    :data:`SAMPLE_CHUNK_BYTES`, so its memory is bounded whatever the input size.
    """
    n, d = np.shape(Z)
    rows = max(1, SAMPLE_CHUNK_BYTES // (8 * samples * d))
    out = np.empty(n)
    for lo in range(0, n, rows):
        masks = sample_masks(Z[lo:lo + rows], samples, rng).reshape(-1, d)
        out[lo:lo + rows] = f.peek_masks(masks).reshape(-1, samples).mean(axis=1)
    return out


def coordinate_gradient(
    f: SetOracle, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-coordinate estimate ``f(S + i) - f(S - i)`` of the multilinear gradient.

    Draws one set S ~ x and spends ``2*ground_size`` counted set queries.
    """
    base = sample_subset(x, rng)
    g = np.empty(f.ground_size)
    for i in range(f.ground_size):
        g[i] = f(base | {i}) - f(base - {i})
    return g


def multilinear_sample(
    f: SetOracle, x: np.ndarray, l: int, rng: np.random.Generator
) -> float:
    """Unbiased l-sample Monte Carlo estimate of the multilinear extension.

    The mean of ``f(S)`` over ``l`` sets S ~ x drawn at once from ``rng``; one
    counted call of ``f`` per set.
    """
    if l < 1:
        raise ValueError("sample count l must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (f.ground_size,):
        raise ValueError(f"point has shape {x.shape}, expected ({f.ground_size},)")
    masks = sample_masks(x, l, rng)
    return float(np.mean([f(frozenset(np.flatnonzero(m).tolist())) for m in masks]))


class _SetBackedValueOracle(ValueOracle):
    """Value oracle whose query counter reports the underlying set evaluations."""

    def __init__(self, cost_source: SetOracle, **kwargs):
        super().__init__(**kwargs)
        self._cost_source = cost_source

    @property
    def query_count(self) -> int:
        return self._cost_source.query_count


def multilinear_value_oracle(
    f: SetOracle, l: int, seed: int = 0, peek_samples: int = 64
) -> ValueOracle:
    """Continuous view of a set function for the projected-ascent baselines.

    Counted evaluations return an ``l``-sample estimate of the multilinear
    extension (spending ``l`` set queries each); the gradient callable returns
    the per-coordinate stochastic estimate built from one sampled set S ~ x
    and the pairs ``f(S + i) - f(S - i)``, spending ``2*ground_size`` set
    queries.  ``peek`` and ``peek_rows`` use uncounted set evaluations and a
    separate stream so instrumentation never disturbs the counted sampling
    sequence; ``peek_rows`` draws the same sets as one ``peek`` per row.  The
    Lipschitz bound ``2*M*sqrt(d)`` of any bounded multilinear extension is
    used as G.
    """
    if peek_samples < 1:
        raise ValueError("peek sample count must be >= 1")
    d = f.ground_size
    main_seq, peek_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(main_seq)
    peek_rng = np.random.default_rng(peek_seq)

    def peek_rows(Z: np.ndarray) -> np.ndarray:
        return peek_sampled_values(f, Z, peek_samples, peek_rng)

    return _SetBackedValueOracle(
        cost_source=f,
        fn=lambda x: multilinear_sample(f, x, l, rng),
        dim=d,
        lipschitz_G=2.0 * f.bound_M * np.sqrt(d),
        grad=lambda x: coordinate_gradient(f, x, rng),
        domain=BoxDomain.unit_cube(d),
        peek_fn=lambda x: peek_rows(x[None])[0],
        name=f"multilinear[{f.name}]" if f.name else "multilinear",
        peek_rows_fn=peek_rows,
    )
