"""Function-evaluation oracles and multilinear extensions of set functions.

Every optimizer in this package sees its objective through one of these
wrappers, which do exact bookkeeping of how many evaluations were spent.
Counted calls go through ``__call__``; ``peek`` evaluates without counting and
is reserved for instrumentation (trace columns, final reporting).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional

import numpy as np

from .constraints import BoxDomain, DomainError

MAX_EXACT_EXTENSION_DIM = 25


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
    ):
        if lipschitz_G <= 0:
            raise ValueError("lipschitz_G must be strictly positive")
        self._fn = fn
        self._peek_fn = peek_fn if peek_fn is not None else fn
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
        return float(self._peek_fn(np.asarray(x, dtype=float)))

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
    """Set function on ground set ``{0, .., ground_size-1}`` with |f| <= bound_M."""

    def __init__(
        self,
        fn: Callable[[frozenset], float],
        ground_size: int,
        bound_M: float,
        name: str = "",
    ):
        if bound_M <= 0:
            raise ValueError("bound_M must be strictly positive")
        self._fn = fn
        self.ground_size = int(ground_size)
        self.bound_M = float(bound_M)
        self.name = name
        self._lock = threading.Lock()
        self._queries = 0

    def _check(self, subset) -> frozenset:
        members = frozenset(int(i) for i in subset)
        for i in members:
            if not 0 <= i < self.ground_size:
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
        return float(self._fn(self._check(subset)))

    @property
    def query_count(self) -> int:
        return self._queries


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


def sample_subset(x: np.ndarray, rng: np.random.Generator) -> frozenset:
    """Draw S ~ x: element i enters independently with probability x_i."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return frozenset(int(i) for i in np.flatnonzero(rng.random(x.size) < x))


def sampled_value(
    evaluate: Callable[[frozenset], float],
    x: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Mean of ``evaluate(S)`` over ``samples`` sets S ~ x drawn from ``rng``.

    Pass a :class:`SetOracle` itself for counted evaluations or its ``peek``
    for uncounted instrumentation.  All masks come from one draw, the same
    stream as ``samples`` calls of :func:`sample_subset`.
    """
    x = np.asarray(x, dtype=float)
    masks = rng.random((samples, x.size)) < x
    return float(np.mean([evaluate(frozenset(np.flatnonzero(m).tolist())) for m in masks]))


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
    """Unbiased l-sample Monte Carlo estimate of the multilinear extension."""
    if l < 1:
        raise ValueError("sample count l must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (f.ground_size,):
        raise ValueError(f"point has shape {x.shape}, expected ({f.ground_size},)")
    return sampled_value(f, x, l, rng)


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
    queries.  ``peek`` uses uncounted set evaluations and a separate stream so
    instrumentation never disturbs the counted sampling sequence.  The
    Lipschitz bound ``2*M*sqrt(d)`` of any bounded multilinear extension is
    used as G.
    """
    d = f.ground_size
    main_seq, peek_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(main_seq)
    peek_rng = np.random.default_rng(peek_seq)
    return _SetBackedValueOracle(
        cost_source=f,
        fn=lambda x: multilinear_sample(f, x, l, rng),
        dim=d,
        lipschitz_G=2.0 * f.bound_M * np.sqrt(d),
        grad=lambda x: coordinate_gradient(f, x, rng),
        domain=BoxDomain.unit_cube(d),
        peek_fn=lambda x: sampled_value(f.peek, x, peek_samples, peek_rng),
        name=f"multilinear[{f.name}]" if f.name else "multilinear",
    )
