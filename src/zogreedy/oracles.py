"""Function-evaluation oracles and multilinear extensions of set functions.

Every optimizer in this package sees its objective through one of these
wrappers, which do exact bookkeeping of how many evaluations were spent.
Counted calls go through ``__call__``.  Each oracle has one uncounted path,
reserved for instrumentation (trace columns, final reporting): ``peek_rows``
evaluates every row of a matrix of points, and :meth:`SetOracle.peek_masks`
every set given as a row of a boolean mask matrix.  ``ValueOracle.peek`` and
``SetOracle.peek`` are their one-row case.  The optimizers see a set function
through :class:`MultilinearOracle`, its multilinear extension.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Callable, Optional

import numpy as np

from .constraints import DEFAULT_FEASIBILITY_TOL, BoxDomain, DomainError, contains

# Bytes of one chunk of an uncounted trace pass: the uniform draws of
# MultilinearOracle.peek_rows, or the rows ValueOracle.peek_rows hands its batch_fn.
# Bounds the pass's working memory whatever its length.  objectives.nqp_generate
# sizes its symmetrization bands by it too.
SAMPLE_CHUNK_BYTES = 2**17


def _point_rows(Z, dim: int) -> np.ndarray:
    """``Z`` as a float ``(n, dim)`` matrix of points; ``ValueError`` for any other shape."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != dim:
        raise ValueError(f"points have shape {Z.shape}, expected (n, {dim})")
    return Z


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
    batch_fn : optional callable mapping a ``(n, dim)`` matrix to the ``n``
        values of ``fn`` at its rows; it must agree with ``fn`` bitwise and
        serves only the uncounted :meth:`peek_rows`.

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
        name: str = "",
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if not 0 < lipschitz_G < math.inf:  # NaN fails too
            raise ValueError("lipschitz_G must be finite and strictly positive")
        self._fn = fn
        self._batch_fn = batch_fn
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
        if self.domain is not None and not contains(self.domain, x):
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
        """Uncounted value at one point: the one-row case of :meth:`peek_rows`."""
        return float(self.peek_rows(np.asarray(x, dtype=float)[None])[0])

    def peek_rows(self, Z: np.ndarray) -> np.ndarray:
        """Uncounted values at the rows of a ``(n, dim)`` matrix, in row order.

        The oracle's one uncounted path (instrumentation only): ``batch_fn``
        on chunks of rows of at most :data:`SAMPLE_CHUNK_BYTES` when the oracle
        has one, and ``fn`` row by row otherwise.
        """
        Z = _point_rows(Z, self.dim)
        if self._batch_fn is None:
            out = np.array([float(self._fn(z)) for z in Z])
        else:
            rows = max(1, SAMPLE_CHUNK_BYTES // (8 * self.dim))
            out = np.empty(len(Z))
            for lo in range(0, len(Z), rows):
                chunk = Z[lo:lo + rows]
                values = np.asarray(self._batch_fn(chunk), dtype=float)
                if values.shape != (len(chunk),):
                    raise ValueError(
                        f"batch of {len(chunk)} points gave values of shape {values.shape}"
                    )
                out[lo:lo + rows] = values
        bad = out[~np.isfinite(out)]
        if bad.size:
            raise ValueError(f"oracle {self.name!r} peeked non-finite value {bad[0]}")
        return out

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

    The noise is Gaussian with standard deviation ``sigma0``; for another
    zero-mean distribution, subclass and override ``__call__``.  The instance
    owns a seeded generator stream, so it should be confined to one worker
    unless re-seeded per worker.  ``peek_rows`` passes through to the exact
    inner oracle.
    """

    def __init__(self, inner: ValueOracle, sigma0: float, seed: int = 0):
        if not 0 <= sigma0 < math.inf:  # NaN fails too
            raise ValueError("sigma0 must be finite and non-negative")
        self.inner = inner
        self.sigma0 = float(sigma0)
        self._rng = np.random.default_rng(seed)

    def __call__(self, x: np.ndarray) -> float:
        value = self.inner(x)
        if self.sigma0 != 0.0:
            value += self._rng.normal(0.0, self.sigma0)
        if not math.isfinite(value):
            raise ValueError(f"noisy oracle returned non-finite value {value}")
        return value

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


class SetOracle:
    """Set function on ground set ``{0, .., ground_size-1}`` with |f| <= bound_M.

    ``fn`` receives each query as a frozenset of Python ints already checked
    against the ground set.  ``batch_fn``, when given, maps a boolean
    ``(n, ground_size)`` mask matrix to the ``n`` values of the sets its rows
    select; it must agree with ``fn`` bitwise and serves only the uncounted
    :meth:`peek_masks`.
    """

    def __init__(
        self,
        fn: Callable[[frozenset], float],
        ground_size: int,
        bound_M: float,
        name: str = "",
        batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if not 0 < bound_M < math.inf:  # NaN fails too
            raise ValueError("bound_M must be finite and strictly positive")
        self._fn = fn
        self._batch_fn = batch_fn
        self.ground_size = int(ground_size)
        self._ground = frozenset(range(self.ground_size))
        self.bound_M = float(bound_M)
        self.name = name
        self._lock = threading.Lock()
        self._queries = 0

    def _check(self, subset) -> frozenset:
        try:
            members = frozenset(map(operator.index, subset))
        except TypeError as exc:
            raise ValueError(f"set elements must be integers: {exc}") from None
        if not members <= self._ground:
            i = next(i for i in members if i not in self._ground)
            raise ValueError(f"element {i} outside the ground set")
        return members

    def __call__(self, subset) -> float:
        members = self._check(subset)
        with self._lock:
            self._queries += 1
        value = float(self._fn(members))
        if not abs(value) <= self.bound_M + 1e-9:  # NaN fails too
            if not math.isfinite(value):
                raise ValueError(f"set function {self.name!r} returned non-finite value {value}")
            raise ValueError(f"set function {self.name!r} value {value} "
                             f"exceeds declared bound {self.bound_M}")
        return value

    def peek(self, subset) -> float:
        """Uncounted value of one set: the one-row case of :meth:`peek_masks`."""
        mask = np.zeros(self.ground_size, dtype=bool)
        mask[list(self._check(subset))] = True
        return float(self.peek_masks(mask[None])[0])

    def peek_masks(self, masks: np.ndarray) -> np.ndarray:
        """Uncounted values of the sets selected by the rows of a boolean matrix.

        The oracle's one uncounted path (instrumentation only): ``batch_fn``
        when the oracle has one and ``fn`` row by row otherwise.
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
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"set function {self.name!r} peeked non-finite value {bad[0]}")
        return values

    @property
    def query_count(self) -> int:
        return self._queries


def sample_masks(x: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are ``samples`` sets S ~ x as boolean masks, drawn at once from ``rng``.

    A ``(points, d)`` matrix ``x`` gives ``(points, samples, d)``, drawn point by point.
    """
    x = np.asarray(x, dtype=float)
    return rng.random(x.shape[:-1] + (samples, x.shape[-1])) < x[..., None, :]


class MultilinearOracle:
    """The multilinear extension of a set function, seen as a value oracle.

    This is how every optimizer sees a :class:`SetOracle`.  A counted call at a
    point x of the unit cube is the unbiased Monte Carlo estimate: the mean of
    ``f(S)`` over ``l >= 1`` sets S ~ x (``l`` set queries).  :meth:`gradient`
    is ``f(S + i) - f(S - i)`` at one set S ~ x (``2*ground_size`` set
    queries).  Both draw their sets from ``rng`` and raise :class:`DomainError`
    outside the cube.
    :meth:`peek_rows` is its uncounted path, on sets drawn from ``peek_rng``,
    so instrumentation never disturbs the counted sampling sequence.
    ``query_count`` is the set oracle's counter, and the Lipschitz bound
    ``2*M*sqrt(d)`` of any bounded multilinear extension is used as G.

    Deliberately not a :class:`ValueOracle`: each query it spends is one
    counted ``SetOracle`` call and is counted nowhere else.
    """

    has_gradient = True

    def __init__(
        self, f: SetOracle, l: int, rng: np.random.Generator,
        peek_rng: np.random.Generator, peek_samples: int,
    ):
        if l < 1:
            raise ValueError("sample count l must be >= 1")
        if peek_samples < 1:
            raise ValueError("peek sample count must be >= 1")
        self.f = f
        self.l = l
        self.dim = f.ground_size
        self.lipschitz_G = 2.0 * f.bound_M * np.sqrt(self.dim)
        self.domain = BoxDomain.unit_cube(self.dim)
        self._rng = rng
        self._peek_rng = peek_rng
        self._peek_samples = peek_samples

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not contains(self.domain, x):
            raise DomainError(f"point {x} leaves the unit cube")
        return x

    def __call__(self, x: np.ndarray) -> float:
        masks = sample_masks(self._check(x), self.l, self._rng)
        return float(np.mean([self.f(frozenset(np.flatnonzero(m).tolist())) for m in masks]))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        mask = sample_masks(self._check(x), 1, self._rng)[0]
        base = frozenset(np.flatnonzero(mask).tolist())
        f = self.f
        g = np.empty(self.dim)
        # One side of each pair is S itself, so that query takes base as is.
        for i, inside in enumerate(mask.tolist()):
            g[i] = f(base) - f(base - {i}) if inside else f(base | {i}) - f(base)
        return g

    def peek_rows(self, Z: np.ndarray) -> np.ndarray:
        """Uncounted estimates at each row of ``Z``: the mean of ``f`` over
        ``peek_samples`` sets S ~ z, through :meth:`SetOracle.peek_masks`.

        Draws the same sets, in row order, as one counted call per row with
        ``l = peek_samples``, in chunks of rows whose uniform draws take at
        most :data:`SAMPLE_CHUNK_BYTES`, so its memory is bounded whatever the
        number of rows.  Raises ``ValueError`` unless ``Z`` is ``(n, dim)``, and
        :class:`DomainError` on a row outside the unit cube, before drawing.
        """
        Z = _point_rows(Z, self.dim)
        # "not (min >= lo and max <= hi)" so that NaN fails too
        if Z.size and not (Z.min() >= -DEFAULT_FEASIBILITY_TOL
                           and Z.max() <= 1 + DEFAULT_FEASIBILITY_TOL):
            raise DomainError("peeked points leave the unit cube")
        n, d = Z.shape
        s = self._peek_samples
        rows = max(1, SAMPLE_CHUNK_BYTES // (8 * s * d))
        out = np.empty(n)
        for lo in range(0, n, rows):
            masks = sample_masks(Z[lo:lo + rows], s, self._peek_rng).reshape(-1, d)
            out[lo:lo + rows] = self.f.peek_masks(masks).reshape(-1, s).mean(axis=1)
        return out

    @property
    def query_count(self) -> int:
        return self.f.query_count
