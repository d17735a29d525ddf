"""Function-evaluation oracles and multilinear extensions of set functions.

Every optimizer in this package sees its objective through one of these
wrappers, which do exact bookkeeping of how many evaluations were spent.
Counted calls go through ``__call__``.  Each oracle has one uncounted path,
reserved for instrumentation (trace columns, final reporting): ``peek_rows``
evaluates every row of a matrix of points, and :meth:`SetOracle.peek_masks`
every set given as a row of a boolean mask matrix.  ``ValueOracle.peek`` and
``SetOracle.peek`` are their one-row case.  Both paths check alike: a point,
or a matrix's rows at once, with one :func:`contains` call on the domain; a
set's members against the ground set, and its value against ``bound_M``.  The
optimizers see a set function through :class:`MultilinearOracle`.

Every pass over rows whose length grows with its input (trace values, the
every-iterate check, the bands that build and check a quadratic's ``H``,
logdet stacks, brute force) holds at most :data:`CHUNK_BYTES` at a time:
:func:`row_chunks` cuts it by its own bytes per row, so its memory stays flat
however long it is.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .constraints import BoxDomain, DomainError, _count, _members, contains

# The one memory budget of a bounded pass: bytes of one chunk of rows.
CHUNK_BYTES = 2**17


def row_chunks(n: int, row_bytes: int):
    """Slices that cover ``range(n)`` in order, each of as many rows of
    ``row_bytes`` bytes as :data:`CHUNK_BYTES` holds, and at least one."""
    rows = max(1, CHUNK_BYTES // row_bytes)
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def _checked(oracle, x, ndim: int) -> np.ndarray:
    """``x`` as a float point (``ndim`` 1) or matrix of points (``ndim`` 2) of
    ``oracle.dim`` coordinates: ``ValueError`` for any other shape, and
    :class:`DomainError` when a point leaves ``oracle.domain`` or has a NaN."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != oracle.dim:
        if ndim == 1:
            raise ValueError(f"point has shape {x.shape}, expected ({oracle.dim},)")
        raise ValueError(f"points have shape {x.shape}, expected (n, {oracle.dim})")
    if oracle.domain is not None and not contains(oracle.domain, x):
        what = f"point {x}" if ndim == 1 else f"one of {len(x)} points"
        cube = " (the unit cube)" if (oracle.domain.upper == 1.0).all() else ""
        raise DomainError(f"{what} leaves the box domain{cube}")
    return x


class ValueOracle:
    """Deterministic real-valued objective with known Lipschitz bound.

    Parameters
    ----------
    fn : callable mapping a length-``dim`` array to a float.
    dim : ambient dimension, an integer >= 1.
    lipschitz_G : known (or conservative) Lipschitz constant of ``fn``.
    grad : optional gradient callable; required by the first-order baselines.
    domain : optional box; when given, counted evaluations outside it raise
        :class:`DomainError`.
    batch_fn : optional callable mapping a ``(n, dim)`` matrix to the ``n``
        values of ``fn`` at its rows; it must agree with ``fn`` bitwise and
        serves only the uncounted :meth:`peek_rows`.  By default ``fn`` row by row.

    The counters are plain integers, so use one oracle per thread.
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
        self._batch_fn = batch_fn or (lambda Z: [float(fn(z)) for z in Z])
        self.dim = _count(dim, "dim")
        self.lipschitz_G = float(lipschitz_G)
        self._grad = grad
        self.domain = domain
        self.name = name
        self._queries = 0
        self._grad_queries = 0

    def __call__(self, x: np.ndarray) -> float:
        x = _checked(self, x, 1)
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
        on chunks of rows (:func:`row_chunks`).  Each row is checked against
        the domain first, as a counted call checks its point: a row outside
        it, or with a NaN coordinate, raises :class:`DomainError` before any
        value is computed.
        """
        Z = _checked(self, Z, 2)
        out = np.empty(len(Z))
        for rows in row_chunks(len(Z), 8 * self.dim):
            chunk = Z[rows]
            values = np.asarray(self._batch_fn(chunk), dtype=float)
            if values.shape != (len(chunk),):
                raise ValueError(
                    f"batch of {len(chunk)} points gave values of shape {values.shape}"
                )
            out[rows] = values
        bad = out[~np.isfinite(out)]
        if bad.size:
            raise ValueError(f"oracle {self.name!r} peeked non-finite value {bad[0]}")
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self._grad is None:
            raise ValueError(f"oracle {self.name!r} exposes no gradient")
        x = _checked(self, x, 1)
        self._grad_queries += 1
        g = np.asarray(self._grad(x), dtype=float)
        if g.shape != x.shape:
            raise ValueError(f"oracle {self.name!r} returned a gradient of shape {g.shape}, "
                             f"expected {x.shape}")
        if not np.isfinite(g).all():
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
    owns a generator stream seeded by a non-negative integer and counts
    through its inner oracle, so use one oracle per thread, each with its own
    seed.  ``peek_rows`` passes
    through to the exact inner oracle.
    """

    def __init__(self, inner: ValueOracle, sigma0: float, seed: int = 0):
        if not 0 <= sigma0 < math.inf:  # NaN fails too
            raise ValueError("sigma0 must be finite and non-negative")
        self.inner = inner
        self.sigma0 = float(sigma0)
        self._rng = np.random.default_rng(_count(seed, "seed", 0))

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
    """Set function on ground set ``{0, .., ground_size-1}`` with |f| <= bound_M,
    for an integer ``ground_size >= 1``.

    ``fn`` receives each query as a frozenset of Python ints already checked
    against the ground set.  ``batch_fn`` maps a boolean ``(n, ground_size)``
    mask matrix to the ``n`` values of the sets its rows select, ``fn`` row by
    row by default; it must agree with ``fn`` bitwise and serves only the
    uncounted :meth:`peek_masks`.  The counter is a plain integer, so use one
    oracle per thread.
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
        self._batch_fn = batch_fn or (
            lambda masks: [fn(frozenset(np.flatnonzero(m).tolist())) for m in masks])
        self.ground_size = _count(ground_size, "ground_size")
        self._ground = frozenset(range(self.ground_size))
        self.bound_M = float(bound_M)
        self.name = name
        self._queries = 0

    def __call__(self, subset) -> float:
        members = _members(subset, self._ground)
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
        mask[list(_members(subset, self._ground))] = True
        return float(self.peek_masks(mask[None])[0])

    def peek_masks(self, masks: np.ndarray) -> np.ndarray:
        """Uncounted values of the sets selected by the rows of a boolean matrix.

        The oracle's one uncounted path (instrumentation only): one ``batch_fn`` call.
        """
        masks = np.asarray(masks)
        if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != self.ground_size:
            raise ValueError(
                f"masks must be a bool array of shape (n, {self.ground_size}), "
                f"got {masks.dtype} {masks.shape}"
            )
        values = np.asarray(self._batch_fn(masks), dtype=float)
        if values.shape != (masks.shape[0],):
            raise ValueError(
                f"batch of {masks.shape[0]} sets gave values of shape {values.shape}"
            )
        bad = values[~(np.abs(values) <= self.bound_M + 1e-9)]  # NaN fails too
        if bad.size:
            raise ValueError(f"set function {self.name!r} peeked value {bad[0]}, non-finite "
                             f"or beyond its declared bound {self.bound_M}")
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
    ``2*M*sqrt(d)`` of any bounded multilinear extension is used as G.  A
    count ``l`` or ``peek_samples`` that is not an integer >= 1, or is a
    bool, raises ``ValueError`` here, before any query.

    Deliberately not a :class:`ValueOracle`: each query it spends is one
    counted ``SetOracle`` call and is counted nowhere else.
    """

    has_gradient = True

    def __init__(
        self, f: SetOracle, l: int, rng: np.random.Generator,
        peek_rng: np.random.Generator, peek_samples: int,
    ):
        self.l = _count(l, "sample count l")
        self._peek_samples = _count(peek_samples, "peek sample count")
        self.f = f
        self.dim = f.ground_size
        self.lipschitz_G = 2.0 * f.bound_M * np.sqrt(self.dim)
        self.domain = BoxDomain.unit_cube(self.dim)
        self._rng = rng
        self._peek_rng = peek_rng

    def __call__(self, x: np.ndarray) -> float:
        masks = sample_masks(_checked(self, x, 1), self.l, self._rng)
        values = [self.f(frozenset(m.nonzero()[0].tolist())) for m in masks]
        return float(np.add.reduce(values)) / self.l

    def gradient(self, x: np.ndarray) -> np.ndarray:
        mask = sample_masks(_checked(self, x, 1), 1, self._rng)[0]
        base = frozenset(mask.nonzero()[0].tolist())
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
        ``l = peek_samples``, in chunks of rows (:func:`row_chunks`, by their
        uniform draws).  Raises ``ValueError`` unless ``Z`` is ``(n, dim)``, and
        :class:`DomainError` on a row outside the unit cube, before drawing.
        """
        Z = _checked(self, Z, 2)
        n, d = Z.shape
        s = self._peek_samples
        out = np.empty(n)
        for rows in row_chunks(n, 8 * s * d):
            masks = sample_masks(Z[rows], s, self._peek_rng).reshape(-1, d)
            out[rows] = self.f.peek_masks(masks).reshape(-1, s).mean(axis=1)
        return out

    @property
    def query_count(self) -> int:
        return self.f.query_count
