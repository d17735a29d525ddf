"""The derivative-free conditional-gradient maximizers and their baselines.

All five optimizers run one ascent loop, :func:`_ascend`, and differ only in
the parts they hand it:

* a gradient source: the batched two-point sphere estimate (:func:`bcg`,
  :func:`dbg`, :func:`zga`) or a first-order gradient (:func:`scg`,
  :func:`ga`);
* a step rule: Frank-Wolfe (momentum, linear maximization, step ``1/T``) for
  bcg, dbg and scg, or projected ascent (step ``eta0/sqrt(t)``) for ga and zga;
* a lift: the zeroth-order methods iterate on the feasible set shrunk by
  ``delta`` and translated to the origin, so their probes, trace points and
  outputs sit at ``x + delta``; the first-order ones lift by ``0``.

A set function enters through one step: all five see it as its
:class:`~zogreedy.oracles.MultilinearOracle`, whose value is an ``l``-sample
estimate of the multilinear extension, whose gradient is the estimate
``f(S + i) - f(S - i)`` and whose uncounted trace values are means of set
values over sampled masks.  After each step the loop checks that the step
spent exactly its declared cost (below).  After the loop, :func:`contains`
checks that every lifted iterate lies in the run's constraint, within 1e-9 on
a continuous run and 1e-6 on a set function, and one pass computes their
trace values.
Continuous runs return the last lifted iterate; set-function runs repair it
onto the matroid polytope, swap-round it, and check independence.

All runs are sequential in the iteration counter, deterministic given
(parameters, seed), and do exact query accounting: each step of bcg and zga
spends ``2*B`` evaluations, or ``2*B*l`` set evaluations on a set function as
dbg does; each step of scg and ga spends one gradient access, or ``2*d`` set
evaluations on a set function.
Trace instrumentation uses uncounted peeks and a separate random stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .constraints import (
    PARTITION_MATROID,
    BoxDomain,
    ConstraintSpec,
    _integer,
    contains,
    independent,
    transform_constraint,
)
from .estimators import batch_grad, momentum_update, rho_schedule
from .oracles import MultilinearOracle, NoisyOracle, SetOracle, ValueOracle, row_chunks
from .polytope import lmo, project, swap_round

ContinuousOracle = Union[ValueOracle, NoisyOracle]


@dataclass(frozen=True)
class AlgoParams:
    """Shared knob set for one optimizer run, and the optimizers that read each.

    All five read the iteration budget ``T`` (at least 4).  The zeroth-order
    bcg, dbg and zga read the smoothing radius ``delta`` and the direction
    batch ``B``; ga and zga the base step ``eta0`` (default: feasible-set
    diameter / Lipschitz ratio).  On a set function dbg and zga read the
    per-probe sample count ``l``, and all four ``trace_value_samples``, the
    uncounted sample size behind the trace's value column.  The counts are
    integers, not bools.  ``seed`` must be a non-negative integer, so that a
    run is deterministic.
    """

    T: int = 100
    delta: float = 0.05
    B: int = 1
    l: int = 1
    seed: int = 0
    eta0: Optional[float] = None
    trace_value_samples: int = 64

    def __post_init__(self):
        if not _integer(self.T) or self.T < 4:
            raise ValueError("iteration count T must be an integer >= 4")
        if not _integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        # "not 0 < v < inf" so that NaN fails too
        if not 0 < self.delta < math.inf:
            raise ValueError("smoothing radius delta must be finite and positive")
        if not all(_integer(n) and n >= 1 for n in (self.B, self.l)):
            raise ValueError("batch sizes B and l must be integers >= 1")
        if self.eta0 is not None and not 0 < self.eta0 < math.inf:
            raise ValueError("eta0 must be finite and positive when given")
        samples = self.trace_value_samples
        if not _integer(samples) or samples < 1:
            raise ValueError("trace_value_samples must be an integer >= 1")


@dataclass(frozen=True)
class TraceRecord:
    t: int
    queries: int
    elapsed_s: float
    z: np.ndarray
    value: float
    grad_norm: float


@dataclass
class RunTrace:
    """Per-iteration record of an optimizer run."""

    records: list[TraceRecord] = field(default_factory=list)
    rounding_overshoot: Optional[float] = None

    def queries(self) -> np.ndarray:
        return np.array([r.queries for r in self.records], dtype=int)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    def iterates(self) -> np.ndarray:
        return np.array([r.z for r in self.records])

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


Step = Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, float]]


def _frank_wolfe(region: ConstraintSpec, T: int) -> Step:
    """Momentum-averaged linear maximization over ``region``, step ``1/T``.

    Reports the norm of the averaged gradient.
    """
    g_bar = np.zeros(region.dim)

    def step(x, g, t):
        nonlocal g_bar
        g_bar = momentum_update(g_bar, g, rho_schedule(t))
        return x + lmo(region, g_bar) / T, math.sqrt(g_bar @ g_bar)

    return step


def _projected(region: ConstraintSpec, eta0: Optional[float], lipschitz_G: float) -> Step:
    """Projected ascent onto ``region`` with step ``eta0/sqrt(t)``.

    Reports the norm of the raw gradient.  ``eta0`` defaults to a crude
    diameter proxy, the norm of the budget-saturating point, divided by the
    Lipschitz constant.
    """
    if eta0 is None:
        eta0 = float(np.linalg.norm(lmo(region, np.ones(region.dim)))) / lipschitz_G

    def step(x, g, t):
        return project(region, x + (eta0 / math.sqrt(t)) * g), math.sqrt(g @ g)

    return step


def _ascend(
    oracle, x: np.ndarray, grad: Callable[[np.ndarray], np.ndarray], step: Step,
    lift: float, T: int, constraint: ConstraintSpec, tol: float, cost: int,
) -> tuple[np.ndarray, RunTrace]:
    """The one ascent loop: ``T`` times ``x <- step(x, grad(x), t)``.

    Records the lifted iterate ``x + lift``, the value plus gradient queries
    spent on ``oracle`` so far, the elapsed time and the gradient norm, and
    raises ``RuntimeError`` naming the iteration whose step did not spend
    exactly ``cost`` of those queries.  The
    lifted iterates are the rows of one ``(T, d)`` buffer.  After the loop,
    :func:`contains` checks them against ``constraint`` within ``tol``, a
    chunk of rows at a time, raising ``RuntimeError`` at the first iteration
    outside it, and one uncounted ``oracle.peek_rows``
    pass turns them into the trace values, so the times are algorithm time
    only.  Returns the last unlifted iterate and the trace.
    """
    def accesses():
        return oracle.query_count + getattr(oracle, "gradient_query_count", 0)

    q0 = accesses()
    start = time.perf_counter()
    zs = np.empty((T, x.size))
    progress = []
    for t in range(1, T + 1):
        x, grad_norm = step(x, grad(x), t)
        np.add(x, lift, out=zs[t - 1])
        queries = accesses() - q0
        if queries != t * cost:
            raise RuntimeError(f"iteration {t} spent {queries - (t - 1) * cost} queries, "
                               f"not {cost}; internal error")
        progress.append((t, queries, time.perf_counter() - start, grad_norm))
    for rows in row_chunks(T, 8 * x.size):
        if not contains(constraint, zs[rows], tol):
            t = next(t for t in range(rows.start + 1, T + 1)
                     if not contains(constraint, zs[t - 1], tol))
            raise RuntimeError(f"iteration {t} left the constraint set; internal error")
    return x, RunTrace([
        TraceRecord(t, queries, elapsed, z, float(value), grad_norm)
        for (t, queries, elapsed, grad_norm), z, value
        in zip(progress, zs, oracle.peek_rows(zs))
    ])


def _rounded(
    x: np.ndarray, lift: float, matroid: ConstraintSpec, rng: np.random.Generator,
    trace: RunTrace,
) -> frozenset:
    """Finisher for set functions: repair the lifted point, swap-round, check.

    The lifted point satisfies the matroid polytope within 1e-6, as
    :func:`_ascend` checked; the repair clamps those tolerance-level
    violations and records their size as the trace's rounding overshoot.
    """
    z = x + lift
    overshoot = max(0.0, float(np.max(z - 1.0)), float(np.max(-z)))
    z = np.clip(z, 0.0, 1.0)
    for idx, limit in zip(matroid.block_index, matroid.budgets):
        s = float(np.sum(z[idx]))
        if s > limit:
            overshoot = max(overshoot, s - limit)
            z[idx] *= limit / s
    trace.rounding_overshoot = overshoot
    chosen = swap_round(z, matroid, rng)
    if not independent(matroid, chosen):
        raise RuntimeError("rounded set violates the matroid; internal error")
    return chosen


def _optimize(
    oracle, constraint: ConstraintSpec, params: AlgoParams, projected: bool,
    domain: Optional[BoxDomain] = None, x0: Optional[np.ndarray] = None,
):
    """The body of all five optimizers: entry step, ascent loop, finisher.

    The entry step draws the run's two streams.  A :class:`SetOracle` needs a
    partition-matroid constraint and is seen through its
    :class:`MultilinearOracle` on them: main for counted sets, instr for trace
    sets.  With a ``domain`` the run is zeroth order: it iterates on the
    shrunk set K', estimates gradients with :func:`batch_grad` and lifts by
    ``delta``.  Without one it is first order on the constraint itself.  The
    step is projected ascent from ``x0`` (projected, default 0) or Frank-Wolfe
    from 0.  A set function's output is swap-rounded, any other is lifted.
    """
    rng, instr = map(np.random.default_rng, np.random.SeedSequence(params.seed).spawn(2))
    if isinstance(oracle, SetOracle):
        if constraint.kind != PARTITION_MATROID:
            raise ValueError("set functions need a partition-matroid constraint")
        oracle = MultilinearOracle(oracle, params.l, rng, instr, params.trace_value_samples)
    if oracle.dim != constraint.dim:
        raise ValueError("oracle and constraint dimensions differ")
    discrete = isinstance(oracle, MultilinearOracle)
    if domain is None:
        if not getattr(oracle, "has_gradient", False):
            raise ValueError("first-order methods need a gradient-bearing oracle")
        region, lift, grad = constraint, 0.0, oracle.gradient
        cost = 2 * oracle.dim if discrete else 1
    else:
        region = transform_constraint(domain, constraint, params.delta)
        lift = params.delta
        cost = 2 * params.B * (params.l if discrete else 1)

        def grad(x):
            return batch_grad(oracle, x, params.delta, params.B, rng)

    x = np.zeros(oracle.dim) if x0 is None else project(region, np.asarray(x0, float))
    if projected:
        step = _projected(region, params.eta0, oracle.lipschitz_G)
    else:
        step = _frank_wolfe(region, params.T)
    x, trace = _ascend(oracle, x, grad, step, lift, params.T, constraint,
                       1e-6 if discrete else 1e-9, cost)
    if discrete:
        return _rounded(x, lift, constraint, rng, trace), trace
    return x + lift, trace


def bcg(
    oracle: ContinuousOracle,
    domain: BoxDomain,
    constraint: ConstraintSpec,
    params: AlgoParams,
) -> tuple[np.ndarray, RunTrace]:
    """Derivative-free conditional-gradient ascent over a convex body.

    Runs ``T`` Frank-Wolfe steps on the shrunk/translated feasible set using
    momentum-averaged two-point gradient estimates centered at
    ``x_t + delta*1``, then returns ``x_{T+1} + delta*1``, which is feasible
    in the original constraint.  Spends exactly ``2*B*T`` oracle evaluations.
    """
    return _optimize(oracle, constraint, params, projected=False, domain=domain)


def dbg(
    f: SetOracle, matroid: ConstraintSpec, params: AlgoParams
) -> tuple[frozenset, RunTrace]:
    """Derivative-free maximization of a monotone submodular set function.

    :func:`bcg` on the unit cube with the multilinear extension as oracle:
    each probe value is an ``l``-sample estimate drawn from the run's main
    stream.  The final fractional point is lifted by ``delta`` and
    swap-rounded to an independent set.  Spends exactly ``2*B*l*T`` set
    evaluations.
    """
    domain = BoxDomain.unit_cube(matroid.dim)
    return _optimize(f, matroid, params, projected=False, domain=domain)


def scg(
    oracle: Union[ValueOracle, SetOracle],
    constraint: ConstraintSpec,
    params: AlgoParams,
) -> tuple[Union[np.ndarray, frozenset], RunTrace]:
    """First-order momentum Frank-Wolfe on the untransformed constraint.

    Continuous oracles must expose an exact gradient.  Set oracles get the
    per-coordinate stochastic estimate ``f(S + i) - f(S - i)`` from a single
    sampled set per iteration (``2*d`` set queries) and a swap-rounded output.
    """
    return _optimize(oracle, constraint, params, projected=False)


def ga(
    oracle: Union[ValueOracle, SetOracle],
    constraint: ConstraintSpec,
    params: AlgoParams,
    x0: Optional[np.ndarray] = None,
) -> tuple[Union[np.ndarray, frozenset], RunTrace]:
    """Projected gradient ascent with step size eta0 / sqrt(t).

    Requires an oracle exposing a gradient (exact or stochastic).  Spends no
    function-value queries; the trace column counts gradient accesses instead,
    or, on a set function, the ``2*d`` set evaluations behind each stochastic
    gradient.  On a set function the output is swap-rounded to a set.
    """
    return _optimize(oracle, constraint, params, projected=True, x0=x0)


def zga(
    oracle: Union[ContinuousOracle, SetOracle],
    domain: BoxDomain,
    constraint: ConstraintSpec,
    params: AlgoParams,
) -> tuple[Union[np.ndarray, frozenset], RunTrace]:
    """Projected ascent driven by the same two-point estimator as :func:`bcg`.

    Iterates live on the shrunk/translated feasible set so every probe stays
    inside the domain; the returned point is lifted by ``delta``, and
    swap-rounded on a set function.  Spends exactly ``2*B*T`` oracle
    evaluations, ``2*B*l*T`` set evaluations on a set function.
    """
    return _optimize(oracle, constraint, params, projected=True, domain=domain)
