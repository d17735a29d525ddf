"""The derivative-free conditional-gradient maximizers and their baselines.

All five optimizers run one ascent loop, :func:`_ascend`, and differ only in
the parts they hand it:

* a gradient source: the batched two-point sphere estimate on a value oracle
  (:func:`bcg`, :func:`zga`) or on the ``l``-sample multilinear extension of
  a set function (:func:`dbg`), or a first-order gradient (:func:`scg`,
  :func:`ga`), for set functions the estimate ``f(S + i) - f(S - i)``;
* a step rule: Frank-Wolfe (momentum, linear maximization, step ``1/T``) for
  bcg, dbg and scg, or projected ascent (step ``eta0/sqrt(t)``) for ga and zga;
* a lift: the zeroth-order methods iterate on the feasible set shrunk by
  ``delta`` and translated to the origin, so their probes, trace points and
  outputs sit at ``x + delta``; the first-order ones lift by ``0``;
* trace values: uncounted peeks, or means of uncounted set values over
  sampled masks, computed for all iterates in one pass after the loop.

One of two finishers checks the output: continuous runs return the lifted
iterate after a ``contains`` check; set-function runs repair the lifted point
onto the matroid polytope, swap-round it, and check independence.

All runs are sequential in the iteration counter, deterministic given
(parameters, seed), and do exact query accounting: bcg and zga spend `2*B*T`
evaluations, dbg spends ``2*B*l*T`` set evaluations, and discrete scg spends
``2*d*T`` set evaluations.  Trace instrumentation uses uncounted peeks and a
separate random stream.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .constraints import (
    PARTITION_MATROID,
    BoxDomain,
    ConstraintSpec,
    contains,
    independent,
    transform_constraint,
)
from .estimators import (
    batch_grad,
    discrete_batch_grad,
    momentum_update,
    rho_schedule,
)
from .oracles import (
    NoisyOracle,
    SetOracle,
    ValueOracle,
    coordinate_gradient,
    peek_sampled_values,
)
from .polytope import lmo, project, swap_round

ContinuousOracle = Union[ValueOracle, NoisyOracle]


@dataclass(frozen=True)
class AlgoParams:
    """Shared knob set for one optimizer run.

    ``T`` is the iteration budget (at least 4), ``delta`` the smoothing
    radius, ``B`` the per-iteration direction batch, ``l`` the per-probe
    sample count for set objectives, ``eta0`` the base step of the ascent
    baselines (defaults to a feasible-set-diameter / Lipschitz ratio), and
    ``trace_value_samples`` the uncounted sample size behind the discrete
    trace's value column.
    """

    T: int = 100
    delta: float = 0.05
    B: int = 1
    l: int = 1
    seed: int = 0
    eta0: Optional[float] = None
    trace_value_samples: int = 64

    def __post_init__(self):
        if not isinstance(self.T, numbers.Integral) or self.T < 4:
            raise ValueError("iteration count T must be an integer >= 4")
        # "not > 0" so that NaN fails too
        if not self.delta > 0:
            raise ValueError("smoothing radius delta must be positive")
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (self.B, self.l)):
            raise ValueError("batch sizes B and l must be integers >= 1")
        if self.eta0 is not None and not self.eta0 > 0:
            raise ValueError("eta0 must be positive when given")
        samples = self.trace_value_samples
        if not isinstance(samples, numbers.Integral) or samples < 1:
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

    def iterations(self) -> np.ndarray:
        return np.array([r.t for r in self.records], dtype=int)

    def queries(self) -> np.ndarray:
        return np.array([r.queries for r in self.records], dtype=int)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    def iterates(self) -> np.ndarray:
        return np.array([r.z for r in self.records])

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def _rng_pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    main_seq, instr_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(main_seq), np.random.default_rng(instr_seq)


def _query_progress(oracle, q0: int, gq0: int) -> int:
    """Oracle accesses spent so far, on the algorithm's dominant channel."""
    dq = oracle.query_count - q0
    if dq > 0:
        return dq
    return getattr(oracle, "gradient_query_count", 0) - gq0


Step = Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, float]]


def _frank_wolfe(region: ConstraintSpec, T: int) -> Step:
    """Momentum-averaged linear maximization over ``region``, step ``1/T``.

    Reports the norm of the averaged gradient.
    """
    g_bar = np.zeros(region.dim)

    def step(x, g, t):
        nonlocal g_bar
        g_bar = momentum_update(g_bar, g, rho_schedule(t))
        return x + lmo(region, g_bar) / T, float(np.linalg.norm(g_bar))

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
        return project(region, x + (eta0 / np.sqrt(t)) * g), float(np.linalg.norm(g))

    return step


def _ascend(
    oracle, x: np.ndarray, grad: Callable[[np.ndarray], np.ndarray], step: Step,
    lift: float, values: Callable[[np.ndarray], np.ndarray], T: int,
) -> tuple[np.ndarray, RunTrace]:
    """The one ascent loop: ``T`` times ``x <- step(x, grad(x), t)``.

    Records the lifted iterate ``x + lift``, the queries spent on ``oracle`` so
    far, the elapsed time and the gradient norm the step reports.  The lifted
    iterates are the rows of one ``(T, d)`` buffer, which one uncounted
    ``values`` pass turns into the trace values after the loop, so the times
    are algorithm time only.  Returns the last unlifted iterate and the trace.
    """
    q0, gq0 = oracle.query_count, getattr(oracle, "gradient_query_count", 0)
    start = time.perf_counter()
    zs = np.empty((T, x.size))
    progress = []
    for t in range(1, T + 1):
        x, grad_norm = step(x, grad(x), t)
        np.add(x, lift, out=zs[t - 1])
        queries = _query_progress(oracle, q0, gq0)
        progress.append((t, queries, time.perf_counter() - start, grad_norm))
    return x, RunTrace([
        TraceRecord(t, queries, elapsed, z, float(value), grad_norm)
        for (t, queries, elapsed, grad_norm), z, value in zip(progress, zs, values(zs))
    ])


def _lifted(x: np.ndarray, lift: float, constraint: ConstraintSpec) -> np.ndarray:
    """Finisher for continuous runs: the lifted point, checked feasible."""
    out = x + lift
    if not contains(constraint, out, tol=1e-9):
        raise RuntimeError("final iterate left the constraint set; internal error")
    return out


def _repair_matroid_point(
    z: np.ndarray, matroid: ConstraintSpec
) -> tuple[float, np.ndarray]:
    """Clamp tolerance-level rounding-input violations; report their size.

    The lifted final iterate satisfies the matroid polytope up to floating
    point; anything beyond 1e-6 signals a real bug and raises.
    """
    overshoot = max(0.0, float(np.max(z - 1.0)), float(np.max(-z)))
    z = np.clip(z, 0.0, 1.0).copy()
    for idx, limit in zip(matroid.block_index, matroid.budgets):
        s = float(np.sum(z[idx]))
        if s > limit:
            overshoot = max(overshoot, s - limit)
            z[idx] *= limit / s
    if overshoot > 1e-6:
        raise RuntimeError(
            f"rounding input violates the matroid polytope by {overshoot}"
        )
    return overshoot, z


def _rounded(
    x: np.ndarray, lift: float, matroid: ConstraintSpec, rng: np.random.Generator,
    trace: RunTrace,
) -> frozenset:
    """Finisher for set functions: repair the lifted point, swap-round, check."""
    trace.rounding_overshoot, z = _repair_matroid_point(x + lift, matroid)
    chosen = swap_round(z, matroid, rng)
    if not independent(matroid, chosen):
        raise RuntimeError("rounded set violates the matroid; internal error")
    return chosen


def _check_matroid(f: SetOracle, matroid: ConstraintSpec, name: str) -> None:
    if matroid.kind != PARTITION_MATROID:
        raise ValueError(f"{name} expects a partition-matroid constraint")
    if matroid.dim != f.ground_size:
        raise ValueError("oracle and matroid dimensions differ")


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
    if oracle.dim != domain.dim or oracle.dim != constraint.dim:
        raise ValueError("oracle, domain, and constraint dimensions differ")
    kprime = transform_constraint(domain, constraint, params.delta)
    rng, _ = _rng_pair(params.seed)
    x, trace = _ascend(
        oracle,
        np.zeros(oracle.dim),
        lambda x: batch_grad(oracle, x, params.delta, params.B, rng),
        _frank_wolfe(kprime, params.T),
        params.delta,
        oracle.peek_rows,
        params.T,
    )
    return _lifted(x, params.delta, constraint), trace


def dbg(
    f: SetOracle, matroid: ConstraintSpec, params: AlgoParams
) -> tuple[frozenset, RunTrace]:
    """Derivative-free maximization of a monotone submodular set function.

    :func:`bcg` on the unit cube with the multilinear extension as oracle:
    :func:`discrete_batch_grad` takes each probe value as an ``l``-sample
    estimate drawn from the run's main stream.  The final fractional point is
    lifted by ``delta`` and swap-rounded to an independent set.  Spends
    exactly ``2*B*l*T`` set evaluations.
    """
    _check_matroid(f, matroid, "dbg")
    kprime = transform_constraint(BoxDomain.unit_cube(f.ground_size), matroid, params.delta)
    rng, instr = _rng_pair(params.seed)
    x, trace = _ascend(
        f,
        np.zeros(f.ground_size),
        lambda x: discrete_batch_grad(f, x, params.delta, params.B, params.l, rng),
        _frank_wolfe(kprime, params.T),
        params.delta,
        lambda Z: peek_sampled_values(f, Z, params.trace_value_samples, instr),
        params.T,
    )
    return _rounded(x, params.delta, matroid, rng, trace), trace


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
    if isinstance(oracle, SetOracle):
        _check_matroid(oracle, constraint, "discrete scg")
        rng, instr = _rng_pair(params.seed)
        x, trace = _ascend(
            oracle,
            np.zeros(oracle.ground_size),
            lambda x: coordinate_gradient(oracle, x, rng),
            _frank_wolfe(constraint, params.T),
            0.0,
            lambda Z: peek_sampled_values(oracle, Z, params.trace_value_samples, instr),
            params.T,
        )
        return _rounded(x, 0.0, constraint, rng, trace), trace
    if oracle.dim != constraint.dim:
        raise ValueError("oracle and constraint dimensions differ")
    if not getattr(oracle, "has_gradient", False):
        raise ValueError("continuous scg needs a gradient-bearing oracle")
    x, trace = _ascend(
        oracle,
        np.zeros(oracle.dim),
        oracle.gradient,
        _frank_wolfe(constraint, params.T),
        0.0,
        oracle.peek_rows,
        params.T,
    )
    return _lifted(x, 0.0, constraint), trace


def ga(
    oracle: ValueOracle,
    constraint: ConstraintSpec,
    params: AlgoParams,
    x0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, RunTrace]:
    """Projected gradient ascent with step size eta0 / sqrt(t).

    Requires an oracle exposing a gradient (exact or stochastic).  Spends no
    function-value queries; the trace column counts gradient accesses instead
    (or the set evaluations behind stochastic gradients).
    """
    if oracle.dim != constraint.dim:
        raise ValueError("oracle and constraint dimensions differ")
    if not oracle.has_gradient:
        raise ValueError("ga needs a gradient-bearing oracle")
    step = _projected(constraint, params.eta0, oracle.lipschitz_G)
    x = project(constraint, np.zeros(oracle.dim) if x0 is None else np.asarray(x0, float))
    x, trace = _ascend(
        oracle, x, oracle.gradient, step, 0.0, oracle.peek_rows, params.T
    )
    return _lifted(x, 0.0, constraint), trace


def zga(
    oracle: ContinuousOracle,
    domain: BoxDomain,
    constraint: ConstraintSpec,
    params: AlgoParams,
) -> tuple[np.ndarray, RunTrace]:
    """Projected ascent driven by the same two-point estimator as :func:`bcg`.

    Iterates live on the shrunk/translated feasible set so every probe stays
    inside the domain; the returned point is lifted by ``delta``.  Spends
    exactly ``2*B*T`` oracle evaluations.
    """
    if oracle.dim != domain.dim or oracle.dim != constraint.dim:
        raise ValueError("oracle, domain, and constraint dimensions differ")
    kprime = transform_constraint(domain, constraint, params.delta)
    rng, _ = _rng_pair(params.seed)
    x, trace = _ascend(
        oracle,
        np.zeros(oracle.dim),
        lambda x: batch_grad(oracle, x, params.delta, params.B, rng),
        _projected(kprime, params.eta0, oracle.lipschitz_G),
        params.delta,
        oracle.peek_rows,
        params.T,
    )
    return _lifted(x, params.delta, constraint), trace
