"""Derivative-free, projection-free submodular maximization.

Maximize a monotone continuous DR-submodular function over a box, budget
polytope, or partition-matroid polytope using only (possibly noisy) function
values, or a monotone submodular set function under a partition matroid using
only set evaluations.  The optimizers are conditional-gradient schemes fed by
two-point sphere-sampling gradient estimates with momentum averaging, plus
projected-ascent and first-order baselines for comparison.
"""

from .algorithms import AlgoParams, RunTrace, TraceRecord, bcg, dbg, ga, scg, zga
from .constraints import (
    BoxDomain,
    ConstraintSpec,
    DomainError,
    InfeasibleTransformError,
    contains,
    independent,
    transform_constraint,
)
from .estimators import (
    batch_grad,
    momentum_update,
    rho_schedule,
    sample_sphere,
)
from .objectives import (
    Graph,
    coverage_set_oracle,
    coverage_value_oracle,
    influence_set_oracle,
    logdet_eval,
    logdet_set_oracle,
    nqp_eval,
    nqp_generate,
    nqp_oracle,
    rbf_covariance,
)
from .oracles import MultilinearOracle, NoisyOracle, SetOracle, ValueOracle
from .polytope import lmo, project, swap_round

__version__ = "0.1.0"

__all__ = [
    "AlgoParams",
    "BoxDomain",
    "ConstraintSpec",
    "DomainError",
    "Graph",
    "InfeasibleTransformError",
    "MultilinearOracle",
    "NoisyOracle",
    "RunTrace",
    "SetOracle",
    "TraceRecord",
    "ValueOracle",
    "batch_grad",
    "bcg",
    "contains",
    "coverage_set_oracle",
    "coverage_value_oracle",
    "dbg",
    "ga",
    "independent",
    "influence_set_oracle",
    "lmo",
    "logdet_eval",
    "logdet_set_oracle",
    "momentum_update",
    "nqp_eval",
    "nqp_generate",
    "nqp_oracle",
    "project",
    "rbf_covariance",
    "rho_schedule",
    "sample_sphere",
    "scg",
    "swap_round",
    "transform_constraint",
    "zga",
]
