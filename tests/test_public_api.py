"""The package's public names, pinned so the API changes only on purpose."""

import zogreedy

PUBLIC_NAMES = [
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
    "coverage_eval",
    "coverage_gradient",
    "coverage_set_oracle",
    "coverage_value_oracle",
    "dbg",
    "ga",
    "independent",
    "influence_eval",
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
    "shrink_domain",
    "swap_round",
    "transform_constraint",
    "zga",
]


def test_all_is_the_pinned_list():
    assert sorted(zogreedy.__all__) == PUBLIC_NAMES
    assert len(zogreedy.__all__) == len(set(zogreedy.__all__)) == 40


def test_every_public_name_resolves():
    for name in zogreedy.__all__:
        assert getattr(zogreedy, name) is not None, name

