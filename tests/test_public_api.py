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


def test_all_is_the_pinned_list():
    assert sorted(zogreedy.__all__) == PUBLIC_NAMES
    assert len(zogreedy.__all__) == len(set(zogreedy.__all__)) == 36


def test_every_public_name_resolves():
    for name in zogreedy.__all__:
        assert getattr(zogreedy, name) is not None, name



# The public methods and properties of each oracle class: one counted path
# (``__call__``, plus ``gradient`` where it has one) and one uncounted path
# (``peek_rows`` or ``peek_masks``, and ``peek``, its one-row case).
ORACLE_METHODS = {
    "ValueOracle": ["__call__", "gradient", "gradient_query_count", "has_gradient", "peek",
                    "peek_rows", "query_count"],
    "NoisyOracle": ["__call__", "dim", "lipschitz_G", "peek_rows", "query_count"],
    "SetOracle": ["__call__", "peek", "peek_masks", "query_count"],
    "MultilinearOracle": ["__call__", "gradient", "has_gradient", "peek_rows", "query_count"],
}


def test_oracle_methods_are_pinned():
    for name, methods in ORACLE_METHODS.items():
        cls = getattr(zogreedy, name)
        public = [m for m in dir(cls) if not m.startswith("_") or m == "__call__"]
        assert sorted(public) == methods, name
