from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import zogreedy.algorithms as algorithms
import zogreedy.oracles as oracles
from zogreedy import (
    AlgoParams,
    BoxDomain,
    ConstraintSpec,
    NoisyOracle,
    SetOracle,
    ValueOracle,
    bcg,
    contains,
    dbg,
    ga,
    independent,
    lmo,
    nqp_generate,
    nqp_oracle,
    scg,
    zga,
)

from zogreedy.bench import build_objective, load_config, run_cell

from support import (
    ascend_reference,
    enumerate_vertices,
    random_matroid,
    random_weighted_coverage,
    sampled_peeks_reference,
    with_one_row_chunks,
)

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def identity_oracle():
    """F(x) = x on [0, 1]; its two-point estimate is exactly 1 everywhere."""
    return ValueOracle(
        lambda x: float(x[0]), dim=1, lipschitz_G=1.0,
        grad=lambda x: np.ones(1), domain=BoxDomain.unit_cube(1),
    )


class TestAlgoParams:
    # None draws OS entropy, so a run on it is not deterministic; the others
    # used to fail later, inside numpy
    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3", np.float64(2.0), True, False],
                             ids=["none", "negative", "float", "string", "numpy_float", "true",
                                  "false"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            AlgoParams(seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            NoisyOracle(identity_oracle(), 0.1, seed=seed)

    def test_numpy_integer_seeds_run_as_ints(self):
        K, D = ConstraintSpec.box(np.ones(1)), BoxDomain.unit_cube(1)
        runs = [bcg(NoisyOracle(identity_oracle(), 0.1, seed=seed), D, K,
                    AlgoParams(T=4, seed=seed))[0] for seed in (3, np.int64(3), np.uint32(3))]
        assert all(np.array_equal(out, runs[0]) for out in runs)

    def test_minimum_iterations(self):
        with pytest.raises(ValueError):
            AlgoParams(T=3)

    def test_positive_delta(self):
        with pytest.raises(ValueError):
            AlgoParams(delta=0.0)

    def test_positive_batches(self):
        with pytest.raises(ValueError):
            AlgoParams(B=0)
        with pytest.raises(ValueError):
            AlgoParams(l=0)

    @pytest.mark.parametrize("kwargs", [
        {"T": 4.5}, {"T": 8.0}, {"B": 1.5}, {"B": 2.0}, {"l": 2.5},
        {"trace_value_samples": 2.5}, {"B": True}, {"l": True}, {"trace_value_samples": True},
    ], ids=["T", "T_float", "B", "B_float", "l", "trace_value_samples",
            "B_bool", "l_bool", "trace_value_samples_bool"])
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(ValueError, match="integer"):
            AlgoParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"delta": float("nan")}, {"eta0": float("nan")}],
                             ids=["delta", "eta0"])
    def test_nan_step_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            AlgoParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"delta": float("inf")}, {"eta0": float("inf")}, {"eta0": -float("inf")},
    ], ids=["delta", "eta0", "eta0_negative"])
    def test_infinite_step_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite and positive"):
            AlgoParams(**kwargs)


class TestBcg:
    def test_one_dimensional_hand_trace(self):
        F = identity_oracle()
        K = ConstraintSpec.box(np.ones(1))
        out, trace = bcg(F, BoxDomain.unit_cube(1), K,
                         AlgoParams(T=10, delta=0.05, B=1, seed=0))
        # every estimate is exactly 1, so every step takes the full 0.9 cap
        assert out[0] == pytest.approx(0.95, abs=1e-12)
        assert F.peek(out) >= (1 - 1 / np.e) * 1.0
        assert all(r.grad_norm > 0 for r in trace.records)

    def test_constant_objective_stays_at_origin(self):
        F = ValueOracle(lambda x: 5.0, dim=3, lipschitz_G=1.0,
                        domain=BoxDomain.unit_cube(3))
        K = ConstraintSpec.box(np.ones(3))
        out, trace = bcg(F, BoxDomain.unit_cube(3), K,
                         AlgoParams(T=5, delta=0.1, B=2, seed=1))
        np.testing.assert_allclose(out, 0.1)
        assert all(r.grad_norm == 0.0 for r in trace.records)

    def test_query_accounting(self):
        F = identity_oracle()
        K = ConstraintSpec.box(np.ones(1))
        bcg(F, BoxDomain.unit_cube(1), K, AlgoParams(T=7, delta=0.05, B=3, seed=0))
        assert F.query_count == 2 * 3 * 7

    def test_iterates_monotone_and_feasible(self):
        H, b = nqp_generate(4, seed=2)
        K = ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.5])
        F = nqp_oracle(H, b)
        out, trace = bcg(F, BoxDomain.unit_cube(4), K,
                         AlgoParams(T=12, delta=0.05, B=1, seed=3))
        zs = trace.iterates()
        assert np.all(np.diff(zs, axis=0) >= -1e-12)
        assert contains(K, out, 1e-9)

    def test_deterministic_given_seed(self):
        H, b = nqp_generate(4, seed=4)
        K = ConstraintSpec.box(np.ones(4))
        p = AlgoParams(T=6, delta=0.05, B=2, seed=9)
        out1, tr1 = bcg(nqp_oracle(H, b), BoxDomain.unit_cube(4), K, p)
        out2, tr2 = bcg(nqp_oracle(H, b), BoxDomain.unit_cube(4), K, p)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(tr1.values(), tr2.values())
        np.testing.assert_array_equal(tr1.queries(), tr2.queries())

    def test_noisy_oracle_variant(self):
        H, b = nqp_generate(3, seed=6)
        K = ConstraintSpec.box(np.ones(3))
        noisy = NoisyOracle(nqp_oracle(H, b), sigma0=0.05, seed=2)
        out, trace = bcg(noisy, BoxDomain.unit_cube(3), K,
                         AlgoParams(T=10, delta=0.05, B=2, seed=0))
        assert contains(K, out, 1e-9)
        assert noisy.query_count == 2 * 2 * 10
        # value column peeks the exact inner oracle
        assert trace.final.value == pytest.approx(
            nqp_oracle(H, b).peek(trace.final.z)
        )

    def test_nan_value_oracle_raises(self):
        F = ValueOracle(lambda x: float("nan"), dim=2, lipschitz_G=1.0,
                        domain=BoxDomain.unit_cube(2))
        K = ConstraintSpec.box(np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            bcg(F, BoxDomain.unit_cube(2), K, AlgoParams(T=5, delta=0.1))

    def test_nan_peek_raises(self):
        # finite for the 2BT = 10 counted calls, NaN for the trace peeks after them
        calls = []

        def fn(x):
            calls.append(1)
            return float(x.sum()) if len(calls) <= 10 else float("nan")

        F = ValueOracle(fn, dim=2, lipschitz_G=2.0, domain=BoxDomain.unit_cube(2))
        K = ConstraintSpec.box(np.ones(2))
        with pytest.raises(ValueError, match="peeked non-finite"):
            bcg(F, BoxDomain.unit_cube(2), K, AlgoParams(T=5, delta=0.1))
        assert F.query_count == 10

    def test_nan_noise_raises(self):
        # a Gaussian draw that overflows to inf on the first counted call
        H, b = nqp_generate(3, seed=6)
        noisy = NoisyOracle(nqp_oracle(H, b), sigma0=1e308, seed=3)
        K = ConstraintSpec.box(np.ones(3))
        with pytest.raises(ValueError, match="non-finite"):
            bcg(noisy, BoxDomain.unit_cube(3), K, AlgoParams(T=5, delta=0.1))

    def test_iterates_are_distinct_snapshots(self):
        H, b = nqp_generate(4, seed=2)
        K = ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.5])
        _, trace = bcg(nqp_oracle(H, b), BoxDomain.unit_cube(4), K,
                       AlgoParams(T=6, delta=0.05, B=1, seed=3))
        zs = trace.iterates()
        assert len({row.tobytes() for row in zs}) == 6
        for t, rec in enumerate(trace.records):
            np.testing.assert_array_equal(rec.z, zs[t])
            assert rec.value == nqp_oracle(H, b).peek(zs[t])

    def test_trace_value_nondecreasing_for_monotone_objective(self):
        H, b = nqp_generate(5, seed=8)
        K = ConstraintSpec.block_budget(5, [(0, 1, 2, 3, 4)], [2.0])
        out, trace = bcg(nqp_oracle(H, b), BoxDomain.unit_cube(5), K,
                         AlgoParams(T=15, delta=0.05, B=1, seed=1))
        values = trace.values()
        assert np.all(np.diff(values) >= -1e-12)


class TestDbg:
    def test_positive_drift_selects_the_singleton(self):
        # the final lifted coordinate is capped at 1 - delta = 0.9, so even a
        # perfect run selects the element with frequency 0.9, not always;
        # observed rate at these parameters is about 0.7
        M = ConstraintSpec.partition_matroid(1, [(0,)], [1])
        hits = 0
        for seed in range(100):
            f = SetOracle(lambda S: 1.0 if S else 0.0, ground_size=1, bound_M=1.0)
            S, trace = dbg(f, M, AlgoParams(T=50, delta=0.1, B=1, l=1, seed=seed,
                                            trace_value_samples=1))
            assert trace.final.z[0] <= 0.9 + 1e-9
            if 0 in S:
                hits += 1
        assert hits >= 60

    def test_zero_function_rounds_the_lift_margin(self):
        M = ConstraintSpec.partition_matroid(2, [(0, 1)], [1])
        freq = np.zeros(2)
        runs = 2000
        for seed in range(runs):
            f = SetOracle(lambda S: 0.0, ground_size=2, bound_M=1.0)
            S, _ = dbg(f, M, AlgoParams(T=5, delta=0.1, B=1, l=1, seed=seed,
                                        trace_value_samples=1))
            for i in S:
                freq[i] += 1
        np.testing.assert_allclose(freq / runs, 0.1, atol=0.025)

    def test_query_accounting(self):
        rng = np.random.default_rng(0)
        f, _ = random_weighted_coverage(4, rng)
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 1])
        dbg(f, M, AlgoParams(T=10, delta=0.05, B=2, l=3, seed=0,
                             trace_value_samples=1))
        assert f.query_count == 2 * 2 * 3 * 10

    def test_output_independent_and_iterates_monotone(self):
        rng = np.random.default_rng(1)
        f, _ = random_weighted_coverage(6, rng)
        M = random_matroid(np.random.default_rng(2), 6)
        S, trace = dbg(f, M, AlgoParams(T=8, delta=0.05, B=1, l=2, seed=4,
                                        trace_value_samples=2))
        assert independent(M, S)
        assert np.all(np.diff(trace.iterates(), axis=0) >= -1e-12)
        assert trace.rounding_overshoot is not None
        assert trace.rounding_overshoot <= 1e-6

    def test_deterministic_given_seed(self):
        M = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [2])
        p = AlgoParams(T=6, delta=0.1, B=1, l=2, seed=11, trace_value_samples=2)
        rng = np.random.default_rng(3)
        f1, table = random_weighted_coverage(3, rng)
        f2 = SetOracle(lambda S: float(table[sum(1 << i for i in S)]),
                       ground_size=3, bound_M=f1.bound_M)
        S1, tr1 = dbg(f1, M, p)
        S2, tr2 = dbg(f2, M, p)
        assert S1 == S2
        np.testing.assert_array_equal(tr1.values(), tr2.values())

    def test_rejects_large_delta(self):
        f = SetOracle(lambda S: 0.0, ground_size=2, bound_M=1.0)
        M = ConstraintSpec.partition_matroid(2, [(0, 1)], [1])
        with pytest.raises(ValueError):
            dbg(f, M, AlgoParams(T=5, delta=0.5))

    def test_rejects_non_matroid(self):
        f = SetOracle(lambda S: 0.0, ground_size=2, bound_M=1.0)
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        with pytest.raises(ValueError):
            dbg(f, K, AlgoParams(T=5, delta=0.1))

    def test_nan_set_function_raises(self):
        f = SetOracle(lambda S: float("nan"), ground_size=3, bound_M=1.0)
        M = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [2])
        with pytest.raises(ValueError, match="non-finite"):
            dbg(f, M, AlgoParams(T=5, delta=0.1))


class TestScg:
    def test_linear_objective_reaches_the_best_vertex(self):
        c = np.array([2.0, 1.0, 0.5])
        F = ValueOracle(lambda x: float(c @ x), dim=3, lipschitz_G=float(np.linalg.norm(c)),
                        grad=lambda x: c)
        K = ConstraintSpec.block_budget(3, [(0, 1, 2)], [1.5])
        x, trace = scg(F, K, AlgoParams(T=20, seed=0))
        np.testing.assert_allclose(x, lmo(K, c), atol=1e-12)
        best = max(float(c @ v) for v in enumerate_vertices(K))
        assert float(c @ x) == pytest.approx(best, abs=1e-9)

    def test_modular_discrete_recovers_top_elements(self):
        w = np.array([0.9, 0.5, 0.8, 0.1])
        f = SetOracle(lambda S: float(sum(w[i] for i in S)), ground_size=4,
                      bound_M=float(w.sum()))
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 1])
        S, trace = scg(f, M, AlgoParams(T=8, seed=5, trace_value_samples=1))
        assert S == frozenset({0, 2})

    def test_discrete_query_accounting(self):
        rng = np.random.default_rng(7)
        f, _ = random_weighted_coverage(5, rng)
        M = ConstraintSpec.partition_matroid(5, [(0, 1, 2), (3, 4)], [1, 1])
        scg(f, M, AlgoParams(T=9, seed=0, trace_value_samples=1))
        assert f.query_count == 2 * 5 * 9

    def test_continuous_needs_gradient(self):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0)
        K = ConstraintSpec.box(np.ones(2))
        with pytest.raises(ValueError):
            scg(F, K, AlgoParams(T=5))

    def test_discrete_checks_the_rounded_set(self, monkeypatch):
        f = SetOracle(lambda S: float(len(S)), ground_size=4, bound_M=4.0)
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 1])
        monkeypatch.setattr(algorithms, "swap_round", lambda x, m, rng: frozenset({0, 1}))
        with pytest.raises(RuntimeError, match="violates the matroid"):
            scg(f, M, AlgoParams(T=5, trace_value_samples=1))


class TestGa:
    def test_concave_scalar_converges(self):
        F = ValueOracle(lambda x: -(x[0] - 0.3) ** 2, dim=1, lipschitz_G=1.4,
                        grad=lambda x: np.array([-2.0 * (x[0] - 0.3)]))
        K = ConstraintSpec.box(np.ones(1))
        x, _ = ga(F, K, AlgoParams(T=100, eta0=0.5, seed=0))
        assert abs(x[0] - 0.3) <= 0.02

    def test_zero_gradient_keeps_iterate_fixed(self):
        F = ValueOracle(lambda x: 1.0, dim=2, lipschitz_G=1.0,
                        grad=lambda x: np.zeros(2))
        K = ConstraintSpec.box(np.ones(2))
        x, trace = ga(F, K, AlgoParams(T=10, seed=0))
        np.testing.assert_allclose(x, 0.0)
        assert np.all(trace.iterates() == 0.0)

    def test_projection_keeps_random_starts_feasible(self):
        H, b = nqp_generate(4, seed=10)
        F = nqp_oracle(H, b)
        K = ConstraintSpec.block_budget(4, [(0, 1, 2, 3)], [1.5])
        rng = np.random.default_rng(12)
        for _ in range(20):
            x0 = rng.uniform(-0.5, 1.5, size=4)
            x, trace = ga(F, K, AlgoParams(T=5, seed=0), x0=x0)
            assert contains(K, x, 1e-9)
            for rec in trace.records:
                assert contains(K, rec.z, 1e-9)

    def test_no_function_value_queries(self):
        H, b = nqp_generate(3, seed=11)
        F = nqp_oracle(H, b)
        K = ConstraintSpec.box(np.ones(3))
        ga(F, K, AlgoParams(T=6, seed=0))
        assert F.query_count == 0
        assert F.gradient_query_count == 6


class TestZga:
    def test_one_dimensional_linear_saturates(self):
        F = identity_oracle()
        K = ConstraintSpec.box(np.ones(1))
        out, _ = zga(F, BoxDomain.unit_cube(1), K,
                     AlgoParams(T=20, delta=0.05, B=1, seed=0))
        assert out[0] == pytest.approx(0.95, abs=1e-12)

    def test_query_accounting(self):
        F = identity_oracle()
        K = ConstraintSpec.box(np.ones(1))
        zga(F, BoxDomain.unit_cube(1), K, AlgoParams(T=9, delta=0.05, B=4, seed=0))
        assert F.query_count == 2 * 4 * 9

    def test_output_feasible_on_budget_polytope(self):
        H, b = nqp_generate(4, seed=14)
        F = nqp_oracle(H, b)
        K = ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.0])
        out, trace = zga(F, BoxDomain.unit_cube(4), K,
                         AlgoParams(T=10, delta=0.05, B=2, seed=3))
        assert contains(K, out, 1e-9)
        for rec in trace.records:
            assert contains(K, rec.z, 1e-9)


# influence.ini is one-hop influence on the karate graph
DISCRETE_RUNS = [
    ("influence", "dbg", AlgoParams(T=25, delta=0.05, B=2, l=2, seed=3)),
    ("influence", "scg", AlgoParams(T=15, seed=3)),
    ("active_set", "dbg", AlgoParams(T=25, delta=0.05, B=1, l=3, seed=4)),
    ("active_set", "scg", AlgoParams(T=15, seed=4)),
    ("influence", "ga", AlgoParams(T=12, l=2, seed=3)),
    ("influence", "zga", AlgoParams(T=12, delta=0.05, B=2, l=2, seed=3)),
    ("active_set", "ga", AlgoParams(T=8, seed=4)),
    ("active_set", "zga", AlgoParams(T=8, delta=0.05, B=1, l=3, seed=4)),
]
RUN_IDS = ["karate-dbg", "karate-scg", "active_set-dbg", "active_set-scg",
           "karate-ga", "karate-zga", "active_set-ga", "active_set-zga"]


def run_discrete(config, algorithm, params):
    """Run an optimizer on a fresh set oracle of a shipped config."""
    cfg = load_config(CONFIG_DIR / f"{config}.ini")
    f = build_objective(cfg)
    if algorithm == "zga":
        S, trace = zga(f, BoxDomain.unit_cube(cfg.dim), cfg.constraint, params)
    else:
        S, trace = {"dbg": dbg, "scg": scg, "ga": ga}[algorithm](f, cfg.constraint, params)
    return f, S, trace


class TestDiscreteTraceValue:
    """The batched trace value against the per-set reference, and the call rule."""

    @pytest.mark.parametrize("config, algorithm, params", DISCRETE_RUNS, ids=RUN_IDS)
    def test_matches_per_set_reference(self, config, algorithm, params, monkeypatch):
        f, S, trace = run_discrete(config, algorithm, params)
        monkeypatch.setattr(
            oracles.MultilinearOracle, "peek_rows",
            lambda self, Z: sampled_peeks_reference(self.f, Z, self._peek_samples, self._peek_rng),
        )
        f_ref, S_ref, ref = run_discrete(config, algorithm, params)
        assert S == S_ref
        assert f.query_count == f_ref.query_count
        assert np.array_equal(trace.values(), ref.values())
        assert np.array_equal(trace.queries(), ref.queries())

    @pytest.mark.parametrize("config, algorithm, params", DISCRETE_RUNS, ids=RUN_IDS)
    def test_one_counted_call_per_query_and_no_per_set_peeks(
        self, config, algorithm, params, monkeypatch
    ):
        """Each query is one counted ``SetOracle`` call and nothing else: no
        ``ValueOracle`` call or gradient (perfbench adds those to the set
        calls, so a value-oracle view would count each query twice) and no
        per-set peek."""
        calls = {(SetOracle, "__call__"): 0, (SetOracle, "peek"): 0,
                 (ValueOracle, "__call__"): 0, (ValueOracle, "gradient"): 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[cls, name] += 1
                return original(self, *args)

            return wrapper

        for cls, name in calls:
            monkeypatch.setattr(cls, name, counting(cls, name))
        f, _, _ = run_discrete(config, algorithm, params)
        if algorithm in ("dbg", "zga"):
            expected = 2 * params.B * params.l * params.T
        else:
            expected = 2 * f.ground_size * params.T
        assert calls == {(SetOracle, "__call__"): expected, (SetOracle, "peek"): 0,
                         (ValueOracle, "__call__"): 0, (ValueOracle, "gradient"): 0}
        assert f.query_count == expected


SHIPPED_CELLS = [
    (config, algorithm)
    for configs, algos in ((("nqp_small", "topics"), ("bcg", "scg", "ga", "zga")),
                           (("active_set", "influence"), ("dbg", "scg", "ga", "zga")))
    for config in configs
    for algorithm in algos
]


@pytest.mark.parametrize("config, algorithm", SHIPPED_CELLS)
def test_every_iterate_is_counted_and_feasible(config, algorithm):
    """Each trace record of a shipped objective spends its exact query share and
    has its lifted iterate inside the constraint."""
    cfg = load_config(CONFIG_DIR / f"{config}.ini")
    params = AlgoParams(T=6, delta=0.05, B=2, l=3, trace_value_samples=4)
    cfg = replace(cfg, algorithms={algorithm: params})
    result = run_cell(cfg, algorithm, seed=5)
    assert result.error is None
    B, l, d = params.B, params.l, cfg.dim
    if algorithm in ("scg", "ga"):
        per_step = 2 * d if cfg.discrete else 1
    else:  # bcg, dbg, zga: 2B probes of l set queries each on set functions
        per_step = 2 * B * l if cfg.discrete else 2 * B
    assert [r.t for r in result.trace.records] == list(range(1, params.T + 1))
    for rec in result.trace.records:
        assert rec.queries == per_step * rec.t
        assert contains(cfg.constraint, rec.z, tol=1e-9)


@pytest.mark.parametrize("config, algorithm, budget", with_one_row_chunks(
    SHIPPED_CELLS, [f"{config}-{algorithm}" for config, algorithm in SHIPPED_CELLS]))
def test_deferred_trace_values_match_per_iteration_loop(config, algorithm, budget, monkeypatch):
    """Trace values computed in one pass after the loop equal those computed
    inside it, one iterate at a time, and leave the trace stream in the same
    state, whatever the chunk budget."""
    if budget is not None:
        monkeypatch.setattr(oracles, "CHUNK_BYTES", budget)
    cfg = load_config(CONFIG_DIR / f"{config}.ini")
    cfg = replace(cfg, algorithms={algorithm: AlgoParams(T=8, delta=0.05, B=2, l=3)})

    batched = oracles.MultilinearOracle.peek_rows

    def run():
        streams = []

        def recording(self, Z):
            streams.append(self._peek_rng)
            return batched(self, Z)

        with monkeypatch.context() as m:
            m.setattr(oracles.MultilinearOracle, "peek_rows", recording)
            result = run_cell(cfg, algorithm, seed=5)
        assert result.error is None
        assert len({id(rng) for rng in streams}) == (1 if cfg.discrete else 0)
        return result, [rng.bit_generator.state for rng in streams[-1:]]

    deferred, deferred_state = run()
    monkeypatch.setattr(algorithms, "_ascend", ascend_reference)
    reference, reference_state = run()
    assert np.array_equal(deferred.trace.values(), reference.trace.values())
    assert np.array_equal(deferred.trace.iterates(), reference.trace.iterates())
    assert np.array_equal(deferred.trace.queries(), reference.trace.queries())
    assert [r.grad_norm for r in deferred.trace.records] == [
        r.grad_norm for r in reference.trace.records
    ]
    assert deferred_state == reference_state
    assert deferred.final_value == reference.final_value


@pytest.mark.parametrize("algorithm", ["ga", "zga"])
def test_discrete_ascent_traces_peek_all_rows_at_once(algorithm, tmp_path, monkeypatch):
    """ga and zga on a set function compute their trace values in one
    ``MultilinearOracle.peek_rows`` call; the values and the final state of
    the peek stream equal one one-row call per iterate."""
    text = (CONFIG_DIR / "influence.ini").read_text()
    text += "\n[ga]\nT = 12\n\n[zga]\nT = 12\nB = 2\nl = 2\ndelta = 0.05\n"
    (tmp_path / "influence.ini").write_text(text)
    cfg = load_config(tmp_path / "influence.ini")
    batched = oracles.MultilinearOracle.peek_rows

    def run(per_row):
        streams = []

        def recording(self, Z):
            streams.append((self._peek_rng, len(Z)))
            return batched(self, Z)

        def peek_rows(self, Z):
            if per_row:
                return np.array([recording(self, z[None])[0] for z in Z])
            return recording(self, Z)

        with monkeypatch.context() as m:
            m.setattr(oracles.MultilinearOracle, "peek_rows", peek_rows)
            result = run_cell(cfg, algorithm, seed=2)
        assert result.error is None
        assert len({id(rng) for rng, _ in streams}) == 1
        return result, [rows for _, rows in streams], streams[-1][0].bit_generator.state

    result, rows, state = run(per_row=False)
    assert rows == [12]
    reference, reference_rows, reference_state = run(per_row=True)
    assert reference_rows == [1] * 12
    assert np.array_equal(result.trace.values(), reference.trace.values())
    assert np.array_equal(result.trace.queries(), reference.trace.queries())
    assert result.final_value == reference.final_value
    assert state == reference_state


@pytest.mark.parametrize("rows", [None, 2], ids=["default_chunk", "two_row_chunks"])
@pytest.mark.parametrize("algorithm, patched", [("ga", "project"), ("bcg", "lmo"),
                                                ("dbg", "lmo")])
def test_an_infeasible_step_names_its_iteration(algorithm, patched, rows, monkeypatch):
    """A step that leaves the constraint at iteration 3 only fails the run there.

    Step 3's point breaks the budget of one block of four but stays in the
    unit box, so every probe stays in the domain.  Under ``ga`` the next
    projection repairs it and the output is feasible; under ``bcg`` and
    ``dbg`` the momentum average carries it to the end.
    """
    if rows is not None:
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 8 * 4 * rows)
    real = getattr(algorithms, patched)
    calls = []

    def broken(region, y):
        calls.append(None)
        return region.upper.copy() if len(calls) == 3 else real(region, y)

    monkeypatch.setattr(algorithms, patched, broken)
    params = AlgoParams(T=4, delta=0.05, seed=1, trace_value_samples=1)
    H, b = nqp_generate(4, seed=3)
    K = ConstraintSpec.block_budget(4, [(0, 1, 2, 3)], [1.0])
    f = SetOracle(lambda S: float(len(S)), ground_size=4, bound_M=4.0)
    M = ConstraintSpec.partition_matroid(4, [(0, 1, 2, 3)], [1])
    runs = {"ga": lambda: ga(nqp_oracle(H, b), K, params),
            "bcg": lambda: bcg(nqp_oracle(H, b), BoxDomain.unit_cube(4), K, params),
            "dbg": lambda: dbg(f, M, params)}
    with pytest.raises(RuntimeError, match="iteration 3 left the constraint set"):
        runs[algorithm]()


def _peek(self, arg):
    return self.peek(arg)


SKIPPED_QUERY_RUNS = {
    # algorithm: (the counted method a step spends, its calls per step, the
    # uncounted stand-in for one call (None: the exact gradient H x + b), the
    # run on d = 4 with B = 2, l = 3)
    "bcg": (ValueOracle, "__call__", 4, _peek,
            lambda o, f, K, M, p: bcg(o, BoxDomain.unit_cube(4), K, p)),
    "zga": (ValueOracle, "__call__", 4, _peek,
            lambda o, f, K, M, p: zga(o, BoxDomain.unit_cube(4), K, p)),
    "ga": (ValueOracle, "gradient", 1, None, lambda o, f, K, M, p: ga(o, K, p)),
    "scg": (ValueOracle, "gradient", 1, None, lambda o, f, K, M, p: scg(o, K, p)),
    "dbg-set": (SetOracle, "__call__", 12, _peek,
                lambda o, f, K, M, p: dbg(f, M, p)),
    "zga-set": (SetOracle, "__call__", 12, _peek,
                lambda o, f, K, M, p: zga(f, BoxDomain.unit_cube(4), M, p)),
    "ga-set": (SetOracle, "__call__", 8, _peek, lambda o, f, K, M, p: ga(f, M, p)),
    "scg-set": (SetOracle, "__call__", 8, _peek, lambda o, f, K, M, p: scg(f, M, p)),
}


@pytest.mark.parametrize("algorithm", list(SKIPPED_QUERY_RUNS))
def test_a_step_that_skips_a_query_names_its_iteration(algorithm, monkeypatch):
    """Step 3's gradient makes one of its counted calls through the uncounted
    path instead, so steps 1-2 spend their declared cost and step 3 one query
    less: the run fails there, and it runs to the end unpatched."""
    cls, name, per_step, free, run = SKIPPED_QUERY_RUNS[algorithm]
    H, b = nqp_generate(4, seed=3)
    K = ConstraintSpec.block_budget(4, [(0, 1, 2, 3)], [1.0])
    M = ConstraintSpec.partition_matroid(4, [(0, 1, 2, 3)], [1])
    params = AlgoParams(T=4, delta=0.05, B=2, l=3, seed=1, trace_value_samples=1)

    def start():
        return run(nqp_oracle(H, b), SetOracle(lambda S: float(len(S)), 4, 4.0), K, M, params)

    _, trace = start()
    assert trace.final.queries == 4 * per_step
    if free is None:
        def free(self, x):
            return H @ x + b
    counted = getattr(cls, name)
    calls = []

    def skipping(self, arg):
        calls.append(None)
        return (free if len(calls) == 2 * per_step + 1 else counted)(self, arg)

    monkeypatch.setattr(cls, name, skipping)
    with pytest.raises(RuntimeError, match=f"iteration 3 spent {per_step - 1} queries, "
                                           f"not {per_step}"):
        start()
