import numpy as np
import pytest

import zogreedy.algorithms as algorithms
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
    enumerate_vertices,
    ga,
    independent,
    lmo,
    nqp_generate,
    nqp_oracle,
    noisy_wrap,
    scg,
    zga,
)

from support import random_matroid, random_weighted_coverage


def identity_oracle():
    """F(x) = x on [0, 1]; its two-point estimate is exactly 1 everywhere."""
    return ValueOracle(
        lambda x: float(x[0]), dim=1, lipschitz_G=1.0,
        grad=lambda x: np.ones(1), domain=BoxDomain.unit_cube(1),
    )


class TestAlgoParams:
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
        noisy = noisy_wrap(nqp_oracle(H, b), sigma0=0.05, seed=2)
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

    def test_nan_noise_raises(self):
        H, b = nqp_generate(3, seed=6)
        noisy = NoisyOracle(nqp_oracle(H, b), 0.1, noise=lambda rng: float("nan"))
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
