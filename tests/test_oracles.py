import numpy as np
import pytest

from zogreedy import (
    BoxDomain,
    DomainError,
    SetOracle,
    ValueOracle,
    multilinear_exact,
    multilinear_sample,
    multilinear_value_oracle,
    noisy_wrap,
)

from zogreedy.oracles import sample_subset, sampled_value

from support import multilinear_bruteforce, random_weighted_coverage


def or_oracle():
    """f(empty) = 0, f(S) = 1 otherwise, on two elements."""
    return SetOracle(lambda S: 1.0 if S else 0.0, ground_size=2, bound_M=1.0)


class TestValueOracle:
    def test_counts_each_eval_once(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0)
        F(np.zeros(2))
        F(np.ones(2))
        assert F.query_count == 2

    def test_peek_is_free(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0)
        assert F.peek(np.ones(2)) == 2.0
        assert F.query_count == 0

    def test_domain_guard(self):
        F = ValueOracle(
            lambda x: float(x.sum()), dim=2, lipschitz_G=2.0,
            domain=BoxDomain.unit_cube(2),
        )
        with pytest.raises(DomainError):
            F(np.array([0.5, 1.5]))

    def test_dimension_guard(self):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0)
        with pytest.raises(ValueError):
            F(np.zeros(3))

    def test_gradient_requires_callable(self):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0)
        assert not F.has_gradient
        with pytest.raises(ValueError):
            F.gradient(np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_and_gradient_raise(self, bad):
        F = ValueOracle(lambda x: bad, dim=2, lipschitz_G=1.0,
                        grad=lambda x: np.array([0.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            F(np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            F.gradient(np.zeros(2))


class TestNoisyOracle:
    def test_zero_sigma_is_exact(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0)
        noisy = noisy_wrap(F, 0.0, seed=1)
        x = np.array([0.25, 0.5])
        assert noisy(x) == F.peek(x)

    def test_counts_once_per_eval(self):
        F = ValueOracle(lambda x: 1.0, dim=1, lipschitz_G=1.0)
        noisy = noisy_wrap(F, 0.5, seed=1)
        for _ in range(5):
            noisy(np.zeros(1))
        assert noisy.query_count == 5

    def test_peek_passes_through_exactly(self):
        F = ValueOracle(lambda x: 3.0, dim=1, lipschitz_G=1.0)
        noisy = noisy_wrap(F, 10.0, seed=1)
        assert noisy.peek(np.zeros(1)) == 3.0

    def test_noise_statistics(self):
        F = ValueOracle(lambda x: 2.0, dim=1, lipschitz_G=1.0)
        noisy = noisy_wrap(F, 1.0, seed=42)
        n = 10**5
        draws = np.array([noisy(np.zeros(1)) for _ in range(n)])
        assert abs(draws.mean() - 2.0) < 3.0 / np.sqrt(n)
        assert 0.97 < draws.std() < 1.03

    def test_custom_noise_distribution(self):
        F = ValueOracle(lambda x: 0.0, dim=1, lipschitz_G=1.0)
        from zogreedy import NoisyOracle

        noisy = NoisyOracle(F, sigma0=1.0, seed=0,
                            noise=lambda rng: rng.uniform(-1, 1))
        draws = [noisy(np.zeros(1)) for _ in range(100)]
        assert all(-1 <= v <= 1 for v in draws)

    def test_non_finite_noise_raises(self):
        from zogreedy import NoisyOracle

        F = ValueOracle(lambda x: 0.0, dim=1, lipschitz_G=1.0)
        noisy = NoisyOracle(F, sigma0=1.0, noise=lambda rng: float("inf"))
        with pytest.raises(ValueError, match="non-finite"):
            noisy(np.zeros(1))


class TestSetOracle:
    def test_counts_and_peek(self):
        f = or_oracle()
        f({0})
        f.peek({1})
        assert f.query_count == 1

    def test_bound_enforced(self):
        f = SetOracle(lambda S: 5.0, ground_size=2, bound_M=1.0)
        with pytest.raises(ValueError):
            f({0})

    def test_ground_set_guard(self):
        f = or_oracle()
        with pytest.raises(ValueError):
            f({3})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_raises(self, bad):
        f = SetOracle(lambda S: bad, ground_size=2, bound_M=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            f({0})


class TestMultilinearExact:
    def test_or_function_half_half(self):
        # enumeration over the 4 subsets: 0*0.25 + 1*0.75
        assert multilinear_exact(or_oracle(), np.array([0.5, 0.5])) == pytest.approx(0.75)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            f, table = random_weighted_coverage(d, rng)
            x = rng.uniform(0, 1, size=d)
            assert multilinear_exact(f, x) == pytest.approx(
                multilinear_bruteforce(table, x), abs=1e-10
            )

    def test_vertices_recover_set_values(self):
        rng = np.random.default_rng(6)
        d = 4
        f, table = random_weighted_coverage(d, rng)
        for mask in range(2**d):
            x = np.array([(mask >> i) & 1 for i in range(d)], dtype=float)
            assert multilinear_exact(f, x) == pytest.approx(table[mask], abs=1e-12)

    def test_modular_is_linear(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, size=5)
        f = SetOracle(lambda S: float(sum(w[i] for i in S)), ground_size=5,
                      bound_M=float(w.sum()))
        for _ in range(5):
            x = rng.uniform(0, 1, size=5)
            assert multilinear_exact(f, x) == pytest.approx(float(w @ x), abs=1e-12)

    def test_dimension_cap(self):
        f = SetOracle(lambda S: 0.0, ground_size=26, bound_M=1.0)
        with pytest.raises(ValueError):
            multilinear_exact(f, np.full(26, 0.5))


class TestMultilinearSample:
    def test_deterministic_at_vertices(self):
        f = or_oracle()
        rng = np.random.default_rng(0)
        assert multilinear_sample(f, np.array([1.0, 0.0]), 7, rng) == 1.0
        assert multilinear_sample(f, np.array([0.0, 0.0]), 7, rng) == 0.0

    def test_unbiased_for_or(self):
        f = or_oracle()
        rng = np.random.default_rng(123)
        n = 10**5
        est = multilinear_sample(f, np.array([0.5, 0.5]), n, rng)
        stderr = np.sqrt(0.75 * 0.25 / n)  # Bernoulli(0.75) sample mean
        assert abs(est - 0.75) < 3 * stderr

    def test_reproducible_with_seed(self):
        f = or_oracle()
        a = multilinear_sample(f, np.array([0.3, 0.6]), 50, np.random.default_rng(9))
        b = multilinear_sample(f, np.array([0.3, 0.6]), 50, np.random.default_rng(9))
        assert a == b

    def test_query_accounting(self):
        f = or_oracle()
        multilinear_sample(f, np.array([0.5, 0.5]), 13, np.random.default_rng(0))
        assert f.query_count == 13

    def test_one_draw_matches_per_sample_draws(self):
        x = np.array([0.3, -0.2, 1.4, 0.5, 0.0, 1.0, 0.9])
        seen = []
        rng = np.random.default_rng(17)
        value = sampled_value(lambda S: seen.append(S) or len(S), x, 11, rng)
        ref_rng = np.random.default_rng(17)
        ref = [sample_subset(x, ref_rng) for _ in range(11)]
        assert seen == ref
        assert value == float(np.mean([len(S) for S in ref]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMultilinearValueOracle:
    def test_query_cost_forwarded_to_set_oracle(self):
        rng = np.random.default_rng(3)
        f, _ = random_weighted_coverage(3, rng)
        F = multilinear_value_oracle(f, l=4, seed=0)
        F(np.full(3, 0.5))
        assert f.query_count == 4
        F.gradient(np.full(3, 0.5))
        assert f.query_count == 4 + 2 * 3

    def test_peek_spends_nothing(self):
        rng = np.random.default_rng(3)
        f, _ = random_weighted_coverage(3, rng)
        F = multilinear_value_oracle(f, l=4, seed=0)
        F.peek(np.full(3, 0.5))
        assert f.query_count == 0

    def test_gradient_unbiased_for_modular(self):
        w = np.array([0.2, 0.9, 0.4])
        f = SetOracle(lambda S: float(sum(w[i] for i in S)), ground_size=3,
                      bound_M=float(w.sum()))
        F = multilinear_value_oracle(f, l=1, seed=1)
        # modular marginals are state-independent, so one draw is exact
        np.testing.assert_allclose(F.gradient(np.full(3, 0.5)), w)
