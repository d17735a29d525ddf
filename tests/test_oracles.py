import numpy as np
import pytest

from zogreedy import (
    BoxDomain,
    DomainError,
    SetOracle,
    ValueOracle,
    multilinear_sample,
    multilinear_value_oracle,
    noisy_wrap,
)

from zogreedy.oracles import sample_subset

from support import multilinear_bruteforce, multilinear_exact, random_weighted_coverage


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
    def test_non_finite_peek_raises(self, bad):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0, peek_fn=lambda x: bad)
        with pytest.raises(ValueError, match="non-finite"):
            F.peek(np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_and_gradient_raise(self, bad):
        F = ValueOracle(lambda x: bad, dim=2, lipschitz_G=1.0,
                        grad=lambda x: np.array([0.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            F(np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            F.gradient(np.zeros(2))


class TestPeekRows:
    def test_default_peeks_row_by_row(self):
        seen = []

        def peek(x):
            seen.append(x.copy())
            return float(x @ [1.0, 10.0])

        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0, peek_fn=peek)
        Z = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        values = F.peek_rows(Z)
        assert np.array_equal(values, [F.peek(z) for z in Z])
        assert np.array_equal(np.array(seen[:3]), Z)
        assert F.query_count == 0

    def test_batched_rows(self):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0,
                        peek_rows_fn=lambda Z: Z.sum(axis=1))
        assert np.array_equal(F.peek_rows(np.eye(2)), [1.0, 1.0])
        assert F.query_count == 0

    @pytest.mark.parametrize("Z", [np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))])
    def test_rejects_wrong_shape(self, Z):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0)
        with pytest.raises(ValueError, match="shape"):
            F.peek_rows(Z)

    @pytest.mark.parametrize("rows_fn, message", [
        (lambda Z: np.full(Z.shape[0], np.nan), "non-finite"),
        (lambda Z: np.zeros(Z.shape[0] + 1), "shape"),
    ])
    def test_rejects_bad_batched_values(self, rows_fn, message):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0, peek_rows_fn=rows_fn)
        with pytest.raises(ValueError, match=message):
            F.peek_rows(np.zeros((3, 2)))

    def test_noisy_oracle_passes_through(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0)
        noisy = noisy_wrap(F, 10.0, seed=1)
        Z = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(noisy.peek_rows(Z), F.peek_rows(Z))
        assert noisy.query_count == 0

    def test_multilinear_rows_equal_one_peek_per_row(self):
        f, _ = random_weighted_coverage(5, np.random.default_rng(4))
        Z = np.random.default_rng(5).random((7, 5))
        batched = multilinear_value_oracle(f, l=2, seed=3, peek_samples=16)
        per_row = multilinear_value_oracle(f, l=2, seed=3, peek_samples=16)
        assert np.array_equal(batched.peek_rows(Z), [per_row.peek(z) for z in Z])
        # the peek streams end in the same state: the next peeks agree too
        assert batched.peek(Z[0]) == per_row.peek(Z[0])
        assert f.query_count == 0


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

    @pytest.mark.parametrize("subset", [
        [0.5], [1.7], [1.0], [np.float64(0.0)], [0, "1"],
    ], ids=["half", "one_point_seven", "integral_float", "numpy_float", "string"])
    def test_non_integer_elements_rejected(self, subset):
        f = or_oracle()
        for evaluate in (f, f.peek):
            with pytest.raises(ValueError, match="integers"):
                evaluate(subset)
        assert f.query_count == 0

    @pytest.mark.parametrize("subset, value", [
        ([np.int64(1)], 0.5), ([np.int32(0), 1], 1.0), (np.array([0, 1]), 1.0),
        (np.array([], dtype=np.intp), 0.0), ([1, 1, 1], 0.5),
    ], ids=["numpy_int64", "mixed_ints", "int_array", "empty_array", "repeated"])
    def test_integer_elements_accepted(self, subset, value):
        f = SetOracle(lambda S: len(S) / 2, ground_size=2, bound_M=1.0)
        assert f(subset) == f.peek(subset) == value
        assert f.query_count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_raises(self, bad):
        f = SetOracle(lambda S: bad, ground_size=2, bound_M=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            f({0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_peek_raises(self, bad):
        f = SetOracle(lambda S: bad if 1 in S else 0.0, ground_size=2, bound_M=1.0)
        batched = SetOracle(lambda S: 0.0, ground_size=2, bound_M=1.0,
                            batch_fn=lambda masks: np.where(masks[:, 1], bad, 0.0))
        masks = np.array([[True, False], [False, True]])
        with pytest.raises(ValueError, match="non-finite"):
            f.peek({1})
        for oracle in (f, batched):
            with pytest.raises(ValueError, match="non-finite"):
                oracle.peek_masks(masks)
        assert f.peek_masks(masks[:1]).tolist() == [0.0]

    def test_peek_masks_is_uncounted(self):
        f = or_oracle()
        batched = SetOracle(lambda S: 1.0 if S else 0.0, ground_size=2, bound_M=1.0,
                            batch_fn=lambda masks: masks.any(axis=1).astype(float))
        masks = np.array([[False, False], [True, False], [True, True]])
        for oracle in (f, batched):
            assert oracle.peek_masks(masks).tolist() == [0.0, 1.0, 1.0]
            assert oracle.peek_masks(masks[:0]).shape == (0,)
            assert oracle.query_count == 0

    @pytest.mark.parametrize("masks", [
        np.zeros((3, 2)),
        np.zeros((3, 2), dtype=int),
        np.zeros((3, 3), dtype=bool),
        np.zeros(2, dtype=bool),
        np.zeros((1, 3, 2), dtype=bool),
    ], ids=["float", "int", "columns", "one_dim", "three_dim"])
    def test_peek_masks_rejects_bad_masks(self, masks):
        with pytest.raises(ValueError, match="bool array of shape"):
            or_oracle().peek_masks(masks)

    def test_user_fn_called_once_per_query(self):
        calls = []

        def fn(S):
            calls.append(S)
            return float(len(S))

        f = SetOracle(fn, ground_size=3, bound_M=3.0)
        for _ in range(3):
            assert f({0, 2}) == 2.0
        assert f.peek({0, 2}) == 2.0
        assert calls == [frozenset({0, 2})] * 4
        assert f.query_count == 3

    def test_stochastic_user_fn_stays_stochastic(self):
        rng = np.random.default_rng(0)
        f = SetOracle(lambda S: float(rng.random()), ground_size=2, bound_M=1.0)
        assert len({f({1}) for _ in range(20)}) == 20

    def test_peek_masks_rejects_misshapen_batch_values(self):
        f = SetOracle(lambda S: 0.0, ground_size=2, bound_M=1.0,
                      batch_fn=lambda masks: np.zeros((len(masks), 1)))
        with pytest.raises(ValueError, match="shape"):
            f.peek_masks(np.zeros((3, 2), dtype=bool))


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
        f = SetOracle(lambda S: seen.append(S) or len(S), ground_size=x.size, bound_M=x.size)
        rng = np.random.default_rng(17)
        value = multilinear_sample(f, x, 11, rng)
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

    @pytest.mark.parametrize("peek_samples", [0, -3])
    def test_rejects_empty_peek_sample(self, peek_samples):
        f, _ = random_weighted_coverage(3, np.random.default_rng(3))
        with pytest.raises(ValueError, match="peek sample count"):
            multilinear_value_oracle(f, l=4, seed=0, peek_samples=peek_samples)

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
