import numpy as np
import pytest

import zogreedy.oracles as oracles
from zogreedy import (
    AlgoParams,
    BoxDomain,
    ConstraintSpec,
    DomainError,
    MultilinearOracle,
    NoisyOracle,
    SetOracle,
    ValueOracle,
    coverage_set_oracle,
    coverage_value_oracle,
    ga,
    influence_set_oracle,
    logdet_set_oracle,
    nqp_generate,
    nqp_oracle,
    rbf_covariance,
)

from zogreedy.bench import (
    brute_force_opt,
    karate_club_graph,
    synthetic_data_matrix,
    synthetic_topics,
)
from zogreedy.oracles import sample_masks

from support import (
    multilinear_bruteforce,
    multilinear_exact,
    random_weighted_coverage,
    set_gradient_reference,
    table_set_oracle,
)


def multilinear_oracle(f, l, seed, peek_samples=64):
    """The multilinear view of ``f`` on two streams spawned from ``seed``."""
    main, peek = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    return MultilinearOracle(f, l, main, peek, peek_samples)


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

    @pytest.mark.parametrize("dim", [2.5, "3", True, 0, -2],
                             ids=["float", "string", "bool", "zero", "negative"])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            ValueOracle(lambda x: 0.0, dim=dim, lipschitz_G=1.0)

    def test_numpy_integer_dim(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=np.int64(3), lipschitz_G=1.0)
        assert type(F.dim) is int and F.dim == 3
        assert F(np.ones(3)) == 3.0

    @pytest.mark.parametrize("G", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_lipschitz(self, G):
        with pytest.raises(ValueError, match="lipschitz_G must be finite and strictly positive"):
            ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=G)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_peek_raises(self, bad):
        F = ValueOracle(lambda x: bad, dim=2, lipschitz_G=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            F.peek(np.zeros(2))
        assert F.query_count == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_and_gradient_raise(self, bad):
        F = ValueOracle(lambda x: bad, dim=2, lipschitz_G=1.0,
                        grad=lambda x: np.array([0.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            F(np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            F.gradient(np.zeros(2))

    def test_scalar_gradient_is_not_broadcast(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=3, lipschitz_G=1.0, grad=lambda x: 1.0,
                        name="sum")
        with pytest.raises(ValueError, match=r"oracle 'sum' returned a gradient of shape \(\)"):
            ga(F, ConstraintSpec.box(np.ones(3)), AlgoParams(T=5, eta0=0.1))

    def test_column_gradient_is_rejected_where_it_is_returned(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=3, lipschitz_G=1.0,
                        grad=lambda x: np.ones((3, 1)), name="sum")
        with pytest.raises(ValueError, match=r"'sum' returned a gradient of shape \(3, 1\)"):
            F.gradient(np.zeros(3))


class TestPeekRows:
    def test_default_peeks_row_by_row(self):
        seen = []

        def peek(x):
            seen.append(x.copy())
            return float(x @ [1.0, 10.0])

        F = ValueOracle(peek, dim=2, lipschitz_G=1.0)
        Z = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        values = F.peek_rows(Z)
        assert np.array_equal(np.array(seen), Z)
        assert np.array_equal(values, [F._fn(z) for z in Z])
        assert F.query_count == 0

    @pytest.mark.parametrize("Z", [np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))])
    def test_rejects_wrong_shape(self, Z):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0)
        with pytest.raises(ValueError, match="shape"):
            F.peek_rows(Z)

    def test_rejects_non_finite_rows(self):
        F = ValueOracle(lambda x: np.nan, dim=2, lipschitz_G=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            F.peek_rows(np.zeros((3, 2)))

    def test_noisy_oracle_passes_through(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0)
        noisy = NoisyOracle(F, 10.0, seed=1)
        Z = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(noisy.peek_rows(Z), F.peek_rows(Z))
        assert noisy.query_count == 0

    @pytest.mark.parametrize("chunk", [None, 8], ids=["default_chunk", "one_row_chunks"])
    def test_coverage_batch_equals_one_peek_per_row(self, chunk, monkeypatch):
        """The batched trace pass of coverage_value_oracle is bitwise its per-point ``fn``."""
        if chunk is not None:
            monkeypatch.setattr(oracles, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(31)
        for k, d in [(1, 1), (3, 5), (8, 1), (10, 24), (130, 7)]:
            P = rng.random((k, d)) * (rng.random((k, d)) < 0.7)
            F = coverage_value_oracle(P)
            Z = np.vstack([np.zeros(d), np.ones(d), rng.random((40, d)),
                           rng.random((5, d)) < 0.5, np.full(d, 1 + 1e-13)])
            values = F.peek_rows(Z)
            per_row = np.array([F._fn(z) for z in Z])
            assert np.array_equal(values, per_row)
            assert np.array_equal(np.signbit(values), np.signbit(per_row))
            assert F.query_count == 0
            assert F.peek_rows(Z[:0]).shape == (0,)

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_coverage_batch_checks_its_rows(self, bad):
        F = coverage_value_oracle(np.full((2, 3), 0.5))
        Z = np.full((4, 3), 0.5)
        Z[2, 1] = bad
        with pytest.raises(DomainError, match="leaves the box domain"):
            F.peek(Z[2])
        with pytest.raises(DomainError, match="leaves the box domain"):
            F.peek_rows(Z)

    @pytest.mark.parametrize("build", [
        lambda: nqp_oracle(*nqp_generate(4, 0)),
        lambda: coverage_value_oracle(np.full((2, 4), 0.5)),
        lambda: NoisyOracle(nqp_oracle(*nqp_generate(4, 0)), 0.1, seed=1),
    ], ids=["nqp", "coverage", "noisy"])
    @pytest.mark.parametrize("bad", [2.0, -0.1, np.nan])
    def test_peek_rows_checks_the_domain_as_a_counted_call(self, build, bad):
        F = build()
        Z = np.full((3, 4), 0.5)
        Z[1, 2] = bad
        with pytest.raises(DomainError):
            F(Z[1])
        with pytest.raises(DomainError, match="leaves the box domain"):
            F.peek_rows(Z)
        with pytest.raises(DomainError, match="leaves the box domain"):
            F.peek_rows(Z[1:2])

    @pytest.mark.parametrize("batched", [False, True], ids=["fn", "batch_fn"])
    def test_peek_rows_checks_every_row_before_any_value(self, batched, monkeypatch):
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 8 * 2)  # one-row chunks
        seen = []

        def fn(x):
            seen.append(x)
            return 0.0

        def batch(Z):
            seen.append(Z)
            return np.zeros(len(Z))

        F = ValueOracle(fn, dim=2, lipschitz_G=1.0, domain=BoxDomain.unit_cube(2),
                        batch_fn=batch if batched else None)
        with pytest.raises(DomainError):
            F.peek_rows(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, np.nan]]))
        assert seen == []

    def test_batch_fn_gets_chunks_in_row_order(self, monkeypatch):
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 8 * 2 * 3)  # three rows of two
        chunks = []

        def batch(Z):
            chunks.append(Z.copy())
            return Z @ [1.0, 10.0]

        F = ValueOracle(lambda x: float(x @ [1.0, 10.0]), dim=2, lipschitz_G=1.0,
                        batch_fn=batch)
        Z = np.arange(14.0).reshape(7, 2)
        assert np.array_equal(F.peek_rows(Z), Z @ [1.0, 10.0])
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert np.array_equal(np.vstack(chunks), Z)

    @pytest.mark.parametrize("batch, message", [
        (lambda Z: np.zeros((len(Z), 1)), "gave values of shape"),
        (lambda Z: np.zeros(len(Z) + 1), "gave values of shape"),
        (lambda Z: 0.0, "gave values of shape"),
        (lambda Z: np.where(Z[:, 0] > 0.5, np.nan, 0.0), "non-finite"),
        (lambda Z: np.where(Z[:, 0] > 0.5, -np.inf, 0.0), "non-finite"),
    ], ids=["column", "extra_value", "scalar", "nan", "inf"])
    def test_rejects_bad_batch_values(self, batch, message):
        F = ValueOracle(lambda x: 0.0, dim=2, lipschitz_G=1.0, batch_fn=batch)
        with pytest.raises(ValueError, match=message):
            F.peek_rows(np.array([[0.1, 0.2], [0.7, 0.4]]))

    def test_noisy_oracle_passes_batches_through(self):
        F = coverage_value_oracle(synthetic_topics(10, 24, 3))
        noisy = NoisyOracle(F, 10.0, seed=1)
        Z = np.random.default_rng(2).random((9, 24))
        assert np.array_equal(noisy.peek_rows(Z), [F._fn(z) for z in Z])
        assert noisy.query_count == 0

    def test_multilinear_rows_equal_one_peek_per_row(self):
        f, _ = random_weighted_coverage(5, np.random.default_rng(4))
        Z = np.random.default_rng(5).random((7, 5))
        batched = multilinear_oracle(f, l=2, seed=3, peek_samples=16)
        per_row = multilinear_oracle(f, l=2, seed=3, peek_samples=16)
        assert np.array_equal(batched.peek_rows(Z), [per_row.peek_rows(z[None])[0] for z in Z])
        # the peek streams end in the same state: the next peeks agree too
        assert np.array_equal(batched.peek_rows(Z[:1]), per_row.peek_rows(Z[:1]))
        assert f.query_count == 0


class TestNoisyOracle:
    def test_zero_sigma_is_exact(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0)
        noisy = NoisyOracle(F, 0.0, seed=1)
        x = np.array([0.25, 0.5])
        assert noisy(x) == F.peek(x)

    def test_counts_once_per_eval(self):
        F = ValueOracle(lambda x: 1.0, dim=1, lipschitz_G=1.0)
        noisy = NoisyOracle(F, 0.5, seed=1)
        for _ in range(5):
            noisy(np.zeros(1))
        assert noisy.query_count == 5

    def test_peek_passes_through_exactly(self):
        F = ValueOracle(lambda x: 3.0, dim=1, lipschitz_G=1.0)
        noisy = NoisyOracle(F, 10.0, seed=1)
        assert noisy.peek_rows(np.zeros(1)[None])[0] == 3.0

    def test_noise_statistics(self):
        F = ValueOracle(lambda x: 2.0, dim=1, lipschitz_G=1.0)
        noisy = NoisyOracle(F, 1.0, seed=42)
        n = 10**5
        draws = np.array([noisy(np.zeros(1)) for _ in range(n)])
        assert abs(draws.mean() - 2.0) < 3.0 / np.sqrt(n)
        assert 0.97 < draws.std() < 1.03

    @pytest.mark.parametrize("sigma0", [np.nan, np.inf, -1.0])
    def test_rejects_bad_sigma0(self, sigma0):
        F = ValueOracle(lambda x: 0.0, dim=1, lipschitz_G=1.0)
        with pytest.raises(ValueError, match="sigma0 must be finite and non-negative"):
            NoisyOracle(F, sigma0)

    def test_non_finite_noise_raises(self):
        # the first Gaussian draw of this stream overflows to inf
        F = ValueOracle(lambda x: 0.0, dim=1, lipschitz_G=1.0)
        noisy = NoisyOracle(F, sigma0=1e308, seed=3)
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

    @pytest.mark.parametrize("size", [3.7, "3", True, 0, -2],
                             ids=["float", "string", "bool", "zero", "negative"])
    def test_ground_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match="ground_size must be an integer >= 1"):
            SetOracle(lambda S: float(len(S)), ground_size=size, bound_M=4.0)

    def test_numpy_integer_ground_size(self):
        f = SetOracle(lambda S: float(len(S)), ground_size=np.int32(3), bound_M=3.0)
        assert type(f.ground_size) is int and f.ground_size == 3
        assert f({0, 2}) == 2.0

    @pytest.mark.parametrize("M", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_bound(self, M):
        with pytest.raises(ValueError, match="bound_M must be finite and strictly positive"):
            SetOracle(lambda S: 1e9 * len(S), ground_size=2, bound_M=M)

    @pytest.mark.parametrize("subset", [
        [0.5], [1.7], [1.0], [np.float64(0.0)], [0, "1"], [True, False, True], [0, True],
        {False},
    ], ids=["half", "one_point_seven", "integral_float", "numpy_float", "string", "bools",
            "int_and_bool", "bool_set"])
    def test_non_integer_elements_rejected(self, subset):
        f = or_oracle()
        for evaluate in (f, f.peek):
            with pytest.raises(ValueError, match="integers"):
                evaluate(subset)
        assert f.query_count == 0

    @pytest.mark.parametrize("subset, message", [
        (frozenset({3.0}), "set elements must be integers"),
        ([0.5], "set elements must be integers"),
        (["a"], "set elements must be integers"),
        (frozenset({True}), "set elements must be integers"),
        ({-1}, "element -1 outside the ground set"),
        ({0, 4}, "element 4 outside the ground set"),
    ], ids=["float_frozenset", "half", "string", "bool_frozenset", "negative", "ground_size"])
    def test_rejected_members_are_not_counted(self, subset, message):
        calls = []
        f = SetOracle(lambda S: calls.append(S) or 0.0, ground_size=4, bound_M=1.0)
        for evaluate in (f, f.peek):
            with pytest.raises(ValueError, match=f"^{message}"):
                evaluate(subset)
        assert f.query_count == 0 and calls == []

    def test_members_reach_fn_as_a_checked_frozenset(self):
        seen = []
        f = SetOracle(lambda S: seen.append(S) or 0.0, ground_size=4, bound_M=1.0)
        f([np.int64(3), np.int32(1), 3])
        assert seen == [frozenset({1, 3})]
        assert all(type(i) is int for i in seen[0])

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

    @pytest.mark.parametrize("batched", [False, True], ids=["fn", "batch_fn"])
    def test_peeked_values_respect_the_bound(self, batched):
        f = SetOracle(lambda S: 10.0, ground_size=3, bound_M=1.0,
                      batch_fn=(lambda masks: np.full(len(masks), 10.0)) if batched else None)
        M = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [1])
        masks = np.zeros((1, 3), dtype=bool)
        for peek in (lambda: f.peek_masks(masks), lambda: f.peek({0}),
                     lambda: brute_force_opt(f, M)):
            with pytest.raises(ValueError, match="value 10.0, non-finite or beyond its declared "
                                                 "bound 1.0"):
                peek()
        edge = SetOracle(lambda S: -1.0 - 1e-9, ground_size=3, bound_M=1.0)
        assert edge.peek_masks(np.ones((2, 3), dtype=bool)).tolist() == [-1.0 - 1e-9] * 2

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


def counted_sample(f, x, l, rng):
    """One counted call of the multilinear view of ``f``, drawing its sets from ``rng``."""
    return MultilinearOracle(f, l, rng, np.random.default_rng(0), 1)(x)


class TestMultilinearSample:
    @pytest.mark.parametrize("l", [0, -2])
    def test_rejects_empty_sample(self, l):
        with pytest.raises(ValueError, match="sample count l"):
            counted_sample(or_oracle(), np.array([0.5, 0.5]), l, np.random.default_rng(0))

    def test_deterministic_at_vertices(self):
        f = or_oracle()
        rng = np.random.default_rng(0)
        assert counted_sample(f, np.array([1.0, 0.0]), 7, rng) == 1.0
        assert counted_sample(f, np.array([0.0, 0.0]), 7, rng) == 0.0

    def test_unbiased_for_or(self):
        f = or_oracle()
        rng = np.random.default_rng(123)
        n = 10**5
        est = counted_sample(f, np.array([0.5, 0.5]), n, rng)
        stderr = np.sqrt(0.75 * 0.25 / n)  # Bernoulli(0.75) sample mean
        assert abs(est - 0.75) < 3 * stderr

    def test_reproducible_with_seed(self):
        f = or_oracle()
        a = counted_sample(f, np.array([0.3, 0.6]), 50, np.random.default_rng(9))
        b = counted_sample(f, np.array([0.3, 0.6]), 50, np.random.default_rng(9))
        assert a == b

    def test_query_accounting(self):
        f = or_oracle()
        counted_sample(f, np.array([0.5, 0.5]), 13, np.random.default_rng(0))
        assert f.query_count == 13

    def test_one_draw_matches_per_sample_draws(self):
        """Sets drawn per sample, and the value ``np.mean`` of theirs, bitwise.

        NumPy sums 8 or more terms pairwise, so ``l`` covers both of its paths.
        """
        x = np.array([0.3, 0.0, 1.0, 0.5, 0.0, 1.0, 0.9])
        w = 10.0 ** np.linspace(-3.0, 3.0, x.size) / 3.0
        seen = []
        f = SetOracle(lambda S: seen.append(S) or float(w[sorted(S)].sum()),
                      ground_size=x.size, bound_M=float(w.sum()))
        for l in (1, 2, 3, 7, 8, 9, 11, 16):
            seen.clear()
            rng = np.random.default_rng(17 + l)
            value = counted_sample(f, x, l, rng)
            ref_rng = np.random.default_rng(17 + l)
            ref = [frozenset(np.flatnonzero(sample_masks(x, 1, ref_rng)[0]).tolist())
                   for _ in range(l)]
            assert seen == ref
            expected = float(np.mean([f.peek(S) for S in ref]))
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMultilinearValueOracle:
    def test_query_cost_forwarded_to_set_oracle(self):
        rng = np.random.default_rng(3)
        f, _ = random_weighted_coverage(3, rng)
        F = multilinear_oracle(f, l=4, seed=0)
        F(np.full(3, 0.5))
        assert f.query_count == 4
        F.gradient(np.full(3, 0.5))
        assert f.query_count == 4 + 2 * 3

    @pytest.mark.parametrize("peek_samples", [0, -3])
    def test_rejects_empty_peek_sample(self, peek_samples):
        f, _ = random_weighted_coverage(3, np.random.default_rng(3))
        with pytest.raises(ValueError, match="peek sample count"):
            multilinear_oracle(f, l=4, seed=0, peek_samples=peek_samples)

    @pytest.mark.parametrize("l, peek_samples, message", [
        (2.5, 4, "sample count l"), (2.0, 4, "sample count l"), (True, 4, "sample count l"),
        (1, 2.5, "peek sample count"), (1, True, "peek sample count"),
    ], ids=["l-fraction", "l-float", "l-bool", "peek-fraction", "peek-bool"])
    def test_counts_checked_when_built(self, l, peek_samples, message):
        """Once, a float count failed only at the first counted call or trace pass."""
        f, _ = random_weighted_coverage(3, np.random.default_rng(3))
        with pytest.raises(ValueError, match=f"{message} must be an integer >= 1"):
            multilinear_oracle(f, l=l, seed=0, peek_samples=peek_samples)

    def test_numpy_integer_counts(self):
        f, _ = random_weighted_coverage(3, np.random.default_rng(3))
        F = multilinear_oracle(f, l=np.int64(2), seed=0, peek_samples=np.int32(3))
        F(np.full(3, 0.5))
        F.peek_rows(np.full((1, 3), 0.5))
        assert f.query_count == 2

    def test_peek_spends_nothing(self):
        rng = np.random.default_rng(3)
        f, _ = random_weighted_coverage(3, rng)
        F = multilinear_oracle(f, l=4, seed=0)
        F.peek_rows(np.full((1, 3), 0.5))
        assert f.query_count == 0

    def test_gradient_is_one_sampled_set_difference(self):
        """``f(S | {i}) - f(S - {i})`` at one set S ~ x, from the counted stream."""
        f, _ = random_weighted_coverage(6, np.random.default_rng(8))
        x = np.random.default_rng(9).random(6)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        F = MultilinearOracle(f, 1, rng, np.random.default_rng(0), 1)
        g = F.gradient(x)
        S = frozenset(np.flatnonzero(ref_rng.random((1, 6)) < x).tolist())
        expected = [f.peek(S | {i}) - f.peek(S - {i}) for i in range(6)]
        assert np.array_equal(g, expected)
        # the marginals depend on S, so a wrong base set would show
        assert not np.array_equal(g, [f.peek({i}) - f.peek(set()) for i in range(6)])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["logdet", "influence", "coverage", "table"])
    def test_gradient_equals_fresh_set_loop(self, kind):
        """The gradient spends 2d counted queries, in the old order, with the old values."""
        def build():
            if kind == "logdet":
                return logdet_set_oracle(rbf_covariance(synthetic_data_matrix(60, 22, 5), 0.75))
            if kind == "influence":
                return influence_set_oracle(karate_club_graph())
            if kind == "coverage":
                return coverage_set_oracle(synthetic_topics(10, 24, 3))
            rng = np.random.default_rng(6)
            return table_set_oracle(rng.uniform(-1.0, 1.0, size=2**7), 7)

        f, ref = build(), build()
        queries = {id(f): [], id(ref): []}
        for oracle in (f, ref):  # record each counted query's set, in order
            fn, log = oracle._fn, queries[id(oracle)]
            oracle._fn = lambda S, fn=fn, log=log: log.append(S) or fn(S)
        d = f.ground_size
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        F = MultilinearOracle(f, 1, rng, np.random.default_rng(0), 1)
        for x in (np.zeros(d), np.ones(d), np.full(d, 0.3),
                  np.random.default_rng(13).random(d)):
            before = f.query_count
            g = F.gradient(x)
            base = frozenset(np.flatnonzero(sample_masks(x, 1, ref_rng)[0]).tolist())
            expected = set_gradient_reference(ref, base)
            assert np.array_equal(g, expected)
            assert np.array_equal(np.signbit(g), np.signbit(expected))
            assert f.query_count - before == 2 * d
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert queries[id(f)] == queries[id(ref)]
        assert f.query_count == ref.query_count

    def test_gradient_unbiased_for_modular(self):
        w = np.array([0.2, 0.9, 0.4])
        f = SetOracle(lambda S: float(sum(w[i] for i in S)), ground_size=3,
                      bound_M=float(w.sum()))
        F = multilinear_oracle(f, l=1, seed=1)
        # modular marginals are state-independent, so one draw is exact
        np.testing.assert_allclose(F.gradient(np.full(3, 0.5)), w)

    @pytest.mark.parametrize("x", [[0.5, 1.2, 0.5], [-0.1, 0.5, 0.5], [0.5, np.nan, 0.5]])
    def test_counted_calls_stay_in_the_unit_cube(self, x):
        f, _ = random_weighted_coverage(3, np.random.default_rng(3))
        F = multilinear_oracle(f, l=4, seed=0)
        with pytest.raises(DomainError):
            F(np.array(x))
        with pytest.raises(DomainError):
            F.gradient(np.array(x))
        assert f.query_count == 0

    def karate_view(self):
        peek_rng = np.random.default_rng(5)
        F = MultilinearOracle(influence_set_oracle(karate_club_graph()), 1,
                              np.random.default_rng(4), peek_rng, 8)
        return F, peek_rng

    @pytest.mark.parametrize("Z, error, message", [
        (np.full((2, 34), np.nan), DomainError, "unit cube"),
        (np.full((2, 34), 2.0), DomainError, "unit cube"),
        (np.full((2, 34), -0.5), DomainError, "unit cube"),
        (np.full(34, 0.5), ValueError, "points have shape"),
        (np.full((2, 33), 0.5), ValueError, "points have shape"),
    ], ids=["nan", "above-1", "below-0", "1-D", "too-few-columns"])
    def test_peek_rows_rejects_bad_points_before_drawing(self, Z, error, message):
        F, peek_rng = self.karate_view()
        state = peek_rng.bit_generator.state
        with pytest.raises(error, match=message):
            F.peek_rows(Z)
        assert peek_rng.bit_generator.state == state
        # a good row after the rejected call still draws the first sets of the stream
        fresh, _ = self.karate_view()
        Z = np.random.default_rng(6).random((3, 34))
        assert np.array_equal(F.peek_rows(Z), fresh.peek_rows(Z))
