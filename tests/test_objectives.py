import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import zogreedy.objectives as objectives
import zogreedy.oracles as oracles
from zogreedy import (
    AlgoParams,
    ConstraintSpec,
    Graph,
    MultilinearOracle,
    SetOracle,
    coverage_set_oracle,
    coverage_value_oracle,
    dbg,
    influence_set_oracle,
    logdet_set_oracle,
    nqp_eval,
    nqp_generate,
    nqp_oracle,
    rbf_covariance,
    scg,
)

from zogreedy.bench import karate_club_graph, synthetic_data_matrix, synthetic_topics

from support import (
    coverage_gradient_reference,
    gradient_bruteforce,
    influence_reference,
    logdet_reference,
    mixed_second_bruteforce,
    multilinear_exact,
    nqp_band_reference,
    nqp_generate_reference,
    nqp_reference,
    partial_bruteforce,
    random_weighted_coverage,
    sampled_peeks_reference,
    with_one_row_chunks,
)


class TestNqpGenerate:
    def test_signs_forced_by_construction(self):
        for seed in range(5):
            H, b = nqp_generate(6, seed)
            assert np.all(H <= 0)
            assert np.all(b >= 0)
            np.testing.assert_allclose(b, -H.T @ np.ones(6))

    def test_symmetrized(self):
        H, _ = nqp_generate(8, seed=2)
        np.testing.assert_array_equal(H, H.T)

    def test_deterministic(self):
        H1, b1 = nqp_generate(5, seed=11)
        H2, b2 = nqp_generate(5, seed=11)
        assert np.array_equal(H1, H2) and np.array_equal(b1, b2)

    def test_one_dimensional(self):
        H, b = nqp_generate(1, seed=0)
        assert b[0] == -H[0, 0]

    @pytest.mark.parametrize("d", [2.0, True, "3", 0], ids=["float", "bool", "string", "zero"])
    def test_dimension_must_be_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            nqp_generate(d, 0)

    @pytest.mark.parametrize("d, budget", with_one_row_chunks(
        [1, 2, 17, 300, 1000, 1001], ["1", "2", "17", "300", "1000", "1001"]))
    @pytest.mark.parametrize("seed", [0, 1, 77])
    def test_bitwise_equal_to_reference_builder(self, d, seed, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(oracles, "CHUNK_BYTES", budget)
        H, b = nqp_generate(d, seed)
        H_ref, b_ref = nqp_generate_reference(d, seed)
        assert H.tobytes() == H_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()

    def test_one_resident_matrix(self):
        """The build holds one (d, d) array: the reference builder peaks at 2.008x."""
        (H, _), peak = traced_peak(lambda: nqp_generate(1000, seed=4))
        assert peak <= 1.1 * H.nbytes


def traced_peak(build):
    """``build()`` and the peak bytes numpy and Python allocated during it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestNqpEval:
    def test_scalar_instance(self):
        assert nqp_eval(np.array([[-2.0]]), np.array([2.0]), np.array([0.5])) == pytest.approx(0.75)

    def test_zero_point(self):
        H, b = nqp_generate(4, seed=1)
        assert nqp_eval(H, b, np.zeros(4)) == 0.0

    def test_two_by_two_hand_value(self):
        H = np.array([[-1.0, -1.0], [-1.0, -1.0]])
        b = np.array([2.0, 2.0])
        x = np.array([1.0, 1.0])
        # brute-force double loop as the independent check
        quad = 0.5 * sum(H[i, j] * x[i] * x[j] for i in range(2) for j in range(2))
        assert nqp_eval(H, b, x) == pytest.approx(quad + float(b @ x))
        assert nqp_eval(H, b, x) == pytest.approx(2.0)

    def test_gradient_nonnegative_on_cube(self):
        H, b = nqp_generate(6, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 1, size=6)
            assert np.all(H @ x + b >= -1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nqp_eval(np.eye(2), np.ones(2), np.ones(3))

    @pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 255, 256, 257, 1000])
    def test_matches_full_product_across_band_edges(self, d):
        """On symmetric H of either sign and points in and beyond the cube, the
        banded kernel equals the full product to rounding."""
        rng = np.random.default_rng(d)
        H, b = nqp_generate(d, seed=d)
        A = rng.standard_normal((d, d))
        for H_i, b_i in ((H, b), (A + A.T, rng.standard_normal(d))):
            for x in (rng.random(d), rng.uniform(-3.0, 3.0, d), np.ones(d)):
                want = nqp_reference(H_i, b_i, x)
                assert nqp_eval(H_i, b_i, x) == pytest.approx(want, rel=1e-13, abs=1e-300)

    def test_bitwise_full_product_within_one_band(self):
        rng = np.random.default_rng(5)
        for d in range(1, objectives.NQP_BAND_ROWS + 1):
            H, b = nqp_generate(d, seed=d)
            for x in (rng.random(d), np.zeros(d)):
                assert nqp_eval(H, b, x).hex() == nqp_reference(H, b, x).hex(), d

    @pytest.mark.parametrize("d", [257, 300, 513, 1000])
    def test_every_sweep_is_bitwise_the_forward_kernel(self, d):
        """The forward sweep, the backward sweep and the row form, in either
        direction, each give the one-point forward kernel's values bit for bit,
        on symmetric H of either sign and points in and beyond the cube."""
        rng = np.random.default_rng(d)
        A = rng.standard_normal((d, d))
        Z = np.vstack([rng.random((8, d)), rng.uniform(-3.0, 3.0, (4, d)),
                       np.ones(d), np.zeros(d)])
        for H, b in (nqp_generate(d, seed=d), (A + A.T, rng.standard_normal(d))):
            want = [nqp_band_reference(H, b, z).hex() for z in Z]
            for reverse in (False, True):
                assert [nqp_eval(H, b, z, reverse=reverse).hex() for z in Z] == want
                assert [float(v).hex() for v in nqp_eval(H, b, Z, reverse=reverse)] == want

    @pytest.mark.parametrize("d", [257, 300, 513, 1000])
    def test_reads_only_upper_bands(self, d):
        """NaN below every diagonal block leaves the values as they were, in
        both sweeps and the row form."""
        H, b = nqp_generate(d, seed=3)
        Z = np.random.default_rng(3).random((3, d))
        poisoned = H.copy()
        rows = objectives.NQP_BAND_ROWS
        for lo in range(0, d, rows):
            poisoned[lo + rows:, lo:lo + rows] = np.nan
        assert np.isnan(poisoned).any()
        want = [nqp_band_reference(H, b, z) for z in Z]
        assert want == pytest.approx([nqp_reference(H, b, z) for z in Z], rel=1e-13)
        for reverse in (False, True):
            assert [nqp_eval(poisoned, b, z, reverse=reverse) for z in Z] == want
            assert nqp_eval(poisoned, b, Z, reverse=reverse).tolist() == want

    @pytest.mark.parametrize("d", [1, 20, 256])
    def test_row_form_within_one_band(self, d):
        """At d <= NQP_BAND_ROWS the row form is the full product of each row."""
        H, b = nqp_generate(d, seed=d)
        Z = np.random.default_rng(d).random((5, d))
        values = nqp_eval(H, b, Z)
        assert values.shape == (5,)
        assert [float(v).hex() for v in values] == [nqp_reference(H, b, z).hex() for z in Z]

    def test_no_rows(self):
        H, b = nqp_generate(300, seed=1)
        assert nqp_eval(H, b, np.zeros((0, 300))).shape == (0,)

    @pytest.mark.parametrize("shape", [(), (2, 3, 300), (3, 299)], ids=["scalar", "3-D", "width"])
    def test_rejects_other_point_shapes(self, shape):
        H, b = nqp_generate(300, seed=1)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            nqp_eval(H, b, np.zeros(shape))

    def test_peek_rows_equal_counted_calls_at_d_1000(self):
        """Trace rows, read band by band in chunks of 16, give what one counted
        call per row gives, bitwise, while the calls alternate their sweep."""
        H, b = nqp_generate(1000, seed=8)
        Z = np.random.default_rng(8).random((40, 1000))
        F = nqp_oracle(H, b)
        peeked = F.peek_rows(Z)
        assert [float(v).hex() for v in peeked] == [F(z).hex() for z in Z]
        assert F.query_count == 40


class TestCoverage:
    def test_hand_value(self):
        P = np.array([[1.0, 0.5], [0.0, 0.5]])
        assert coverage_value_oracle(P)(np.array([1.0, 1.0])) == pytest.approx(0.75)

    def test_zero_selection(self):
        P = np.array([[1.0, 0.5], [0.0, 0.5]])
        assert coverage_value_oracle(P)(np.zeros(2)) == 0.0

    def test_set_oracle_empty(self):
        P = np.array([[1.0, 0.5], [0.0, 0.5]])
        assert coverage_set_oracle(P)(set()) == 0.0

    def test_subset_enumeration_cross_check(self):
        P = np.array([[1.0, 0.5], [0.0, 0.5]])
        f = coverage_set_oracle(P)
        # 2^2 subsets by hand
        assert f(set()) == pytest.approx(0.0)
        assert f({0}) == pytest.approx(0.5)
        assert f({1}) == pytest.approx(0.5)
        assert f({0, 1}) == pytest.approx(0.75)

    def test_out_of_range_entries_rejected(self):
        with pytest.raises(ValueError):
            coverage_value_oracle(np.array([[1.2]]))

    def test_matches_multilinear_extension(self):
        rng = np.random.default_rng(21)
        for d in (2, 4, 6, 9, 12):
            k = int(rng.integers(2, 5))
            P = rng.dirichlet(np.ones(k), size=d).T
            f = coverage_set_oracle(P)
            x = rng.uniform(0, 1, size=d)
            assert coverage_value_oracle(P)(x) == pytest.approx(
                multilinear_exact(f, x), abs=1e-9
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        P = rng.dirichlet(np.ones(3), size=5).T
        x = rng.uniform(0.1, 0.9, size=5)
        F = coverage_value_oracle(P)
        g = F.gradient(x)
        h = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (F(x + e) - F(x - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("P, x, message", [
        ([[np.nan, 0.5]], [0.5, 0.5], "topic matrix"),
        ([[0.2, 0.5]], [np.nan, 0.5], "leaves the box domain"),
        ([[2.0, 0.5]], [0.5, 0.5], "topic matrix"),
        ([[0.2, -0.1]], [0.5, 0.5], "topic matrix"),
        ([[0.2, 0.5]], [1.5, 0.5], "leaves the box domain"),
        ([[0.2, 0.5]], [-0.1, 0.5], "leaves the box domain"),
        ([[0.2, 0.5]], [0.5, 0.5, 0.5], "point has shape"),
        ([0.2, 0.5], [0.5, 0.5], "topic matrix"),
        (np.zeros((0, 2)), [0.5, 0.5], "topic matrix"),
    ], ids=["nan-P", "nan-x", "P-above-1", "P-below-0", "x-above-1", "x-below-0",
            "shape-mismatch", "1-D-P", "no-topics"])
    # the builder checks P; the counted value or gradient query checks x
    @pytest.mark.parametrize("query", [
        lambda P, x: coverage_value_oracle(P)(x),
        lambda P, x: coverage_value_oracle(P).gradient(x),
    ], ids=["coverage_eval", "coverage_gradient"])
    def test_bad_inputs_raise(self, query, P, x, message):
        with pytest.raises(ValueError, match=message):
            query(np.array(P, dtype=float), np.array(x, dtype=float))

    @pytest.mark.parametrize("P", [[[2.0, 0.5]], [[np.nan, 0.5]], [[-0.5, 0.5]],
                                   [0.2, 0.5], np.zeros((0, 3))],
                             ids=["above-1", "nan", "below-0", "1-D", "no-topics"])
    @pytest.mark.parametrize("builder", [coverage_value_oracle, coverage_set_oracle])
    def test_builders_reject_bad_topic_matrix(self, builder, P):
        with pytest.raises(ValueError, match="topic matrix"):
            builder(np.array(P, dtype=float))

    def test_builders_keep_their_own_topic_matrix(self):
        P = synthetic_topics(4, 6, seed=1)
        F, f = coverage_value_oracle(P), coverage_set_oracle(P)
        x = np.full(6, 0.5)
        before = (F.peek(x), f.peek({0, 2}), F.gradient(x))
        P[:] = 0.0
        after = (F.peek(x), f.peek({0, 2}), F.gradient(x))
        assert before[:2] == after[:2] and np.array_equal(before[2], after[2])

    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0],
                                   [0.5, 0.5, 0.5]])
    def test_uncounted_peek_checks_its_point(self, x):
        F = coverage_value_oracle(synthetic_topics(3, 4, seed=1))
        with pytest.raises(ValueError):
            F.peek(np.array(x))

    def test_oracle_values_equal_coverage_batch(self):
        P = synthetic_topics(10, 24, seed=3)
        F, f = coverage_value_oracle(P), coverage_set_oracle(P)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = rng.random(24)
            mean = float(np.mean(1.0 - np.prod(1.0 - P * x, axis=1)))
            assert F(x) == F.peek(x) == objectives.coverage_batch(P, x[None])[0] == mean
            assert np.array_equal(F.gradient(x), coverage_gradient_reference(P, x))
            S = frozenset(np.flatnonzero(rng.random(24) < 0.3).tolist())
            indicator = np.zeros(24)
            indicator[sorted(S)] = 1.0
            assert f(S) == f.peek(S) == objectives.coverage_batch(P, indicator[None])[0]


def gradient_cases():
    """Random (k, d) coverage instances, with vanishing factors planted in some rows."""
    rng = np.random.default_rng(24)
    cases = []
    for k, d in itertools.product((1, 3, 10, 17), (1, 2, 5, 24)):
        P = rng.random((k, d))
        cases.append((f"random-{k}x{d}", P, rng.random(d)))
        cases.append((f"x-at-0-{k}x{d}", P, np.zeros(d)))
        cases.append((f"x-at-1-{k}x{d}", P, np.ones(d)))
        if d >= 2:
            x = rng.random(d)
            Q = P.copy()
            Q[k // 2, 1] = x[1] = 1.0  # one vanishing factor in row k // 2
            cases.append((f"one-zero-{k}x{d}", Q, x))
            x = rng.random(d)
            Q = P.copy()
            Q[0, 0] = Q[0, 1] = x[0] = x[1] = 1.0  # two in row 0
            Q[k - 1, 0] = 1.0  # and one more in the last row
            cases.append((f"two-zeros-{k}x{d}", Q, x))
    for k in (8, 9, 20, 130):  # a plain sum over the rows pairs them up from k = 8
        P = rng.random((k, 1))
        cases.append((f"d1-{k}", P, rng.random(1)))
        Q = P.copy()
        Q[3, 0] = 1.0
        cases.append((f"d1-zero-{k}", Q, np.ones(1)))
    # x within the tolerance above 1: column 2's factors are slightly negative,
    # so every term of columns 0 and 1 (where P is 0) is -0.0
    P = rng.random((5, 6))
    P[:, :2] = 0.0
    P[:, 2] = 1.0
    cases.append(("x-just-above-1", P, np.full(6, 1.0 + 1e-13)))
    return cases


GRADIENT_CASES = gradient_cases()


@pytest.mark.parametrize("P, x", [c[1:] for c in GRADIENT_CASES],
                         ids=[c[0] for c in GRADIENT_CASES])
def test_coverage_gradient_equals_topic_loop(P, x):
    g = coverage_value_oracle(P).gradient(x)
    ref = coverage_gradient_reference(P, x)
    assert np.array_equal(g, ref)
    assert np.array_equal(np.signbit(g), np.signbit(ref))


class TestLogdet:
    """The logdet oracle's counted values: its kernel on the checked members."""

    def test_identity_covariance(self):
        f = logdet_set_oracle(np.eye(5))
        assert f({0, 2, 4}) == pytest.approx(3 * math.log(2.0))

    def test_empty_set(self):
        assert logdet_set_oracle(np.eye(3))(set()) == 0.0

    def test_two_by_two_hand_value(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        # det([[2, .5], [.5, 2]]) = 3.75
        assert logdet_set_oracle(sigma)({0, 1}) == pytest.approx(math.log(3.75))

    def test_non_psd_raises(self):
        sigma = np.array([[1.0, 3.0], [3.0, 1.0]])  # eigenvalues 4, -2
        # the bound is the full set's value, whose block is the least definite
        with pytest.raises(np.linalg.LinAlgError):
            logdet_set_oracle(sigma)

    @pytest.mark.parametrize("S, members", [
        ([0, 0], {0}), ([2, 0, 2, 2], {0, 2}), ((1, 1, 1), {1}), ([3, 3, 1, 0, 1], {0, 1, 3}),
    ])
    def test_repeated_indices_count_once(self, S, members):
        sigma = rbf_covariance(np.random.default_rng(3).standard_normal((5, 4)), 0.75)
        f = logdet_set_oracle(sigma)
        assert f(S) == f(members) == logdet_reference(sigma, members)
        assert logdet_set_oracle(np.eye(4))(S) == pytest.approx(len(members) * math.log(2.0))

    @pytest.mark.parametrize("S", [[0.5], [1.7], [0, 2.0], [np.float64(1.0)], ["1"], [True, 2]])
    def test_non_integral_indices_rejected(self, S):
        f = logdet_set_oracle(np.eye(3))
        for evaluate in (f, f.peek):
            with pytest.raises(ValueError, match="must be integers"):
                evaluate(S)
        assert f.query_count == 0

    @pytest.mark.parametrize("S", [[np.int64(2), 0], np.array([0, 2]), range(0, 3, 2)])
    def test_integer_likes_accepted(self, S):
        f = logdet_set_oracle(np.eye(3))
        assert f(S) == f({0, 2}) == pytest.approx(2 * math.log(2.0))

    @pytest.mark.parametrize("sigma, message", [
        (np.eye(3, 5), "square"), (np.ones(3), "square"), (np.zeros((0, 0)), "non-empty"),
        (np.array([[1.0, 0.9], [0.0, 1.0]]), "logdet Sigma must be symmetric; rows 0:"),
        (np.array([[1.0, 0.0], [0.9, 1.0]]), "logdet Sigma must be symmetric; rows 0:"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "logdet entries of Sigma must be finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "logdet entries of Sigma must be finite"),
    ], ids=["wide", "vector", "empty", "upper_only", "lower_only", "nan", "inf"])
    def test_sigma_checked_when_built(self, sigma, message):
        """A 3 x 5 Sigma once ran on its leading block, and an asymmetric one
        through its lower triangle."""
        with pytest.raises(ValueError, match=message):
            logdet_set_oracle(sigma)

    def test_sigma_symmetric_at_every_band(self, monkeypatch):
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 1)
        sigma = rbf_covariance(np.random.default_rng(3).standard_normal((5, 6)), 2.0)
        logdet_set_oracle(sigma)
        sigma[5, 4] = np.nextafter(sigma[5, 4], 2.0)
        with pytest.raises(ValueError, match="rows 4:5 differ"):
            logdet_set_oracle(sigma)


class TestRbfCovariance:
    def test_identical_columns(self):
        X = np.ones((4, 3))
        sigma = rbf_covariance(X, 0.75)
        np.testing.assert_allclose(sigma, np.ones((3, 3)))

    def test_distance_equal_to_bandwidth(self):
        h = 0.75
        X = np.zeros((1, 2))
        X[0, 1] = h  # squared distance h^2
        sigma = rbf_covariance(X, h)
        assert sigma[0, 1] == pytest.approx(math.exp(-1.0))

    def test_symmetric_psd_unit_diagonal(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 8))
        sigma = rbf_covariance(X, 0.75)
        np.testing.assert_array_equal(sigma, sigma.T)
        np.testing.assert_allclose(np.diag(sigma), 1.0)
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-8

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            rbf_covariance(np.ones((2, 2)), 0.0)

    def test_nan_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            rbf_covariance(np.ones((2, 2)), float("nan"))

    def test_infinite_bandwidth(self):
        """An infinite bandwidth once gave an all-ones Sigma."""
        with pytest.raises(ValueError, match="bandwidth h must be finite"):
            rbf_covariance(np.eye(2), float("inf"))


class TestInfluence:
    def path3(self):
        return influence_set_oracle(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_middle_of_path_covers_all(self):
        assert self.path3().peek({1}) == 3.0

    def test_empty_seed_set(self):
        assert self.path3().peek(set()) == 0.0

    def test_leaf_covers_two(self):
        assert self.path3().peek({0}) == 2.0

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            self.path3().peek({7})

    def test_negative_node(self):
        # reach[-1] would read the last node's mask
        with pytest.raises(ValueError, match="outside the ground set"):
            self.path3().peek([0, -1])

    @pytest.mark.parametrize("S", [[0.5], [1.7], [0, 2.0], [np.float64(1.0)], ["1"]])
    def test_non_integral_node_rejected(self, S):
        with pytest.raises(ValueError, match="must be integers"):
            self.path3().peek(S)

    @pytest.mark.parametrize("S", [[np.int64(1)], np.array([0, 2]), (np.int32(1),)])
    def test_integer_like_nodes_accepted(self, S):
        f = self.path3()
        assert f(S) == f.peek(S) == f.peek([int(u) for u in S])

    def test_oracle_kernel_matches_influence_reference(self):
        """The unchecked kernel behind influence_set_oracle equals the set-union reference."""
        rng = np.random.default_rng(17)
        graphs = [karate_club_graph()] + [
            Graph.from_edges(n, rng.integers(0, n, size=(2 * n, 2)).tolist())
            for n in rng.integers(1, 40, size=10).tolist()
        ]
        for g in graphs:
            f = influence_set_oracle(g)
            for p in (0.0, 0.1, 0.5, 1.0):
                S = frozenset(np.flatnonzero(rng.random(g.num_nodes) < p).tolist())
                assert f(S) == f.peek(S) == influence_reference(g, S)

    def test_reach_bitmasks(self):
        """The oracle owns the per-node bitmasks; the graph keeps only its adjacency."""
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        f = influence_set_oracle(g)
        assert f._fn.args == ((0b0011, 0b0111, 0b0110, 0b1000),)
        assert [f({u}) for u in range(4)] == [influence_reference(g, {u}) for u in range(4)]
        assert [f({u}) for u in range(4)] == [2.0, 3.0, 2.0, 1.0]
        assert g == Graph(g.neighbors)
        assert [field.name for field in dataclasses.fields(Graph)] == ["neighbors"]
        assert repr(g) == ("Graph(neighbors=(frozenset({1}), frozenset({0, 2}), "
                           "frozenset({1}), frozenset()))")


class TestGraphIds:
    """``Graph`` and ``from_edges`` check every node id once, when built."""

    @pytest.mark.parametrize("edges, message", [
        ([(0.7, 1)], "must be integers"), ([(0, 1.0)], "must be integers"),
        ([(True, 2)], "must be integers"), ([(0, "1")], "must be integers"),
        ([(0, 5)], "element 5 outside"), ([(3, 0)], "element 3 outside"),
        ([(0, -1)], "element -1 outside"), ([(-3, -2)], "element -3 outside"),
    ], ids=["float", "integral_float", "bool", "string", "past_the_end", "num_nodes",
            "negative", "both_negative"])
    def test_from_edges_rejects_bad_ids(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(3, [(0, 1)] + edges)

    @pytest.mark.parametrize("neighbors, message", [
        ((frozenset({1}), frozenset({0, 7}), frozenset()), "element 7 outside"),
        ((frozenset({1}), frozenset({0, -1}), frozenset()), "element -1 outside"),
        ((frozenset({1.5}), frozenset(), frozenset()), "must be integers"),
        ((frozenset({1.0}), frozenset(), frozenset()), "must be integers"),
        (({True}, set(), set()), "must be integers"),
    ], ids=["past_the_end", "negative", "float", "integral_float", "bool"])
    def test_graph_rejects_bad_ids(self, neighbors, message):
        with pytest.raises(ValueError, match=message):
            Graph(neighbors)

    @pytest.mark.parametrize("neighbors, message", [
        # a one-sided edge once built with f({0}) = 2 but f({1}) = 1
        ((frozenset({1}), frozenset(), frozenset()), "node 0 lists a neighbor that does not"),
        ((frozenset({1, 2}), frozenset({0}), frozenset()), "node 0 lists a neighbor that does not"),
        ((frozenset({0}),), "node 0 is its own neighbor"),
        ((frozenset({1}), frozenset({0, 1})), "node 1 is its own neighbor"),
    ], ids=["one_sided", "one_sided_of_two", "self_loop", "self_loop_beside_an_edge"])
    def test_graph_is_symmetric_and_loop_free(self, neighbors, message):
        with pytest.raises(ValueError, match=message):
            Graph(neighbors)

    def test_integer_likes_stored_as_ints(self):
        g = Graph.from_edges(np.int64(3), np.array([[0, 1], [2, 1], [1, 1], [1, 0]]))
        h = Graph(({np.int64(1)}, [0, np.int32(2)], (1,)))
        assert g == h == Graph.from_edges(3, [(0, 1), (1, 2)])
        for nbrs in g.neighbors + h.neighbors:
            assert type(nbrs) is frozenset and all(type(v) is int for v in nbrs)
        assert influence_set_oracle(g)({0}) == 2.0


def _check_monotone_submodular(eval_set, d):
    """Exhaustive diminishing-returns and monotonicity check on 2^d subsets."""
    ground = list(range(d))
    values = {}
    for r in range(d + 1):
        for S in itertools.combinations(ground, r):
            values[frozenset(S)] = eval_set(set(S))
    for A_key, fA in values.items():
        for x in ground:
            if x in A_key:
                continue
            gain_A = values[A_key | {x}] - fA
            for B_key, fB in values.items():
                if not (A_key <= B_key) or x in B_key:
                    continue
                gain_B = values[B_key | {x}] - fB
                assert gain_A >= gain_B - 1e-9
            assert gain_A >= -1e-9  # monotone


class TestStructuralProperties:
    def test_influence_monotone_submodular(self):
        rng = np.random.default_rng(17)
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.4]
        g = Graph.from_edges(6, edges)
        _check_monotone_submodular(influence_set_oracle(g).peek, 6)

    def test_logdet_monotone_submodular(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((5, 6))
        sigma = rbf_covariance(X, 0.75)
        _check_monotone_submodular(logdet_set_oracle(sigma), 6)

    def test_multilinear_gradient_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            d = int(rng.integers(3, 7))
            f, table = random_weighted_coverage(d, rng)
            x = rng.uniform(0, 1, size=d)
            for i in range(d):
                hi = x.copy(); hi[i] = 1.0
                lo = x.copy(); lo[i] = 0.0
                lib = multilinear_exact(f, hi) - multilinear_exact(f, lo)
                assert lib == pytest.approx(partial_bruteforce(table, x, i), abs=1e-9)

    def test_multilinear_lipschitz_and_smoothness_bounds(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            d = 5
            f, table = random_weighted_coverage(d, rng)
            M = float(np.max(np.abs(table)))
            x = rng.uniform(0, 1, size=d)
            grad = gradient_bruteforce(table, x)
            assert np.linalg.norm(grad) <= 2 * M * np.sqrt(d) + 1e-9
            for i in range(d):
                for j in range(d):
                    if i == j:
                        continue
                    assert abs(mixed_second_bruteforce(table, x, i, j)) <= 4 * M + 1e-9


class TestOracleBuilders:
    def test_nqp_oracle_gradient(self):
        H, b = nqp_generate(4, seed=9)
        F = nqp_oracle(H, b)
        x = np.full(4, 0.3)
        np.testing.assert_allclose(F.gradient(x), H @ x + b)
        assert F.lipschitz_G == pytest.approx(float(np.linalg.norm(b)))

    def test_nqp_oracle_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="square H"):
            nqp_oracle(np.eye(3), np.ones(2))

    def test_nqp_oracle_rejects_non_square_h(self):
        with pytest.raises(ValueError, match="square H"):
            nqp_oracle(-np.ones((2, 3)), np.ones(2))

    def test_nqp_oracle_rejects_matrix_b(self):
        with pytest.raises(ValueError, match="vector b"):
            nqp_oracle(-np.ones((2, 2)), np.ones((2, 1)))

    def test_nqp_oracle_rejects_empty_b(self):
        with pytest.raises(ValueError, match="non-empty"):
            nqp_oracle(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nqp_oracle_rejects_non_finite_h(self, bad):
        """One bad entry also breaks symmetry; the message still says "finite"."""
        H, b = nqp_generate(4, seed=9)
        H[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            nqp_oracle(H, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nqp_oracle_rejects_non_finite_b(self, bad):
        H, b = nqp_generate(4, seed=9)
        b[3] = bad
        with pytest.raises(ValueError, match="finite"):
            nqp_oracle(H, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nqp_oracle_non_finite_below_the_diagonal_reads_finite(self, bad):
        H, b = nqp_generate(1000, seed=9)
        H[999, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            nqp_oracle(H, b)

    @pytest.mark.parametrize("d, i, j, budget", with_one_row_chunks(
        [(4, 0, 1), (1000, 999, 995), (1000, 999, 0)],
        ["first_band_d4", "last_band_d1000", "corner_d1000"]))
    def test_nqp_oracle_rejects_asymmetric_h(self, d, i, j, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(oracles, "CHUNK_BYTES", budget)
        H, b = nqp_generate(d, seed=9)
        H[i, j] = -H[i, j]
        with pytest.raises(ValueError, match="symmetric"):
            nqp_oracle(H, b)

    def test_nqp_value_and_gradient_describe_one_function(self):
        """Central differences of counted values match the exact gradient over
        several bands of the value kernel."""
        d, eps = 300, 1e-3
        F = nqp_oracle(*nqp_generate(d, seed=12))
        x = np.random.default_rng(12).uniform(0.2, 0.8, d)
        step = np.zeros(d)
        fd = np.empty(d)
        for i in range(d):
            step[i] = eps
            fd[i] = (F(x + step) - F(x - step)) / (2 * eps)
            step[i] = 0.0
        np.testing.assert_allclose(fd, F.gradient(x), rtol=1e-6)

    def test_nqp_oracle_does_not_copy_h(self):
        H, b = nqp_generate(1000, seed=9)
        _, peak = traced_peak(lambda: nqp_oracle(H, b))
        assert peak <= 0.1 * H.nbytes

    def test_influence_oracle_bound(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        f = influence_set_oracle(g)
        assert f({0, 1, 2}) == 3.0
        assert f.bound_M == 3.0

    def test_logdet_oracle_bound_is_full_set(self):
        rng = np.random.default_rng(2)
        sigma = rbf_covariance(rng.standard_normal((4, 5)), 0.75)
        f = logdet_set_oracle(sigma)
        assert f.bound_M == logdet_reference(sigma, range(5))


def active_set_instance():
    """The logdet oracle's ``Sigma`` and the matroid of ``configs/active_set.ini``."""
    sigma = rbf_covariance(synthetic_data_matrix(60, 22, seed=5), 0.75)
    blocks = [range(0, 4), range(4, 8), range(8, 12), range(12, 17), range(17, 22)]
    return sigma, ConstraintSpec.partition_matroid(22, blocks, [1] * 5)


def topics_instance():
    P = synthetic_topics(10, 24, seed=3)
    blocks = [range(0, 8), range(8, 16), range(16, 24)]
    return P, ConstraintSpec.partition_matroid(24, blocks, [2, 2, 2])


def uncached_value(build: str, data: np.ndarray, S) -> float:
    """The set value straight from the kernel, with no oracle in between."""
    if build == "logdet":
        return objectives.logdet_eval(data, frozenset(S))
    x = np.zeros(data.shape[1])
    x[sorted(S)] = 1.0
    return float(objectives.coverage_batch(data, x[None])[0])


def built_oracle(build: str, data: np.ndarray) -> SetOracle:
    return logdet_set_oracle(data) if build == "logdet" else coverage_set_oracle(data)


class TestSetValueMemo:
    """The memoized logdet and coverage set oracles against their uncached kernels."""

    @pytest.mark.parametrize("build", ["logdet", "coverage"])
    @pytest.mark.parametrize("algorithm", ["scg", "dbg"])
    def test_run_values_equal_uncached(self, build, algorithm, monkeypatch):
        data, matroid = active_set_instance() if build == "logdet" else topics_instance()
        f = built_oracle(build, data)
        counted = []
        call = SetOracle.__call__

        def recording(self, subset):
            value = call(self, subset)
            counted.append((frozenset(subset), value))
            return value

        monkeypatch.setattr(SetOracle, "__call__", recording)
        params = AlgoParams(T=30, delta=0.05, B=2, l=2, seed=4, trace_value_samples=4)
        (scg if algorithm == "scg" else dbg)(f, matroid, params)
        monkeypatch.undo()
        assert len(counted) == f.query_count > 0
        distinct = {S for S, _ in counted}
        assert len(distinct) < len(counted)  # repeats happened, so hits were served
        assert f._fn.cache_info().hits > 0
        for S, value in counted:
            assert value == uncached_value(build, data, S)
        for S in distinct:
            assert f.peek(S) == uncached_value(build, data, S)

    @pytest.mark.parametrize("build", ["logdet", "coverage"])
    def test_repeated_set_counts_every_call(self, build):
        data = active_set_instance()[0] if build == "logdet" else topics_instance()[0]
        f = built_oracle(build, data)
        values = [f({1, 5, 9}) for _ in range(5)]
        assert f.query_count == 5
        assert values == [uncached_value(build, data, {1, 5, 9})] * 5
        assert f._fn.cache_info().misses == 1

    @pytest.mark.parametrize("build", ["logdet", "coverage"])
    def test_bound_checked_on_cached_value(self, build):
        data = active_set_instance()[0] if build == "logdet" else topics_instance()[0]
        f = built_oracle(build, data)
        value = f({0, 9, 20})
        f.bound_M = value / 2
        with pytest.raises(ValueError, match="exceeds declared bound"):
            f({0, 9, 20})
        assert f.query_count == 2
        assert f._fn.cache_info().hits == 1

    def test_linalg_error_is_not_cached(self, monkeypatch):
        f = logdet_set_oracle(active_set_instance()[0])
        bad = np.array([[1.0, 3.0], [3.0, 1.0]])  # eigenvalues 4, -2
        calls = []

        def failing(sigma, S):
            calls.append(S)
            return logdet_reference(bad, S)

        monkeypatch.setattr(objectives, "logdet_eval", failing)
        for _ in range(3):
            with pytest.raises(np.linalg.LinAlgError):
                f({0, 1})
        assert len(calls) == 3
        assert f.query_count == 3
        assert f._fn.cache_info().currsize == 0

    @pytest.mark.parametrize("build", ["logdet", "coverage"])
    def test_cache_is_bounded(self, build):
        data = active_set_instance()[0] if build == "logdet" else topics_instance()[0]
        f = built_oracle(build, data)
        sets = [[i for i in range(11) if mask >> i & 1] for mask in range(2**11)]
        assert len(sets) > objectives.SET_VALUE_CACHE
        for S in sets:
            f(S)
        info = f._fn.cache_info()
        assert info.maxsize == objectives.SET_VALUE_CACHE
        assert info.currsize <= objectives.SET_VALUE_CACHE
        assert f.query_count == len(sets)

    def test_sigma_copied_at_build(self):
        sigma = active_set_instance()[0]
        f = logdet_set_oracle(sigma)
        before = f({2, 3})
        sigma[2, 3] = sigma[3, 2] = 0.0
        assert f({2, 3}) == f.peek_masks(np.isin(np.arange(22), [2, 3])[None])[0] == before


def random_masks(rng, n: int, d: int) -> np.ndarray:
    """Boolean (n, d) masks of varied density, with an empty and a full row."""
    masks = rng.random((n, d)) < rng.random((n, 1))
    masks[0] = False
    masks[1] = True
    return masks


def per_set_peeks(f, masks) -> np.ndarray:
    """The oracle's per-set kernel ``fn`` at each row's set."""
    return np.array([f._fn(frozenset(np.flatnonzero(m).tolist())) for m in masks])


class TestBatchedPeek:
    """``peek_masks`` through each builder's kernel against its per-set ``fn``."""

    def test_influence_is_exact(self):
        f = influence_set_oracle(karate_club_graph())
        masks = random_masks(np.random.default_rng(0), 500, f.ground_size)
        assert np.array_equal(f.peek_masks(masks), per_set_peeks(f, masks))

    @pytest.mark.parametrize("bandwidth", [0.75, 2.0, 5.0])
    def test_logdet_matches(self, bandwidth, monkeypatch):
        sigma = rbf_covariance(synthetic_data_matrix(60, 22, seed=5), bandwidth)
        f = logdet_set_oracle(sigma)
        rng = np.random.default_rng(1)
        # three sets of every size 0..d, then random ones with an empty and a full row
        ranks = np.argsort(rng.random((3 * 23, 22)), axis=1)
        sized = ranks < np.repeat(np.arange(23), 3)[:, None]
        masks = np.concatenate([random_masks(rng, 500, f.ground_size), sized])
        values = f.peek_masks(masks)
        assert np.array_equal(values, per_set_peeks(f, masks))
        assert values[0] == 0.0
        # one row per stack splits every size group
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 8)
        assert np.array_equal(f.peek_masks(masks), values)

    @pytest.mark.parametrize("build", ["logdet", "influence"])
    def test_sampled_values_chunks_agree(self, build, monkeypatch):
        if build == "logdet":
            f = logdet_set_oracle(rbf_covariance(synthetic_data_matrix(60, 22, seed=5), 0.75))
        else:
            f = influence_set_oracle(karate_club_graph())
        Z = np.random.default_rng(10).random((37, f.ground_size))
        Z[0], Z[1] = 0.0, 1.0
        rngs = [np.random.default_rng(11) for _ in range(3)]

        def sampled(rng):
            return MultilinearOracle(f, 1, np.random.default_rng(0), rng, 16).peek_rows(Z)

        whole = sampled(rngs[0])
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 8)
        assert np.array_equal(sampled(rngs[1]), whole)
        assert np.array_equal(sampled_peeks_reference(f, Z, 16, rngs[2]), whole)
        assert len({str(rng.bit_generator.state) for rng in rngs}) == 1

    def test_logdet_chunks_agree(self, monkeypatch):
        sigma = rbf_covariance(synthetic_data_matrix(30, 9, seed=2), 3.0)
        masks = random_masks(np.random.default_rng(2), 50, 9)
        whole = objectives.logdet_batch(sigma, masks)
        monkeypatch.setattr(oracles, "CHUNK_BYTES", 8 * 9 * 9 * 7)
        assert np.array_equal(objectives.logdet_batch(sigma, masks), whole)

    def test_coverage_matches(self):
        f = coverage_set_oracle(synthetic_topics(10, 24, seed=3))
        masks = random_masks(np.random.default_rng(3), 500, f.ground_size)
        np.testing.assert_allclose(f.peek_masks(masks), per_set_peeks(f, masks),
                                   rtol=1e-12, atol=0.0)

    def test_row_by_row_fallback_is_exact(self):
        w = np.random.default_rng(4).uniform(0.1, 1.0, size=7)
        f = SetOracle(lambda S: float(np.sqrt(sum(w[i] for i in S))), ground_size=7,
                      bound_M=float(np.sqrt(w.sum())))
        masks = random_masks(np.random.default_rng(5), 200, 7)
        assert np.array_equal(f.peek_masks(masks), per_set_peeks(f, masks))


class TestKernelsMatchReference:
    """The per-set kernels against their original implementations, with ``==``."""

    @pytest.mark.parametrize("bandwidth", [0.75, 2.0, 5.0])
    def test_logdet_bitwise(self, bandwidth):
        sigma = rbf_covariance(synthetic_data_matrix(60, 22, seed=5), bandwidth)
        masks = random_masks(np.random.default_rng(6), 600, 22)
        masks[2] = False
        masks[2, 13] = True
        sets = [np.flatnonzero(m).tolist() for m in masks]
        f = logdet_set_oracle(sigma)
        assert [f(S) for S in sets] == [logdet_reference(sigma, S) for S in sets]

    def test_influence_on_karate(self):
        g = karate_club_graph()
        sets = [np.flatnonzero(m).tolist()
                for m in random_masks(np.random.default_rng(7), 600, g.num_nodes)]
        f = influence_set_oracle(g)
        assert [f(S) for S in sets] == [influence_reference(g, S) for S in sets]

    def test_influence_with_isolated_nodes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 70))
            active = int(rng.integers(0, n + 1))  # nodes >= active have no edges
            edges = rng.integers(0, max(active, 1), size=(int(rng.integers(0, 3 * n)), 2))
            g = Graph.from_edges(n, edges if active else [])
            assert sum(len(nb) == 0 for nb in g.neighbors) >= n - active
            sets = [np.flatnonzero(m).tolist() for m in random_masks(rng, 50, n)]
            f = influence_set_oracle(g)
            assert [f(S) for S in sets] == [influence_reference(g, S) for S in sets]
