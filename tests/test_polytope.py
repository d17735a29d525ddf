import numpy as np
import pytest

from zogreedy import (
    BoxDomain,
    ConstraintSpec,
    contains,
    independent,
    lmo,
    project,
    swap_round,
    transform_constraint,
)

from support import (
    enumerate_vertices,
    lmo_reference,
    multilinear_bruteforce,
    project_reference,
    random_matroid,
    random_point_in,
    random_small_constraint,
    random_weighted_coverage,
)


def random_geometry(rng, d):
    """A random constraint: shipped family, shrunk image, or zero caps/budgets."""
    C = random_small_constraint(rng, d)
    r = rng.random()
    if r < 0.3:
        try:
            return transform_constraint(
                BoxDomain.unit_cube(d), C, float(rng.choice([0.02, 0.1, 1 / 3, 0.45]))
            )
        except ValueError:
            return C
    if r < 0.5:
        upper = np.where(rng.random(d) < 0.3, 0.0, rng.uniform(0.0, 1.0, d))
        budgets = [float(rng.choice([0.0, rng.uniform(0.0, 1.5)])) for _ in C.blocks]
        return ConstraintSpec._shrunk(upper, C.blocks, budgets)
    return C


def simplex_like():
    """{x in [0, 0.8]^2 : x1 + x2 <= 0.8}, the shrunk single-budget square."""
    K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
    return transform_constraint(BoxDomain.unit_cube(2), K, 0.1)


class TestLmo:
    def test_budget_goes_to_heaviest_coordinate(self):
        v = lmo(simplex_like(), np.array([1.0, 2.0]))
        np.testing.assert_allclose(v, [0.0, 0.8])

    def test_fractional_knapsack_fill(self):
        K = ConstraintSpec.block_budget(3, [(0, 1, 2)], [1.5])
        v = lmo(K, np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(v, [1.0, 0.0, 0.5])

    def test_nonpositive_weights_give_origin(self):
        for C in (simplex_like(), ConstraintSpec.box(np.ones(2))):
            np.testing.assert_allclose(lmo(C, np.array([-1.0, -2.0])), 0.0)

    def test_tie_breaks_to_lowest_index(self):
        K = ConstraintSpec.block_budget(3, [(0, 1, 2)], [1.0])
        np.testing.assert_allclose(lmo(K, np.ones(3)), [1.0, 0.0, 0.0])

    def test_box_thresholding(self):
        K = ConstraintSpec.box(np.array([0.5, 2.0, 1.0]))
        np.testing.assert_allclose(lmo(K, np.array([0.1, -0.1, 2.0])), [0.5, 0.0, 1.0])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            C = random_small_constraint(rng, d)
            g = rng.standard_normal(d)
            v1 = lmo(C, g)
            v2 = lmo(C, 7.3 * g)
            np.testing.assert_allclose(v1, v2)

    def test_optimal_against_vertex_enumeration(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            C = random_small_constraint(rng, d)
            if rng.random() < 0.5:
                try:
                    C = transform_constraint(
                        BoxDomain.unit_cube(d), C, float(rng.uniform(0.02, 0.1))
                    )
                except ValueError:
                    pass
            vertices = enumerate_vertices(C)
            for _ in range(5):
                g = rng.standard_normal(d)
                v = lmo(C, g)
                assert contains(C, v, 1e-9)
                best = max(float(g @ w) for w in vertices)
                assert float(g @ v) >= best - 1e-9

    def test_bitwise_equal_to_scalar_reference(self):
        rng = np.random.default_rng(34)
        for _ in range(2000):
            d = int(rng.integers(1, 12))
            C = random_geometry(rng, d)
            g = rng.standard_normal(d)
            if rng.random() < 0.5:
                g = np.round(g)  # ties and zero weights
            assert np.array_equal(lmo(C, g), lmo_reference(C, g))


class TestProject:
    def test_feasible_point_unchanged(self):
        C = simplex_like()
        y = np.array([0.3, 0.2])
        np.testing.assert_allclose(project(C, y), y)

    def test_budget_water_filling(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        got = project(K, np.array([1.5, 0.9]))
        # lambda-grid scan for the KKT water level
        y = np.array([1.5, 0.9])
        best, best_dist = None, np.inf
        for lam in np.linspace(0, 1.5, 150001):
            cand = np.clip(y - lam, 0.0, 1.0)
            if cand.sum() <= 1.0 + 1e-12:
                dist = float(np.sum((cand - y) ** 2))
                if dist < best_dist:
                    best, best_dist = cand, dist
        np.testing.assert_allclose(got, best, atol=1e-4)
        np.testing.assert_allclose(got, [0.8, 0.2], atol=1e-9)

    def test_negative_point_clips_to_origin(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        np.testing.assert_allclose(project(K, np.array([-1.0, -1.0])), [0.0, 0.0])

    def test_variational_characterization(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            C = random_small_constraint(rng, d)
            for _ in range(4):
                y = rng.uniform(-1.0, 2.0, size=d)
                p = project(C, y)
                assert contains(C, p, 1e-8)
                dp = float(np.linalg.norm(p - y))
                for _ in range(10):
                    z = random_point_in(C, rng)
                    assert dp <= float(np.linalg.norm(z - y)) + 1e-8

    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(35)
        for _ in range(2000):
            d = int(rng.integers(1, 12))
            C = random_geometry(rng, d)
            y = rng.uniform(-1.0, 3.0, d)
            if rng.random() < 0.3:
                y = np.round(y, 1)  # tied breakpoints
            p = project(C, y)
            np.testing.assert_allclose(p, project_reference(C, y), rtol=0, atol=1e-9)
            assert contains(C, p, 1e-12)
            for block, budget in zip(C.blocks, C.budgets):
                idx = list(block)
                if np.sum(np.clip(y[idx], 0.0, C.upper[idx])) > budget:
                    assert abs(float(np.sum(p[idx])) - budget) <= 1e-12

    def test_budget_at_block_capacity(self):
        # the budget is the capacity summed in another order, one ulp below
        # the clipped sum: no breakpoint's block sum exceeds it
        caps = np.array([0.7, 0.3, 1 / 3, 0.3, 0.7, 0.3, 0.3, 0.7, 1 / 3, 0.2, 0.2, 0.3, 0.2])
        budget = float(np.cumsum(caps[::-1])[-1])
        assert budget < float(np.sum(caps))
        C = ConstraintSpec(kind="block_budget", upper=caps,
                           blocks=(tuple(range(caps.size)),), budgets=(budget,))
        p = project(C, caps + 0.5)
        np.testing.assert_allclose(p, caps, rtol=0, atol=1e-12)
        assert contains(C, p, 1e-12)


class TestEnumerateVertices:
    def test_unit_box_corners(self):
        vertices = enumerate_vertices(ConstraintSpec.box(np.ones(2)))
        assert len(vertices) == 4

    def test_capped_simplex(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        got = {tuple(np.round(v, 9)) for v in enumerate_vertices(K)}
        assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_partial_assignment_present(self):
        K = ConstraintSpec.block_budget(3, [(0, 1, 2)], [1.5])
        got = {tuple(np.round(v, 9)) for v in enumerate_vertices(K)}
        assert (1.0, 0.5, 0.0) in got
        assert (0.5, 0.0, 1.0) in got

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            enumerate_vertices(ConstraintSpec.box(np.ones(11)))


class TestSwapRound:
    def test_integral_input_passthrough(self):
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 1])
        rng = np.random.default_rng(0)
        S = swap_round(np.array([1.0, 0.0, 0.0, 1.0]), M, rng)
        assert S == frozenset({0, 3})

    def test_two_way_split_frequencies(self):
        M = ConstraintSpec.partition_matroid(2, [(0, 1)], [1])
        rng = np.random.default_rng(41)
        x = np.array([0.5, 0.5])
        counts = np.zeros(2)
        trials = 10**4
        for _ in range(trials):
            S = swap_round(x, M, rng)
            assert len(S) == 1
            counts[next(iter(S))] += 1
        assert np.all(np.abs(counts / trials - 0.5) < 0.02)

    def test_marginals_and_block_limits(self):
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 1])
        x = np.array([0.3, 0.7, 0.5, 0.5])
        rng = np.random.default_rng(42)
        trials = 10**4
        freq = np.zeros(4)
        for _ in range(trials):
            S = swap_round(x, M, rng)
            assert independent(M, S)
            for i in S:
                freq[i] += 1
        assert np.all(np.abs(freq / trials - x) < 0.02)

    def test_marginals_with_pair_mass_above_one(self):
        # block limit 2 lets two coordinates sum past 1
        M = ConstraintSpec.partition_matroid(2, [(0, 1)], [2])
        x = np.array([0.9, 0.8])
        rng = np.random.default_rng(43)
        trials = 10**4
        freq = np.zeros(2)
        for _ in range(trials):
            for i in swap_round(x, M, rng):
                freq[i] += 1
        assert np.all(np.abs(freq / trials - x) < 0.02)

    def test_infeasible_input_rejected(self):
        M = ConstraintSpec.partition_matroid(2, [(0, 1)], [1])
        with pytest.raises(ValueError):
            swap_round(np.array([0.9, 0.9]), M, np.random.default_rng(0))

    def test_nan_input_rejected(self):
        M = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [1])
        with pytest.raises(ValueError, match="outside the matroid polytope"):
            swap_round(np.array([np.nan, 0.2, 0.3]), M, np.random.default_rng(0))

    def test_lossless_in_expectation(self):
        rng = np.random.default_rng(44)
        d = 6
        M = random_matroid(rng, d)
        f, table = random_weighted_coverage(d, rng)
        x = random_point_in(M, rng)
        target = multilinear_bruteforce(table, x)
        trials = 10**4
        values = np.empty(trials)
        for k in range(trials):
            values[k] = f.peek(swap_round(x, M, rng))
        stderr = values.std() / np.sqrt(trials)
        assert values.mean() >= target - 3 * stderr
