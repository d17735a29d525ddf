import numpy as np
import pytest

from zogreedy import (
    BoxDomain,
    ConstraintSpec,
    DomainError,
    InfeasibleTransformError,
    contains,
    independent,
    transform_constraint,
)

from support import box_contains_reference, random_small_constraint, random_point_in


class TestShrinkDomain:
    """The image of the whole domain D: the box ``[0, a - 2*delta]``."""

    def test_unit_cube(self):
        D = BoxDomain.unit_cube(3)
        shrunk = transform_constraint(D, ConstraintSpec.box(D.upper), 0.1)
        assert shrunk.kind == "box"
        np.testing.assert_allclose(shrunk.upper, [0.8, 0.8, 0.8])

    def test_anisotropic_box(self):
        D = BoxDomain([1.0, 2.0])
        shrunk = transform_constraint(D, ConstraintSpec.box(D.upper), 0.25)
        np.testing.assert_allclose(shrunk.upper, [0.5, 1.5])

    def test_degenerate_box_rejected(self):
        D = BoxDomain.unit_cube(2)
        with pytest.raises(DomainError, match="empty or degenerate box"):
            transform_constraint(D, ConstraintSpec.box(D.upper), 0.5)

    def test_nonpositive_delta_rejected(self):
        D = BoxDomain.unit_cube(2)
        for delta in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="delta must be strictly positive"):
                transform_constraint(D, ConstraintSpec.box(D.upper), delta)


class TestTransformConstraint:
    def test_single_budget(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        Kp = transform_constraint(BoxDomain.unit_cube(2), K, 0.1)
        assert isinstance(Kp, ConstraintSpec) and Kp.kind == "block_budget"
        np.testing.assert_allclose(Kp.upper, [0.8, 0.8])
        assert Kp.budgets == pytest.approx((0.8,))

    def test_box_kind(self):
        K = ConstraintSpec.box(np.ones(3))
        Kp = transform_constraint(BoxDomain.unit_cube(3), K, 0.2)
        assert Kp.kind == "box" and Kp.blocks == ()
        np.testing.assert_allclose(Kp.upper, [0.6, 0.6, 0.6])

    def test_matroid_shrinks_to_fractional_block_budget(self):
        K = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [1])
        Kp = transform_constraint(BoxDomain.unit_cube(3), K, 0.25)
        assert Kp.kind == "block_budget"
        np.testing.assert_allclose(Kp.upper, [0.5, 0.5, 0.5])
        assert Kp.budgets == pytest.approx((0.25,))

    def test_budget_below_margin_rejected(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [0.1])
        with pytest.raises(InfeasibleTransformError):
            transform_constraint(BoxDomain.unit_cube(2), K, 0.1)

    def test_origin_always_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            K = random_small_constraint(rng, d)
            delta = float(rng.uniform(0.01, 0.1))
            try:
                Kp = transform_constraint(BoxDomain.unit_cube(d), K, delta)
            except InfeasibleTransformError:
                continue
            assert contains(Kp, np.zeros(d), 0.0)


class TestContains:
    def setup_method(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        self.kp = transform_constraint(BoxDomain.unit_cube(2), K, 0.1)

    def test_interior_point(self):
        assert contains(self.kp, np.array([0.4, 0.4]), tol=0.0)

    def test_budget_violation(self):
        assert not contains(self.kp, np.array([0.5, 0.4]), tol=0.0)

    def test_tolerance_absorbs_roundoff(self):
        assert contains(self.kp, np.array([0.8 + 1e-12, 0.0]), tol=1e-9)
        assert not contains(self.kp, np.array([0.8 + 1e-6, 0.0]), tol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(self.kp, np.zeros(3))


class TestBoxContains:
    """``contains`` on a box against the original two-``np.all`` predicate."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
    def test_matches_reference(self, tol):
        rng = np.random.default_rng(21)
        upper = rng.uniform(0.5, 2.0, size=6)
        box = BoxDomain(upper)
        edges = np.concatenate([
            np.array([np.nan, np.inf, -np.inf, 0.0, -tol, tol]),
            np.nextafter(-tol, [-np.inf, np.inf]),
        ])
        verdicts = []
        for _ in range(3000):
            x = rng.uniform(0.0, 1.0, size=6) * upper
            for i in np.flatnonzero(rng.random(6) < 0.4):
                top = upper[i] + tol
                near_upper = [upper[i] - tol, upper[i], top, *np.nextafter(top, [-np.inf, np.inf])]
                x[i] = rng.choice(np.concatenate([edges, near_upper]))
            verdict = contains(box, x, tol)
            assert verdict == box_contains_reference(upper, x, tol)
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("constraint", [
        BoxDomain.unit_cube(3),
        ConstraintSpec.block_budget(3, [(0, 1, 2)], [2.0]),
        ConstraintSpec.partition_matroid(3, [(0, 1), (2,)], [1, 1]),
        transform_constraint(
            BoxDomain.unit_cube(3), ConstraintSpec.block_budget(3, [(0, 1, 2)], [2.0]), 0.1
        ),
    ], ids=["box", "block_budget", "partition_matroid", "shrunk"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_fail(self, bad, constraint):
        for i in range(3):
            x = np.full(3, 0.3)
            assert contains(constraint, x)
            x[i] = bad
            assert not contains(constraint, x)


class TestTransformProperties:
    """Structural facts every shrunk/translated set must satisfy."""

    def test_shrink_monotone_in_delta(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            K = random_small_constraint(rng, d)
            d1, d2 = sorted(rng.uniform(0.01, 0.12, size=2))
            try:
                kp1 = transform_constraint(BoxDomain.unit_cube(d), K, d1)
                kp2 = transform_constraint(BoxDomain.unit_cube(d), K, d2)
            except InfeasibleTransformError:
                continue
            for _ in range(20):
                x = random_point_in(kp2, rng)
                assert contains(kp1, x, 1e-9)

    def test_lifted_points_feasible_in_base(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            K = random_small_constraint(rng, d)
            delta = float(rng.uniform(0.01, 0.1))
            try:
                kp = transform_constraint(BoxDomain.unit_cube(d), K, delta)
            except InfeasibleTransformError:
                continue
            for _ in range(20):
                x = random_point_in(kp, rng)
                assert contains(K, x + delta, 1e-9)


class TestSpecValidation:
    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec.block_budget(3, [(0, 1), (1, 2)], [1.0, 1.0])

    def test_budget_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec.block_budget(2, [(0, 1)], [3.0])

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec.block_budget(2, [(0, 1)], [0.0])

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="budgets must be strictly positive"):
            ConstraintSpec.block_budget(3, [(0, 1, 2)], [np.nan])

    def test_fractional_matroid_limit_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec.partition_matroid(2, [(0, 1)], [1.5])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSpec.block_budget(2, [(0, 5)], [1.0])

    def test_upper_immutable(self):
        K = ConstraintSpec.box(np.ones(2))
        with pytest.raises(ValueError):
            K.upper[0] = 2.0


class TestEquality:
    def test_equal_specs(self):
        a = ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.5])
        b = ConstraintSpec.block_budget(4, [[0, 1], [2, 3]], [1, 1.5])
        assert a == b and hash(a) == hash(b)
        assert ConstraintSpec.box(np.ones(3)) == ConstraintSpec.box(np.ones(3))
        assert BoxDomain.unit_cube(3) == BoxDomain(np.ones(3))
        assert hash(BoxDomain.unit_cube(3)) == hash(BoxDomain(np.ones(3)))

    @pytest.mark.parametrize("other", [
        ConstraintSpec.box(np.ones(4)),
        ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 1]),
        ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.0], cap=0.8),
        ConstraintSpec.block_budget(4, [(0, 2), (1, 3)], [1.0, 1.0]),
        ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.5]),
        ConstraintSpec.block_budget(4, [(0, 1)], [1.0]),
        ConstraintSpec.block_budget(5, [(0, 1), (2, 3)], [1.0, 1.0]),
    ], ids=["kind_box", "kind_matroid", "upper", "blocks", "budgets", "block_count", "dim"])
    def test_unequal_specs(self, other):
        base = ConstraintSpec.block_budget(4, [(0, 1), (2, 3)], [1.0, 1.0])
        assert base != other and other != base
        assert base != BoxDomain(np.ones(4))

    def test_unequal_boxes(self):
        assert BoxDomain.unit_cube(3) != BoxDomain(np.array([1.0, 1.0, 2.0]))
        assert BoxDomain.unit_cube(3) != BoxDomain.unit_cube(4)
        assert BoxDomain.unit_cube(3) != ConstraintSpec.box(np.ones(3))

    def test_dict_key(self):
        table = {
            ConstraintSpec.box(np.ones(2)): "box",
            ConstraintSpec.partition_matroid(2, [(0, 1)], [1]): "matroid",
            BoxDomain.unit_cube(2): "domain",
        }
        assert table[ConstraintSpec.box(np.array([1.0, 1.0]))] == "box"
        assert table[ConstraintSpec.partition_matroid(2, [[0, 1]], [1.0])] == "matroid"
        assert table[BoxDomain(np.ones(2))] == "domain"
        assert len(table) == 3

    def test_shrunk_set_equals_its_public_twin(self):
        K = ConstraintSpec.block_budget(2, [(0, 1)], [1.0])
        kprime = transform_constraint(BoxDomain.unit_cube(2), K, 0.25)
        assert kprime == ConstraintSpec.block_budget(2, [(0, 1)], [0.5], cap=0.5)


class TestIndependence:
    def test_block_limits(self):
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 2])
        assert independent(M, {0, 2, 3})
        assert not independent(M, {0, 1})
        assert independent(M, set())

    def test_free_elements_unconstrained(self):
        M = ConstraintSpec.partition_matroid(4, [(0, 1)], [1])
        assert independent(M, {0, 2, 3})

    def test_requires_matroid(self):
        K = ConstraintSpec.box(np.ones(2))
        with pytest.raises(ValueError):
            independent(K, {0})

    @pytest.mark.parametrize("subset", [[0.9, 2.5], [2.0], ["1"], [np.float64(0.0)]],
                             ids=["fractions", "integral_float", "string", "numpy_float"])
    def test_non_integer_members_rejected(self, subset):
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 2])
        with pytest.raises(ValueError, match="set elements must be integers"):
            independent(M, subset)

    def test_integer_like_members_accepted(self):
        M = ConstraintSpec.partition_matroid(4, [(0, 1), (2, 3)], [1, 2])
        assert independent(M, [np.int64(0), np.int32(2), 3])
        assert not independent(M, np.array([0, 1]))
        assert independent(M, [True, 2])  # True is element 1
        assert not independent(M, [False, True])
