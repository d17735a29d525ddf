import numpy as np
import pytest

from zogreedy import (
    BoxDomain,
    DomainError,
    MultilinearOracle,
    SetOracle,
    ValueOracle,
    batch_grad,
    momentum_update,
    rho_schedule,
    sample_sphere,
)

from support import batch_grad_reference, one_point_grad, sample_ball


def linear_oracle(c):
    c = np.asarray(c, dtype=float)
    return ValueOracle(lambda x: float(c @ x), dim=c.size,
                       lipschitz_G=float(np.linalg.norm(c)) or 1.0)


class TestSampleSphere:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5, 40):
            u = sample_sphere(d, rng, size=100)
            np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_one_dimension_is_fair_coin(self):
        rng = np.random.default_rng(1)
        draws = sample_sphere(1, rng, size=10**4)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(np.mean(draws > 0) - 0.5) < 0.02

    def test_componentwise_mean_is_zero(self):
        rng = np.random.default_rng(2)
        n, d = 10**5, 4
        u = sample_sphere(d, rng, size=n)
        stderr = u.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(u.mean(axis=0)) < 3 * stderr)

    def test_scalar_shape(self):
        u = sample_sphere(3, np.random.default_rng(0))
        assert u.shape == (3,)

    @pytest.mark.parametrize("size", [2.7, 2.0, "2", True], ids=["fraction", "float", "str", "bool"])
    def test_non_integer_size_rejected(self, size):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="integer"):
            sample_sphere(3, rng, size=size)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("dim", [2.5, 3.0, True, "3", 0],
                             ids=["fraction", "float", "bool", "str", "zero"])
    def test_dimension_must_be_a_positive_integer(self, dim):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            sample_sphere(dim, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_numpy_integer_size(self):
        u = sample_sphere(3, np.random.default_rng(0), size=np.int64(2))
        assert np.array_equal(u, sample_sphere(3, np.random.default_rng(0), size=2))


class TestSampleBall:
    def test_inside_unit_ball(self):
        rng = np.random.default_rng(3)
        v = sample_ball(4, rng, size=1000)
        assert np.all(np.linalg.norm(v, axis=1) <= 1.0 + 1e-12)

    def test_mean_radius(self):
        # E||v|| = d/(d+1) for the uniform ball
        rng = np.random.default_rng(4)
        d, n = 3, 10**5
        v = sample_ball(d, rng, size=n)
        r = np.linalg.norm(v, axis=1)
        assert abs(r.mean() - d / (d + 1)) < 3 * r.std() / np.sqrt(n)


class TestOnePointGrad:
    def test_constant_function(self):
        F = ValueOracle(lambda x: 1.0, dim=2, lipschitz_G=1.0)
        g = one_point_grad(F, np.zeros(2), 0.5, np.array([0.0, 1.0]))
        np.testing.assert_allclose(g, [0.0, 4.0])

    def test_linear_one_dim(self):
        F = linear_oracle([1.0])
        g = one_point_grad(F, np.array([0.5]), 0.1, np.array([1.0]))
        assert g[0] == pytest.approx(6.0)

    def test_unbiased_for_linear(self):
        c = np.array([0.7, -0.3, 1.1])
        F = linear_oracle(c)
        rng = np.random.default_rng(5)
        n = 10**5
        draws = np.empty((n, 3))
        x = np.array([0.2, 0.1, 0.4])
        for k in range(n):
            draws[k] = one_point_grad(F, x, 0.25, sample_sphere(3, rng))
        stderr = draws.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - c) < 3 * stderr)


class TestTwoPointGrad:
    """The two-point estimate of ``batch_grad`` with one direction.

    ``batch_grad(F, z - delta, delta, 1, rng)`` estimates at ``z``; its direction
    ``u`` is read from an identically seeded :func:`sample_sphere`.
    """

    def test_linear_aligned_direction(self):
        u = sample_sphere(2, np.random.default_rng(1))
        F = linear_oracle(u)
        g = batch_grad(F, np.zeros(2) - 0.1, 0.1, 1, np.random.default_rng(1))
        np.testing.assert_allclose(g, 2.0 * u)  # d * (c . u) * u with c = u

    def test_linear_orthogonal_direction(self):
        u = sample_sphere(2, np.random.default_rng(2))
        F = linear_oracle([-u[1], u[0]])
        g = batch_grad(F, np.zeros(2) - 0.1, 0.1, 1, np.random.default_rng(2))
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-12)

    def test_constant_function_zero(self):
        F = ValueOracle(lambda x: 42.0, dim=3, lipschitz_G=1.0)
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = batch_grad(F, np.zeros(3) - 0.2, 0.2, 1, rng)
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_two_queries_each(self):
        F = linear_oracle([1.0, 1.0])
        batch_grad(F, np.zeros(2) - 0.1, 0.1, 1, np.random.default_rng(0))
        assert F.query_count == 2


class TestBatchGrad:
    def test_single_batch_matches_two_point_at_center(self):
        F = linear_oracle([0.4, 1.2])
        x = np.array([0.1, 0.2])
        delta = 0.05
        probes = []

        def recording(y):
            probes.append(np.array(y))
            return F(y)

        estimate = batch_grad(recording, x, delta, 1, np.random.default_rng(7))
        assert F.query_count == 2
        u = sample_sphere(2, np.random.default_rng(7))
        np.testing.assert_allclose(probes, [x + delta + delta * u, x + delta - delta * u])
        np.testing.assert_allclose(0.5 * (probes[0] + probes[1]), x + delta)
        expected = 2 * (np.array([0.4, 1.2]) @ u) * u  # d * (c . u) * u for linear F
        np.testing.assert_allclose(estimate, expected)

    def test_unbiased_for_linear(self):
        c = np.array([1.5, -0.2])
        F = linear_oracle(c)
        rng = np.random.default_rng(8)
        n = 10**5
        means = np.empty((n, 2))
        for k in range(n):
            means[k] = batch_grad(F, np.zeros(2), 0.1, 1, rng)
        stderr = means.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(means.mean(axis=0) - c) < 3 * stderr)

    def test_domain_violation_raises(self):
        F = ValueOracle(lambda x: float(x.sum()), dim=2, lipschitz_G=2.0,
                        domain=BoxDomain.unit_cube(2))
        with pytest.raises(DomainError):
            batch_grad(F, np.array([0.95, 0.95]), 0.1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("batch", [2.5, 2.0, True, 0, -1],
                             ids=["fraction", "float", "bool", "zero", "negative"])
    def test_batch_must_be_a_positive_integer(self, batch):
        """A float batch once drew int(batch) directions but divided by batch."""
        F = linear_oracle([1.0, 1.0])
        with pytest.raises(ValueError, match="batch size must be an integer"):
            batch_grad(F, np.zeros(2), 0.1, batch, np.random.default_rng(0))
        assert F.query_count == 0

    @pytest.mark.parametrize("d, batch", [(1, 3), (7, 1), (7, 5), (1000, 4)])
    def test_same_stream_as_single_draws(self, d, batch):
        """One ``size=batch`` draw gives the directions of ``batch`` single draws."""
        c = np.random.default_rng(d).standard_normal(d)

        def recording(probes):
            def oracle(x):
                probes.append(np.array(x))
                return float(c @ x)
            return oracle

        x = np.full(d, 0.3)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        probes, ref_probes = [], []
        estimate = batch_grad(recording(probes), x, 0.05, batch, rng)
        expected = batch_grad_reference(recording(ref_probes), x, 0.05, batch, ref_rng)
        assert np.array_equal(np.array(probes), np.array(ref_probes))
        assert np.array_equal(estimate, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def multilinear_batch_grad(f, x_t, delta, batch, inner_samples, rng):
    """``batch_grad`` over the ``inner_samples``-sample multilinear extension of
    ``f``, drawing directions and sets from the one stream ``rng``."""
    F = MultilinearOracle(f, inner_samples, rng, np.random.default_rng(0), 1)
    return batch_grad(F, x_t, delta, batch, rng)


class TestDiscreteBatchGrad:
    def test_query_accounting(self):
        f = SetOracle(lambda S: float(len(S)), ground_size=3, bound_M=3.0)
        multilinear_batch_grad(f, np.full(3, 0.4), 0.1, 3, 5, np.random.default_rng(0))
        assert f.query_count == 30

    def test_unbiased_for_modular(self):
        w = np.array([0.8, 0.3])
        f = SetOracle(lambda S: float(sum(w[i] for i in S)), ground_size=2,
                      bound_M=float(w.sum()))
        rng = np.random.default_rng(9)
        reps = 3000
        means = np.empty((reps, 2))
        for k in range(reps):
            means[k] = multilinear_batch_grad(f, np.full(2, 0.4), 0.1, 1, 8, rng)
        stderr = means.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(means.mean(axis=0) - w) < 3 * stderr)

    def test_unbiased_for_or_function(self):
        # multilinear extension x1 + x2 - x1*x2 is quadratic, so the smoothed
        # gradient equals the plain gradient (1 - x2, 1 - x1)
        f = SetOracle(lambda S: 1.0 if S else 0.0, ground_size=2, bound_M=1.0)
        rng = np.random.default_rng(10)
        x_t = np.full(2, 0.4)
        exact = np.array([0.5, 0.5])
        reps, B = 200, 50
        means = np.empty((reps, 2))
        for k in range(reps):
            means[k] = multilinear_batch_grad(f, x_t, 0.1, B, 4, rng)
        stderr = means.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(means.mean(axis=0) - exact) < 3 * stderr)

    def test_probe_outside_cube_raises(self):
        f = SetOracle(lambda S: 0.0, ground_size=2, bound_M=1.0)
        with pytest.raises(DomainError):
            multilinear_batch_grad(f, np.full(2, 0.95), 0.1, 1, 1, np.random.default_rng(0))


class TestMomentum:
    def test_full_weight_replaces(self):
        out = momentum_update(np.zeros(2), np.array([3.0, -1.0]), 1.0)
        np.testing.assert_allclose(out, [3.0, -1.0])

    def test_half_weight_averages(self):
        out = momentum_update(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_first_step_with_schedule_weight(self):
        rho1 = rho_schedule(1)
        out = momentum_update(np.zeros(2), np.array([1.0, -1.0]), rho1)
        expected = 2.0 / 4.0 ** (2.0 / 3.0)
        np.testing.assert_allclose(out, [expected, -expected])
        assert expected == pytest.approx(0.7937005259840998)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            momentum_update(np.zeros(1), np.zeros(1), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            momentum_update(np.zeros(2), np.zeros(3), 0.5)


class TestRhoSchedule:
    def test_first_value(self):
        assert rho_schedule(1) == pytest.approx(0.7937005259840998)

    def test_t_five_is_half(self):
        assert rho_schedule(5) == pytest.approx(0.5)

    def test_strictly_decreasing_into_zero(self):
        values = [rho_schedule(t) for t in range(1, 2000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0 < values[-1] < 0.02
        assert all(v < 1 for v in values)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            rho_schedule(0)
