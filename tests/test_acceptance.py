"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Each criterion is deterministic (fixed seeds) and checks either a
structural identity at tight tolerance or a desk-scale statistical bound with
its margin stated inline.
"""

import numpy as np
import pytest

from zogreedy import (
    AlgoParams,
    BoxDomain,
    ConstraintSpec,
    NoisyOracle,
    batch_grad,
    bcg,
    contains,
    dbg,
    ga,
    independent,
    lmo,
    momentum_update,
    nqp_eval,
    nqp_generate,
    nqp_oracle,
    project,
    rho_schedule,
    sample_sphere,
    scg,
    swap_round,
    transform_constraint,
    two_point_grad,
    zga,
)
from zogreedy.bench import brute_force_opt
from zogreedy.objectives import coverage_set_oracle

from support import (
    enumerate_vertices,
    gradient_bruteforce,
    mixed_second_bruteforce,
    multilinear_bruteforce,
    multilinear_exact,
    partial_bruteforce,
    random_matroid,
    random_point_in,
    random_small_constraint,
    random_weighted_coverage,
    sample_ball,
)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({label}): {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed {suffix}"


def _instances_d8(count: int = 50):
    rng = np.random.default_rng(8080)
    out = []
    for _ in range(count):
        f, table = random_weighted_coverage(8, rng)
        x = rng.uniform(0.05, 0.95, size=8)
        out.append((f, table, x))
    return out


def test_criterion_01_multilinear_gradient_identity():
    worst = 0.0
    for f, table, x in _instances_d8():
        for i in range(8):
            hi = x.copy(); hi[i] = 1.0
            lo = x.copy(); lo[i] = 0.0
            lib = multilinear_exact(f, hi) - multilinear_exact(f, lo)
            exact = partial_bruteforce(table, x, i)
            worst = max(worst, abs(lib - exact))
    _report(1, "multilinear gradient identity", worst <= 1e-9, f"worst gap {worst:.2e}")


def test_criterion_02_lipschitz_and_smoothness_bounds():
    ok = True
    worst_diag = 0.0
    for f, table, x in _instances_d8():
        M = float(np.max(np.abs(table)))
        grad = gradient_bruteforce(table, x)
        ok &= float(np.linalg.norm(grad)) <= 2.0 * M * np.sqrt(8) + 1e-9
        for i in range(8):
            for j in range(i + 1, 8):
                ok &= abs(mixed_second_bruteforce(table, x, i, j)) <= 4.0 * M + 1e-9
        h = 0.01
        for i in range(8):
            hi = x.copy(); hi[i] = x[i] + h
            lo = x.copy(); lo[i] = x[i] - h
            second = (
                multilinear_exact(f, hi)
                - 2.0 * multilinear_exact(f, x)
                + multilinear_exact(f, lo)
            ) / h**2
            worst_diag = max(worst_diag, abs(second))
    ok &= worst_diag <= 1e-9
    _report(2, "gradient and curvature bounds", ok, f"worst diagonal {worst_diag:.2e}")


def test_criterion_03_smoothing_approximation():
    H, b = nqp_generate(5, seed=31)
    G = float(np.linalg.norm(b))
    rng = np.random.default_rng(99)
    n = 10**5
    ok = True
    worst = 0.0
    for delta in (0.05, 0.1):
        for _ in range(20):
            x = rng.uniform(delta, 1.0 - delta, size=5)
            probes = x + delta * sample_ball(5, rng, size=n)
            vals = 0.5 * np.einsum("ij,jk,ik->i", probes, H, probes) + probes @ b
            gap = abs(float(vals.mean()) - nqp_eval(H, b, x))
            bound = delta * G + 3.0 * float(vals.std()) / np.sqrt(n)
            ok &= gap <= bound
            worst = max(worst, gap / bound)
    _report(3, "smoothing within delta*G", ok, f"worst gap/bound {worst:.3f}")


def test_criterion_04_estimator_unbiased_and_variance_scaling():
    H, b = nqp_generate(5, seed=55)
    F = nqp_oracle(H, b)
    z = np.full(5, 0.4)
    delta = 0.1
    exact = H @ z + b  # the smoothed gradient of a quadratic is the gradient
    rng = np.random.default_rng(7)
    n = 10**5
    draws = np.empty((n, 5))
    for k in range(n):
        draws[k] = two_point_grad(F, z, delta, sample_sphere(5, rng))
    stderr = draws.std(axis=0) / np.sqrt(n)
    dev = float(np.max(np.abs(draws.mean(axis=0) - exact) / stderr))
    unbiased = dev <= 3.0

    x_t = z - delta
    reps = 10**4
    mse1 = np.empty(reps)
    mse16 = np.empty(reps)
    for k in range(reps):
        mse1[k] = np.sum((batch_grad(F, x_t, delta, 1, rng) - exact) ** 2)
    for k in range(reps):
        mse16[k] = np.sum((batch_grad(F, x_t, delta, 16, rng) - exact) ** 2)
    ratio = float(mse1.mean() / mse16.mean())
    scaling = 10.7 <= ratio <= 24.0
    _report(4, "two-point unbiasedness and 1/B variance", unbiased and scaling,
            f"max dev {dev:.2f} sd, ratio {ratio:.1f}")


def test_criterion_05_momentum_error_decay():
    H, b = nqp_generate(5, seed=13)
    K = ConstraintSpec.block_budget(5, [(0, 1, 2, 3, 4)], [2.0])
    delta, T, seeds = 0.1, 256, 50
    kprime = transform_constraint(BoxDomain.unit_cube(5), K, delta)
    errors = np.zeros((seeds, T))
    for s in range(seeds):
        F = nqp_oracle(H, b)
        rng = np.random.default_rng(s)
        x = np.zeros(5)
        g_bar = np.zeros(5)
        for t in range(1, T + 1):
            g = batch_grad(F, x, delta, 1, rng)
            g_bar = momentum_update(g_bar, g, rho_schedule(t))
            errors[s, t - 1] = float(np.sum((g_bar - (H @ (x + delta) + b)) ** 2))
            x = x + lmo(kprime, g_bar) / T
    mse = errors.mean(axis=0)
    ts = np.arange(1, T + 1)
    mask = ts >= 8
    slope = float(np.polyfit(np.log(ts[mask]), np.log(mse[mask]), 1)[0])
    _report(5, "momentum error log-log slope", slope <= -0.4, f"slope {slope:.3f}")


def test_criterion_06_lmo_exactness():
    rng = np.random.default_rng(606)
    ok = True
    checks = 0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        C = random_small_constraint(rng, d)
        if rng.random() < 0.5:
            try:
                C = transform_constraint(
                    BoxDomain.unit_cube(d), C, float(rng.uniform(0.02, 0.1))
                )
            except ValueError:
                pass
        vertices = enumerate_vertices(C)
        for _ in range(20):
            g = rng.standard_normal(d)
            v = lmo(C, g)
            ok &= contains(C, v, 1e-9)
            ok &= float(g @ v) >= max(float(g @ w) for w in vertices) - 1e-9
            checks += 1
    _report(6, "lmo matches vertex enumeration", ok and checks == 1000,
            f"{checks} checks")


def test_criterion_07_rounding_losslessness():
    rng = np.random.default_rng(707)
    ok = True
    trials = 10**4
    for _ in range(20):
        d = int(rng.integers(6, 11))
        M = random_matroid(rng, d)
        f, table = random_weighted_coverage(d, rng)
        x = random_point_in(M, rng)
        target = multilinear_bruteforce(table, x)
        freq = np.zeros(d)
        values = np.empty(trials)
        for k in range(trials):
            S = swap_round(x, M, rng)
            ok &= independent(M, S)
            values[k] = f.peek(S)
            for i in S:
                freq[i] += 1
        ok &= bool(np.all(np.abs(freq / trials - x) <= 0.02))
        ok &= float(values.mean()) >= target - 3.0 * float(values.std()) / np.sqrt(trials)
    _report(7, "swap rounding marginals and losslessness", ok)


def test_criterion_08_discrete_ratio_vs_bruteforce():
    rng = np.random.default_rng(2024)
    P = rng.dirichlet(np.ones(6), size=9).T
    M = ConstraintSpec.partition_matroid(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], [1, 1, 1])
    _, opt = brute_force_opt(coverage_set_oracle(P), M)
    finals = []
    for seed in range(20):
        f = coverage_set_oracle(P)
        S, _ = dbg(f, M, AlgoParams(T=200, delta=0.05, B=1, l=4, seed=seed,
                                    trace_value_samples=8))
        finals.append(f.peek(S))
    mean = float(np.mean(finals))
    need = (1.0 - 1.0 / np.e) * opt - 0.05 * opt
    _report(8, "set-function ratio vs brute force", mean >= need,
            f"mean {mean:.4f} vs needed {need:.4f} (opt {opt:.4f})")


def _ascent_target_instance():
    """A d=5 quadratic under one budget of 2, with the best of 20 ``ga`` restarts."""
    H, b = nqp_generate(5, seed=77)
    K = ConstraintSpec.block_budget(5, [(0, 1, 2, 3, 4)], [2.0])
    D = BoxDomain.unit_cube(5)
    rng = np.random.default_rng(0)
    target = -np.inf
    for r in range(20):
        F = nqp_oracle(H, b)
        x0 = project(K, rng.uniform(0, 1, size=5))
        x, _ = ga(F, K, AlgoParams(T=300, seed=r), x0=x0)
        target = max(target, F.peek(x))
    return H, b, K, D, target


def test_criterion_09_continuous_ratio_vs_ascent_target():
    H, b, K, D, target = _ascent_target_instance()
    finals = []
    for seed in range(10):
        F = nqp_oracle(H, b)
        out, _ = bcg(F, D, K, AlgoParams(T=500, delta=0.02, B=5, seed=seed))
        finals.append(F.peek(out))
    mean = float(np.mean(finals))
    need = (1.0 - 1.0 / np.e) * target - 0.05 * target
    _report(9, "zeroth-order ratio vs ascent target", mean >= need,
            f"mean {mean:.4f} vs needed {need:.4f} (target {target:.4f})")


def test_criterion_10_matches_first_order_baseline():
    H, b = nqp_generate(20, seed=5)
    blocks = [tuple(range(0, 6)), tuple(range(6, 12)), tuple(range(12, 20))]
    K = ConstraintSpec.block_budget(20, blocks, [6.0, 4.0, 4.0])
    D = BoxDomain.unit_cube(20)
    zo_vals, fo_vals = [], []
    for seed in range(10):
        F = nqp_oracle(H, b)
        out, _ = bcg(F, D, K, AlgoParams(T=100, delta=0.02, B=10, seed=seed))
        zo_vals.append(F.peek(out))
        F = nqp_oracle(H, b)
        x, _ = scg(F, K, AlgoParams(T=100, seed=seed))
        fo_vals.append(F.peek(x))
    ratio = float(np.mean(zo_vals) / np.mean(fo_vals))
    _report(10, "zeroth-order within 0.9 of first-order", ratio >= 0.9,
            f"ratio {ratio:.4f}")


def test_criterion_11_feasibility_fuzz():
    rng = np.random.default_rng(1111)
    ok = True
    configs = 0
    while configs < 100:
        d = int(rng.integers(2, 6))
        delta = float(rng.uniform(0.02, 0.08))
        T = int(rng.integers(4, 9))
        seed = int(rng.integers(0, 10**6))
        discrete = rng.random() < 0.4
        if discrete:
            M = random_matroid(rng, d)
            params = AlgoParams(T=T, delta=delta, B=1, l=1, seed=seed,
                                trace_value_samples=1)
            f, _ = random_weighted_coverage(d, rng)
            S, trace = dbg(f, M, params)
            ok &= independent(M, S)
            ok &= bool(np.all(np.diff(trace.iterates(), axis=0) >= -1e-12))
            f2, _ = random_weighted_coverage(d, rng)
            S2, _ = scg(f2, M, params)
            ok &= independent(M, S2)
        else:
            K = random_small_constraint(rng, d)
            try:
                transform_constraint(BoxDomain.unit_cube(d), K, delta)
            except ValueError:
                continue
            H, b = nqp_generate(d, seed)
            params = AlgoParams(T=T, delta=delta, B=1, seed=seed)
            out, trace = bcg(nqp_oracle(H, b), BoxDomain.unit_cube(d), K, params)
            ok &= contains(K, out, 1e-9)
            ok &= bool(np.all(np.diff(trace.iterates(), axis=0) >= -1e-12))
            out2, _ = zga(nqp_oracle(H, b), BoxDomain.unit_cube(d), K, params)
            ok &= contains(K, out2, 1e-9)
            x3, _ = scg(nqp_oracle(H, b), K, params)
            ok &= contains(K, x3, 1e-9)
            x4, _ = ga(nqp_oracle(H, b), K, params)
            ok &= contains(K, x4, 1e-9)
        configs += 1
    _report(11, "feasibility and monotonicity fuzz", ok, f"{configs} configs")


def test_criterion_12_query_accounting():
    rng = np.random.default_rng(1212)
    ok = True
    for _ in range(10):
        d = int(rng.integers(2, 5))
        T = int(rng.integers(4, 10))
        B = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 10**6))
        H, b = nqp_generate(d, seed)
        K = ConstraintSpec.box(np.ones(d))
        params = AlgoParams(T=T, delta=0.05, B=B, l=l, seed=seed,
                            trace_value_samples=1)

        F = nqp_oracle(H, b)
        bcg(F, BoxDomain.unit_cube(d), K, params)
        ok &= F.query_count == 2 * B * T

        F = nqp_oracle(H, b)
        zga(F, BoxDomain.unit_cube(d), K, params)
        ok &= F.query_count == 2 * B * T

        M = random_matroid(rng, d)
        f, _ = random_weighted_coverage(d, rng)
        dbg(f, M, params)
        ok &= f.query_count == 2 * B * l * T

        f2, _ = random_weighted_coverage(d, rng)
        scg(f2, M, params)
        ok &= f2.query_count == 2 * d * T

        F = nqp_oracle(H, b)
        ga(F, K, params)
        ok &= F.query_count == 0
    _report(12, "exact query accounting", ok)


@pytest.fixture(scope="module")
def noisy_bcg_runs():
    """bcg on noisy values, each run with a noiseless twin: the setting of criterion 13.

    Instance, T and delta as criterion 9; zero-mean Gaussian noise at
    sigma0 = 0.01 and 0.05; B = 1 and 16; seeds 0-9.  The noise has its own
    stream, so a noisy run and its twin share their sphere directions.  Maps
    ``(sigma0, B)`` to the final values of the exact and the noisy runs.
    """
    H, b, K, D, target = _ascent_target_instance()
    runs = {}
    for sigma0 in (0.01, 0.05):
        for B in (1, 16):
            exact, noisy = [], []
            for seed in range(10):
                params = AlgoParams(T=500, delta=0.02, B=B, seed=seed)
                F = nqp_oracle(H, b)
                exact.append(F.peek(bcg(F, D, K, params)[0]))
                F = nqp_oracle(H, b)
                out, _ = bcg(NoisyOracle(F, sigma0, seed=1000 + seed), D, K, params)
                noisy.append(F.peek(out))
                assert F.query_count == 2 * B * 500
            runs[sigma0, B] = (np.array(exact), np.array(noisy))
    return target, runs


def test_criterion_13_noisy_ratio_vs_ascent_target(noisy_bcg_runs):
    """Every mean noisy final value >= (1 - 1/e) target - 0.05 target."""
    target, runs = noisy_bcg_runs
    need = (1.0 - 1.0 / np.e) * target - 0.05 * target
    means = {key: float(noisy.mean()) for key, (_, noisy) in runs.items()}
    _report(13, "noisy zeroth-order ratio vs ascent target",
            min(means.values()) >= need,
            f"needed {need:.4f}; " + "; ".join(
                f"sigma0 {s} B {B}: {m:.4f}" for (s, B), m in means.items()))


def test_criterion_13_noise_reaches_bcg(noisy_bcg_runs):
    """At each sigma0 and B, some seed's noisy final value differs from its twin's.

    The ratio bound above holds for noiseless runs too, so without this check
    a wrapper that added no noise would pass criterion 13.
    """
    _, runs = noisy_bcg_runs
    moved = {key: int(np.count_nonzero(noisy != exact)) for key, (exact, noisy) in runs.items()}
    _report(13, "noise reaches bcg's final value", all(n > 0 for n in moved.values()),
            "; ".join(f"sigma0 {s} B {B}: {n} of 10 seeds differ"
                      for (s, B), n in moved.items()))


def test_criterion_13_noise_term_scales_as_one_over_batch():
    """With its directions fixed, noise adds d^2 sigma0^2 / (2 delta^2 B) to the
    mean squared error of the two-point estimate.

    Each pair calls ``batch_grad`` on a ``NoisyOracle`` and on its exact twin
    with the same ``default_rng(r)``, so both draw the same unit directions
    u_k and differ by the noise alone:
    ``g_noisy - g_exact = (d / (2 delta B)) sum_k (e_k+ - e_k-) u_k``, whose
    mean squared norm is ``d^2 sigma0^2 / (2 delta^2 B)``.  Instance as
    criterion 9 at x = 0.2 * 1, delta = 0.02.  Required: the mean over
    r = 0..1999 within 15% of that value at sigma0 in {0.01, 0.05} and
    B in {1, 16}; at B = 1 the standard error is about 3.2%.
    """
    H, b = nqp_generate(5, seed=77)
    d, delta, pairs = 5, 0.02, 2000
    x = np.full(d, 0.2)
    ratios = {}
    for sigma0 in (0.01, 0.05):
        for B in (1, 16):
            exact = nqp_oracle(H, b)
            noisy = NoisyOracle(nqp_oracle(H, b), sigma0, seed=13)
            sq = np.empty(pairs)
            for r in range(pairs):
                g_exact = batch_grad(exact, x, delta, B, np.random.default_rng(r))
                g_noisy = batch_grad(noisy, x, delta, B, np.random.default_rng(r))
                sq[r] = np.sum((g_noisy - g_exact) ** 2)
            theory = d**2 * sigma0**2 / (2.0 * delta**2 * B)
            ratios[sigma0, B] = float(sq.mean()) / theory
    _report(13, "noise term of the estimate scales as 1/B",
            all(abs(r - 1.0) <= 0.15 for r in ratios.values()),
            "; ".join(f"sigma0 {s} B {B}: ratio {r:.3f}" for (s, B), r in ratios.items()))


@pytest.mark.xfail(strict=True, reason=(
    "on this instance the paired noise gap does not shrink from B = 1 to 16; "
    "see the FOUND line on criterion 13 in CHANGES.md"))
def test_criterion_13_noise_gap_shrinks_with_batch(noisy_bcg_runs):
    """The gap the noise alone causes, paired |F(x_noisy) - F(x_exact)|, shrinks with B.

    Noise adds d^2 sigma0^2 / (2 delta^2 B) to the estimator's variance, so the
    error bound on the final value scales as 1/sqrt(B): a quarter from B = 1
    to 16.  Required at each sigma0: a non-zero gap at B = 1, and at most half
    of it at B = 16.
    """
    _, runs = noisy_bcg_runs
    gaps = {key: float(np.abs(noisy - exact).mean()) for key, (exact, noisy) in runs.items()}
    ok = all(0.0 < gaps[s, 1] and gaps[s, 16] <= 0.5 * gaps[s, 1] for s in (0.01, 0.05))
    _report(13, "noise gap shrinks as 1/sqrt(B)", ok,
            "; ".join(f"sigma0 {s} B {B}: {g:.2e}" for (s, B), g in gaps.items()))
