import math

import numpy as np
import pytest
from scipy.optimize import brentq

from wignerld.entries import Gaussian, SparseGaussian, rademacher
from wignerld.gibbs import (
    GibbsError,
    GibbsProblem,
    _grid_for,
    g_value,
    gibbs_solve,
    phi_unbounded,
    solve_exponent_batch,
    wasserstein2,
)
from wignerld.oracles import gibbs_grid_oracle

GAUSS = Gaussian()
SG = SparseGaussian(0.5)


# --- g ----------------------------------------------------------------------


def test_g_trivial_gaussian_integral():
    p = GibbsProblem([0.0], GAUSS, math.inf, 1.0)
    assert g_value(p, 0.5) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-10)
    assert g_value(p, 0.5, order=1) == pytest.approx(-1.0, abs=1e-10)


def test_g_matches_fine_trapezoid_oracle():
    p = GibbsProblem([0.5], GAUSS, 4.0, 1.0)
    s = np.linspace(-4.0, 4.0, 1_000_001)
    oracle = math.log(np.trapezoid(np.exp(-s * s + GAUSS.log_laplace(2 * 0.5 * s)), s))
    assert g_value(p, 1.0) == pytest.approx(oracle, abs=1e-8)


def test_g_divergent_integrand_rejected():
    p = GibbsProblem([1.0], SG, math.inf, 1.0)
    # quadratic growth of the tilt term is 4 psi_max = 4 here
    with pytest.raises(GibbsError, match="not normalizable"):
        g_value(p, 2.0)


# --- solve -------------------------------------------------------------------


def test_solve_flat_tilt():
    sol = gibbs_solve(GibbsProblem([0.0], GAUSS, 8.0, 1.0))
    # the optimizer is the (truncated) standard Gaussian itself
    assert sol.zeta_star == pytest.approx(0.5, abs=1e-3)
    assert sol.value == pytest.approx(0.0, abs=1e-4)
    assert sol.moment(2) == pytest.approx(1.0, abs=1e-8)


def test_solve_constraint_and_residual():
    rng = np.random.default_rng(7)
    for _ in range(6):
        v = rng.uniform(-0.9, 0.9, size=rng.integers(1, 4))
        prob = GibbsProblem(v, SG, rng.uniform(4.0, 10.0), rng.uniform(0.2, 1.5))
        sol = gibbs_solve(prob)
        assert sol.moment(2) == pytest.approx(prob.alpha, abs=1e-8)
        assert sol.root_residual() < 1e-9


def _criterion_4_problems(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.uniform(-0.8, 0.8, size=rng.integers(1, 3))
        yield GibbsProblem(v, SG, rng.uniform(4.0, 9.0), rng.uniform(0.3, 1.4))


def test_solve_matches_brent_root_oracle():
    for prob in _criterion_4_problems(14, 12):
        sol = gibbs_solve(prob)

        def f(zeta):
            return prob.alpha + g_value(prob, zeta, 1)

        lo, hi = -1.0, 1.0
        while f(lo) > 0.0:
            lo *= 2.0
        while f(hi) < 0.0:
            hi *= 2.0
        oracle = brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        assert sol.zeta_star == pytest.approx(oracle, rel=1e-12)
        assert type(sol.zeta_star) is float


def test_solve_moment_evaluations_counted():
    counts = [gibbs_solve(prob).evaluations for prob in _criterion_4_problems(15, 20)]
    assert 1 <= min(counts) and max(counts) <= 8


def test_solve_alpha_near_R_squared():
    # the multiplier runs far negative; the solve may give up on the bracket
    # but must not stall at the iteration cap
    R = 4.0
    prob = GibbsProblem([0.5], SG, R, R * R * (1.0 - 1e-7))
    try:
        sol = gibbs_solve(prob)
    except GibbsError as err:
        assert "bracket" in str(err)
        return
    assert sol.zeta_star < 0.0
    assert sol.root_residual() < 1e-9


def test_phi_unbounded_gaussian_entropy_closed_form():
    assert phi_unbounded(GAUSS, [0.0], 1.0) == pytest.approx(0.0, abs=1e-8)
    expected = 0.5 * 0.5 + 0.5 * math.log(0.5)
    assert phi_unbounded(GAUSS, [0.0], 0.5) == pytest.approx(expected, abs=1e-6)
    expected7 = 0.5 * 0.3 + 0.5 * math.log(0.7)
    assert phi_unbounded(GAUSS, [0.0], 0.7) == pytest.approx(expected7, abs=1e-6)


def test_phi_monotone_in_R():
    rng = np.random.default_rng(8)
    v = rng.uniform(-0.7, 0.7, size=2)
    alpha = 0.8
    vals = [gibbs_solve(GibbsProblem(v, SG, R, alpha)).value for R in (16.0, 32.0, 64.0)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_solution_density_positive_and_normalized():
    sol = gibbs_solve(GibbsProblem([0.6, -0.2], SG, 6.0, 0.9))
    s = np.linspace(-6.0, 6.0, 201)
    dens = sol.density(s)
    assert np.all(dens > 0.0)
    assert sol.moment(0) == pytest.approx(1.0, abs=1e-8)
    assert sol.density(6.5) == 0.0


def test_value_upper_bound():
    # optimum never exceeds 4 psi_max alpha |v|^2
    rng = np.random.default_rng(9)
    psi_max = SG.psi_extremes().psi_max
    for _ in range(10):
        v = rng.uniform(-1.0, 1.0, size=2)
        alpha = rng.uniform(0.2, 1.5)
        sol = gibbs_solve(GibbsProblem(v, SG, 8.0, alpha))
        assert sol.value <= 4.0 * psi_max * alpha * float(v @ v) + 1e-9


def test_alpha_incompatible_with_R():
    with pytest.raises(ValueError, match="empty"):
        GibbsProblem([0.0], GAUSS, 2.0, 5.0)
    with pytest.raises(GibbsError, match="bracket"):
        gibbs_solve(GibbsProblem([0.0], GAUSS, 2.0, 4.0 * (1 - 1e-9)))


def test_solve_requires_finite_R():
    with pytest.raises(ValueError, match="finite R"):
        gibbs_solve(GibbsProblem([0.0], GAUSS, math.inf, 1.0))


# --- batched solve -------------------------------------------------------------


def test_batch_gaussian_weights_closed_form():
    # Gaussian entries give h = a s^2 with a = 2 v^2, so zeta* = a + 1/(2 alpha)
    s, w = _grid_for(16.0)
    v = np.array([0.0, 0.3, 1.0, 2.5, 0.7])
    alpha = np.array([1.0, 0.5, 2.0, 0.8, 1.3])
    zeta, log_mass, m2 = solve_exponent_batch(GAUSS.log_laplace(2.0 * v[:, None] * s), s, w, alpha)
    np.testing.assert_allclose(zeta, 2.0 * v**2 + 0.5 / alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(log_mass, 0.5 * np.log(2.0 * math.pi * alpha), rtol=0, atol=1e-9)
    np.testing.assert_allclose(m2, alpha, rtol=0, atol=1e-9)


def test_batch_moment_matched_across_multiplier_range():
    # one batch from a negative multiplier (alpha above the uniform law's
    # R^2/3) to multipliers past 100 (strong tilts)
    s, w = _grid_for(16.0)
    u = np.array([0.0, 0.0, 0.5, 2.0, 5.0, 8.0])
    alpha = np.array([150.0, 1.0, 0.3, 1.0, 0.6, 1.0])
    zeta, _, m2 = solve_exponent_batch(SG.log_laplace(2.0 * u[:, None] * s), s, w, alpha)
    assert zeta.min() < 0.0 and zeta.max() > 100.0
    assert np.all(np.abs(alpha - m2) <= 1e-11 * np.maximum(1.0, alpha))


def test_batch_failures_raise():
    s, w = _grid_for(16.0)
    H = np.zeros((2, s.size))
    # alpha > R^2 drives the multiplier down past the limit (28 passes per grid)
    with pytest.raises(GibbsError, match="bracket"):
        solve_exponent_batch(H, s, w, np.array([1.0, 16.0**2 * 1.01]), max_iter=40)
    H[1, 100] = np.nan
    with pytest.raises(GibbsError):
        solve_exponent_batch(H, s, w, 1.0, max_iter=3)


@pytest.mark.parametrize("R, ks", [
    ((10**6) ** 0.2, (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)),  # the default family
    (64.0, (1000,)),
])
def test_batch_converges_over_default_family(R, ks):
    # tilts a = c theta q / sqrt(k) of the default finite-N family up to
    # c = 0.95 and theta q = 8 (the first T of the theta scan), budgets
    # beta in [0.05, 1].  At the default width R = N^0.2 the grid holds rows
    # on which Newton steps alternate between two bracket ends that barely
    # move (k = 32, a = 0.336, beta = 0.074); at R = 64 it holds
    # boundary-peaked rows whose variance m4 - m2^2 cancels to zero
    s, w = _grid_for(R)
    beta = np.linspace(0.05, 1.0, 41)
    for k in ks:
        for a in np.linspace(0.0, 0.95 * 8.0 / math.sqrt(k), 17)[1:]:
            H = np.repeat(k * SG.log_laplace(2.0 * a * s)[None], beta.size, axis=0)
            zeta, log_mass, m2 = solve_exponent_batch(H, s, w, beta)
            assert np.all(np.isfinite(zeta) & np.isfinite(log_mass))
            assert np.all(np.abs(m2 - beta) <= 1e-6), (k, a)


# --- identities ---------------------------------------------------------------


def test_scaling_identity():
    rng = np.random.default_rng(10)
    for _ in range(8):
        v = rng.uniform(-0.8, 0.8, size=2)
        R = rng.uniform(5.0, 9.0)
        alpha = rng.uniform(0.3, 1.4)
        lhs = gibbs_solve(GibbsProblem(v, SG, R, alpha)).value
        rhs = gibbs_solve(GibbsProblem(math.sqrt(alpha) * v, SG, R / math.sqrt(alpha), 1.0)).value
        rhs += 0.5 * (1.0 - alpha) + 0.5 * math.log(alpha)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_dilation_identity():
    rng = np.random.default_rng(11)
    for _ in range(6):
        v = rng.uniform(-0.7, 0.7, size=2)
        R = rng.uniform(5.0, 8.0)
        a = rng.uniform(0.5, 1.5)
        lhs = gibbs_solve(GibbsProblem(a * v, SG, R / a, 1.0)).value
        rhs = gibbs_solve(GibbsProblem(v, SG, R, a * a)).value
        rhs -= 0.5 * (1.0 - a * a) + math.log(a)
        assert lhs == pytest.approx(rhs, abs=1e-6)


# --- grid oracle ---------------------------------------------------------------


def test_grid_oracle_agreement():
    rng = np.random.default_rng(12)
    for i in range(6):
        dist = (GAUSS, SG, rademacher())[i % 3]
        prob = GibbsProblem(
            rng.uniform(-0.8, 0.8, size=rng.integers(1, 3)),
            dist,
            rng.uniform(3.0, 4.5),
            rng.uniform(0.4, 1.3),
        )
        gap = abs(gibbs_grid_oracle(prob, 41) - gibbs_solve(prob).value)
        assert gap < 5e-3


def test_grid_oracle_refinement_halves_gap():
    # instances with a strong tilt so discretization dominates the gap
    for v in ([0.7, 0.5], [0.9]):
        prob = GibbsProblem(v, SG, 4.0, 0.9)
        exact = gibbs_solve(prob).value
        g21 = abs(gibbs_grid_oracle(prob, 21) - exact)
        g41 = abs(gibbs_grid_oracle(prob, 41) - exact)
        assert g41 <= 0.7 * g21 + 2e-5


# --- Wasserstein ---------------------------------------------------------------


def test_w2_identical_solutions():
    sol = gibbs_solve(GibbsProblem([0.4], SG, 6.0, 1.0))
    assert wasserstein2(sol, sol) == pytest.approx(0.0, abs=1e-8)


def test_w2_gaussian_widths():
    a, b = 0.9, 0.6
    sa = gibbs_solve(GibbsProblem([0.0], GAUSS, 12.0, a * a))
    sb = gibbs_solve(GibbsProblem([0.0], GAUSS, 12.0, b * b))
    assert wasserstein2(sa, sb) == pytest.approx(a - b, abs=1e-3)


def test_w2_dilation_stability_bound():
    # symmetric tilt: distance between dilated optimizers obeys 2 sqrt(1 - a/b)
    rng = np.random.default_rng(13)
    base = np.array([0.5, -0.5])
    R = 8.0
    for _ in range(6):
        a = rng.uniform(0.5, 3.0)
        b = a + rng.uniform(0.05, 2.0)
        if b > R:
            continue
        sa = gibbs_solve(GibbsProblem(a * base, SG, R / a, 1.0))
        sb = gibbs_solve(GibbsProblem(b * base, SG, R / b, 1.0))
        assert wasserstein2(sa, sb) <= 2.0 * math.sqrt(1.0 - a / b) + 1e-3
