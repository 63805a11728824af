import math

import numpy as np
import pytest

from wignerld import free_energy as fe
from wignerld.entries import Gaussian, SparseGaussian, sparse_rademacher
from wignerld.gibbs import GibbsProblem
from wignerld.oracles import gibbs_quad_oracle
from wignerld.selfcheck import INVARIANTS, check

GAUSS = Gaussian()
SG = SparseGaussian(0.5)

# slope bound in theta^2, fitted once on random instances (worst observed 1.75)
THETA_SQ_LIPSCHITZ = 5.0


# --- localized sum -----------------------------------------------------------


def test_f_loc_zero_profile():
    assert fe.f_loc(GAUSS, 1.0, np.zeros(5), 100) == 0.0


def test_f_loc_single_diagonal_term():
    w = np.zeros(4)
    w[0] = math.sqrt(0.5)
    # (1/N) * L(sqrt(2) * theta * sqrt(N) * w1^2) for the Gaussian transform
    assert fe.f_loc(GAUSS, 1.0, w, 100) == pytest.approx(0.25, abs=1e-12)


def test_f_loc_permutation_invariant():
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.4, 0.4, size=5)
    base = fe.f_loc(SG, 1.3, w, 500)
    for _ in range(3):
        assert fe.f_loc(SG, 1.3, rng.permutation(w), 500) == pytest.approx(base, abs=1e-14)


def test_f_loc_vectorized_theta():
    w = np.array([0.3, -0.2])
    ths = np.array([0.5, 1.0, 2.0])
    vals = fe.f_loc(SG, ths, w, 1000)
    for th, v in zip(ths, vals):
        assert v == pytest.approx(fe.f_loc(SG, float(th), w, 1000), abs=1e-14)


def test_loc_rows_match_their_one_row_value_at_one_theta():
    # rows of up to 12 distinct entries carry up to 12 + 12 + 66 terms; summed
    # in term order, the zero padding of a batch leaves each row's bits alone
    rng = np.random.default_rng(3)
    profiles = [fe._consolidate(np.round(rng.uniform(-0.3, 0.3, size=rng.integers(1, 13)), 3))
                for _ in range(120)]
    T = max(v.size for v, _ in profiles)
    vals, counts = np.zeros((2, len(profiles), T))
    for i, (v, c) in enumerate(profiles):
        vals[i, :v.size], counts[i, :c.size] = v, c
    for P in (1, 16):
        theta = rng.uniform(0.2, 3.0, size=(len(profiles), P))
        batch = fe.loc_rows(SG, theta, vals, counts, 1000)
        for i, (v, c) in enumerate(profiles):
            assert np.array_equal(fe.loc_rows(SG, theta[i:i + 1], v[None], c[None], 1000)[0], batch[i])


# --- restricted form ----------------------------------------------------------


def test_restricted_zero_profile_near_theta_squared():
    val = fe.f_restricted(SG, 1.0, np.zeros(3), 100, 8.0)
    assert val == pytest.approx(1.0, abs=1e-4)
    assert val <= 1.0 + 1e-12


def test_restricted_unit_norm_degenerates_to_localized_sum():
    w = np.array([0.6, 0.8])
    assert fe.f_restricted(SG, 1.2, w, 400, 8.0) == fe.f_loc(SG, 1.2, w, 400)


def test_restricted_norm_clamp_near_one():
    w = np.array([1.0 - 1e-10])
    assert fe.f_restricted(SG, 1.0, w, 400, 8.0) == fe.f_loc(SG, 1.0, w, 400)


def test_restricted_delocalized_profile_near_theta_squared():
    # mass 0.02 spread over 1000 coordinates of size ~N^{-1/4} at N = 10^6
    N, k, mass = 10**6, 1000, 0.02
    w = np.full(k, math.sqrt(mass / k))
    assert abs(w.max()) < 2.0 * N**-0.25
    val = fe.f_restricted(GAUSS, 1.0, w, N, 32.0)
    assert val == pytest.approx(1.0, abs=0.02)


def test_restricted_monotone_in_R():
    check("monotone_in_r", rng=np.random.default_rng(1), draws=5,
                      radii=(4.0, 8.0, 16.0))


def test_restricted_theta_continuity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.uniform(-0.5, 0.5, size=2)
        t1, t2 = rng.uniform(0.05, 2.5, size=2)
        d = abs(fe.f_restricted(SG, t1, w, 1000, 8.0) - fe.f_restricted(SG, t2, w, 1000, 8.0))
        assert d <= THETA_SQ_LIPSCHITZ * abs(t1 * t1 - t2 * t2) + 1e-9


def test_restricted_domination_by_single_coordinate():
    # for symmetric nondecreasing-psi laws, concentrating the mass on one
    # coordinate can only increase the value
    rng = np.random.default_rng(3)
    for _ in range(6):
        w = rng.uniform(-0.5, 0.5, size=3)
        theta = rng.uniform(0.3, 1.8)
        spread = fe.f_restricted(SG, theta, w, 10**4, 8.0)
        single = fe.f_restricted(SG, theta, [np.linalg.norm(w)], 10**4, 8.0)
        assert spread <= single + 1e-9


def test_restricted_profile_norm_validation():
    with pytest.raises(ValueError, match="unit ball"):
        fe.f_restricted(SG, 1.0, [0.8, 0.8], 100, 8.0)


# --- single-coordinate reduction ------------------------------------------------


def test_hat_alpha_zero():
    assert fe.f_hat(SG, 1.3, 0.0) == pytest.approx(1.69, abs=1e-8)


def test_hat_domain():
    with pytest.raises(ValueError):
        fe.f_hat(SG, 1.0, 1.0)
    with pytest.raises(ValueError):
        fe.f_hat(SG, 1.0, -0.1)


def test_hat_gaussian_closed_form():
    # Gaussian transform: value is theta^2 + (1/2) log(1 - alpha)
    for theta, alpha in ((1.0, 0.5), (1.5, 0.3)):
        expected = theta**2 + 0.5 * math.log(1.0 - alpha)
        assert fe.f_hat(GAUSS, theta, alpha) == pytest.approx(expected, abs=1e-6)


def test_hat_small_mass_upper_bound():
    # sharp case: localizing a small mass must cost at least a quarter of it
    for alpha in (0.02, 0.05, 0.1):
        for theta in (0.5, 1.0):
            assert fe.f_hat(GAUSS, theta, alpha) <= theta**2 - alpha / 4.0


@pytest.mark.parametrize("theta, alpha", [(0.5, 0.3), (2.0, 0.9), (1.5, 0.999), (2.5, 0.99999)])
def test_hat_matches_quadrature_oracle(theta, alpha):
    # the whole-line Gibbs term at budgets 1 - alpha down to 1e-5, against
    # Gauss-Legendre panels on [-8, 8], where every weight here is below
    # exp(-40) of its peak at the ends
    beta = 1.0 - alpha
    _, phi = gibbs_quad_oracle(GibbsProblem([theta * math.sqrt(alpha)], SG, 8.0, beta))
    psi_inf = SG.psi_extremes().psi_infty
    expected = theta**2 * (beta**2 + 2.0 * psi_inf * alpha**2) + phi - 0.5 * alpha
    assert fe.f_hat(SG, theta, alpha) == pytest.approx(expected, abs=1e-10)


def test_hat_matches_restricted_at_large_N():
    theta, alpha = 1.0, 0.5
    w = np.array([math.sqrt(alpha)])
    N = 10**8
    approx = fe.f_restricted(GAUSS, theta, w, N, N**0.2)
    limit_gap = INVARIANTS["monotone_in_n"].bounds["limit_gap"]
    assert abs(fe.f_hat(GAUSS, theta, alpha) - approx) < limit_gap


# --- two-scale reduction ----------------------------------------------------------


def test_tilde_beta_one_reduces_to_restricted():
    for theta in (0.7, 1.3):
        a = fe.f_tilde(SG, theta, np.zeros(2), 0.0, 8.0)
        b = fe.f_restricted(SG, theta, np.zeros(2), 100, 8.0)
        assert a == pytest.approx(b, abs=1e-9)


def test_tilde_scale_t_is_lower_bound():
    check("scale_t_lower_bound", rng=np.random.default_rng(4), draws=100)


def test_tilde_attains_sup_at_interior_maximizer():
    # for a law whose psi peaks at an interior t*, pricing the moderate mass
    # at t* recovers the sup-psi form
    dist = sparse_rademacher(0.25)
    ext = dist.psi_extremes()
    ts = np.linspace(0.0, 32.0, 20001)
    t_star = ts[int(np.argmax(dist.psi(ts)))]
    assert dist.psi(t_star) == pytest.approx(ext.psi_max, abs=1e-7)
    a = fe.f_tilde(dist, 1.2, [0.4], 0.3, 8.0)
    b = fe.f_tilde(dist, 1.2, [0.4], 0.3, 8.0, t=float(t_star))
    assert b == pytest.approx(a, abs=1e-7)


def test_tilde_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        fe.f_tilde(SG, 1.0, [0.8], 0.5, 8.0)
    with pytest.raises(ValueError, match="positive"):
        fe.f_tilde(SG, 1.0, [0.6], 1.0 - 0.36, 8.0)
