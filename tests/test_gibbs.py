import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import dawsn, erf

from wignerld import gibbs
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerld.entries import Gaussian, SparseGaussian, bernoulli_std, rademacher, sparse_rademacher
from wignerld.gibbs import (
    GibbsError,
    GibbsProblem,
    _grid_for,
    _weights,
    duality_gap,
    g_value,
    gibbs_solve,
    phi_unbounded,
    solve_exponent_batch,
    tilt_bound,
    values_from_batch,
    wasserstein2,
    whole_line_rows,
)
from wignerld.oracles import gibbs_grid_oracle, gibbs_quad_oracle
from wignerld.selfcheck import INVARIANTS, check, oracle_problems

GAUSS = Gaussian()
SG = SparseGaussian(0.5)
RESIDUAL = INVARIANTS["gibbs_scaling"].bounds["residual"]
QUAD_GAP = INVARIANTS["gibbs_quad_oracle"].bounds["gap"]


# --- g ----------------------------------------------------------------------


def test_g_trivial_gaussian_integral():
    # at R = 16 the Gaussian tail beyond R is below 1e-55 of the mass
    p = GibbsProblem([0.0], GAUSS, 16.0, 1.0)
    assert g_value(p, 0.5) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-10)
    assert g_value(p, 0.5, order=1) == pytest.approx(-1.0, abs=1e-10)


def test_g_matches_fine_trapezoid_oracle():
    p = GibbsProblem([0.5], GAUSS, 4.0, 1.0)
    s = np.linspace(-4.0, 4.0, 1_000_001)
    oracle = math.log(np.trapezoid(np.exp(-s * s + GAUSS.log_laplace(2 * 0.5 * s)), s))
    assert g_value(p, 1.0) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("zeta", [2e5, 1e3, -30.0, -300.0, -3000.0])
def test_g_resolves_narrow_weights_closed_form(zeta):
    # flat tilt: I0 = int_{-R}^{R} exp(-zeta s^2), a Gaussian of width
    # 1/sqrt(2 zeta) or, for zeta < 0, boundary layers of width 1/(2 |zeta| R)
    R = 4.0
    r = math.sqrt(abs(zeta))
    if zeta > 0:
        log_i0 = math.log(math.sqrt(math.pi) / r * erf(R * r))
    else:
        log_i0 = -zeta * R * R + math.log(2.0 * dawsn(R * r) / r)
    m2 = (2.0 * R * math.exp(-zeta * R * R - log_i0) - 1.0) / (-2.0 * zeta)
    p = GibbsProblem([0.0], GAUSS, R, 1.0)
    assert g_value(p, zeta) == pytest.approx(log_i0, rel=1e-12)
    assert -g_value(p, zeta, order=1) == pytest.approx(m2, rel=1e-10)


def _hamiltonian_by_term(dist, amp, vals, counts, s):
    # one log_laplace call per term that some row uses, the terms summed in order
    terms = [c[:, None] * dist.log_laplace(2.0 * v[:, None] * amp[:, None] * s)
             for v, c in zip(vals.T, counts.T) if c.any()]
    return sum(terms[1:], terms[0]) if terms else np.zeros((amp.size, s.size))


@pytest.mark.parametrize("dist", [SG, bernoulli_std(0.3), rademacher()], ids=repr)
@pytest.mark.parametrize("rows", [0, 1, 3, 64, 100])
def test_hamiltonian_is_the_termwise_sum(dist, rows):
    rng = np.random.default_rng(rows)
    s = _grid_for(6.0)[0]
    amp = rng.uniform(0.0, 3.0, rows)
    vals = rng.uniform(-1.0, 1.0, (rows, 4))
    counts = rng.integers(0, 4, (rows, 4)).astype(float)  # zeros pad a row's terms
    counts[:, 3] = 0.0  # a term no row uses
    H = gibbs._hamiltonian(dist, amp, vals, counts, s)
    assert H.tobytes() == _hamiltonian_by_term(dist, amp, vals, counts, s).tobytes()
    assert not gibbs._hamiltonian(dist, amp, vals, 0.0 * counts, s).any()


def test_g_divergent_integrand_rejected():
    # no whole-line problem is built, so no integrand can diverge: the
    # whole-line optimum is the limit of finite-R solves, phi_unbounded
    with pytest.raises(ValueError, match="finite R.*phi_unbounded"):
        GibbsProblem([1.0], SG, math.inf, 1.0)


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
        assert sol.root_residual() < RESIDUAL


def _criterion_4_problems(seed, n, dist=SG):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.uniform(-0.8, 0.8, size=rng.integers(1, 3))
        yield GibbsProblem(v, dist, rng.uniform(4.0, 9.0), rng.uniform(0.3, 1.4))


@pytest.mark.parametrize("dist", [SG, bernoulli_std(0.3)], ids=repr)
def test_solution_keeps_the_last_iterate(dist):
    # the residual and second moment come from the solve's last quadrature
    # at zeta*, the same bits as computing them again there
    for prob in _criterion_4_problems(16, 20, dist):
        sol = gibbs_solve(prob)
        assert sol.root_residual() == abs(g_value(prob, sol.zeta_star, 1) + prob.alpha)
        assert sol.moment(2) == sol.m2
    # a narrow weight's solve refines its grid, which moment reads again;
    # g_value resolves its own grid from [0, R], so it may differ there
    for prob in _narrow_problems(dist):
        sol = gibbs_solve(prob)
        assert sol.moment(2) == sol.m2, prob


@pytest.mark.parametrize("prob", [
    GibbsProblem([0.5], SG, 6.0, 1e-5),
    GibbsProblem([0.6, -0.3], bernoulli_std(0.3), 6.0, 0.9),
], ids=["narrow", "asymmetric"])
def test_accessors_read_the_solved_grid(prob, monkeypatch):
    # after the solve no accessor resolves a grid again
    sol = gibbs_solve(prob)

    def refuse(*args, **kwargs):
        raise AssertionError("an accessor resolved a grid again")

    monkeypatch.setattr(gibbs, "_resolved", refuse)
    assert sol.moment(0) == pytest.approx(1.0, abs=1e-12)
    assert sol.moment(2) == sol.m2
    for k in (1, 3):
        assert math.isfinite(sol.moment(k))
    q = sol.quantiles(np.array([0.1, 0.5, 0.9]))
    assert np.all(np.diff(q) > 0.0) and np.all(np.abs(q) <= prob.R)
    assert np.all(sol.density(q) > 0.0)


@pytest.mark.parametrize("dist", [SG, bernoulli_std(0.3)], ids=repr)
def test_solve_is_row_zero_of_the_batch(dist):
    # one quadrature rule: the scalar solve is the batch solve of its one row
    for prob in _criterion_4_problems(16, 20, dist):
        sol = gibbs_solve(prob)
        s, w = _grid_for(prob.R)
        H = gibbs._fold(dist, prob.h, s)[None]
        zeta, log_mass, m2, _ = solve_exponent_batch(H, s, w, prob.alpha, 1e-13 * min(1.0, prob.alpha))
        assert sol.zeta_star == zeta[0]
        assert sol.value == values_from_batch(log_mass, zeta, prob.alpha)[0]
        assert sol.m2 == m2[0]


def test_odd_moments_symmetric_law_vanish():
    for prob in _criterion_4_problems(17, 6):
        sol = gibbs_solve(prob)
        assert abs(sol.moment(1)) < 1e-12 and abs(sol.moment(3)) < 1e-12


def test_odd_moments_match_fine_trapezoid():
    law = bernoulli_std(0.3)
    for prob in _criterion_4_problems(18, 4, law):
        sol = gibbs_solve(prob)
        s = np.linspace(-prob.R, prob.R, 1_000_001)
        phi = prob.h(s) - sol.zeta_star * s * s
        dens = np.exp(phi - phi.max())
        mass = np.trapezoid(dens, s)
        for k in (1, 3):
            assert sol.moment(k) == pytest.approx(np.trapezoid(s**k * dens, s) / mass, abs=1e-9)


def test_quantiles_of_an_asymmetric_law_match_fine_trapezoid():
    # the folded grid mirrored to [-R, R], with h at +-s, against the
    # trapezoid CDF of the density on 2,000,001 nodes (5.4e-6 apart)
    sol = gibbs_solve(GibbsProblem([0.6, -0.3], bernoulli_std(0.3), 6.0, 0.9))
    s = np.linspace(-6.0, 6.0, 2_000_001)
    dens = sol.density(s)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(s))])
    q = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(sol.quantiles(q), np.interp(q, cdf / cdf[-1], s), rtol=0, atol=1e-5)


@pytest.mark.parametrize("R", [4.0, 16.0])
def test_quantiles_on_a_flat_cdf_stretch_take_its_midpoint(R):
    # near R^2 the mass sits in boundary layers at -R and R, and the density
    # underflows to 0 between them; by symmetry the median is 0
    sol = gibbs_solve(GibbsProblem([0.5], SG, R, R * R * (1.0 - 1e-3)))
    x = sol.quantiles(np.array([0.1, 0.25, 0.5, 0.75, 0.9]))
    assert x[2] == 0.0
    assert np.all(np.abs(x[[0, 1, 3, 4]]) > 0.98 * R)
    np.testing.assert_allclose(x[::-1], -x, rtol=0, atol=1e-12)


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


def _narrow_problems(dist):
    # weights narrower than the spacing of _grid_for: small alpha, and
    # alpha near R^2, where the optimizer has a boundary layer of width
    # about R (1 - alpha/R^2) / 2 (at both ends of [-R, R] for an
    # asymmetric law, folded onto one end of [0, R])
    for v, R, alpha in (([0.5], 6.0, 1e-5), ([0.3, -0.6], 6.0, 1e-4), ([0.5], 16.0, 1e-4)):
        yield GibbsProblem(v, dist, R, alpha)
    for R, eps in ((4.0, 1e-3), (6.0, 1e-2), (16.0, 1e-3)):
        yield GibbsProblem([0.5], dist, R, R * R * (1.0 - eps))


@pytest.mark.parametrize("dist", [SG, GAUSS, bernoulli_std(0.3)], ids=repr)
def test_solve_matches_quadrature_oracle(dist):
    # values and multipliers against Gauss-Legendre panels and Brent, over
    # the criterion-4 ranges and narrow weights
    for prob in [*_criterion_4_problems(19, 4, dist), *_narrow_problems(dist)]:
        sol = gibbs_solve(prob)
        zeta, value = gibbs_quad_oracle(prob)
        assert abs(sol.value - value) < QUAD_GAP, prob
        assert sol.zeta_star == pytest.approx(zeta, rel=2e-8, abs=1e-9), prob
        assert sol.moment(2) == pytest.approx(prob.alpha, rel=1e-11)


@pytest.mark.parametrize("dist", [SG, bernoulli_std(0.3)], ids=repr)
@pytest.mark.parametrize("alpha", [1e-5, 1e-4])
def test_solve_small_alpha_multiplier_is_relative(dist, alpha):
    # the stop |alpha - m2| <= 1e-13 alpha fixes zeta* ~ 1/(2 alpha) to
    # relative precision; a stop absolute in alpha leaves it loose by up to
    # 1e-13 / (2 alpha^2), about 6e-9 relative at alpha = 1e-5
    prob = GibbsProblem([0.5], dist, 6.0, alpha)
    assert gibbs_solve(prob).zeta_star == pytest.approx(gibbs_quad_oracle(prob)[0], rel=1e-12)


def test_solve_refuses_unresolved_boundary_layers(monkeypatch):
    # an asymmetric law near R^2 has layers at both ends of [-R, R]; folded
    # onto [0, R] they are one layer, which the refined grids resolve
    check("gibbs_quad_oracle", R=4.0)
    prob = GibbsProblem([0.5], bernoulli_std(0.3), 4.0, 16.0 * (1.0 - 1e-3))
    zeta = gibbs_quad_oracle(prob)[0]
    assert gibbs_solve(prob).zeta_star == pytest.approx(zeta, rel=2e-8, abs=1e-9)
    # with a single grid allowed the layer stays unresolved, and the solve says so
    monkeypatch.setattr(gibbs, "_MAX_GRIDS", 1)
    with pytest.raises(GibbsError, match=r"cannot resolve .*alpha=15\.984, R=4\)"):
        gibbs_solve(prob)


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
    assert sol.root_residual() < RESIDUAL


def test_phi_unbounded_gaussian_entropy_closed_form():
    assert phi_unbounded(GAUSS, [0.0], 1.0) == pytest.approx(0.0, abs=1e-8)
    expected = 0.5 * 0.5 + 0.5 * math.log(0.5)
    assert phi_unbounded(GAUSS, [0.0], 0.5) == pytest.approx(expected, abs=1e-6)
    expected7 = 0.5 * 0.3 + 0.5 * math.log(0.7)
    assert phi_unbounded(GAUSS, [0.0], 0.7) == pytest.approx(expected7, abs=1e-6)


def test_whole_line_rows_failure_names_R_and_row():
    # stub rows with kappa = 4 psi_max |v|^2 = 2 on the Gaussian: a margin g =
    # 1 certifies a row at R = 48 (alpha = 9), g = 1e-4 leaves a finite gap
    # above 1e-8, g = -2 an infinite one; the first open row is named
    radii = []

    def rows(zeta):
        def solve_at(R):
            radii.append(R)
            return np.zeros(3), np.array(zeta), np.zeros(3)
        return solve_at

    with pytest.raises(GibbsError, match=r"not certified at R=48: row 1 has margin zeta - kappa "
                                         r"= 0\.0001 and duality gap 5\.11$"):
        whole_line_rows(rows([3.0, 2.0001, 0.0]), GAUSS, np.ones(3), np.ones(3), 9.0,
                        lambda k: f"row {k}")
    with pytest.raises(GibbsError, match=r"R=32: row 2 has margin zeta - kappa = -2 and duality "
                                         r"gap inf"):
        whole_line_rows(rows([3.0, 3.0, 0.0]), GAUSS, np.ones(3), np.ones(3), 1.0,
                        lambda k: f"row {k}")
    assert radii == [48.0, 32.0]


def test_phi_unbounded_failure_names_v_and_alpha(monkeypatch):
    # zeta = 0 lies below kappa = 4 psi_max |v|^2, so the duality gap is infinite
    def rising(problem):
        return gibbs.GibbsSolution(problem, 0.0, problem.R, 0.0, problem.alpha, 1, (0.0, problem.R, 9))

    monkeypatch.setattr(gibbs, "gibbs_solve", rising)
    with pytest.raises(GibbsError, match=r"R=32: phi_unbounded at v=\[0\.3\], alpha=0\.8 has margin"):
        phi_unbounded(SG, [0.3], 0.8)


@pytest.fixture
def solve_radii(monkeypatch):
    """The R of every ``gibbs_solve`` call made through the module, in order."""
    radii = []

    def spy(problem):
        radii.append(problem.R)
        return gibbs_solve(problem)

    monkeypatch.setattr(gibbs, "gibbs_solve", spy)
    return radii


@pytest.mark.parametrize("dist, v, alpha", [
    (SG, [0.3], 0.8), (SG, [0.4, -0.2], 0.5), (SG, [2.5], 0.2), (GAUSS, [0.0], 0.7),
    (GAUSS, [1.2], 0.3), (SparseGaussian(0.1), [0.5], 0.9), (bernoulli_std(0.3), [0.5, 0.2], 1.2),
    (rademacher(), [1.5], 0.8),
    *((dist, v, alpha) for dist, v in ((SG, [0.3]), (rademacher(), [0.5]))
      for alpha in (50.0, 300.0, 2000.0)),
], ids=repr)
def test_phi_unbounded_is_one_solve_certified_by_duality(dist, v, alpha, solve_radii):
    # one solve at R = max(32, 16 sqrt(alpha)), so alpha <= R^2 / 256; a
    # bounded law's h grows linearly, so rademacher's rows are certified by
    # the tail form of kappa, 2 M |v|_1 / R
    R = max(32.0, 16.0 * math.sqrt(alpha))
    value = phi_unbounded(dist, v, alpha)
    assert solve_radii == [R]
    sol = gibbs_solve(GibbsProblem(v, dist, R, alpha))
    assert value == sol.value
    kappa = tilt_bound(dist, np.dot(v, v), np.sum(np.abs(v)), R)
    assert duality_gap(R, [sol.zeta_star], [sol.log_norm], kappa)[0] <= 1e-8
    assert abs(value - gibbs_solve(GibbsProblem(v, dist, 2.0 * R, alpha)).value) <= 1e-12


def test_phi_unbounded_refuses_a_row_no_radius_certifies(solve_radii):
    # h(s)/s^2 tends to kappa = 4 psi_max |v|^2 = 1 on this law, and zeta_32 =
    # 0.998 lies below it: no R certifies the row
    with pytest.raises(GibbsError, match=r"R=32: phi_unbounded at v=\[0\.1, 0\.1, 0\.1, 0\.1, "
                                         r"0\.1\], alpha=1\.0 has margin zeta - kappa = -0\.00189"):
        phi_unbounded(SparseGaussian(0.1), [0.1] * 5, 1.0)
    assert solve_radii == [32.0]


KAPPA_LAWS = (GAUSS, SG, SparseGaussian(0.1), rademacher(), bernoulli_std(0.3),
              sparse_rademacher(0.2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KAPPA_LAWS),
       st.lists(st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6), min_size=1,
                max_size=3),
       st.floats(0.5, 64.0), st.lists(st.floats(1.0, 8.0), min_size=1, max_size=8))
def test_tilt_bound_holds_beyond_R(dist, v, R, stretch):
    # duality_gap needs h(s) <= kappa s^2 only for |s| >= R; both forms of
    # kappa, 4 psi_max |v|^2 and (bounded laws) 2 M |v|_1 / R, bound h there
    # (tilts below 1e-6 would only probe underflow: |v|^2 rounds to 0
    # first); L(t) itself rounds by up to about 1e-16 |t| near t = 0, where
    # an atom law's sum of expm1 terms cancels
    s = R * np.array(stretch + [-x for x in stretch])
    h = GibbsProblem(v, dist, R, 1e-3).h(s) - 1e-15 * 2.0 * np.abs(s) * np.sum(np.abs(v))
    quad = 4.0 * dist.psi_extremes().psi_max * float(np.dot(v, v))
    assert np.all(h <= quad * s * s * (1.0 + 1e-12))
    kappa = tilt_bound(dist, np.dot(v, v), np.sum(np.abs(v)), R)
    assert kappa <= quad
    if dist.support_radius < math.inf:
        tail = 2.0 * dist.support_radius * float(np.sum(np.abs(v))) / R
        assert kappa == min(quad, tail)
        assert np.all(h <= tail * s * s * (1.0 + 1e-12))


@pytest.mark.parametrize("dist", KAPPA_LAWS, ids=repr)
def test_tilt_bound_is_finite_at_zero_tilt(dist):
    # M = inf on an unbounded law must not meet |v|_1 = 0 as inf * 0
    assert tilt_bound(dist, np.zeros(2), np.zeros(2), 32.0).tolist() == [0.0, 0.0]
    assert tilt_bound(dist, 0.0, 0.0, 32.0) == 0.0


def test_whole_line_gap_invariant_on_more_table_rows():
    check("whole_line_gap", laws=(GAUSS, SG, SparseGaussian(0.25), SparseGaussian(0.75)),
          us=np.linspace(0.0, 6.0, 13))


def test_duality_gap_is_infinite_without_a_positive_margin():
    gap = duality_gap(32.0, np.array([1.0, 2.0, 3.0, 2.5]), np.zeros(4), np.array([2.0, 2.0, 2.0, 0.0]))
    assert np.isinf(gap[:2]).all() and np.isfinite(gap[2:]).all()
    # g = 1, R = 32, log mass 0: log1p(exp(-1024 - log 32)) underflows to 0
    assert gap[2] == 0.0 and 0.0 < duality_gap(2.0, [1.5], [0.0], 1.0)[0] < 1.0


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
    zeta, log_mass, m2, _ = solve_exponent_batch(GAUSS.log_laplace(2.0 * v[:, None] * s), s, w, alpha)
    np.testing.assert_allclose(zeta, 2.0 * v**2 + 0.5 / alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(log_mass, 0.5 * np.log(2.0 * math.pi * alpha), rtol=0, atol=1e-9)
    np.testing.assert_allclose(m2, alpha, rtol=0, atol=1e-9)


def test_batch_weights_are_the_stopping_evaluation():
    # each row's (E, m) is _weights at its returned zeta, bit for bit, and
    # asking for them leaves the solve unchanged
    s, w = _grid_for(16.0)
    u = np.array([0.0, 0.5, 2.0, 5.0])
    alpha = np.array([1.0, 0.3, 1.0, 0.6])
    H = SG.log_laplace(2.0 * u[:, None] * s)
    *solved, (E, m) = solve_exponent_batch(H, s, w, alpha, weights=True)
    for a, b in zip(solved, solve_exponent_batch(H, s, w, alpha)):
        assert np.array_equal(a, b)
    for i in range(u.size):
        Ei, mi = _weights(H[i:i + 1], s * s, solved[0][i:i + 1])
        assert np.array_equal(E[i], Ei[0]) and mi[0] == m[i]


def test_batch_moment_matched_across_multiplier_range():
    # one batch from a negative multiplier (alpha above the uniform law's
    # R^2/3) to multipliers past 100 (strong tilts)
    s, w = _grid_for(16.0)
    u = np.array([0.0, 0.0, 0.5, 2.0, 5.0, 8.0])
    alpha = np.array([150.0, 1.0, 0.3, 1.0, 0.6, 1.0])
    zeta, _, m2, _ = solve_exponent_batch(SG.log_laplace(2.0 * u[:, None] * s), s, w, alpha)
    assert zeta.min() < 0.0 and zeta.max() > 100.0
    assert np.all(np.abs(alpha - m2) <= 1e-11 * np.maximum(1.0, alpha))


def test_batch_failures_raise():
    s, w = _grid_for(16.0)
    H = np.zeros((2, s.size))
    # alpha > R^2 drives the multiplier down past the limit (28 passes per grid)
    with pytest.raises(GibbsError, match="bracket"):
        solve_exponent_batch(H, s, w, np.array([1.0, 16.0**2 * 1.01]))
    H[1, 100] = np.nan
    with pytest.raises(GibbsError):
        solve_exponent_batch(H, s, w, 1.0)


@pytest.mark.parametrize("R", [15.85, 16.008, 16.016, 16.392, 20.008, 32.0, 64.0, 200.0])
def test_half_grid_is_the_folded_full_rule(R):
    # for an even integrand the rule on [0, R] with doubled weights is the
    # full Simpson rule whose middle node is 0
    s, w = _grid_for(R)
    assert (s.size - 1) % 8 == 0 and 2049 <= s.size <= 8193
    assert s[0] == 0.0 and s[-1] == R
    step = R / (s.size - 1)
    assert (w * s**2).sum() == pytest.approx(2 * R**3 / 3, rel=1e-14)
    # Simpson's error for s^4 is (b - a) step^4 f^(4) / 180 with f^(4) = 24
    assert (w * s**4).sum() == pytest.approx(2 * R**5 / 5 + 2 * R * step**4 * 24 / 180, rel=1e-13)


@pytest.mark.parametrize("a, b, n", [(0.0, 15.85, 2049), (0.0, 32.0, 4001), (0.0, 64.0, 8001),
                                     (0.0, 20.008, 2505), (1.3, 7.7, 1025)])
def test_sub_grid_is_the_simpson_grid_of_its_nodes(a, b, n):
    # the ladder's rungs and the resolution check weigh every stride-th node
    # as a Simpson grid built on those nodes would, bit for bit
    s, w = gibbs._simpson_grid(a, b, n)
    for stride in (2, 4):
        if (n - 1) % (2 * stride):
            continue
        c, wc = gibbs._sub_grid(s, w, stride)
        ref = gibbs._simpson_grid(a, b, (n - 1) // stride + 1)
        assert np.array_equal(c, ref[0]) and np.array_equal(wc, ref[1])


def test_half_grid_takes_the_coarse_warm_start(monkeypatch):
    sizes = []
    solve = gibbs.solve_exponent_batch

    def spy(H, s, *args, **kwargs):
        sizes.append(s.size)
        return solve(H, s, *args, **kwargs)

    monkeypatch.setattr(gibbs, "solve_exponent_batch", spy)
    s, w = _grid_for((10**6) ** 0.2)
    for dist in (SG, bernoulli_std(0.3)):
        H = gibbs._fold(dist, lambda x: dist.log_laplace(2.0 * np.array([[0.5], [2.0]]) * x), s)
        gibbs.solve_exponent_batch(H, s, w, 1.0)
    assert sizes == [s.size, (s.size - 1) // 4 + 1] * 2


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
            zeta, log_mass, m2, _ = solve_exponent_batch(H, s, w, beta)
            assert np.all(np.isfinite(zeta) & np.isfinite(log_mass))
            assert np.all(np.abs(m2 - beta) <= 1e-6), (k, a)


# --- identities ---------------------------------------------------------------


def test_scaling_identity():
    check("gibbs_scaling", rng=np.random.default_rng(10), draws=8)


def test_dilation_identity():
    check("gibbs_dilation", rng=np.random.default_rng(11), draws=6)


# --- grid oracle ---------------------------------------------------------------


def test_grid_oracle_agreement():
    check("gibbs_grid_oracle", problems=oracle_problems(np.random.default_rng(12), 6))


def test_grid_oracle_converges_on_rademacher_draws():
    # each draw holds a Rademacher law with a two-coordinate tilt on which a
    # projected-gradient ascent stalled 5.8e-3 (seed 0) and 6.4e-3 (seed 1)
    # below the optimum
    for seed in (0, 1):
        check("gibbs_grid_oracle", problems=oracle_problems(np.random.default_rng(seed), 4))


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
    # distance between dilated optimizers obeys 2 sqrt(1 - a/b)
    check("gibbs_w2", rng=np.random.default_rng(13), draws=6)
