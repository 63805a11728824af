import contextlib
import itertools
import math
import os
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerld import free_energy, montecarlo, rate, semicircle
from wignerld.entries import (
    Gaussian,
    SparseGaussian,
    bernoulli_std,
    rademacher,
    sparse_rademacher,
    standardize_atoms,
)
from wignerld.gibbs import (
    GibbsError,
    _grid_for,
    _simpson_weights,
    duality_gap,
    tilt_bound,
    values_from_batch,
)
from wignerld.selfcheck import INVARIANTS, InvariantError, check

GAUSS = Gaussian()
SG = SparseGaussian(0.5)

# slope of the hat objective in alpha, fitted once (worst observed 1.47)
ALPHA_LIPSCHITZ = 4.0


# --- inner supremum ------------------------------------------------------------


def test_sup_theta_goe_identity():
    for x, expected_theta in ((2.5, 1.0), (3.0, (3.0 + math.sqrt(5.0)) / 4.0)):
        theta_star, value = rate.sup_theta(x, lambda t: t * t)
        assert value == pytest.approx(semicircle.goe_rate(x), abs=1e-9)
        assert theta_star == pytest.approx(expected_theta, abs=1e-8)


def test_sup_theta_at_edge():
    _, value = rate.sup_theta(2.0, lambda t: t * t)
    assert abs(value) < 1e-9


def test_sup_theta_unbounded_objective():
    with pytest.raises(rate.RateError, match="unbounded"):
        rate.sup_theta(3.0, lambda t: np.zeros_like(t))


class RowPenalty:
    """A theta_scan penalty ``fn(theta, rows, q)`` with the hat evaluator's
    64-point scan, naming a row by ``label`` or like a hat row."""

    scan_points = 64

    def __init__(self, fn, label=None):
        self.fn = fn
        self.label = label or (lambda row: f"x={row[0]}, alpha={row[1]}")

    def __call__(self, theta, rows, q):
        return self.fn(theta, rows, q)


def test_sup_theta_rows_quadratic_penalties():
    # J(x, theta) - c theta^2 peaks at theta* = (x + sqrt(x^2 - 4c)) / (4c); the
    # c = 0.02 row (theta* ~ 75) must double T from 8 to 128, the others stop at 8
    x = 3.0
    c = np.array([0.5, 1.0, 2.0, 0.02])
    scans = []

    def pen(theta, rows, q):
        if theta.shape[1] == RowPenalty.scan_points:  # a scan, not a refinement's stencil
            scans.append((rows[:, 1].copy(), theta[:, -1].copy()))
        return rows[:, 1:] * theta**2

    theta_star, value = rate.sup_theta_rows(RowPenalty(pen), np.column_stack((np.full(4, x), c)))
    exact = (x + np.sqrt(x * x - 4.0 * c)) / (4.0 * c)
    for k in range(c.size):
        # comparisons of values pin a flat maximum's argmax only to ~1e-8
        # relative, the width of its rounding plateau; the refinement's
        # Newton steps on central differences get inside it
        assert theta_star[k] == pytest.approx(exact[k], rel=1e-8, abs=1e-8)
        top = semicircle.j_value(x, exact[k]) - c[k] * exact[k] ** 2
        assert value[k] == pytest.approx(top, abs=1e-8)
        assert (theta_star[k], value[k]) == rate.sup_theta(x, lambda t: c[k] * t**2)
    assert np.array_equal(scans[0][1], np.full(4, 8.0))
    assert all(list(rows) == [0.02] for rows, _ in scans[1:])
    assert [float(ends[0]) for _, ends in scans[1:]] == [16.0, 32.0, 64.0, 128.0]


def test_sup_theta_rows_unbounded_row():
    with pytest.raises(rate.RateError, match=r"unbounded.*x=3\.0, alpha=0\.0"):
        rate.sup_theta_rows(RowPenalty(lambda t, r, q: r[:, 1:] * t**2),
                            np.array([[3.0, 1.0], [3.0, 0.0]]))


def test_sup_theta_rows_non_finite_row_named():
    def pen(theta, rows, q):
        return np.where(rows[:, 1:] == 0.25, np.nan, theta**2)

    with pytest.raises(rate.RateError, match=r"non-finite.*x=3\.0, alpha=0\.25"):
        rate.sup_theta_rows(RowPenalty(pen), np.array([[3.0, 0.0], [3.0, 0.25], [3.0, 0.5]]))


def test_sup_theta_rows_multi_x_nan_row_named():
    ev = rate._hat_evaluator(SG)
    rows = np.array([[2.5, 0.25], [3.0, 0.0], [3.0, 0.25], [3.5, 0.25]])

    def pen(theta, r, q):
        poisoned = (r[:, :1] == 3.0) & (r[:, 1:] == 0.25)
        return np.where(poisoned, np.nan, ev(theta, r, q))

    with pytest.raises(rate.RateError, match=r"non-finite.*x=3\.0, alpha=0\.25"):
        rate.sup_theta_rows(RowPenalty(pen, ev.label), rows)


# --- joint rate -------------------------------------------------------------------


def test_joint_rate_hat_zero_mass():
    for x in (2.3, 3.0, 4.0):
        value, _ = rate.joint_rate(SG, x, rate.HatSpec(0.0))
        assert value == pytest.approx(semicircle.goe_rate(x), abs=1e-6)


def test_joint_rate_hat_monotone_in_alpha_for_sharp_law():
    values = [rate.joint_rate(GAUSS, 3.0, rate.HatSpec(a))[0] for a in np.linspace(0.0, 0.6, 13)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_hat_slope_at_zero_is_half_q_squared():
    # the premise of hat mode taking a grid minimum at alpha = 0 without a search
    check("hat_slope_at_zero")


def test_theta_star_is_stationary():
    # the refined theta* of the pinned hat, finite-N and two-scale points
    check("theta_star_stationary")


def test_theta_star_stationary_catches_an_unrefined_theta(monkeypatch):
    # a theta* left at its scan point is far from stationary
    monkeypatch.setattr(rate, "stencil_max_rows",
                        lambda f, cells, values: (cells[:, 1], values[:, 1]))
    with pytest.raises(InvariantError, match="inner sup is stationary at theta"):
        check("theta_star_stationary", points=((SG, (3.0,), rate.HatMode()),))


def test_hat_fast_path_matches_direct_free_energy():
    check("hat_fast_path", rng=np.random.default_rng(5), draws=10)


@pytest.mark.parametrize("alpha", [0.99, 0.999, 0.99999])
def test_hat_fast_path_matches_direct_free_energy_near_unit_mass(alpha):
    # hat_fast_path draws alpha <= 0.9; near 1 the spline reads phi1 at a
    # small u while the direct route solves its own unit-budget problem
    ev = rate._hat_evaluator(SG)
    bound = INVARIANTS["hat_fast_path"].bounds["error"]
    for theta in (0.2, 1.0, 2.0, 3.0):
        assert abs(float(ev.f_hat(theta, alpha)) - free_energy.f_hat(SG, theta, alpha)) <= bound


def test_hat_objective_alpha_continuity():
    def jhat(x, a):
        return rate.joint_rate(SG, x, rate.HatSpec(a))[0]

    rng = np.random.default_rng(6)
    for x in (2.4, 3.0):
        for _ in range(5):
            a, b = rng.uniform(0.0, 0.9, size=2)
            assert abs(jhat(x, a) - jhat(x, b)) <= ALPHA_LIPSCHITZ * abs(a - b) + 1e-9


def test_hat_evaluator_cache_is_bounded():
    laws = [SparseGaussian(p) for p in np.linspace(0.3, 0.9, rate._HAT_CACHE_SIZE + 3)]
    saved = dict(rate._HAT_CACHE)
    try:
        for d in laws:
            rate._hat_evaluator(d)
        assert len(rate._HAT_CACHE) == rate._HAT_CACHE_SIZE
        last = rate._hat_evaluator(laws[-1])
        assert rate._hat_evaluator(laws[-1]) is last
        assert laws[0].key() not in rate._HAT_CACHE
    finally:
        rate._HAT_CACHE.clear()
        rate._HAT_CACHE.update(saved)


def _one_block_ladder(dist, us, R):
    """Phi1 table rows solved by the ladder with every rung in one block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rate, "_GIBBS_BLOCK_ELEMS", 2**62)
        return rate._Phi1Table(dist)._solves_at(us, R)[0]


def test_phi1_table_blocks_match_one_batch(monkeypatch):
    us = np.linspace(0.0, 6.0, 150)
    whole = _one_block_ladder(SG, us, 32.0)
    sizes = []
    solve = rate.solve_exponent_batch

    def spy(H, *args, **kwargs):
        sizes.append(H.shape[0])
        return solve(H, *args, **kwargs)

    monkeypatch.setattr(rate, "solve_exponent_batch", spy)
    blocks = rate._Phi1Table(SG)._solves_at(us, 32.0)[0]
    # near-equal blocks of 2^15 elements or fewer on the checked rungs, 150 rows
    # x 1001 nodes and the 87 left unresolved x 2001, and of 2^16 on the last
    # 21 x 4001
    assert sizes == [30] * 5 + [15] * 3 + [14] * 3 + [11, 10]
    np.testing.assert_array_equal(blocks, whole)


def test_batch_rows_independent_of_their_batch():
    us = np.linspace(0.0, 6.0, 150)
    s, w = _grid_for(32.0)
    H = SG.log_laplace(2.0 * us[:, None] * s)
    whole = rate.solve_exponent_batch(H, s, w, 1.0)[:3]

    def same(part, rows):
        return all(np.array_equal(a, b[rows]) for a, b in zip(part, whole))

    for k in (1, 2, 5, 6, 35, 149):  # shifted offsets: H[k:] starts anywhere in memory
        assert same(rate.solve_exponent_batch(H[k:], s, w, 1.0), slice(k, None))
    for k in (0, 35, 149):
        assert same(rate.solve_exponent_batch(H[k:k + 1].copy(), s, w, 1.0), slice(k, k + 1))
    blocks = rate._Phi1Table(SG)._solves_at(us, 32.0)[0]
    assert np.array_equal(blocks, _one_block_ladder(SG, us, 32.0))


def test_ladder_rows_independent_of_their_batch():
    us = np.linspace(0.0, 6.0, 150)
    whole = rate._gibbs_solves(SG, us, *np.ones((2, us.size, 1)), 1.0, 32.0)
    for k in (1, 35, 149):
        part = rate._gibbs_solves(SG, us[k:], *np.ones((2, us.size - k, 1)), 1.0, 32.0)
        assert all(np.array_equal(a, b[k:]) for a, b in zip(part, whole))


def test_ladder_promotes_narrow_weights_to_the_top_rung():
    # a wide weight stops on every fourth node; a small budget (width
    # sqrt(beta)) or a large tilt narrows it until only every node resolves it
    R = (10**6) ** 0.2
    amp = np.array([0.5, 0.5, 0.5, 7.6, 7.6])
    beta = np.array([1.0, 1e-2, 1e-3, 1.0, 0.05])
    value, _, _, stride = rate._gibbs_solves(SG, amp, *np.ones((2, amp.size, 1)), beta, R)
    assert stride.tolist() == [4, 2, 1, 1, 1]
    s, w = _grid_for(R)
    zeta, log_mass, _, _ = rate.solve_exponent_batch(SG.log_laplace(2.0 * amp[:, None] * s), s, w,
                                                     beta)
    np.testing.assert_allclose(value, values_from_batch(log_mass, zeta, beta), rtol=0, atol=1e-11)


@pytest.mark.parametrize("R, ks", [
    ((10**6) ** 0.2, (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)),
    (64.0, (1000,)),
    (20.008, (1, 32)),  # 2505 nodes: every fourth node's every other node is no Simpson grid
])
def test_ladder_matches_a_top_rung_solve_on_default_family_rows(R, ks):
    # the rows of test_gibbs.test_batch_converges_over_default_family
    s, w = _grid_for(R)
    rungs = {4, 2, 1} if (s.size - 1) % 16 == 0 else {2, 1}
    beta = np.tile(np.linspace(0.05, 1.0, 41), 16)
    for k in ks:
        a = np.repeat(np.linspace(0.0, 0.95 * 8.0 / math.sqrt(k), 17)[1:], 41)
        value, _, _, stride = rate._gibbs_solves(SG, a, np.ones((a.size, 1)),
                                                 np.full((a.size, 1), k), beta, R)
        assert set(stride.tolist()) <= rungs
        zeta, log_mass, _, _ = rate.solve_exponent_batch(k * SG.log_laplace(2.0 * a[:, None] * s),
                                                         s, w, beta)
        np.testing.assert_allclose(value, values_from_batch(log_mass, zeta, beta), rtol=0,
                                   atol=1e-11)


def test_gibbs_ladder_invariant():
    values = check("gibbs_ladder")
    assert values["rows_below_top"] > 0


def test_gibbs_ladder_invariant_catches_an_unresolved_rung(monkeypatch):
    # a ladder that accepts every row on its first rung keeps narrow weights
    # that every fourth node does not resolve
    monkeypatch.setattr(rate, "_simpson_agrees", lambda s, w, E, *rest: np.ones(len(E), bool))
    with pytest.raises(InvariantError, match="accepted below the top rung are resolved"):
        check("gibbs_ladder")


def _full_rule(R):
    """The Simpson rule of [-R, R] on the spacing of the half grid of [0, R]."""
    h = _grid_for(R)[0].size
    return np.linspace(-R, R, 2 * h - 1), _simpson_weights(2 * h - 1, R / (h - 1))


def _use_full_rule(mp):
    """Runs the rate module's Gibbs batches on the full rule, unfolded."""
    mp.setattr(rate, "_grid_for", _full_rule)
    mp.setattr(rate, "_fold", lambda dist, h_of, s: h_of(s))


@pytest.fixture
def full_grid(monkeypatch):
    return lambda: _use_full_rule(monkeypatch)


@pytest.mark.parametrize("dist", [SG, SparseGaussian(0.1), rademacher(), sparse_rademacher(0.2)],
                         ids=repr)
@pytest.mark.parametrize("R", [16.0, 32.0, 64.0])
def test_half_grid_matches_full_grid_on_phi1_rows(dist, R, full_grid):
    us = np.linspace(0.0, 6.0, 61)
    half = rate._Phi1Table(dist)._solves_at(us, R)[0]
    full_grid()
    full = rate._Phi1Table(dist)._solves_at(us, R)[0]
    np.testing.assert_allclose(half, full, rtol=0, atol=1e-13)


@pytest.mark.parametrize("R, ks", [
    ((10**6) ** 0.2, (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)),
    (64.0, (1000,)),
])
def test_half_grid_matches_full_grid_on_default_family_rows(R, ks, full_grid):
    # the rows of test_gibbs.test_batch_converges_over_default_family
    beta = np.tile(np.linspace(0.05, 1.0, 41), 16)
    rows = [(np.repeat(np.linspace(0.0, 0.95 * 8.0 / math.sqrt(k), 17)[1:], 41), k) for k in ks]
    half = [rate._gibbs_solves(SG, a, np.ones((a.size, 1)), np.full((a.size, 1), k), beta, R)[0]
            for a, k in rows]
    full_grid()
    for (a, k), h in zip(rows, half):
        full = rate._gibbs_solves(SG, a, np.ones((a.size, 1)), np.full((a.size, 1), k), beta,
                                  R)[0]
        np.testing.assert_allclose(h, full, rtol=0, atol=1e-13)


def test_asymmetric_law_folds_onto_the_half_grid(full_grid):
    law = bernoulli_std(0.3)
    us = np.linspace(0.0, 6.0, 61)
    fam = rate.ProfileFamily(k_values=(1, 4), n_mass=3)
    table = rate._Phi1Table(law)._solve_grid(us)
    point = rate.rate_point(law, 3.0, rate.FiniteNMode(N=10**6, family=fam))
    full_grid()
    np.testing.assert_allclose(table, rate._Phi1Table(law)._solve_grid(us), rtol=0, atol=1e-13)
    again = rate.rate_point(law, 3.0, rate.FiniteNMode(N=10**6, family=fam))
    assert point.rate == pytest.approx(again.rate, rel=0, abs=1e-13)
    assert point.minimizer == again.minimizer


def _atom_law(pairs):
    total = sum(m for _, m in pairs)
    return standardize_atoms([(x, m / total) for x, m in pairs])


ATOM_LAWS = (st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 1.0)), min_size=2, max_size=4,
                      unique_by=lambda a: round(a[0], 3))
             .map(_atom_law).filter(lambda d: not d.symmetric))


@settings(max_examples=25, deadline=None)
@given(ATOM_LAWS, st.sampled_from([4.0, 8.0, 16.0]))
def test_folded_half_grid_is_the_full_rule(law, R):
    # rows of the finite-N and two-scale shapes: one or two coefficients
    # of either sign, tilts up to 4, budgets in [0.05, 1]
    amp = np.linspace(0.0, 4.0, 9)
    vals = np.tile([1.0, -0.5], (amp.size, 1))
    counts = np.tile([1.0, 3.0], (amp.size, 1))
    counts[::2, 1] = 0.0
    beta = np.linspace(0.05, 1.0, amp.size)
    half = rate._gibbs_solves(law, amp, vals, counts, beta, R)[0]
    with pytest.MonkeyPatch.context() as mp:
        _use_full_rule(mp)
        full = rate._gibbs_solves(law, amp, vals, counts, beta, R)[0]
    np.testing.assert_allclose(half, full, rtol=0, atol=1e-13)


def test_phi1_table_failure_names_u(monkeypatch):
    # a row its duality gap does not certify names the layer and u:
    # zeta = 0 < kappa = 4 psi_max u^2 leaves the gap infinite
    monkeypatch.setattr(rate._Phi1Table, "_solves_at", lambda self, us, R: (us + R, 0 * us, 0 * us))
    with pytest.raises(GibbsError, match=r"R=32: hat-mode Gibbs table at u=0\.5 has margin"):
        rate._Phi1Table(SG)._solve_grid(np.array([0.5, 1.0]))


@pytest.mark.parametrize("dist", [SG, GAUSS, SparseGaussian(0.1), SparseGaussian(0.9), rademacher(),
                                  bernoulli_std(0.3), bernoulli_std(0.7), sparse_rademacher(0.2)],
                         ids=repr)
def test_phi1_table_is_one_certified_solve_per_row(dist, monkeypatch):
    # every row of the first build is certified at R = 32 by its duality gap
    # (on the atom laws by the tail form of kappa): one solve per row,
    # within 1e-12 of the R = 64 value
    us = np.linspace(0.0, 6.0, 601)
    solves = rate._Phi1Table._solves_at
    calls = []

    def spy(self, u, R):
        calls.append((R, u.size, solves(self, u, R)))
        return calls[-1][2]

    monkeypatch.setattr(rate._Phi1Table, "_solves_at", spy)
    table = rate._Phi1Table(dist)._solve_grid(us)
    assert [(R, n) for R, n, _ in calls] == [(32.0, us.size)]
    _, zeta, log_mass = calls[0][2]
    gap = duality_gap(32.0, zeta, log_mass, tilt_bound(dist, us * us, us, 32.0))
    assert gap.max() <= 1e-8
    far = rate._gibbs_solves(dist, us, *np.ones((2, us.size, 1)), 1.0, 64.0)[0]
    np.testing.assert_allclose(table, far, rtol=0, atol=1e-12)


def test_grown_phi1_table_solves_only_its_new_rows(monkeypatch):
    # growing from u_max = 6 to 9.3 solves the 330 new rows; the first 601
    # keep the values of the first build, as rows never interact
    solves = rate._Phi1Table._solves_at
    calls = []

    def spy(self, u, R):
        calls.append((R, u[0], u.size))
        return solves(self, u, R)

    monkeypatch.setattr(rate._Phi1Table, "_solves_at", spy)
    table = rate._Phi1Table(SG)
    table(np.array([1.0]))
    first = table.rows[1].copy()
    table(np.array([6.2]))
    assert calls == [(32.0, 0.0, 601), (32.0, 6.01, 330)]
    us, vals = table.rows
    assert us.size == 931 and np.array_equal(vals[:601], first)
    assert np.array_equal(vals, rate._Phi1Table(SG)._solve_grid(us))


def test_phi1_spline_is_scipy_cubic_spline_bit_for_bit():
    from scipy.interpolate import CubicSpline  # the reference only; the library never loads it

    table = rate._Phi1Table(SG)
    grids = []
    solve = table._solve_grid

    def recorded(us):
        grids.append((us, solve(us)))
        return grids[-1][1]

    table._solve_grid = recorded
    rng = np.random.default_rng(7)
    # the first build (u_max = 6, 601 nodes) and a grown one (u_max = 9.3)
    for u_top, n in ((1.0, 601), (6.2, 931)):
        table(np.array([u_top]))
        us, vals = grids[-1]
        assert us.size == n
        ref = CubicSpline(us, vals, bc_type=((1, 0.0), "not-a-knot"))
        pts = np.concatenate([us, 0.5 * (us[:-1] + us[1:]), rng.uniform(0.0, us[-1], 20000)])
        for u in (pts, pts[:6000].reshape(60, 100)):  # theta_scan passes (rows, points)
            for nu in (0, 1):
                assert np.array_equal(table.spline(u, nu), ref(u, nu))
            assert np.array_equal(table(u), ref(u))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phi1_table_refuses_non_finite_u(bad):
    table = rate._Phi1Table(SG)
    with pytest.raises(rate.RateError, match=rf"hat-mode Φ1 table: u={bad} is not finite"):
        table(np.array([0.5, bad]))
    assert table.spline is None


def test_phi1_table_is_even():
    # phi1(-u) = phi1(u) for every law; a negative u grows the table by |u|
    table = rate._Phi1Table(SG)
    u = np.array([0.0, 0.3, 1.0, 4.2, 7.5])
    assert np.array_equal(table(-u), table(u))
    assert table.u_max >= 7.5
    assert table(np.array([-1.0]))[0] == table(np.array([1.0]))[0] == pytest.approx(3.58192,
                                                                                    abs=1e-5)


def test_sup_theta_rows_scan_blocks_match_one_row_calls():
    ev = rate._hat_evaluator(SG)
    rows = np.array([[x, a] for x in (2.6, 3.0) for a in np.linspace(0.0, 0.9, 130)])
    scan_rows = []

    def pen(theta, r, q):
        if theta.shape[1] > 1:
            scan_rows.append(theta.shape[0])
        return ev(theta, r, q)

    theta_star, value = rate.sup_theta_rows(RowPenalty(pen), rows)
    assert scan_rows[:2] == [rate._SCAN_ROWS, rows.shape[0] - rate._SCAN_ROWS]
    assert max(scan_rows) <= rate._SCAN_ROWS
    for k in range(rows.shape[0]):
        one = rate.sup_theta_rows(ev, rows[k:k + 1])
        assert (theta_star[k], value[k]) == (one[0][0], one[1][0])


# --- rate points ---------------------------------------------------------------------


def test_rate_point_sharp_law_is_universal():
    p = rate.rate_point(GAUSS, 3.0, rate.HatMode())
    assert p.rate == pytest.approx(semicircle.goe_rate(3.0), abs=1e-6)
    assert p.minimizer.alpha == 0.0
    assert p.theta_star == pytest.approx(semicircle.theta_roots(3.0).theta_plus, abs=1e-6)


def test_rate_point_sparse_gaussian_localizes():
    p = rate.rate_point(SG, 3.0, rate.HatMode())
    assert p.rate < p.goe_rate - 1e-3
    assert p.minimizer.alpha > 0.25


@pytest.mark.parametrize("law, fault", [
    (rademacher(), r"rademacher\]\(\) psi decreases between t=0\.00 and t=0\.01$"),
    (sparse_rademacher(0.2), r"psi decreases between t=1\.54 and t=1\.55$"),
    (bernoulli_std(0.3), r"t=0\.78 and t=0\.79 and \|psi\(t\) - psi\(-t\)\| reaches 0\.236"),
], ids=["rademacher", "sparse_rademacher", "bernoulli"])
def test_hat_mode_refuses_laws_outside_its_domain(law, fault):
    # f_hat holds for symmetric psi nondecreasing on t > 0; these compact-
    # support laws used to rebuild the Phi1 table for minutes
    start = time.perf_counter()
    for call in (lambda: rate.rate_point(law, 3.0, rate.HatMode()),
                 lambda: rate.joint_rate(law, 3.0, rate.HatSpec(0.3)),
                 lambda: rate.rate_curve(law, [2.5, 3.0], rate.HatMode())):
        with pytest.raises(rate.RateError, match=fault):
            call()
    # the direct route applies the same rule
    with pytest.raises(ValueError, match=fault):
        free_energy.f_hat(law, 1.0, 0.3)
    assert time.perf_counter() - start < 1.0
    assert law.key() not in rate._HAT_CACHE


@pytest.mark.parametrize("x, expected_rate, expected_alpha", [
    (2.54, 0.268484281925, 0.292565645),
    (2.78, 0.406723957610, 0.398764756),
    (3.0, 0.545274547821, 0.460421615),
])
def test_rate_point_sparse_gaussian_pinned(x, expected_rate, expected_alpha):
    # reference values from one scalar sup_theta search per alpha grid value
    p = rate.rate_point(SG, x, rate.HatMode())
    assert p.rate == pytest.approx(expected_rate, abs=1e-9)
    assert p.minimizer.alpha == pytest.approx(expected_alpha, abs=1e-7)


def test_rate_point_sequence_matches_single_x_calls():
    xs = [1.5, 2.0, 2.38, 2.50, 2.54, 2.78, 3.0]
    batch = rate.rate_point(SG, xs, rate.HatMode())
    assert isinstance(batch, tuple) and len(batch) == len(xs)
    assert batch[0].rate == math.inf and batch[0].minimizer is None
    for x, p in zip(xs[1:], batch[1:]):
        q = rate.rate_point(SG, x, rate.HatMode())
        assert p.x == x
        assert (p.rate, p.minimizer.alpha, p.theta_star) == (q.rate, q.minimizer.alpha, q.theta_star)


def test_hat_winners_take_theta_star_from_their_own_evaluation(monkeypatch):
    # no sup_theta_rows call follows the alpha search, and each point's
    # theta* is that of a sup_theta_rows call on its (x, alpha*) row alone
    events, depth = [], [0]
    sup, search = rate.sup_theta_rows, rate.stencil_max_rows

    def sup_spy(pen, rows):
        events.append("sup")
        depth[0] += 1
        try:
            return sup(pen, rows)
        finally:
            depth[0] -= 1

    def search_spy(f, cells, values):
        if depth[0]:  # a theta refinement inside sup_theta_rows
            return search(f, cells, values)
        out = search(f, cells, values)
        events.append("alpha search")
        return out

    monkeypatch.setattr(rate, "sup_theta_rows", sup_spy)
    monkeypatch.setattr(rate, "stencil_max_rows", search_spy)
    points = rate.rate_point(SG, [2.54, 2.78, 3.0], rate.HatMode())
    assert events.count("alpha search") == 1 and events[-1] == "alpha search"
    monkeypatch.undo()
    for p in points:
        row = np.array([[p.x, p.minimizer.alpha]])
        theta, value = rate.sup_theta_rows(rate._hat_evaluator(SG), row)
        assert (p.theta_star, p.rate) == (theta[0], value[0])


def test_finite_n_curve_at_small_n_sits_its_zero_profile_offset_above_goe():
    # at N = 1000 (R = 3.98) the zero profile's Gibbs term is -eps(R), eps =
    # 6.9e-5, so the Gaussian's finite-N rate is the GOE rate plus eps at every x
    curve = rate.rate_curve(GAUSS, [2.5, 3.0],
                            rate.FiniteNMode(N=1000, family=rate.ProfileFamily((1,), 3)))
    eps = rate._zero_profile_offset(GAUSS, 1000**0.2)
    assert 6e-5 < eps < 7e-5
    for p in curve.points:
        assert p.rate - p.goe_rate == pytest.approx(eps, rel=0, abs=1e-12)


def test_rate_point_at_edge():
    p = rate.rate_point(SG, 2.0, rate.HatMode())
    assert abs(p.rate) < 1e-6


def test_rate_point_below_edge_is_infinite():
    p = rate.rate_point(SG, 1.5, rate.HatMode())
    assert p.rate == math.inf and p.goe_rate == math.inf


def test_rate_point_finite_n_degenerate_family():
    # family forced to the zero profile reduces to the GOE rate
    fam = rate.ProfileFamily(k_values=(1,), n_mass=1)
    p = rate.rate_point(SG, 3.0, rate.FiniteNMode(N=10**6, R=8.0, family=fam))
    assert abs(p.rate - semicircle.goe_rate(3.0)) < INVARIANTS["zero_profile_rate"].bounds["error"]
    assert p.minimizer.mass == 0.0


def test_rate_point_finite_n_small_family():
    fam = rate.ProfileFamily(k_values=(1, 4), n_mass=11)
    p = rate.rate_point(SG, 3.0, rate.FiniteNMode(N=10**6, family=fam))
    hat = rate.rate_point(SG, 3.0, rate.HatMode())
    # the structured family at a coarse mass grid approaches the scalar
    # reduction from above
    assert p.rate >= hat.rate - 1e-7
    assert p.rate == pytest.approx(hat.rate, abs=5e-3)
    assert len(p.minimizer.z) == 1  # single-coordinate optimum for this law
    # reference from one sup_theta search per profile, before the family
    # became rows of one sup_theta_rows call
    assert p.rate == pytest.approx(0.5453422207003429, abs=1e-12)
    assert p.minimizer == rate.FiniteNSpec((0.6717514421272202,), 10**6, (10**6) ** 0.2)
    assert p.minimizer.mass == pytest.approx(0.45125, abs=1e-15)


def test_rate_point_tilde_small_family():
    fam = rate.ProfileFamily(k_values=(1,), n_mass=9)
    p = rate.rate_point(SG, 3.0, rate.TildeMode(N=10**6, family=fam, n_alpha=7))
    assert p.rate <= semicircle.goe_rate(3.0) + 1e-6
    assert p.minimizer.mass <= 0.95
    # reference from one sup_theta search per profile (see above)
    assert p.rate == pytest.approx(0.5454417156987299, abs=1e-12)
    assert p.minimizer == rate.TildeSpec((0.689202437604511,), 0.0, (10**6) ** 0.2)
    assert p.minimizer.mass == pytest.approx(0.475, abs=1e-15)


def test_finite_n_rate_approaches_the_hat_rate_as_n_grows():
    # the finite-N reduction tends to the single-coordinate one as N grows:
    # at x = 3.0 the gap reads 6.9e-5, 6.9e-6 and 7.1e-7 (the mass grid's
    # c^2 = 0.460275 lies next to the hat's alpha* = 0.4604); asserted is the
    # ordering, not a rate of decay
    hat = rate.rate_point(SG, 3.0, rate.HatMode()).rate
    fam = rate.ProfileFamily(k_values=(1, 4), n_mass=101)
    gaps = []
    for N in (10**4, 10**5, 10**6):
        p = rate.rate_point(SG, 3.0, rate.FiniteNMode(N=N, family=fam))
        assert len(p.minimizer.z) == 1
        gaps.append(p.rate - hat)
    assert gaps[0] > gaps[1] > gaps[2] >= 0.0


@pytest.fixture
def scan_calls(monkeypatch):
    """Every theta_scan call: its penalty, rows and scan maxima, and the
    (rows, (theta_star, value)) of each of its refine calls."""
    calls = []
    inner = rate.theta_scan

    def spy(pen, rows, **kwargs):
        best, refine = inner(pen, rows, **kwargs)
        refined = []

        def counted(idx):
            out = refine(idx)
            refined.append((np.asarray(idx), out))
            return out

        calls.append((pen, rows, best, refined))
        return best, counted

    monkeypatch.setattr(rate, "theta_scan", spy)
    return calls


@pytest.mark.parametrize("mode", [
    rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=3)),
    rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=3), n_alpha=2),
])
def test_vector_rows_equal_one_row_joint_rate(mode, scan_calls):
    p = rate.rate_point(SG, 3.0, mode)
    (pen, rows, best, refined), = scan_calls
    assert len(rows) > 3
    assert len(refined[0][0]) == 1  # the row of smallest scan maximum goes first
    done = np.concatenate([idx for idx, _ in refined])
    assert len(set(done.tolist())) == len(done)
    for idx, (theta_star, value) in refined:
        for i, th, v in zip(idx, theta_star, value):
            assert rate.joint_rate(SG, 3.0, pen.spec(rows[i])) == (v, th)
            assert v >= best[i]
    dropped = np.setdiff1d(np.arange(len(rows)), done)
    assert dropped.size and np.all(best[dropped] > p.rate + rate._TIE_TOL)
    assert p.minimizer in [pen.spec(rows[i]) for i in done]


def test_vector_rate_point_one_row_call_per_sequence(scan_calls):
    fam = rate.ProfileFamily(k_values=(1, 4), n_mass=3)
    rate.rate_point(SG, [1.5, 2.8, 3.0], rate.FiniteNMode(N=10**6, family=fam))
    (_, rows, best, refined), = scan_calls
    assert rows[:, 0].tolist() == [2.8] * 5 + [3.0] * 5
    first = refined[0][0]
    assert first.tolist() == [np.argmin(best[:5]), 5 + np.argmin(best[5:])]
    assert sum(len(idx) for idx, _ in refined) < len(rows)  # a row or more was dropped


SMALL_FINITE_N = rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=3))
SMALL_TILDE = rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=3),
                             n_alpha=2)


@pytest.mark.parametrize("law, mode", [
    (SG, SMALL_FINITE_N),
    (SG, SMALL_TILDE),
    (bernoulli_std(0.3),
     rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=3))),
], ids=["finite_n", "tilde", "bernoulli_finite_n"])
def test_vector_sequence_and_curve_match_single_points(law, mode):
    # every x's rows share one call, and without threads the curve is one
    # rate_point call on the whole grid; rows never interact, so no bit moves
    grid = [2.4, 3.0, 3.6]
    single = [(p.x, p.rate, p.theta_star, p.minimizer)
              for p in (rate.rate_point(law, x, mode) for x in grid)]
    for threads in (None, 2, 3):
        curve = rate.rate_curve(law, grid, mode, threads=threads)
        assert [(p.x, p.rate, p.theta_star, p.minimizer) for p in curve.points] == single


FINITE_N_5 = rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=5))


@pytest.mark.parametrize("law, mode, cap", [
    (SG, rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=11)), 0.95),
    (SG, FINITE_N_5, 0.5),
    (SG, FINITE_N_5, 1e-4),
    (SG, rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=5), n_alpha=3),
     0.95),
    (bernoulli_std(0.3),
     rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=5)), 0.95),
], ids=["finite_n", "finite_n_at_cap", "finite_n_ties", "tilde", "bernoulli_finite_n"])
def test_pruned_points_equal_unpruned(monkeypatch, law, mode, cap):
    # a row whose scan maximum lies more than _TIE_TOL above the first
    # refined value is dropped; refining every row instead (every scan
    # maximum read as -inf) moves no bit of any point, tie or cap warning.
    # At cap 1e-4 every scan maximum lies within 1e-9 of the first refined
    # value, so no row is dropped; three rows of x = 2.4 tie, and the zero
    # profile that wins sits at that cap.
    grid = [2.4, 3.0, 3.6]
    inner = rate.theta_scan
    refined = []

    def scan(*args, unpruned=False, **kwargs):
        best, refine = inner(*args, **kwargs)

        def counted(idx):
            refined.append(len(idx))
            return refine(idx)

        return (np.full_like(best, -np.inf) if unpruned else best), counted

    def run(make):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            points = make()
        return ([(p.x, p.rate, p.theta_star, p.minimizer) for p in points],
                [str(w.message) for w in seen])

    monkeypatch.setattr(rate, "theta_scan", lambda *a, **k: scan(*a, unpruned=True, **k))
    unpruned = run(lambda: rate.rate_point(law, grid, mode, cap))
    n_rows = sum(refined)
    monkeypatch.setattr(rate, "theta_scan", scan)
    refined.clear()
    assert run(lambda: rate.rate_point(law, grid, mode, cap)) == unpruned
    assert (sum(refined) < n_rows) == (cap > 1e-4)
    assert len(unpruned[1]) == {0.5: 2, 1e-4: 3}.get(cap, 0)  # cap warnings
    single = [run(lambda: [rate.rate_point(law, x, mode, cap)]) for x in grid]
    assert ([p for s in single for p in s[0]], [w for s in single for w in s[1]]) == unpruned
    for threads in (None, 2):
        curve = run(lambda: rate.rate_curve(law, grid, mode, cap, threads=threads).points)
        assert curve[0] == unpruned[0]
        assert sorted(curve[1]) == sorted(unpruned[1])


@pytest.mark.parametrize("mode, threads, calls", [
    (rate.HatMode(), None, [5]), (rate.HatMode(), 3, [5]),
    (SMALL_FINITE_N, None, [5]), (SMALL_FINITE_N, 2, [3, 2]), (SMALL_FINITE_N, 3, [2, 2, 1]),
])
def test_rate_curve_splits_only_vector_grids_across_threads(monkeypatch, mode, threads, calls):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the split, not the machine's CPU cap
    sizes = []
    inner = rate.rate_point

    def spy(dist, x, mode, cap=0.95):
        sizes.append(len(x))
        return inner(dist, x, mode, cap)

    monkeypatch.setattr(rate, "rate_point", spy)
    rate.rate_curve(SG, [2.4, 2.7, 3.0, 3.3, 3.6], mode, threads=threads)
    assert sorted(sizes, reverse=True) == calls


def test_thread_pools_capped_at_cpu_count(monkeypatch):
    # a serial stand-in pool records the workers each pool asked for
    workers = []

    def Pool(max_workers):
        workers.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rate, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    curve = rate.rate_curve(SG, [2.4, 2.7, 3.0, 3.3, 3.6], SMALL_FINITE_N, threads=16)
    assert workers == [2] and len(curve.points) == 5
    montecarlo.experiment({"kind": "bbp", "dist": GAUSS, "N": 20, "reps": 5, "theta": 1.0},
                          threads=16)
    assert workers == [2, 2]


def test_vector_cap_warning_once_per_x():
    fam = rate.ProfileFamily(k_values=(1,), n_mass=3)
    with pytest.warns(UserWarning, match="sits at the cap") as seen:
        rate.rate_point(SG, [3.0, 3.2, 3.4], rate.FiniteNMode(N=10**6, family=fam), cap=0.2)
    assert len([w for w in seen if "sits at the cap" in str(w.message)]) == 3


@pytest.mark.parametrize("mode, poisoned, name", [
    (rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=3)),
     lambda k, alpha_tilde: k == 4, r"x=3\.0, k=4, c=0\.67175"),
    (rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=3), n_alpha=2),
     lambda k, alpha_tilde: alpha_tilde > 0.9, r"x=3\.0, k=0, c=0\.0, alpha_tilde=0\.95"),
])
def test_vector_row_nan_penalty_named(mode, poisoned, name):
    # rows (x, alpha_tilde, v, k) of one-entry profiles; the first poisoned
    # row is the one named
    vector_pen, rows = mode._rows(SG, 3.0, 0.95)

    def pen(theta, r, q):
        bad = poisoned(r[:, 3], r[:, 1])[:, None]
        return np.where(bad, np.nan, vector_pen(theta, r, q))

    with pytest.raises(rate.RateError, match="non-finite.*" + name):
        rate.sup_theta_rows(RowPenalty(pen, vector_pen.label), rows)


@pytest.mark.parametrize("law", [SG, bernoulli_std(0.3)], ids=repr)
def test_vector_rows_at_unit_overlap_equal_the_free_energies(law):
    # one formula per mode, two Gibbs solvers: at q = 1 a vector row, its
    # Gibbs term on the fixed grid of _gibbs_solves, is the scalar value, its
    # Gibbs term by the adaptive gibbs_solve
    theta = np.array([[0.4, 1.0, 1.7]])
    N, R = 10**6, (10**6) ** 0.2
    profiles = [(0.0,), (0.6,), (0.5, 0.5), (0.35,) * 4, (0.5, -0.3, 0.2)]
    # at unit norm, and inside the unit-norm clamp (|z|^2 = 1 - 5e-10)
    unit = [(0.6, -0.8), (math.sqrt(1.0 - 5e-10),)]
    for z in [*profiles, *unit]:
        pen, row = rate.FiniteNSpec(z, N, R)._row(law, 3.0)
        want = [free_energy.f_restricted(law, th, z, N, R) for th in theta[0]]
        got = pen(theta, row, q=np.ones_like(theta))[0]
        assert got == pytest.approx(want, abs=1e-12), z
        if z in unit:  # both take the unit-norm branch: the localized sum alone
            assert want == [free_energy.f_loc(law, th, z, N) for th in theta[0]], z
            assert np.array_equal(got, free_energy.f_loc(law, theta[0], z, N)), z
    for z, alpha_tilde in itertools.product(profiles, (0.0, 0.2)):
        pen, row = rate.TildeSpec(z, alpha_tilde, R)._row(law, 3.0)
        want = [free_energy.f_tilde(law, th, z, alpha_tilde, R) for th in theta[0]]
        assert pen(theta, row, q=np.ones_like(theta))[0] == pytest.approx(want, abs=1e-12), z


def test_tilde_row_without_residual_mass_named():
    spec = rate.TildeSpec((0.8,), 0.5, 8.0)
    name = r"x=3\.0, k=1, c=0\.8, alpha_tilde=0\.5"
    with pytest.raises(rate.RateError, match="no residual mass at " + name):
        rate.joint_rate(SG, 3.0, spec)


def test_joint_rate_default_family_profile_solves():
    # the k = 256 profile of the default family at c^2 = cap^2 / 7; its
    # multiplier solve used to stall.  Reference from the earlier
    # bracketing (Brent) multiplier solver.
    c = math.sqrt(0.95**2 / 7)
    spec = rate.FiniteNSpec(tuple(np.full(256, c / 16.0)), 10**6, (10**6) ** 0.2)
    value, theta_star = rate.joint_rate(SG, 3.0, spec)
    assert value == pytest.approx(0.7661849897559994, abs=1e-10)
    assert theta_star == pytest.approx(1.3005990536186598, abs=1e-7)


def test_rate_point_cap_warning():
    with pytest.warns(UserWarning, match="cap"):
        rate.rate_point(SG, 3.0, rate.HatMode(), cap=0.2)


def test_finite_n_cap_warning_names_the_norm():
    fam = rate.ProfileFamily(k_values=(1,), n_mass=3)
    with pytest.warns(UserWarning, match=r"finite-N minimizer norm c 0\.2000 sits at the cap"):
        rate.rate_point(SG, 3.0, rate.FiniteNMode(N=10**6, family=fam), cap=0.2)


def test_rate_point_smallest_tie_reported():
    # sharp law: every alpha >= 0 at the edge gives the same value 0
    p = rate.rate_point(GAUSS, 2.0, rate.HatMode())
    assert p.minimizer.alpha == 0.0


# --- curves ------------------------------------------------------------------------


def test_rate_curve_gaussian_short_grid():
    grid = [2.0, 2.3, 2.6, 3.0, 3.4]
    curve = rate.rate_curve(GAUSS, grid, rate.HatMode())
    assert curve.x_mu is None
    assert np.max(np.abs(curve.rates - curve.goe_rates)) < 1e-4
    assert np.all(np.diff(curve.rates) >= -1e-6)
    assert np.all(curve.rates <= curve.goe_rates + 1e-6)
    assert np.all(curve.rates >= -1e-9)


def test_rate_curve_blocks_match_pointwise():
    grid = np.linspace(2.0, 3.14, 20).tolist()
    single = [rate.rate_point(SG, x, rate.HatMode()) for x in grid]
    for threads in (None, 3):
        curve = rate.rate_curve(SG, grid, rate.HatMode(), threads=threads)
        for p, q in zip(curve.points, single):
            assert (p.x, p.rate, p.minimizer.alpha, p.theta_star) == (
                q.x, q.rate, q.minimizer.alpha, q.theta_star)


def test_rate_curve_validates_grid():
    with pytest.raises(ValueError, match="sorted"):
        rate.rate_curve(SG, [3.0, 2.5], rate.HatMode())
    # below the spectral edge a point is rate_point's +inf sentinel
    curve = rate.rate_curve(SG, [1.5, 2.5], rate.HatMode())
    assert curve.points[0] == rate.RatePoint(1.5, math.inf, math.inf, None, math.inf)
    assert math.isfinite(curve.points[1].rate)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_rate_curve_refuses_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        rate.rate_curve(SG, [2.5], rate.HatMode(), tol=tol)


def test_rate_curve_poisoned_point_diagnostic():
    def bad_point(dist, x, mode, cap=0.95):
        raise RuntimeError("synthetic failure")

    orig = rate.rate_point
    rate.rate_point = bad_point
    try:
        with pytest.raises(rate.RateCurveError, match="synthetic failure"):
            rate.rate_curve(SG, [2.5, 3.0], rate.HatMode())
    finally:
        rate.rate_point = orig
