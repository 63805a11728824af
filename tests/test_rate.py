import math

import numpy as np
import pytest

from wignerld import free_energy, rate, semicircle
from wignerld.entries import Gaussian, SparseGaussian
from wignerld.gibbs import _grid_for, values_from_batch

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


def test_sup_theta_bracket_hint():
    th, v = rate.sup_theta(3.0, lambda t: t * t, bracket_hint=16.0)
    assert v == pytest.approx(semicircle.goe_rate(3.0), abs=1e-9)


def test_sup_theta_rows_quadratic_penalties():
    # J(x, theta) - c theta^2 peaks at theta* = (x + sqrt(x^2 - 4c)) / (4c); the
    # c = 0.02 row (theta* ~ 75) must double T from 8 to 128, the others stop at 8
    x = 3.0
    c = np.array([0.5, 1.0, 2.0, 0.02])
    scans = []

    def pen(theta, rows):
        if theta.shape[1] > 1:
            scans.append((rows.copy(), theta[:, -1].copy()))
        return rows[:, None] * theta**2

    theta_star, value = rate.sup_theta_rows(x, pen, c)
    exact = (x + np.sqrt(x * x - 4.0 * c)) / (4.0 * c)
    for k in range(c.size):
        # a golden search pins a flat maximum's argmax only to ~1e-8 relative
        assert theta_star[k] == pytest.approx(exact[k], rel=1e-8, abs=1e-8)
        top = semicircle.j_value(x, exact[k]) - c[k] * exact[k] ** 2
        assert value[k] == pytest.approx(top, abs=1e-8)
        assert (theta_star[k], value[k]) == rate.sup_theta(x, lambda t: c[k] * t**2)
    assert np.array_equal(scans[0][1], np.full(4, 8.0))
    assert all(list(rows) == [0.02] for rows, _ in scans[1:])
    assert [float(ends[0]) for _, ends in scans[1:]] == [16.0, 32.0, 64.0, 128.0]


def test_sup_theta_rows_unbounded_row():
    with pytest.raises(rate.RateError, match=r"unbounded.*x=3\.0, alpha=0\.0"):
        rate.sup_theta_rows(3.0, lambda t, c: c[:, None] * t**2, np.array([1.0, 0.0]))


def test_sup_theta_rows_non_finite_row_named():
    def pen(theta, alpha):
        return np.where(alpha[:, None] == 0.25, np.nan, theta**2)

    with pytest.raises(rate.RateError, match=r"non-finite.*x=3\.0, alpha=0\.25"):
        rate.sup_theta_rows(3.0, pen, np.array([0.0, 0.25, 0.5]))


def test_sup_theta_rows_multi_x_nan_row_named():
    ev = rate._hat_evaluator(SG)
    rows = np.array([[2.5, 0.25], [3.0, 0.0], [3.0, 0.25], [3.5, 0.25]])

    def pen(theta, r):
        poisoned = (r[:, :1] == 3.0) & (r[:, 1:] == 0.25)
        return np.where(poisoned, np.nan, ev.row_penalty(theta, r))

    with pytest.raises(rate.RateError, match=r"non-finite.*x=3\.0, alpha=0\.25"):
        rate.sup_theta_rows(rows[:, 0], pen, rows)


# --- joint rate -------------------------------------------------------------------


def test_joint_rate_hat_zero_mass():
    for x in (2.3, 3.0, 4.0):
        value, _ = rate.joint_rate(SG, x, rate.HatSpec(0.0))
        assert value == pytest.approx(semicircle.goe_rate(x), abs=1e-6)


def test_joint_rate_finite_n_zero_profile():
    value, _ = rate.joint_rate(SG, 3.0, rate.FiniteNSpec((0.0,), 10**6, 8.0))
    assert value == pytest.approx(semicircle.goe_rate(3.0), abs=1e-4)


def test_joint_rate_hat_monotone_in_alpha_for_sharp_law():
    values = [rate.joint_rate(GAUSS, 3.0, rate.HatSpec(a))[0] for a in np.linspace(0.0, 0.6, 13)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_hat_fast_path_matches_direct_free_energy():
    ev = rate._hat_evaluator(SG)
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = rng.uniform(0.2, 3.0)
        alpha = rng.uniform(0.0, 0.9)
        fast = float(ev.f_hat(theta, alpha))
        direct = free_energy.f_hat(SG, theta, alpha)
        assert fast == pytest.approx(direct, abs=1e-7)


def test_hat_objective_alpha_continuity():
    ev = rate._hat_evaluator(SG)

    def jhat(x, a):
        return rate.sup_theta(x, ev.penalty(x, a))[1]

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


def test_phi1_table_blocks_match_one_batch(monkeypatch):
    us = np.linspace(0.0, 6.0, 150)
    s, w = _grid_for(32.0)
    zeta, log_mass, _ = rate.solve_exponent_batch(SG.log_laplace(2.0 * us[:, None] * s), s, w, 1.0)
    whole = values_from_batch(log_mass, zeta, 1.0)
    sizes = []
    solve = rate.solve_exponent_batch

    def spy(H, *args, **kwargs):
        sizes.append(H.shape[0])
        return solve(H, *args, **kwargs)

    monkeypatch.setattr(rate, "solve_exponent_batch", spy)
    blocks = rate._Phi1Table(SG)._values_at(us, 32.0)
    assert sizes == [50, 50, 50]
    np.testing.assert_array_equal(blocks, whole)


def test_batch_rows_independent_of_their_batch():
    us = np.linspace(0.0, 6.0, 150)
    s, w = _grid_for(32.0)
    H = SG.log_laplace(2.0 * us[:, None] * s)
    whole = rate.solve_exponent_batch(H, s, w, 1.0)

    def same(part, rows):
        return all(np.array_equal(a, b[rows]) for a, b in zip(part, whole))

    for k in (1, 2, 5, 6, 35, 149):  # shifted offsets: H[k:] starts anywhere in memory
        assert same(rate.solve_exponent_batch(H[k:], s, w, 1.0), slice(k, None))
    for k in (0, 35, 149):
        assert same(rate.solve_exponent_batch(H[k:k + 1].copy(), s, w, 1.0), slice(k, k + 1))
    blocks = rate._Phi1Table(SG)._values_at(us, 32.0)
    assert np.array_equal(blocks, values_from_batch(whole[1], whole[0], 1.0))


def test_sup_theta_rows_scan_blocks_match_one_row_calls():
    ev = rate._hat_evaluator(SG)
    rows = np.array([[x, a] for x in (2.6, 3.0) for a in np.linspace(0.0, 0.9, 130)])
    scan_rows = []

    def pen(theta, r):
        if theta.shape[1] > 1:
            scan_rows.append(theta.shape[0])
        return ev.row_penalty(theta, r)

    theta_star, value = rate.sup_theta_rows(rows[:, 0], pen, rows)
    assert scan_rows[:2] == [rate._SCAN_ROWS, rows.shape[0] - rate._SCAN_ROWS]
    assert max(scan_rows) <= rate._SCAN_ROWS
    for k in range(rows.shape[0]):
        one = rate.sup_theta_rows(rows[k, 0], ev.row_penalty, rows[k:k + 1])
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
    assert p.rate == pytest.approx(semicircle.goe_rate(3.0), abs=1e-4)
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


@pytest.fixture
def row_calls(monkeypatch):
    """Arguments and results of every sup_theta_rows call."""
    calls = []
    inner = rate.sup_theta_rows

    def spy(x, pen, rows=None, *args, **kwargs):
        out = inner(x, pen, rows, *args, **kwargs)
        calls.append((pen, rows, out))
        return out

    monkeypatch.setattr(rate, "sup_theta_rows", spy)
    return calls


@pytest.mark.parametrize("mode", [
    rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=3)),
    rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=3), n_alpha=2),
])
def test_vector_rows_equal_one_row_joint_rate(mode, row_calls):
    p = rate.rate_point(SG, 3.0, mode)
    (pen, rows, (theta_star, value)), = row_calls
    assert len(rows) > 3
    for i, row in enumerate(rows):
        assert rate.joint_rate(SG, 3.0, pen.spec(row)) == (value[i], theta_star[i])
    assert p.minimizer in [pen.spec(row) for row in rows]


def test_vector_rate_point_one_row_call_per_x(row_calls):
    fam = rate.ProfileFamily(k_values=(1, 4), n_mass=3)
    rate.rate_point(SG, [1.5, 2.8, 3.0], rate.FiniteNMode(N=10**6, family=fam))
    assert [rows.shape[0] for _, rows, _ in row_calls] == [5, 5]
    assert [rows[0, 0] for _, rows, _ in row_calls] == [2.8, 3.0]


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

    class Pen:
        label = vector_pen.label

        def __call__(self, theta, r):
            bad = poisoned(r[:, 3], r[:, 1])[:, None]
            return np.where(bad, np.nan, vector_pen(theta, r))

    with pytest.raises(rate.RateError, match="non-finite.*" + name):
        rate.sup_theta_rows(3.0, Pen(), rows)


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


def test_rate_curve_threaded_matches_serial():
    grid = [2.2, 2.8, 3.2]
    serial = rate.rate_curve(SG, grid, rate.HatMode())
    threaded = rate.rate_curve(SG, grid, rate.HatMode(), threads=3)
    for a, b in zip(serial.points, threaded.points):
        assert a.rate == b.rate
        assert a.minimizer.alpha == b.minimizer.alpha


def test_rate_curve_blocks_match_pointwise():
    grid = np.linspace(2.0, 3.14, 20).tolist()  # two hat blocks
    assert len(grid) > rate._HAT_BLOCK
    single = [rate.rate_point(SG, x, rate.HatMode()) for x in grid]
    for threads in (None, 3):
        curve = rate.rate_curve(SG, grid, rate.HatMode(), threads=threads)
        for p, q in zip(curve.points, single):
            assert (p.x, p.rate, p.minimizer.alpha, p.theta_star) == (
                q.x, q.rate, q.minimizer.alpha, q.theta_star)


def test_rate_curve_validates_grid():
    with pytest.raises(ValueError, match="sorted"):
        rate.rate_curve(SG, [3.0, 2.5], rate.HatMode())
    with pytest.raises(ValueError, match="edge"):
        rate.rate_curve(SG, [1.5, 2.5], rate.HatMode())


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
