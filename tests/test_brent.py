import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from wignerld import entries, rate, semicircle
from wignerld.brent import brent_max_rows
from wignerld.entries import SparseGaussian

SG = SparseGaussian(0.5)


def _oracle(f, i, a, b, xatol):
    """scipy's bounded Brent on row i of ``f``, evaluated as a one-row call."""
    res = minimize_scalar(lambda t: -f(np.array([t]), np.array([i]))[0], bounds=(a, b),
                          method="bounded", options={"xatol": xatol})
    return res.x, -res.fun


def _assert_matches_oracle(f, a, b, tol, *, relative=False):
    t_star, value = brent_max_rows(f, a, b, tol, relative=relative)
    for i in range(len(a)):
        xatol = tol * max(1.0, abs(a[i]) + abs(b[i])) if relative else tol
        t_ref, v_ref = _oracle(f, i, a[i], b[i], xatol)
        # near a maximum f changes by less than its rounding over ~1e-8 |t|,
        # and the oracle stops anywhere on that plateau
        assert abs(t_star[i] - t_ref) <= 1e-7 * max(1.0, abs(t_ref))
        assert abs(value[i] - v_ref) <= 1e-12
        assert a[i] <= t_star[i] <= b[i]


@pytest.fixture
def refinements(monkeypatch):
    """Objective, brackets, tolerance and per-row evaluation counts of every
    ``brent_max_rows`` call made by ``rate``."""
    calls = []

    def spy(f, a, b, tol, **kwargs):
        counts = np.zeros(len(a), dtype=int)

        def counted(t, rows):
            np.add.at(counts, rows, 1)
            return f(t, rows)

        calls.append((f, np.asarray(a, dtype=float), np.asarray(b, dtype=float), tol, counts))
        return brent_max_rows(counted, a, b, tol, **kwargs)

    monkeypatch.setattr(rate, "brent_max_rows", spy)
    return calls


def test_quadratic_rows_match_scipy():
    c = np.array([0.5, 1.0, 3.0, 10.0, 0.01])
    m = np.array([0.3, -1.7, 2.0, 0.0, 40.0])
    a, b = m - np.array([1.0, 0.2, 3.0, 1e-3, 50.0]), m + np.array([2.0, 0.1, 0.5, 1e-3, 7.0])

    def f(t, rows):
        return 1.0 - c[rows] * (t - m[rows]) ** 2

    _assert_matches_oracle(f, a, b, 1e-10)
    # the closing vertex step gets below the rounding plateau (up to 1e-8 wide here)
    t_star, _ = brent_max_rows(f, a, b, 1e-10)
    np.testing.assert_allclose(t_star, m, rtol=0.0, atol=1e-10)


def test_boundary_maximum_stays_in_bracket():
    t_star, value = brent_max_rows(lambda t, rows: -t, [0.0, 1.0], [1.0, 5.0], 1e-8)
    assert np.all(t_star >= [0.0, 1.0]) and np.all(t_star <= [1e-7, 1.0 + 1e-7])
    assert np.array_equal(value, -t_star)


@pytest.mark.parametrize("x", [2.54, 3.0])
def test_hat_theta_rows_match_scipy(x, refinements):
    ev = rate._hat_evaluator(SG)
    alphas = np.linspace(0.0, 0.9, 7)
    rate.sup_theta_rows(ev, np.column_stack((np.full(alphas.size, x), alphas)))
    (f, a, b, tol, _), = refinements
    _assert_matches_oracle(f, a, b, tol)


def test_psi_rows_match_scipy(monkeypatch):
    dist = entries.sparse_rademacher(0.2)
    seen = []

    def spy(f, a, b, tol, **kwargs):
        seen.append((f, a, b, tol, kwargs))
        return brent_max_rows(f, a, b, tol, **kwargs)

    monkeypatch.setattr(entries, "brent_max_rows", spy)
    entries._numeric_psi_max(dist, dist.psi_extremes().psi_infty)
    assert seen and all(kwargs == {"relative": True} for *_, kwargs in seen)
    for f, a, b, tol, _ in seen:
        _assert_matches_oracle(f, a, b, tol, relative=True)


@pytest.mark.parametrize("dist, psi_max", [
    # values of the golden-section refinement this maximizer replaced
    (entries.sparse_rademacher(0.2), 0.5774138724215272),
    (entries.bernoulli_std(0.3), 0.5620107148303946),
])
def test_psi_max_unchanged(dist, psi_max):
    got = entries._numeric_psi_max(dist, dist.psi_extremes().psi_infty)
    assert got == pytest.approx(psi_max, abs=1e-12)


def test_hat_theta_rows_take_few_steps(refinements):
    ev = rate._hat_evaluator(SG)
    rows = np.array([[x, a] for x in (2.38, 2.54, 2.78, 3.0) for a in np.linspace(0.0, 0.8, 5)])
    rate.sup_theta_rows(ev, rows)
    (*_, counts), = refinements
    assert np.median(counts) <= 12
    assert counts.max() <= 25


def test_goe_only_hat_curve_makes_no_alpha_search(refinements):
    # every x has its only grid minimum at alpha = 0: the two theta
    # refinements (grid rows, then theta*) run, the alpha search does not
    rate.rate_curve(SG, [2.1, 2.3], rate.HatMode())
    assert [tol for *_, tol, _ in refinements] == [1e-10, 1e-10]


def test_hat_alpha_search_takes_only_interior_grid_minima(refinements):
    xs, grid = [2.54, 2.78], np.linspace(0.0, 0.95, 201)
    rows = np.array([[x, a] for x in xs for a in grid])
    vals = rate.sup_theta_rows(rate._hat_evaluator(SG), rows)[1].reshape(len(xs), -1)
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=np.inf)
    lows = (vals <= padded[:, :-2]) & (vals <= padded[:, 2:])
    assert lows[:, 0].all() and lows[:, 1:].any(axis=1).all()  # both kinds at each x
    inner = np.nonzero(lows[:, 1:])[1] + 1
    refinements.clear()
    rate.rate_point(SG, xs, rate.HatMode())
    (_, a, b, _, _), = [call for call in refinements if call[3] == 1e-8]
    np.testing.assert_array_equal(a, grid[inner - 1])
    np.testing.assert_array_equal(b, grid[np.minimum(inner + 1, grid.size - 1)])
    assert np.all(a > 0.0)  # no row searches the bracket [0, alpha_1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(-5.0, 5.0), st.floats(-1.0, 1.0),
                          st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
                min_size=1, max_size=8),
       st.booleans())
def test_one_row_calls_equal_batched_call(params, relative):
    c, m, k, lo, hi = map(np.array, zip(*params))
    a, b = m - lo, m + hi

    def f(t, rows):
        d = t - m[rows]  # elementwise arithmetic only: its bits never depend on the batch
        return 0.1 * t - c[rows] * d * d + k[rows] * d * d * d

    t_star, value = brent_max_rows(f, a, b, 1e-9, relative=relative)
    for i in range(len(params)):
        one = brent_max_rows(lambda t, rows: f(t, rows + i), a[i:i + 1], b[i:i + 1], 1e-9,
                             relative=relative)
        assert (t_star[i], value[i]) == (one[0][0], one[1][0])


# --- the 64-point hat and 16-point vector theta scans against 512 points ---------


class Scan512:
    """The penalty ``pen`` with a 512-point theta scan: the reference scan."""

    scan_points = 512

    def __init__(self, pen):
        self.pen = pen
        self.label = pen.label

    def __call__(self, theta, rows, q):
        return self.pen(theta, rows, q)


def test_hat_scan_matches_512_points():
    ev = rate._hat_evaluator(SG)
    rows = np.array([[x, a] for x in (2.38, 2.50, 2.54, 2.78, 3.0)
                     for a in np.linspace(0.0, 0.95, 21)])
    _, value = rate.sup_theta_rows(ev, rows)
    _, oracle = rate.sup_theta_rows(Scan512(ev), rows)
    np.testing.assert_allclose(value, oracle, rtol=0.0, atol=1e-12)


VECTOR_MODES = [
    rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=11)),
    rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=9), n_alpha=7),
]


@pytest.mark.parametrize("mode", VECTOR_MODES)
def test_vector_scan_matches_512_points(mode):
    for x in (2.6, 3.0, 3.6):
        pen, rows = mode._rows(SG, x, 0.95)
        assert pen.scan_points == 16
        _, value = rate.sup_theta_rows(pen, rows)
        _, oracle = rate.sup_theta_rows(Scan512(pen), rows)
        np.testing.assert_allclose(value, oracle, rtol=0.0, atol=1e-12, err_msg=f"x={x}")
        assert value.min() < semicircle.goe_rate(x)


@pytest.mark.parametrize("mode", VECTOR_MODES)
def test_refined_rows_do_not_depend_on_each_other(mode):
    # refining rows in separate calls, as the vector modes' branch and bound
    # does, gives the bits of refining every row at once
    pen, rows = mode._rows(SG, 3.0, 0.95)
    best, refine = rate.theta_scan(pen, rows)
    together = refine(np.arange(len(rows)))
    assert np.all(together[1] >= best)  # a row's value is never below its scan maximum
    order = np.random.default_rng(7).permutation(len(rows))
    for part in np.array_split(order, 4):
        theta_star, value = refine(part)
        assert np.array_equal(theta_star, together[0][part])
        assert np.array_equal(value, together[1][part])
