import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from wignerld import entries, rate, semicircle, stencil
from wignerld.entries import SparseGaussian
from wignerld.stencil import stencil_max_rows

SG = SparseGaussian(0.5)


def _oracle(f, i, a, b, xatol):
    """scipy's bounded Brent on row i of ``f``, evaluated as a one-row call."""
    res = minimize_scalar(lambda t: -f(np.array([[t]]), np.array([i]))[0, 0], bounds=(a, b),
                          method="bounded", options={"xatol": xatol})
    return res.x, -res.fun


def _assert_matches_oracle(f, cells, values, xatol):
    t_star, value = stencil_max_rows(f, cells, values)
    for i, (a, _, b) in enumerate(cells):
        t_ref, v_ref = _oracle(f, i, a, b, np.broadcast_to(xatol, len(cells))[i])
        # near a maximum f changes by less than its rounding over ~1e-8 |t|,
        # and the oracle stops anywhere on that plateau
        assert abs(t_star[i] - t_ref) <= 1e-7 * max(1.0, abs(t_ref))
        assert abs(value[i] - v_ref) <= 1e-12
        assert a <= t_star[i] <= b


def _cells(f, a, b, middle=None):
    """Scan cells (a, m, b) of ``f`` with the objective there; m is the
    bracket's midpoint unless given."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cells = np.column_stack((a, 0.5 * (a + b) if middle is None else middle, b))
    return cells, f(cells, np.arange(len(cells)))


def _counted(f, n):
    """``f`` and the number of objective calls it has taken for each of n rows."""
    counts = np.zeros(n, dtype=int)

    def counted(t, rows):
        np.add.at(counts, rows, 1)
        return f(t, rows)

    return counted, counts


class Refinement:
    """One ``stencil_max_rows`` call: the function that made it (``owner``),
    its objective, cells and values, and the objective calls of each row."""

    def __init__(self, f, cells, values):
        self.owner = f.__qualname__.split(".")[0]
        self.f, self.cells, self.values = f, np.array(cells), np.array(values)
        self.counted, self.counts = _counted(f, len(self.cells))


@pytest.fixture
def refinements(monkeypatch):
    """Every ``stencil_max_rows`` call made by ``rate``, as ``Refinement``s."""
    calls = []

    def spy(f, cells, values):
        calls.append(Refinement(f, cells, values))
        return stencil_max_rows(calls[-1].counted, cells, values)

    monkeypatch.setattr(rate, "stencil_max_rows", spy)
    return calls


@pytest.fixture
def passes(monkeypatch):
    """The rows of every ``sup_theta_rows`` call made by ``rate``."""
    calls = []

    def spy(pen, rows):
        calls.append(np.array(rows))
        return inner(pen, rows)

    inner = rate.sup_theta_rows
    monkeypatch.setattr(rate, "sup_theta_rows", spy)
    return calls


def test_quadratic_rows_match_scipy():
    c = np.array([0.5, 1.0, 3.0, 10.0, 0.01])
    m = np.array([0.3, -1.7, 2.0, 0.0, 40.0])
    a, b = m - np.array([1.0, 0.2, 3.0, 1e-3, 50.0]), m + np.array([2.0, 0.1, 0.5, 1e-3, 7.0])

    def f(t, rows):
        return 1.0 - c[rows, None] * (t - m[rows, None]) ** 2

    _assert_matches_oracle(f, *_cells(f, a, b), 1e-10)
    # Newton steps on the stencil get below the rounding plateau (up to 1e-8
    # wide here), also from a cell end rather than the cell's exact vertex
    for middle in (None, a, b):
        counted, counts = _counted(f, m.size)
        t_star, _ = stencil_max_rows(counted, *_cells(f, a, b, middle))
        np.testing.assert_allclose(t_star, m, rtol=0.0, atol=1e-10)
        assert counts.max() <= stencil._MAX_ITER


def test_boundary_maximum_stays_in_bracket():
    def f(t, rows):
        return -t

    t_star, value = stencil_max_rows(f, *_cells(f, [0.0, 1.0], [1.0, 5.0]))
    assert np.all(t_star >= [0.0, 1.0]) and np.all(t_star <= [1e-7, 1.0 + 1e-7])
    assert np.array_equal(value, -t_star)


# --- hard rows: each ends inside the iteration cap --------------------------------


@pytest.mark.parametrize("middle", ["midpoint", "low end", "high end"])
def test_maximum_at_or_next_to_a_bracket_end(middle):
    # -cosh(t - m) on [0, 1]: m at an end, beyond it, or within a stencil's
    # half-width h ~ 6e-6 of it, where no stencil fits around the maximum
    m = np.array([0.0, 1.0, -0.3, 1.3, 1e-6, 1.0 - 2e-6, 4e-6, 1.0 - 5e-6])
    a, b = np.zeros(m.size), np.ones(m.size)

    def f(t, rows):
        return -np.cosh(t - m[rows, None])

    cells = _cells(f, a, b, {"midpoint": None, "low end": a, "high end": b}[middle])
    counted, counts = _counted(f, m.size)
    t_star, value = stencil_max_rows(counted, *cells)
    np.testing.assert_allclose(t_star, np.clip(m, 0.0, 1.0), rtol=0.0, atol=1e-7)
    assert np.all((t_star >= a) & (t_star <= b))
    assert np.array_equal(value, f(t_star[:, None], np.arange(m.size))[:, 0])
    assert counts.max() <= stencil._MAX_ITER


def test_non_concave_rows():
    # exp(-(t - m)^2) is convex beyond |t - m| = 1/sqrt(2): rows start in that
    # tail, at a cell end, and bisect into the concave middle
    m = np.array([0.0, 3.0, -2.0, 10.0, 0.5])
    a, b = m - np.array([2.5, 0.2, 4.0, 1.5, 0.9]), m + np.array([0.2, 3.0, 1.0, 6.0, 2.0])

    def f(t, rows):
        return np.exp(-(t - m[rows, None]) ** 2)

    for middle in (a, b):
        counted, counts = _counted(f, m.size)
        t_star, value = stencil_max_rows(counted, *_cells(f, a, b, middle))
        np.testing.assert_allclose(t_star, m, rtol=0.0, atol=1e-7)
        np.testing.assert_allclose(value, 1.0, rtol=0.0, atol=1e-12)
        assert counts.max() <= stencil._MAX_ITER


# --- the maximizer on the package's rows ------------------------------------------


@pytest.mark.parametrize("x", [2.54, 3.0])
def test_hat_theta_rows_match_scipy(x, refinements):
    ev = rate._hat_evaluator(SG)
    alphas = np.linspace(0.0, 0.9, 7)
    rate.sup_theta_rows(ev, np.column_stack((np.full(alphas.size, x), alphas)))
    (call,) = refinements
    assert call.owner == "theta_scan"
    _assert_matches_oracle(call.f, call.cells, call.values, 1e-10)


def test_psi_rows_match_scipy(monkeypatch):
    dist = entries.sparse_rademacher(0.2)
    seen = []

    def spy(f, cells, values):
        seen.append((f, np.array(cells), np.array(values)))
        return stencil_max_rows(f, cells, values)

    monkeypatch.setattr(entries, "stencil_max_rows", spy)
    entries._numeric_psi_max(dist, dist.psi_extremes().psi_infty)
    assert seen
    for f, cells, values in seen:
        xatol = 1e-12 * np.maximum(1.0, np.abs(cells[:, 0]) + np.abs(cells[:, 2]))
        _assert_matches_oracle(f, cells, values, xatol)


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
    (call,) = refinements
    # objective calls per row: its stencils and its last point
    assert np.median(call.counts) <= 3
    assert call.counts.max() <= 4


def test_goe_only_hat_curve_makes_no_alpha_search(refinements, passes):
    # every x has its only grid minimum at alpha = 0: the grid pass's theta
    # refinement runs, and neither the alpha search nor a theta* pass follows
    rate.rate_curve(SG, [2.1, 2.3], rate.HatMode())
    assert [call.owner for call in refinements] == ["theta_scan"]
    assert len(passes) == 1


def test_hat_last_pass_takes_only_alpha_search_rows(passes):
    xs = [2.1, 2.54, 2.78, 3.0]
    points = rate.rate_point(SG, xs, rate.HatMode())
    assert points[0].minimizer.alpha == 0.0 and all(p.minimizer.alpha > 0 for p in points[1:])
    np.testing.assert_array_equal(passes[-1], [[p.x, p.minimizer.alpha] for p in points[1:]])
    # the grid-pass theta* of (2.1, 0): no later pass holds that row
    assert not any(((rows[:, 0] == 2.1) & (rows[:, 1] == 0.0)).any() for rows in passes[1:])
    theta_star, _ = rate.sup_theta_rows(rate._hat_evaluator(SG), np.array([[2.1, 0.0]]))
    assert points[0].theta_star == theta_star[0]


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
    (call,) = [call for call in refinements if call.owner == "_hat_points"]
    np.testing.assert_array_equal(call.cells[:, 0], grid[inner - 1])
    np.testing.assert_array_equal(call.cells[:, 2], grid[np.minimum(inner + 1, grid.size - 1)])
    assert np.all(call.cells[:, 0] > 0.0)  # no row searches the bracket [0, alpha_1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(-5.0, 5.0), st.floats(-1.0, 1.0),
                          st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
                min_size=1, max_size=8),
       st.booleans())
def test_one_row_calls_equal_batched_call(params, end_cell):
    c, m, k, lo, hi = map(np.array, zip(*params))
    a, b = m - lo, m + hi

    def f(t, rows):
        d = t - m[rows, None]  # elementwise arithmetic only: its bits never depend on the batch
        return 0.1 * t - c[rows, None] * d * d + k[rows, None] * d * d * d

    cells, values = _cells(f, a, b, a if end_cell else None)
    t_star, value = stencil_max_rows(f, cells, values)
    for i in range(len(params)):
        one = stencil_max_rows(lambda t, rows: f(t, rows + i), cells[i:i + 1], values[i:i + 1])
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
