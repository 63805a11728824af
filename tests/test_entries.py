import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from wignerld import entries
from wignerld.entries import (
    DiscreteAtoms,
    Gaussian,
    SparseGaussian,
    bernoulli_std,
    check_assumptions,
    distribution_from_spec,
    rademacher,
    sparse_rademacher,
    standardize_atoms,
)
from wignerld.montecarlo import make_rng
from wignerld.selfcheck import check

ALL_DISTS = [
    Gaussian(),
    SparseGaussian(0.5),
    SparseGaussian(0.25),
    rademacher(),
    sparse_rademacher(0.3),
    sparse_rademacher(0.7),
    bernoulli_std(0.3),
    bernoulli_std(0.5),
    standardize_atoms([(-2.0, 0.25), (0.5, 0.5), (3.0, 0.25)]),
]


# --- log-Laplace transform -------------------------------------------------


def test_gaussian_closed_form():
    g = Gaussian()
    assert g.log_laplace(1.3) == pytest.approx(0.845, abs=1e-12)
    assert g.log_laplace(1.3, 1) == pytest.approx(1.3)
    assert g.log_laplace(1.3, 2) == pytest.approx(1.0)


def test_sparse_gaussian_value():
    # closed form log(1 - p + p exp(t^2 / 2p)) evaluated independently
    expected = math.log(0.5 + 0.5 * math.exp(1.0))
    assert SparseGaussian(0.5).log_laplace(1.0) == pytest.approx(expected, abs=1e-12)
    assert round(expected, 5) == 0.62011


def test_sparse_gaussian_array_matches_scalar_calls():
    # the small-|t| branch is patched into the array result; it must give the
    # scalar path's values bit for bit on both sides of |t| = 1e-2
    for p in (0.5, 0.1):
        dist = SparseGaussian(p)
        t = np.concatenate([np.linspace(-0.03, 0.03, 60), [-1e-2, 1e-2, 0.0, 7.5, -40.0, 300.0]])
        t = t.reshape(2, -1)
        out = dist.log_laplace(t)
        assert out.shape == t.shape
        scalars = np.array([[dist.log_laplace(float(x)) for x in row] for row in t])
        assert np.array_equal(out, scalars)
        assert type(dist.log_laplace(0.005)) is float


def _sparse_gaussian_unmasked(p, t, order):
    """SparseGaussian.log_laplace with logaddexp on every node, the formula
    the masked call must reproduce byte for byte."""
    t = np.asarray(t, dtype=float)
    log_b = math.log(p) + t * t / (2.0 * p)
    log_s = np.logaddexp(math.log1p(-p) if p < 1 else -np.inf, log_b)
    if order == 0:
        out = np.array(log_s)
        small = np.abs(t) < 1e-2
        out[small] = np.log1p(p * np.expm1(t[small] * t[small] / (2 * p)))
        return out
    w = np.exp(log_b - log_s)
    if order == 1:
        return (t / p) * w
    return (t * t + p) / (p * p) * w - (t / p * w) ** 2


_T_EDGES = [0.0, -0.0, 1e-3, -1e-3, 1e-2, math.inf, -math.inf, math.nan, 1e155, -1e200, 5e-324]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1e-3, 0.5, 1.0 - 1e-12, 1.0]),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
       st.floats(-400.0, 400.0))
def test_sparse_gaussian_masked_logaddexp_is_bit_for_bit(p, ts, scale):
    # logaddexp runs only where it can change a bit: orders 0-2 equal the
    # unmasked formula byte for byte, overflow, NaN and +-inf included
    dist = SparseGaussian(p)
    t = np.array(_T_EDGES + ts + (scale * np.linspace(-1.0, 1.0, 41)).tolist())
    with np.errstate(all="ignore"):
        for order in (0, 1, 2):
            assert dist.log_laplace(t, order).tobytes() == \
                _sparse_gaussian_unmasked(p, t, order).tobytes()
            for x in (0.0, 1e-3, 3.5, math.inf, math.nan):
                assert np.float64(dist.log_laplace(x, order)).tobytes() == \
                    _sparse_gaussian_unmasked(p, np.array(x), order).tobytes()


def test_rademacher_unit_variance():
    assert rademacher().log_laplace(0.0, 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_standardized(dist):
    check("standardization", laws=[dist])


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_convexity_on_random_grid(dist):
    ts = np.random.default_rng(1).uniform(-40.0, 40.0, size=200)
    check("convexity", laws=[dist], ts=ts)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_finite_differences_match_derivatives(dist):
    rng = np.random.default_rng(2)
    h = 1e-4
    for t in rng.uniform(-4.0, 4.0, size=12):
        lp, lm, l0 = (dist.log_laplace(t + h), dist.log_laplace(t - h), dist.log_laplace(t))
        assert (lp - lm) / (2 * h) == pytest.approx(dist.log_laplace(t, 1), abs=1e-5)
        assert (lp - 2 * l0 + lm) / h**2 == pytest.approx(dist.log_laplace(t, 2), abs=1e-5)


def test_overflow_safety_large_arguments():
    # |t x| beyond 700 must not overflow the exponentials
    d = standardize_atoms([(-5.0, 0.5), (5.0, 0.5)])
    assert np.isfinite(d.log_laplace(500.0))
    assert np.isfinite(SparseGaussian(0.1).log_laplace(300.0))


@settings(max_examples=80, deadline=None)
@given(
    atoms=st.lists(st.tuples(st.floats(-20.0, 20.0), st.sampled_from([0.1, 0.2, 0.25, 0.5])),
                   min_size=2, max_size=4, unique_by=lambda a: round(a[0], 3)),
    ts=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=30),
    keepdims=st.booleans(),
)
def test_numpy_logsumexp_is_scipys_bit_for_bit(atoms, ts, keepdims):
    # the atom laws' log-sum-exp keeps scipy's arithmetic; equal masses tie at t = 0
    total = sum(m for _, m in atoms)
    law = standardize_atoms([(x, m / total) for x, m in atoms])
    t = np.array([0.0, *ts, *(-x for x in ts)])
    a = law._log_masses + t[:, None] * law.locations
    tied = a.copy()
    tied[:, 1] = tied.max(axis=1)  # an exact tie at the row maximum
    for arg in (a, tied):
        ours = entries._logsumexp(arg, axis=-1, keepdims=keepdims)
        ref = logsumexp(arg, axis=-1, keepdims=keepdims)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


PINNED_T = np.array([-700.0, -37.5, -2.5, -0.3, -1e-2, -1e-3, 0.0, 5e-3, 1e-2, 0.7, 4.0, 61.0, 700.0])
PINNED_LOG_LAPLACE = {  # orders 0, 1 and 2 at PINNED_T, as computed through scipy's logsumexp
    "bernoulli_std(0.3)": (bernoulli_std(0.3), [
        [457.9008945516453, 24.192837707610412, 1.2817888289185222, 0.04077871006697889,
         4.9854010797933945e-05, 4.998544698717618e-07, 0.0, 1.2518152417590757e-05,
         5.0144957455366956e-05, 0.2750851424054848, 4.9065057481693914, 91.97506632644281,
         1068.0636893520368],
        [-0.6546536707079772, -0.6546536707079772, -0.6506648148366517, -0.2572033013945428,
         -0.009956152704947851, -0.0009995633581336343, 2.300468677498709e-17,
         0.005010884936328704, 0.010043434596337882, 0.7938536461620193, 1.5267013399783742,
         1.5275252316519468, 1.5275252316519468],
        [0.0, 0.0, 0.008688486155798647, 0.7093410145835513, 0.9912104324707515,
         0.9991265104444166, 1.0000000000000002, 1.0043487499882389, 1.0086657578548535,
         1.0627286597617709, 0.0017972002304103007, 0.0, 0.0],
    ]),
    "sparse_rademacher(0.2)": (sparse_rademacher(0.2), [
        [1562.9449991568588, 81.54996406324807, 3.3170359686402153, 0.04565479395740002,
         5.0000833305613446e-05, 5.000000833333235e-07, 0.0, 1.2500052082899395e-05,
         5.0000833305613446e-05, 0.26181761124599223, 6.642730149079727, 134.09756153449314,
         1562.9449991568588],
        [-2.23606797749979, -2.23606797749979, -2.171143294303306, -0.3085962464630292,
         -0.010000333316666735, -0.0010000003333332618, 4.586541819946801e-18,
         0.005000041666145849, 0.010000333316666735, 0.7873237438744061, 2.2337361946306085,
         2.23606797749979, 2.23606797749979],
        [0.0, 0.0, 0.1410962002091587, 1.0832815352353617, 1.0000999916666946,
         1.0000009999991668, 1.0000000000000004, 1.0000249994791672, 1.0000999916666946,
         1.3015157756743556, 0.005208757872037673, 0.0, 0.0],
    ]),
}


@pytest.mark.parametrize("name", PINNED_LOG_LAPLACE)
def test_atom_log_laplace_pinned(name):
    law, rows = PINNED_LOG_LAPLACE[name]
    for order, expected in enumerate(rows):
        assert law.log_laplace(PINNED_T, order).tobytes() == np.array(expected).tobytes(), order


# --- psi -------------------------------------------------------------------


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_psi_at_zero(dist):
    assert dist.psi(0.0) == pytest.approx(0.5, abs=1e-12)


def test_psi_gaussian_constant():
    assert Gaussian().psi(7.2) == pytest.approx(0.5, abs=1e-12)


def test_psi_sparse_gaussian_limit():
    assert SparseGaussian(0.5).psi(50.0) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_psi_continuous_across_taylor_cut(dist):
    for t in (1e-4 * 0.999, 1e-4 * 1.001, -1e-4 * 0.999, -1e-4 * 1.001):
        direct = dist.log_laplace(float(t)) / t**2
        assert dist.psi(float(t)) == pytest.approx(direct, abs=1e-7)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_psi_bounded_by_psi_max(dist):
    ext = dist.psi_extremes()
    rng = np.random.default_rng(3)
    ts = rng.uniform(-60.0, 60.0, size=1000)
    assert float(np.max(dist.psi(ts))) <= ext.psi_max + 1e-9


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_psi_tail_limit(dist):
    # compactly supported laws approach their limit like x_max/T, so the
    # probe point scales with support; unbounded laws settle by T = 100
    ext = dist.psi_extremes()
    T = 1e5 if ext.psi_infty == 0.0 else 100.0
    assert dist.psi(T) == pytest.approx(ext.psi_infty, abs=1e-3)
    assert dist.psi(-T) == pytest.approx(ext.psi_infty, abs=1e-3)


@pytest.mark.parametrize(
    "dist", [rademacher(), sparse_rademacher(0.3), SparseGaussian(0.5),
             standardize_atoms([(-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)])],
    ids=["rademacher", "sparse_rademacher", "sparse_gaussian", "atoms"],
)
def test_psi_symmetric_exact(dist):
    ts = np.linspace(0.05, 35.0, 101)
    assert np.all(dist.psi(-ts) == dist.psi(ts))


def _symmetric_atoms(halves):
    """Standardized law with atoms +-x of mass m/2 each (and the rest at 0)."""
    total = sum(m for _, m in halves) * 1.25  # leave a fifth of the mass at 0
    atoms = [(0.0, 0.2)] + [(s * x, 0.5 * m / total) for x, m in halves for s in (-1.0, 1.0)]
    return standardize_atoms(atoms)


SYMMETRIC_LAWS = st.one_of(
    st.just(Gaussian()),
    st.floats(0.01, 1.0).map(SparseGaussian),
    st.just(rademacher()),
    st.floats(0.01, 1.0).map(sparse_rademacher),
    st.lists(st.tuples(st.floats(0.1, 20.0), st.floats(0.01, 1.0)), min_size=1, max_size=4,
             unique_by=lambda a: round(a[0], 6)).map(_symmetric_atoms),
)


@settings(max_examples=60, deadline=None)
@given(SYMMETRIC_LAWS, st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=20))
def test_symmetric_law_transform_is_even(dist, ts):
    # the half-line Gibbs grid of symmetric laws relies on L(-t) == L(t) exactly
    assert dist.symmetric
    t = np.concatenate([ts, np.geomspace(1e-8, 1e-1, 15)])  # the small-|t| branches too
    for order in (0, 2):
        assert np.array_equal(dist.log_laplace(-t, order), dist.log_laplace(t, order))


def test_asymmetric_laws_not_flagged():
    assert not bernoulli_std(0.3).symmetric
    assert not standardize_atoms([(-1.0, 0.3), (0.5, 0.5), (2.0, 0.2)]).symmetric
    assert bernoulli_std(0.5).symmetric  # the fair case is Rademacher


# --- psi extremes ----------------------------------------------------------


def test_extremes_rademacher():
    ext = rademacher().psi_extremes()
    assert (ext.psi_max, ext.psi_infty, ext.is_sharp) == (0.5, 0.0, True)


def test_extremes_sparse_rademacher_threshold():
    assert not sparse_rademacher(0.3).psi_extremes().is_sharp
    assert sparse_rademacher(0.34).psi_extremes().is_sharp
    assert sparse_rademacher(0.3).psi_extremes().psi_max > 0.5


def test_extremes_sparse_gaussian():
    ext = SparseGaussian(0.5).psi_extremes()
    assert ext.psi_max == pytest.approx(1.0, abs=1e-9)
    assert ext.psi_infty == pytest.approx(1.0, abs=1e-12)
    assert not ext.is_sharp


def test_extremes_bernoulli():
    assert bernoulli_std(0.5).psi_extremes().is_sharp
    assert not bernoulli_std(0.3).psi_extremes().is_sharp


def test_gaussian_tail_parameter():
    ext = Gaussian().psi_extremes()
    assert ext.psi_max == 0.5 and ext.psi_infty == 0.5 and ext.is_sharp


def test_psi_max_at_least_half_and_infty_nonnegative():
    for d in ALL_DISTS:
        ext = d.psi_extremes()
        assert ext.psi_max >= 0.5 - 1e-12
        assert ext.psi_infty >= 0.0


# --- standardization -------------------------------------------------------


def test_standardize_noop_for_rademacher_atoms():
    d = standardize_atoms([(1.0, 0.5), (-1.0, 0.5)])
    assert sorted(d.locations) == [-1.0, 1.0]


def test_standardize_bernoulli_quarter():
    d = standardize_atoms([(1.0, 0.25), (0.0, 0.75)])
    locs = dict(zip(np.round(d.locations, 10), d.masses))
    assert math.sqrt(3.0) == pytest.approx(max(d.locations), abs=1e-12)
    assert -1.0 / math.sqrt(3.0) == pytest.approx(min(d.locations), abs=1e-12)
    assert locs[round(math.sqrt(3.0), 10)] == pytest.approx(0.25)


def test_standardize_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        standardize_atoms([(2.0, 1.0)])
    with pytest.raises(ValueError, match="degenerate"):
        standardize_atoms([(1.0, 0.5), (1.0, 0.5)])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-50, 50), st.floats(0.01, 1.0)),
        min_size=2,
        max_size=6,
        unique_by=lambda a: round(a[0], 6),
    )
)
def test_standardize_atoms_property(atoms):
    total = sum(m for _, m in atoms)
    atoms = [(x, m / total) for x, m in atoms]
    xs = np.array([x for x, _ in atoms])
    if np.ptp(xs) < 1e-3:
        return
    d = standardize_atoms(atoms)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(d.log_laplace(0.0, 1)) < 1e-9
    assert d.log_laplace(0.0, 2) == pytest.approx(1.0, abs=1e-8)


# --- sampling --------------------------------------------------------------


def test_gaussian_sample_mean():
    rng = make_rng(10)
    x = Gaussian().sample(100_000, rng=rng)
    assert abs(x.mean()) < 0.02


def test_rademacher_tilted_mean():
    check("tilted_mean", rng=make_rng(11), n=100_000)


def test_rademacher_support():
    rng = make_rng(12)
    x = rademacher().sample(100, rng=rng)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_empty_sample():
    rng = make_rng(13)
    assert Gaussian().sample(0, rng=rng).size == 0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_tilted_means_match_derivative(dist):
    rng = make_rng(14)
    n = 100_000
    for t in np.random.default_rng(15).uniform(-2.0, 2.0, size=3):
        x = dist.sample(n, tilt=float(t), rng=rng)
        target = dist.log_laplace(float(t), 1)
        band = 4.0 * math.sqrt(dist.log_laplace(float(t), 2) / n)
        assert abs(x.mean() - target) <= band


def test_array_tilt_matches_scalar_law():
    rng = make_rng(16)
    tilts = np.full(50_000, 0.7)
    x = SparseGaussian(0.5).sample(tilts.size, tilt=tilts, rng=rng)
    target = SparseGaussian(0.5).log_laplace(0.7, 1)
    assert abs(x.mean() - target) < 4.0 * math.sqrt(SparseGaussian(0.5).log_laplace(0.7, 2) / tilts.size)


# --- JSON surface and assumption screening ---------------------------------


def test_spec_roundtrip():
    d = distribution_from_spec({"kind": "sparse_gaussian", "p": 0.5})
    assert isinstance(d, SparseGaussian) and d.p == 0.5
    d2 = distribution_from_spec({"kind": "atoms", "atoms": [[1.0, 0.25], [0.0, 0.75]]})
    assert isinstance(d2, DiscreteAtoms)
    assert abs(d2.log_laplace(0.0, 1)) < 1e-9  # auto-standardized


def test_spec_errors():
    with pytest.raises(ValueError, match="unknown dist kind"):
        distribution_from_spec({"kind": "cauchy"})
    with pytest.raises(ValueError, match="requires field 'p'"):
        distribution_from_spec({"kind": "sparse_gaussian"})
    with pytest.raises(ValueError, match="unknown key"):
        distribution_from_spec({"kind": "gaussian", "scale": 2})
    with pytest.raises(ValueError, match="field 'kind'"):
        distribution_from_spec({"kind": ["x"]})
    for p in (None, [0.5], True, "0.5", math.nan):
        with pytest.raises(ValueError, match="requires field 'p'"):
            distribution_from_spec({"kind": "bernoulli", "p": p})
    for atoms in (5, [[1.0, 0.5]] * 2 + [0.0], [[1.0, 0.5], [-1.0, 0.5, 0.0]],
                  [[math.inf, 0.5], [-1.0, 0.5]]):
        with pytest.raises(ValueError, match="requires field 'atoms'"):
            distribution_from_spec({"kind": "atoms", "atoms": atoms})


def test_assumption_screen_clean_for_standard_variants():
    assert check_assumptions(SparseGaussian(0.5)) == []
    assert check_assumptions(rademacher()) == []


def test_assumption_screen_flags_negative_side_maximum():
    msgs = check_assumptions(bernoulli_std(0.7))
    assert any("negative" in m for m in msgs)
