import math

import numpy as np
import pytest

from wignerld import semicircle
from wignerld.oracles import quad_goe_rate, quad_log_potential
from wignerld.selfcheck import check


def test_theta_roots_edge():
    pt = semicircle.theta_roots(2.0)
    assert pt.theta_minus == pytest.approx(0.5, abs=1e-15)
    assert pt.theta_plus == pytest.approx(0.5, abs=1e-15)


def test_theta_roots_example():
    check("theta_roots_example")


def test_theta_roots_domain_error():
    with pytest.raises(ValueError):
        semicircle.theta_roots(1.9)


def test_root_equation_and_product():
    rng = np.random.default_rng(0)
    for x in rng.uniform(2.0, 10.0, size=100):
        pt = semicircle.theta_roots(float(x))
        for th in (pt.theta_minus, pt.theta_plus):
            assert 2 * th + 1 / (2 * th) == pytest.approx(x, abs=1e-12)
        assert pt.theta_minus * pt.theta_plus == pytest.approx(0.25, abs=1e-12)
        assert pt.theta_minus <= 0.5 <= pt.theta_plus


def test_log_potential_far_field():
    assert semicircle.log_potential(1e6) == pytest.approx(math.log(1e6), abs=1e-6)


def test_log_potential_matches_closed_form():
    for x in (2.1, 2.5, 3.0, 4.0, 7.0):
        closed = x * x / 4.0 - 0.5 - semicircle.goe_rate(x)
        assert quad_log_potential(x) == pytest.approx(closed, abs=1e-10)
        assert semicircle.log_potential(x) == pytest.approx(closed, abs=1e-10)


def test_log_potential_slope_is_stieltjes():
    check("log_potential_slope", x=3.0)


def test_log_potential_domain_error():
    with pytest.raises(ValueError):
        semicircle.log_potential(1.5)


def test_goe_rate_values():
    assert semicircle.goe_rate(2.0) == 0.0
    assert semicircle.goe_rate(3.0) == pytest.approx(0.71463, abs=1e-5)
    assert semicircle.goe_rate(1.0) == math.inf


def test_goe_rate_against_quadrature():
    for x in (2.2, 3.0, 4.5, 8.0):
        assert semicircle.goe_rate(x) == pytest.approx(quad_goe_rate(x), abs=1e-10)


def test_goe_rate_monotone_convex():
    xs = np.linspace(2.0, 10.0, 201)
    vals = semicircle.goe_rate(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(np.diff(vals, 2) >= -1e-8)


def test_j_quadratic_branch():
    assert semicircle.j_value(3.0, 0.15) == pytest.approx(0.0225, abs=1e-14)


def test_j_branch_continuity_and_c1():
    for x in (2.05, 2.5, 3.0, 5.0):
        tm = semicircle.theta_roots(x).theta_minus
        low = tm * tm
        high = tm * x - 0.5 * semicircle.log_potential(x) - 0.5 * math.log(2 * tm) - 0.5
        assert abs(low - high) < 1e-9
        h = 1e-6
        left = (semicircle.j_value(x, tm) - semicircle.j_value(x, tm - h)) / h
        right = (semicircle.j_value(x, tm + h) - semicircle.j_value(x, tm)) / h
        assert abs(left - right) < 1e-4


def test_j_sup_identity():
    xs = (2.1, 2.5, 3.0, 4.0, 5.0)
    for x in xs:
        pt = semicircle.theta_roots(x)
        thetas = np.linspace(pt.theta_minus, 6.0, 4001)
        sup = np.max(semicircle.j_value(x, thetas) - thetas**2)
        assert abs(sup - semicircle.goe_rate(x)) < 1e-6
    check("j_at_theta_plus", xs=xs)  # and the sup is J - theta^2 at theta+


def test_overlap_values():
    tm = semicircle.theta_roots(3.0).theta_minus
    assert semicircle.overlap(3.0, tm) == 0.0
    assert semicircle.overlap(2.5, 1.0) == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert semicircle.overlap(3.0, 1e6) == pytest.approx(1.0, abs=1e-6)
    assert semicircle.overlap(3.0, 0.0) == 0.0


def test_overlap_identity_and_monotonicity():
    rng = np.random.default_rng(4)
    for x in rng.uniform(2.0, 8.0, size=20):
        pt = semicircle.theta_roots(float(x))
        ths = np.linspace(pt.theta_minus, 5.0, 50)
        q = semicircle.overlap(float(x), ths)
        assert np.allclose(q * q * ths, ths - pt.theta_minus, atol=1e-14)
        assert np.all(np.diff(q) >= 0.0)


def test_array_x_matches_scalar_calls_exactly():
    xs = np.concatenate(([2.0], np.linspace(2.0005, 10.0, 120), np.geomspace(10.0, 1e6, 60)))
    thetas = np.concatenate(([0.0, 0.3, 0.5], np.geomspace(1e-3, 1e4, 40)))
    lp = semicircle.log_potential(xs)
    jv = semicircle.j_value(xs[:, None], thetas)
    ov = semicircle.overlap(xs[:, None], thetas)
    for k, x in enumerate(xs.tolist()):
        r = math.sqrt((x - 2.0) * (x + 2.0))  # the closed form in Python floats
        assert lp[k] == semicircle.log_potential(x) == x / (x + r) - 0.5 + math.log((x + r) / 2.0)
        assert np.array_equal(jv[k], semicircle.j_value(x, thetas))
        assert np.array_equal(ov[k], semicircle.overlap(x, thetas))
        assert jv[k, 1] == semicircle.j_value(x, 0.3)
    with pytest.raises(ValueError, match="x=1.5"):
        semicircle.j_value(np.array([2.5, 1.5]), 1.0)
