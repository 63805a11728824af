"""Acceptance gate: one test per criterion, each printing a PASS line with
its key numbers and asserting the stated tolerances and runtime budgets."""

import math
import time

import numpy as np
import pytest

from wignerld import free_energy as fe
from wignerld import montecarlo as mc
from wignerld import rate, semicircle
from wignerld.cli import _curve_csv
from wignerld.entries import (
    Gaussian,
    SparseGaussian,
    bernoulli_std,
    rademacher,
    sparse_rademacher,
)
from wignerld.gibbs import GibbsProblem, gibbs_solve, wasserstein2
from wignerld.oracles import gibbs_grid_oracle

GAUSS = Gaussian()
SG = SparseGaussian(0.5)

FIG_GRID = [round(2.0 + 0.02 * i, 10) for i in range(76)]


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def fig1_curve():
    t0 = time.time()
    curve = rate.rate_curve(SG, FIG_GRID, rate.HatMode(), cap=0.95, tol=1e-3)
    return curve, time.time() - t0


@pytest.fixture(scope="module")
def gaussian_curve():
    t0 = time.time()
    curve = rate.rate_curve(GAUSS, FIG_GRID, rate.HatMode(), cap=0.95, tol=1e-3)
    return curve, time.time() - t0


def test_criterion_1_goe_identity():
    t0 = time.time()
    worst_v = worst_t = 0.0
    for x in (2.1, 2.5, 3.0, 4.0, 5.0):
        theta_star, value = rate.sup_theta(x, lambda t: t * t)
        worst_v = max(worst_v, abs(value - semicircle.goe_rate(x)))
        worst_t = max(worst_t, abs(theta_star - semicircle.theta_roots(x).theta_plus))
    elapsed = time.time() - t0
    assert worst_v < 1e-6
    assert worst_t < 1e-7
    assert elapsed < 1.0
    _report("criterion 1 (GOE identity)",
            f"value err {worst_v:.1e}, theta err {worst_t:.1e}, {elapsed:.2f}s")


def test_criterion_2_figure_one_reproduction(fig1_curve):
    curve, elapsed = fig1_curve
    rates = curve.rates
    goe = curve.goe_rates
    xs = np.array(curve.grid)

    low = xs <= 2.40 + 1e-12
    a = float(np.max(np.abs(rates[low] - goe[low])))
    assert a < 1e-3

    high = xs >= 2.70 - 1e-12
    assert np.all(rates[high] < goe[high] - 1e-3)

    assert curve.x_mu is not None and 2.42 <= curve.x_mu <= 2.62

    first = next(p for p in curve.points if p.goe_rate - p.rate > 1e-3)
    assert 0.24 <= first.minimizer.alpha <= 0.32

    # past the jump the optimal localized mass keeps growing
    alphas = [p.minimizer.alpha for p in curve.points if p.x >= curve.x_mu]
    assert all(b >= a - 1e-3 for a, b in zip(alphas, alphas[1:]))

    assert elapsed < 300.0

    csv = _curve_csv(curve)
    lines = csv.splitlines()
    assert lines[0] == "x,rate,goe_rate,theta_star,alpha_star"
    assert len(lines) == 77  # header plus 76 grid rows

    _report(
        "criterion 2 (transition curve)",
        f"universal err {a:.1e}, x_mu {curve.x_mu}, first alpha* {first.minimizer.alpha:.4f}, "
        f"{elapsed:.0f}s",
    )


def test_figure_one_goe_regime_is_goe(fig1_curve):
    # phi1 is even, so the table's spline starts flat; a stray slope at u = 0
    # used to pull x <= 2.50 up to 2.7e-11 below the GOE rate
    spline = rate._hat_evaluator(SG).phi1.spline
    assert spline(0.0, 1) == 0.0
    curve, _ = fig1_curve
    low = np.array(curve.grid) <= 2.50 + 1e-12
    assert np.max(np.abs(curve.rates[low] - curve.goe_rates[low])) <= 1e-14


def test_criterion_3_sharpness_classification():
    cases = [
        (rademacher(), True),
        (sparse_rademacher(0.30), False),
        (sparse_rademacher(0.34), True),
        (SparseGaussian(0.25), False),
        (SparseGaussian(0.5), False),
        (SparseGaussian(0.75), False),
        (bernoulli_std(0.3), False),
        (bernoulli_std(0.5), True),
    ]
    for dist, expected in cases:
        assert dist.psi_extremes().is_sharp == expected, dist
    _report("criterion 3 (sharp classification)", f"{len(cases)} cases as expected")


def test_criterion_4_gibbs_suite():
    t0 = time.time()
    rng = np.random.default_rng(40)

    worst_resid = worst_scale = 0.0
    for _ in range(50):
        v = rng.uniform(-0.8, 0.8, size=rng.integers(1, 3))
        R = rng.uniform(4.0, 9.0)
        alpha = rng.uniform(0.3, 1.4)
        sol = gibbs_solve(GibbsProblem(v, SG, R, alpha))
        worst_resid = max(worst_resid, sol.root_residual())
        rhs = gibbs_solve(GibbsProblem(math.sqrt(alpha) * v, SG, R / math.sqrt(alpha), 1.0)).value
        rhs += 0.5 * (1.0 - alpha) + 0.5 * math.log(alpha)
        worst_scale = max(worst_scale, abs(sol.value - rhs))
    assert worst_resid < 1e-9
    assert worst_scale < 1e-6

    worst_dil = 0.0
    for _ in range(10):
        v = rng.uniform(-0.7, 0.7, size=2)
        R = rng.uniform(5.0, 8.0)
        a = rng.uniform(0.5, 1.5)
        lhs = gibbs_solve(GibbsProblem(a * v, SG, R / a, 1.0)).value
        rhs = gibbs_solve(GibbsProblem(v, SG, R, a * a)).value - 0.5 * (1.0 - a * a) - math.log(a)
        worst_dil = max(worst_dil, abs(lhs - rhs))
    assert worst_dil < 1e-6

    worst_w2 = -math.inf
    checked = 0
    while checked < 20:
        base = rng.uniform(0.2, 0.7, size=2) * rng.choice([-1.0, 1.0], size=2)
        R = rng.uniform(6.0, 10.0)
        a = rng.uniform(0.5, 3.0)
        b = a + rng.uniform(0.05, 2.0)
        if b > R:
            continue
        sa = gibbs_solve(GibbsProblem(a * base, SG, R / a, 1.0))
        sb = gibbs_solve(GibbsProblem(b * base, SG, R / b, 1.0))
        worst_w2 = max(worst_w2, wasserstein2(sa, sb) - 2.0 * math.sqrt(1.0 - a / b))
        checked += 1
    assert worst_w2 < 1e-3

    worst_oracle = 0.0
    for i in range(10):
        dist = (GAUSS, SG, rademacher())[i % 3]
        prob = GibbsProblem(
            rng.uniform(-0.8, 0.8, size=rng.integers(1, 3)),
            dist,
            rng.uniform(3.0, 4.5),
            rng.uniform(0.4, 1.3),
        )
        worst_oracle = max(worst_oracle, abs(gibbs_grid_oracle(prob, 41) - gibbs_solve(prob).value))
    assert worst_oracle < 5e-3

    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(
        "criterion 4 (Gibbs suite)",
        f"resid {worst_resid:.1e}, scaling {worst_scale:.1e}, dilation {worst_dil:.1e}, "
        f"W2 excess {worst_w2:.1e}, oracle gap {worst_oracle:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_free_energy_suite():
    t0 = time.time()
    for theta in (0.5, 1.0, 2.0):
        for R in (6.0, 8.0, 12.0):
            val = fe.f_restricted(SG, theta, np.zeros(2), 1000, R)
            assert theta**2 - 10.0 * math.exp(-R * R / 8.0) <= val <= theta**2

    rng = np.random.default_rng(50)
    for _ in range(10):
        w = rng.uniform(-0.5, 0.5, size=2)
        theta = rng.uniform(0.3, 2.0)
        assert (
            fe.f_restricted(SG, theta, w, 1000, 6.0)
            <= fe.f_restricted(SG, theta, w, 1000, 12.0) + 1e-12
        )

    theta, alpha = 1.0, 0.3
    w = np.array([math.sqrt(alpha)])
    vals = [fe.f_restricted(SG, theta, w, N, N**0.2) for N in (10**3, 10**4, 10**5, 10**6)]
    assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))
    limit_gap = abs(vals[-1] - fe.f_hat(SG, theta, alpha))
    assert limit_gap < 5e-3

    for _ in range(100):
        th = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.0, 0.6)
        at = rng.uniform(0.0, max(1e-6, 1.0 - c * c - 0.05))
        t = rng.uniform(-30.0, 30.0)
        assert fe.f_tilde(SG, th, [c], at, 8.0, t=t) <= fe.f_tilde(SG, th, [c], at, 8.0) + 1e-9

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(
        "criterion 5 (free energies)",
        f"monotone in N with limit gap {limit_gap:.1e}, 100 scale-t bounds, {elapsed:.1f}s",
    )


def test_criterion_6_monte_carlo_suite():
    t0 = time.time()
    lams = [
        mc.lambda1_and_vector(mc.sample_wigner(GAUSS, 300, rng=mc.replica_rng(60, i)))[0]
        for i in range(50)
    ]
    goe_mean = float(np.mean(lams))
    assert 1.85 <= goe_mean <= 2.02

    bbp1 = mc.experiment({"kind": "bbp", "dist": GAUSS, "N": 400, "reps": 20, "theta": 1.0, "seed": 61})
    assert 2.4 <= bbp1.mean <= 2.6
    bbp_small = mc.experiment({"kind": "bbp", "dist": GAUSS, "N": 400, "reps": 20, "theta": 0.3, "seed": 62})
    assert 1.9 <= bbp_small.mean <= 2.1

    spikes = []
    for i in range(20):
        H = mc.sample_wigner(GAUSS, 400, rng=mc.replica_rng(63, i)).matrix.copy()
        H[0, 0] += 3.0
        spikes.append(mc.lambda1_and_vector(H)[0])
    spike_mean = float(np.mean(spikes))
    assert abs(spike_mean - 10.0 / 3.0) < 0.15

    # selection-conditioning at a scale with enough selected replicas for
    # the weak desk-scale signal (the criterion does not pin N or reps)
    loc = mc.experiment(
        {"kind": "localization", "dist": SG, "N": 100, "reps": 12000, "seed": 2026,
         "eta": 0.1, "top_fraction": 0.01},
        threads=2,
    )
    diff = loc.extra["conditional_mean_linf"] - loc.extra["unconditional_mean_linf"]
    assert diff > 0.0

    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(
        "criterion 6 (Monte Carlo)",
        f"GOE mean {goe_mean:.3f}, BBP {bbp1.mean:.3f}/{bbp_small.mean:.3f}, "
        f"spike {spike_mean:.3f}, conditioning gap {diff:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_global_rate_properties(fig1_curve, gaussian_curve):
    for name, (curve, _) in (("sparse gaussian", fig1_curve), ("gaussian", gaussian_curve)):
        rates = curve.rates
        goe = curve.goe_rates
        assert np.all(rates >= -1e-9), name
        assert np.all(rates <= goe + 1e-6), name
        assert np.all(np.diff(rates) >= -1e-6), name
    gcurve = gaussian_curve[0]
    assert gcurve.x_mu is None
    assert float(np.max(np.abs(gcurve.rates - gcurve.goe_rates))) < 1e-4
    _report("criterion 7 (global properties)",
            "0 <= rate <= GOE rate and nondecreasing on both curves")
