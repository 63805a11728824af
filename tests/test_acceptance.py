"""Acceptance gate: one test per criterion, each printing a PASS line with
its key numbers and asserting the stated tolerances and runtime budgets.

Criteria 1 and 3-6 measure each invariant with its entry in the invariant
registry ``wignerld.selfcheck`` at the criterion's seeds and counts, and
assert its bounds; the CLI ``selfcheck`` runs the same entries at smoke
sizes.  Criterion 6's conditioning gap needs 12000 replicas, so it alone is
measured here.  Criteria 2 and 7 check whole rate curves.
"""

import time

import numpy as np
import pytest

from wignerld import montecarlo as mc
from wignerld import rate
from wignerld.cli import _curve_csv
from wignerld.entries import Gaussian, SparseGaussian
from wignerld.selfcheck import SHARPNESS, check, oracle_problems

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
    values = check("goe_identity")
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 1 (GOE identity)",
            f"value err {values['value']:.1e}, theta err {values['theta']:.1e}, {elapsed:.2f}s")


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
    check("sharpness")
    _report("criterion 3 (sharp classification)", f"{len(SHARPNESS)} cases as expected")


def test_criterion_4_gibbs_suite():
    t0 = time.time()
    rng = np.random.default_rng(40)
    scaling = check("gibbs_scaling", rng=rng, draws=50)
    dilation = check("gibbs_dilation", rng=rng, draws=10)
    w2 = check("gibbs_w2", rng=rng, draws=20)
    oracle = check("gibbs_grid_oracle", problems=oracle_problems(rng, 10))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 4 (Gibbs suite)",
            f"resid {scaling['residual']:.1e}, scaling {scaling['scaling']:.1e}, dilation "
            f"{dilation['gap']:.1e}, W2 excess {w2['excess']:.1e}, oracle gap {oracle['gap']:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_5_free_energy_suite():
    t0 = time.time()
    check("zero_profile_window")
    rng = np.random.default_rng(50)
    check("monotone_in_r", rng=rng, draws=10)
    limit = check("monotone_in_n")
    check("scale_t_lower_bound", rng=rng, draws=100)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 5 (free energies)", f"monotone in N with limit gap "
            f"{limit['limit_gap']:.1e}, 100 scale-t bounds, {elapsed:.1f}s")


def test_criterion_6_monte_carlo_suite():
    t0 = time.time()
    goe = check("goe_mean", seed=60, N=300, reps=50)
    bbp1 = check("bbp_supercritical", seed=61, N=400, reps=20)
    bbp_small = check("bbp_subcritical", seed=62, N=400, reps=20)
    spike = check("spike_mean", seed=63, N=400, reps=20)

    # selection-conditioning at a scale with enough selected replicas for
    # the weak desk-scale signal (the criterion does not pin N or reps); too
    # heavy for a smoke run, so the one check here outside the registry
    loc = mc.experiment(
        {"kind": "localization", "dist": SG, "N": 100, "reps": 12000, "seed": 2026,
         "eta": 0.1, "top_fraction": 0.01},
        threads=2,
    )
    diff = loc.extra["conditional_mean_linf"] - loc.extra["unconditional_mean_linf"]
    assert diff > 0.0

    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report("criterion 6 (Monte Carlo)",
            f"GOE mean {goe['mean']:.3f}, BBP {bbp1['mean']:.3f}/{bbp_small['mean']:.3f}, "
            f"spike {spike['mean']:.3f}, conditioning gap {diff:.4f}, {elapsed:.0f}s")


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
