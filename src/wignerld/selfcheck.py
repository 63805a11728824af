"""Condensed invariant suites, one per module, for the CLI selfcheck command.

Each suite returns (name, passed, detail) tuples.  These mirror the heavier
pytest suite but run in seconds; they are smoke checks, not the acceptance
gate.
"""

from __future__ import annotations

import math

import numpy as np

from . import free_energy, montecarlo, oracles, rate, semicircle
from .entries import Gaussian, SparseGaussian, bernoulli_std, rademacher, sparse_rademacher
from .gibbs import GibbsProblem, gibbs_solve, phi_unbounded, wasserstein2

__all__ = ["run_all", "SUITES"]


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


def check_entries():
    out = []
    dists = [Gaussian(), SparseGaussian(0.5), rademacher(), sparse_rademacher(0.3), bernoulli_std(0.3)]
    worst = 0.0
    for d in dists:
        worst = max(worst, abs(d.log_laplace(0.0)), abs(d.log_laplace(0.0, 1)),
                    abs(d.log_laplace(0.0, 2) - 1.0))
    out.append(_check("standardization L(0)=L'(0)=0, L''(0)=1", worst < 1e-9, f"worst {worst:.1e}"))
    ts = np.linspace(-30, 30, 301)
    convex = all(np.all(np.asarray(d.log_laplace(ts, 2)) > -1e-12) for d in dists)
    out.append(_check("convexity L'' >= 0", convex))
    flags = [
        rademacher().psi_extremes().is_sharp,
        not sparse_rademacher(0.3).psi_extremes().is_sharp,
        sparse_rademacher(0.34).psi_extremes().is_sharp,
        not SparseGaussian(0.5).psi_extremes().is_sharp,
        not bernoulli_std(0.3).psi_extremes().is_sharp,
        bernoulli_std(0.5).psi_extremes().is_sharp,
    ]
    out.append(_check("sharp sub-Gaussian classification", all(flags), str(flags)))
    rng = montecarlo.make_rng(7)
    xs = rademacher().sample(100_000, tilt=1.0, rng=rng)
    out.append(_check("tilted sample mean matches L'(t)", abs(xs.mean() - math.tanh(1.0)) < 0.02,
                      f"mean {xs.mean():.4f} vs {math.tanh(1.0):.4f}"))
    return out


def check_semicircle():
    out = []
    pt = semicircle.theta_roots(2.5)
    out.append(_check("theta roots at x=2.5", abs(pt.theta_minus - 0.25) < 1e-14
                      and abs(pt.theta_plus - 1.0) < 1e-14))
    errs = []
    for x in (2.1, 2.5, 3.0, 4.0, 5.0):
        tp = semicircle.theta_roots(x).theta_plus
        errs.append(abs(semicircle.j_value(x, tp) - tp**2 - semicircle.goe_rate(x)))
    out.append(_check("sup_theta {J - theta^2} = GOE rate", max(errs) < 1e-6, f"worst {max(errs):.1e}"))
    lp = semicircle.log_potential(2.0)
    out.append(_check("log-potential edge value 1/2", abs(lp - 0.5) < 1e-10, f"{lp:.12f}"))
    slope = oracles.fd_log_potential_slope(3.0)
    out.append(_check("log-potential slope = Stieltjes transform",
                      abs(slope - semicircle.stieltjes(3.0)) < 1e-6))
    return out


def check_gibbs():
    out = []
    rng = np.random.default_rng(0)
    worst_resid = worst_scale = worst_w2 = 0.0
    sg = SparseGaussian(0.5)
    for _ in range(5):
        v = rng.uniform(-0.8, 0.8, size=2)
        R = rng.uniform(4.0, 8.0)
        alpha = rng.uniform(0.3, 1.2)
        sol = gibbs_solve(GibbsProblem(v, sg, R, alpha))
        worst_resid = max(worst_resid, sol.root_residual())
        lhs = sol.value
        rhs = gibbs_solve(GibbsProblem(math.sqrt(alpha) * v, sg, R / math.sqrt(alpha), 1.0)).value
        rhs += 0.5 * (1.0 - alpha) + 0.5 * math.log(alpha)
        worst_scale = max(worst_scale, abs(lhs - rhs))
    out.append(_check("multiplier residual < 1e-9", worst_resid < 1e-9, f"worst {worst_resid:.1e}"))
    out.append(_check("dilation/scaling identity < 1e-6", worst_scale < 1e-6, f"worst {worst_scale:.1e}"))
    R = 6.0
    base = np.array([0.5, -0.3])
    for a, b_ in ((2.0, 3.0), (1.5, 5.0)):
        sa = gibbs_solve(GibbsProblem(a * base, sg, R / a, 1.0))
        sb = gibbs_solve(GibbsProblem(b_ * base, sg, R / b_, 1.0))
        w2 = wasserstein2(sa, sb)
        bound = 2.0 * math.sqrt(1.0 - a / b_)
        worst_w2 = max(worst_w2, w2 - bound)
    out.append(_check("W2 stability bound", worst_w2 < 1e-3, f"excess {worst_w2:.1e}"))
    prob = GibbsProblem([0.6], sg, 4.0, 0.9)
    gap = abs(oracles.gibbs_grid_oracle(prob, 41) - gibbs_solve(prob).value)
    out.append(_check("grid-oracle agreement < 5e-3", gap < 5e-3, f"gap {gap:.1e}"))
    # an asymmetric law near R^2: boundary layers at both ends, folded onto one
    prob = GibbsProblem([0.5], bernoulli_std(0.3), 6.0, 36.0 * (1.0 - 1e-3))
    gap = abs(oracles.gibbs_quad_oracle(prob)[1] - gibbs_solve(prob).value)
    out.append(_check("asymmetric law near R^2 vs quadrature oracle < 1e-11", gap < 1e-11,
                      f"gap {gap:.1e}"))
    return out


def check_free_energy():
    out = []
    sg = SparseGaussian(0.5)
    ok = True
    for theta in (0.5, 1.0, 2.0):
        for R in (6.0, 8.0, 12.0):
            f = free_energy.f_restricted(sg, theta, np.zeros(2), 1000, R)
            ok &= theta**2 - 10.0 * math.exp(-R * R / 8.0) <= f <= theta**2 + 1e-12
    out.append(_check("zero-profile window", ok))
    f1 = free_energy.f_restricted(sg, 1.0, [0.4], 1000, 6.0)
    f2 = free_energy.f_restricted(sg, 1.0, [0.4], 1000, 12.0)
    out.append(_check("monotone in R", f1 <= f2 + 1e-12, f"{f1:.8f} <= {f2:.8f}"))
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(20):
        th = rng.uniform(0.2, 2.0)
        w = rng.uniform(0.0, 0.6)
        at = rng.uniform(0.0, 1.0 - w * w - 0.1)
        t = rng.uniform(-20, 20)
        ok &= (free_energy.f_tilde(sg, th, [w], at, 8.0, t)
               <= free_energy.f_tilde(sg, th, [w], at, 8.0) + 1e-9)
    out.append(_check("scale-t reduction is a lower bound", ok))
    return out


def check_rate():
    out = []
    errs = [abs(rate.sup_theta(x, lambda t: t * t)[1] - semicircle.goe_rate(x))
            for x in (2.1, 3.0, 5.0)]
    out.append(_check("GOE identity via sup_theta", max(errs) < 1e-6, f"worst {max(errs):.1e}"))
    sg = SparseGaussian(0.5)
    ev = rate._hat_evaluator(sg)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        th, a = rng.uniform(0.3, 2.5), rng.uniform(0.0, 0.9)
        worst = max(worst, abs(float(ev.f_hat(th, a)) - free_energy.f_hat(sg, th, a)))
    out.append(_check("hat fast path matches direct free energy", worst < 1e-7, f"worst {worst:.1e}"))
    value, _ = rate.joint_rate(sg, 3.0, rate.FiniteNSpec((0.0,), 10**6, 8.0))
    out.append(_check("degenerate profile reduces to GOE rate",
                      abs(value - semicircle.goe_rate(3.0)) < 1e-4, f"err {abs(value - semicircle.goe_rate(3.0)):.1e}"))
    return out


def check_montecarlo():
    out = []
    g = Gaussian()
    lams = []
    for i in range(20):
        s = montecarlo.sample_wigner(g, 200, rng=montecarlo.replica_rng(5, i))
        lam, v = montecarlo.lambda1_and_vector(s)
        lams.append(lam)
    m = float(np.mean(lams))
    out.append(_check("GOE mean top eigenvalue near 2", 1.8 < m < 2.05, f"mean {m:.3f}"))
    cfg = {"kind": "bbp", "dist": g, "N": 150, "reps": 10, "theta": 1.0, "seed": 9}
    r1 = montecarlo.experiment(cfg)
    r2 = montecarlo.experiment(cfg, threads=2)
    out.append(_check("deterministic replay (serial == threaded)",
                      r1.to_json_dict() == r2.to_json_dict()))
    out.append(_check("BBP prediction attached", abs(r1.extra["prediction"] - 2.5) < 1e-12))
    susp = montecarlo.eigvec_localization(np.full(400, 0.05), 0.1)
    out.append(_check("uniform vector has empty large-coordinate part",
                      susp[0] == 0.0 and susp[2] == 0))
    return out


SUITES = {
    "entry_dist": check_entries,
    "semicircle": check_semicircle,
    "gibbs": check_gibbs,
    "free_energy": check_free_energy,
    "rate": check_rate,
    "monte_carlo": check_montecarlo,
}


def run_all(printer=print) -> bool:
    """Run every suite, print one line per check, return overall success."""
    all_ok = True
    for suite, fn in SUITES.items():
        for name, ok, detail in fn():
            all_ok &= ok
            status = "PASS" if ok else "FAIL"
            line = f"[{status}] {suite}: {name}"
            if detail:
                line += f" ({detail})"
            printer(line)
    return all_ok
