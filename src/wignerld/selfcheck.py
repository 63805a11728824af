"""The invariant registry: one measuring function and one tolerance per invariant.

Each entry is a name, bounds and one function that takes its inputs (laws,
generators, sample counts) and returns its quantities by name, the unbounded
ones context for the caller.  Its defaults are the smoke inputs the CLI
``selfcheck`` runs, seeded with 0.  Tests call it with their own inputs
through ``check``, which raises on a broken bound.  A bound is a float, a
strict upper bound, or a (lo, hi) pair, a closed window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import free_energy, gibbs, montecarlo, oracles, rate, semicircle, stencil
from .entries import Gaussian, SparseGaussian, bernoulli_std, rademacher, sparse_rademacher
from .gibbs import GibbsProblem, duality_gap, gibbs_solve, tilt_bound, wasserstein2

__all__ = ["INVARIANTS", "InvariantError", "SHARPNESS", "check", "oracle_problems", "run_all"]

SMOKE_DRAWS = 4  # random cases of a randomized analytic invariant
SMOKE_MC = (200, 20)  # matrix size and replica count of a Monte Carlo invariant

GAUSS = Gaussian()
SG = SparseGaussian(0.5)
LAWS = (GAUSS, SG, rademacher(), sparse_rademacher(0.3), bernoulli_std(0.3))
GOE_XS = (2.1, 2.5, 3.0, 4.0, 5.0)
# laws and whether each is sharp sub-Gaussian (psi_max = psi(0) = 1/2)
SHARPNESS = ((rademacher(), True), (sparse_rademacher(0.30), False),
             (sparse_rademacher(0.34), True), (SparseGaussian(0.25), False), (SG, False),
             (SparseGaussian(0.75), False), (bernoulli_std(0.3), False),
             (bernoulli_std(0.5), True))


@dataclass(frozen=True)
class Invariant:
    suite: str
    name: str
    bounds: dict
    measure: Callable[..., dict]

    def verdicts(self, values: dict) -> list:
        """(holds, text) for each bounded quantity of ``values``."""
        out = []
        for key, b in self.bounds.items():
            v, window = values[key], isinstance(b, tuple)
            ok = b[0] <= v <= b[1] if window else v < b
            bound = f"in [{b[0]:g}, {b[1]:g}]" if window else f"< {b:g}"
            out.append((ok, f"{key} {v:.3g} {'' if ok else 'not '}{bound}"))
        return out


class InvariantError(AssertionError):
    """A measured quantity outside its bound."""


INVARIANTS: dict = {}


def _invariant(suite: str, name: str, **bounds):
    def register(measure):
        INVARIANTS[measure.__name__] = Invariant(suite, name, bounds, measure)
        return measure
    return register


def check(key: str, **inputs) -> dict:
    """Measure invariant ``key`` at ``inputs`` (its smoke inputs where none
    are given) and return the values; raise InvariantError if a bound breaks."""
    inv = INVARIANTS[key]
    values = inv.measure(**inputs)
    broken = [text for ok, text in inv.verdicts(values) if not ok]
    if broken:
        raise InvariantError(f"{inv.suite}: {inv.name}: {', '.join(broken)}")
    return values


def _rng(rng):
    return np.random.default_rng(0) if rng is None else rng


@_invariant("entry_dist", "standardization L(0)=L'(0)=0, L''(0)=1", error=1e-10)
def standardization(laws=LAWS):
    return {"error": max(max(abs(d.log_laplace(0.0)), abs(d.log_laplace(0.0, 1)),
                             abs(d.log_laplace(0.0, 2) - 1.0)) for d in laws)}


@_invariant("entry_dist", "convexity L'' >= 0", min_curvature=(-1e-12, math.inf))
def convexity(laws=LAWS, ts=np.linspace(-30.0, 30.0, 301)):
    return {"min_curvature": min(float(np.min(d.log_laplace(ts, 2))) for d in laws)}


@_invariant("entry_dist", "sharp sub-Gaussian classification", misclassified=(0, 0))
def sharpness(cases=SHARPNESS):
    return {"misclassified": sum(d.psi_extremes().is_sharp != sharp for d, sharp in cases)}


@_invariant("entry_dist", "tilted sample mean matches L'(t)", error=0.02)
def tilted_mean(rng=None, n=100_000):
    return {"error": abs(rademacher().sample(n, tilt=1.0, rng=_rng(rng)).mean() - math.tanh(1.0))}


@_invariant("semicircle", "theta roots and Stieltjes transform at x=2.5", error=1e-14)
def theta_roots_example():
    pt = semicircle.theta_roots(2.5)
    return {"error": max(abs(pt.theta_minus - 0.25), abs(pt.theta_plus - 1.0),
                         abs(pt.stieltjes - 0.5))}


@_invariant("semicircle", "J(x, theta+) - theta+^2 = GOE rate", error=1e-12)
def j_at_theta_plus(xs=GOE_XS):
    tps = [semicircle.theta_roots(x).theta_plus for x in xs]
    return {"error": max(abs(semicircle.j_value(x, tp) - tp**2 - semicircle.goe_rate(x))
                         for x, tp in zip(xs, tps))}


@_invariant("semicircle", "log-potential edge value 1/2", error=1e-10)
def log_potential_edge():
    return {"error": abs(semicircle.log_potential(2.0) - 0.5)}


@_invariant("semicircle", "log-potential slope = Stieltjes transform", error=1e-6)
def log_potential_slope(x=3.0):
    return {"error": abs(oracles.fd_log_potential_slope(x) - semicircle.stieltjes(x))}


@_invariant("gibbs", "multiplier residual and scaling identity", residual=1e-9, scaling=1e-6)
def gibbs_scaling(rng=None, draws=SMOKE_DRAWS):
    rng = _rng(rng)
    worst_resid = worst_scale = 0.0
    for _ in range(draws):
        v = rng.uniform(-0.8, 0.8, size=rng.integers(1, 3))
        R, alpha = rng.uniform(4.0, 9.0), rng.uniform(0.3, 1.4)
        sol = gibbs_solve(GibbsProblem(v, SG, R, alpha))
        worst_resid = max(worst_resid, sol.root_residual())
        rhs = gibbs_solve(GibbsProblem(math.sqrt(alpha) * v, SG, R / math.sqrt(alpha), 1.0)).value
        rhs += 0.5 * (1.0 - alpha) + 0.5 * math.log(alpha)
        worst_scale = max(worst_scale, abs(sol.value - rhs))
    return {"residual": worst_resid, "scaling": worst_scale}


@_invariant("gibbs", "dilation identity", gap=1e-6)
def gibbs_dilation(rng=None, draws=SMOKE_DRAWS):
    rng = _rng(rng)
    worst = 0.0
    for _ in range(draws):
        v = rng.uniform(-0.7, 0.7, size=2)
        R, a = rng.uniform(5.0, 8.0), rng.uniform(0.5, 1.5)
        lhs = gibbs_solve(GibbsProblem(a * v, SG, R / a, 1.0)).value
        rhs = gibbs_solve(GibbsProblem(v, SG, R, a * a)).value - 0.5 * (1.0 - a * a) - math.log(a)
        worst = max(worst, abs(lhs - rhs))
    return {"gap": worst}


@_invariant("gibbs", "W2 stability bound", excess=1e-3)
def gibbs_w2(rng=None, draws=SMOKE_DRAWS):
    rng = _rng(rng)
    worst, checked = -math.inf, 0
    while checked < draws:
        base = rng.uniform(0.2, 0.7, size=2) * rng.choice([-1.0, 1.0], size=2)
        R, a = rng.uniform(6.0, 10.0), rng.uniform(0.5, 3.0)
        b = a + rng.uniform(0.05, 2.0)
        if b > R:
            continue
        sa = gibbs_solve(GibbsProblem(a * base, SG, R / a, 1.0))
        sb = gibbs_solve(GibbsProblem(b * base, SG, R / b, 1.0))
        worst = max(worst, wasserstein2(sa, sb) - 2.0 * math.sqrt(1.0 - a / b))
        checked += 1
    return {"excess": worst}


def oracle_problems(rng, draws):
    """Random Gibbs problems of the grid-oracle check, cycling through three laws."""
    for i in range(draws):
        yield GibbsProblem(rng.uniform(-0.8, 0.8, size=rng.integers(1, 3)),
                           (GAUSS, SG, rademacher())[i % 3], rng.uniform(3.0, 4.5),
                           rng.uniform(0.4, 1.3))


@_invariant("gibbs", "grid-oracle agreement", gap=5e-3)
def gibbs_grid_oracle(problems=(GibbsProblem([0.6], SG, 4.0, 0.9),)):
    return {"gap": max(abs(oracles.gibbs_grid_oracle(p, 41) - gibbs_solve(p).value)
                       for p in problems)}


@_invariant("gibbs", "quadrature-oracle agreement, asymmetric law near R^2", gap=1e-11)
def gibbs_quad_oracle(R=6.0):
    # boundary layers at both ends of [-R, R], folded onto one
    prob = GibbsProblem([0.5], bernoulli_std(0.3), R, R * R * (1.0 - 1e-3))
    return {"gap": abs(oracles.gibbs_quad_oracle(prob)[1] - gibbs_solve(prob).value)}


@_invariant("gibbs", "whole-line duality gap of Phi1 table rows", gap=1e-8, excess=1e-13)
def whole_line_gap(laws=(GAUSS, SG, SparseGaussian(0.1), rademacher(), bernoulli_std(0.3),
                        bernoulli_std(0.7), sparse_rademacher(0.2)),
                   us=(0.0, 0.5, 2.0, 6.0), R=32.0):
    # Phi_R <= Phi_inf <= Phi_R + eps_R, so Phi_2R - Phi_R lies in [0, eps_R]
    us = np.array(us)
    worst_gap = worst_excess = -math.inf
    for d in laws:
        (v, zeta, log_mass), (v2, _, _) = (rate._Phi1Table(d)._solves_at(us, r) for r in (R, 2 * R))
        eps = duality_gap(R, zeta, log_mass, tilt_bound(d, us * us, np.abs(us), R))
        worst_gap = max(worst_gap, float(eps.max()))
        worst_excess = max(worst_excess, float(np.max(np.abs(v2 - v) - eps)))
    return {"gap": worst_gap, "excess": worst_excess}


@_invariant("free_energy", "zero-profile window", excess=(-math.inf, 0.0))
def zero_profile_window():
    # theta^2 - 10 exp(-R^2/8) <= f <= theta^2; excess is the worst side's overshoot
    worst = -math.inf
    for theta in (0.5, 1.0, 2.0):
        for R in (6.0, 8.0, 12.0):
            val = free_energy.f_restricted(SG, theta, np.zeros(2), 1000, R)
            worst = max(worst, val - theta**2, theta**2 - 10.0 * math.exp(-R * R / 8.0) - val)
    return {"excess": worst}


@_invariant("free_energy", "monotone in R", excess=1e-12)
def monotone_in_r(rng=None, draws=SMOKE_DRAWS, radii=(6.0, 12.0)):
    rng = _rng(rng)
    worst = -math.inf
    for _ in range(draws):
        w, theta = rng.uniform(-0.5, 0.5, size=2), rng.uniform(0.3, 2.0)
        vals = [free_energy.f_restricted(SG, theta, w, 1000, R) for R in radii]
        worst = max(worst, *(a - b for a, b in zip(vals, vals[1:])))
    return {"excess": worst}


@_invariant("free_energy", "monotone in N toward the hat free energy", excess=1e-10,
            limit_gap=5e-3)
def monotone_in_n(theta=1.0, alpha=0.3):
    w = np.array([math.sqrt(alpha)])
    vals = [free_energy.f_restricted(SG, theta, w, N, N**0.2) for N in (10**3, 10**4, 10**5, 10**6)]
    return {"excess": max(a - b for a, b in zip(vals, vals[1:])),
            "limit_gap": abs(vals[-1] - free_energy.f_hat(SG, theta, alpha))}


@_invariant("free_energy", "scale-t reduction is a lower bound", excess=1e-9)
def scale_t_lower_bound(rng=None, draws=SMOKE_DRAWS):
    rng = _rng(rng)
    worst = -math.inf
    for _ in range(draws):
        th, c = rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.6)
        at = rng.uniform(0.0, max(1e-6, 1.0 - c * c - 0.05))
        t = rng.uniform(-30.0, 30.0)
        worst = max(worst, free_energy.f_tilde(SG, th, [c], at, 8.0, t=t)
                    - free_energy.f_tilde(SG, th, [c], at, 8.0))
    return {"excess": worst}


@_invariant("rate", "GOE identity via sup_theta", value=1e-6, theta=1e-7)
def goe_identity(xs=GOE_XS):
    sups = [rate.sup_theta(x, lambda t: t * t) for x in xs]
    return {"value": max(abs(v - semicircle.goe_rate(x)) for x, (_, v) in zip(xs, sups)),
            "theta": max(abs(t - semicircle.theta_roots(x).theta_plus)
                         for x, (t, _) in zip(xs, sups))}


@_invariant("rate", "hat fast path matches direct free energy", error=1e-7)
def hat_fast_path(rng=None, draws=SMOKE_DRAWS):
    rng, ev = _rng(rng), rate._hat_evaluator(SG)
    pairs = [(rng.uniform(0.2, 3.0), rng.uniform(0.0, 0.9)) for _ in range(draws)]
    return {"error": max(abs(float(ev.f_hat(th, a)) - free_energy.f_hat(SG, th, a))
                         for th, a in pairs)}


@_invariant("rate", "hat slope at alpha = 0 is q^2/2", error=0.01)
def hat_slope_at_zero(laws=(SG, SparseGaussian(0.1), GAUSS), xs=(2.1, 2.5, 3.0, 4.0), eps=1e-5):
    # Danskin on hat_rows with phi1(u) = 2u^2 + O(u^4): V'(0+) = q_x(theta0*)^2 / 2 > 0,
    # so hat mode takes a grid minimum at alpha = 0 as is; error is the worst relative gap
    worst = 0.0
    for d in laws:
        for x in xs:
            v0, theta0 = rate.joint_rate(d, x, rate.HatSpec(0.0))
            v_eps, _ = rate.joint_rate(d, x, rate.HatSpec(eps))
            half_q2 = 0.5 * semicircle.overlap(x, theta0) ** 2
            worst = max(worst, abs((v_eps - v0) / eps / half_q2 - 1.0))
    return {"error": worst}


PINNED_POINTS = ((SG, (2.54, 2.78, 3.0), rate.HatMode()),
                 (SG, (3.0,), rate.FiniteNMode(10**6, family=rate.ProfileFamily((1, 4), 11))),
                 (SG, (3.0,), rate.TildeMode(10**6, family=rate.ProfileFamily((1,), 9), n_alpha=7)))


@_invariant("rate", "inner sup is stationary at theta*", residual=32.0)
def theta_star_stationary(points=PINNED_POINTS):
    # slope of F = J - penalty at theta* on the refinement's stencil, h =
    # eps^(1/3) max(1, |theta*|), in units of its rounding error eps max(1, |F|) / h.
    # theta* is a stencil's vertex, so the slope errs by a few units of rounding and
    # by F''' h^2 / 6, i.e. F''' / 6F units at theta* <= 1: < 32 while |F'''| < 100 |F|
    eps, worst = np.finfo(float).eps, 0.0
    for dist, xs, mode in points:
        for p in rate.rate_point(dist, xs, mode):
            pen, row = p.minimizer._row(dist, p.x)
            h = stencil._CBRT_EPS * max(1.0, abs(p.theta_star))
            theta = p.theta_star + h * np.array([[-1.0, 0.0, 1.0]])
            f = (semicircle.j_value(p.x, theta)
                 - pen(theta, row, semicircle.overlap(p.x, theta)))[0]
            # the slope |f[2] - f[0]| / 2h over the unit eps max(1, |F|) / h
            worst = max(worst, abs(f[2] - f[0]) / (2.0 * eps * max(1.0, abs(f[1]))))
    return {"residual": worst}


# (law, R, count k, tilts a, budgets beta) of the Gibbs rows sum_k L(2 a s) of a
# batch: default-family rows at R = (10^6)^0.2 up to c = 0.95 and theta q = 8,
# and Phi1 table rows at R = 32
LADDER_BATCHES = tuple((SG, (10**6) ** 0.2, k, np.linspace(0.0, 7.6 / math.sqrt(k), 6)[1:],
                        (0.05, 0.5, 1.0)) for k in (1, 32, 1000)) + (
    (SG, 32.0, 1, np.linspace(0.0, 6.0, 7), (1.0,)),)


@_invariant("rate", "Gibbs rows accepted below the top rung are resolved", rule=1e-11,
            top_gap=1e-11)
def gibbs_ladder(batches=LADDER_BATCHES):
    # rule: the worst disagreement of a row's rung with Simpson on its every other
    # node, in log I0 and relative m2, remeasured at the row's multiplier on grids
    # built afresh; top_gap: its value against a solve on every node
    rule = top_gap = 0.0
    below = 0
    for dist, R, k, tilts, budgets in batches:
        amp, beta = (a.ravel() for a in np.meshgrid(tilts, budgets))
        vals, counts = np.ones((amp.size, 1)), np.full((amp.size, 1), float(k))
        value, zeta, _, stride = rate._gibbs_solves(dist, amp, vals, counts, beta, R)
        s, w = gibbs._grid_for(R)
        H = gibbs._fold(dist, lambda x: gibbs._hamiltonian(dist, amp, vals, counts, x), s)
        z_top, log_top, _, _ = gibbs.solve_exponent_batch(H, s, w, beta)
        top = gibbs.values_from_batch(log_top, z_top, beta)
        for i in np.flatnonzero(stride > 1):
            below += 1
            top_gap = max(top_gap, abs(value[i] - top[i]))
            n = (s.size - 1) // stride[i] + 1
            sums = []
            for step, size in ((stride[i], n), (2 * stride[i], (n - 1) // 2 + 1)):
                c, wc = gibbs._simpson_grid(0.0, R, size)
                E, m = gibbs._weights(H[i:i + 1, ::step], c * c, zeta[i:i + 1])
                sums.append(gibbs._moments(E, m, (wc, wc * c * c)))
            (log_r, m2_r), (log_c, m2_c) = sums
            rule = max(rule, abs(log_r[0] - log_c[0]), abs(m2_r[0] - m2_c[0]) / m2_r[0])
    return {"rule": float(rule), "top_gap": float(top_gap), "rows_below_top": below}


@_invariant("rate", "zero profile reduces to the GOE rate", error=1e-4)
def zero_profile_rate():
    value, _ = rate.joint_rate(SG, 3.0, rate.FiniteNSpec((0.0,), 10**6, 8.0))
    return {"error": abs(value - semicircle.goe_rate(3.0))}


def _mean_top_eigenvalue(seed, N, reps, spike=0.0):
    lams = []
    for i in range(reps):
        H = montecarlo.sample_wigner(GAUSS, N, rng=montecarlo.replica_rng(seed, i)).matrix.copy()
        H[0, 0] += spike
        lams.append(montecarlo.lambda1_and_vector(H)[0])
    return float(np.mean(lams))


@_invariant("monte_carlo", "GOE mean top eigenvalue near 2", mean=(1.85, 2.02))
def goe_mean(seed=0, N=SMOKE_MC[0], reps=SMOKE_MC[1]):
    return {"mean": _mean_top_eigenvalue(seed, N, reps)}


@_invariant("monte_carlo", "diagonal spike 3 lifts the top eigenvalue to 10/3", error=0.15)
def spike_mean(seed=0, N=SMOKE_MC[0], reps=SMOKE_MC[1]):
    mean = _mean_top_eigenvalue(seed, N, reps, spike=3.0)
    return {"error": abs(mean - 10.0 / 3.0), "mean": mean}


@_invariant("monte_carlo", "top eigenpair above the dense cutoff agrees with LAPACK",
            lambda_gap=1e-10, residual=1e-10)
def lanczos_vs_lapack(seed=0, N=300, reps=3):
    if N <= montecarlo._DENSE_LIMIT:
        raise ValueError(f"N={N} is not above the dense cutoff {montecarlo._DENSE_LIMIT}")
    gap = resid = 0.0
    for i in range(reps):
        H = montecarlo.sample_wigner(GAUSS, N, rng=montecarlo.replica_rng(seed, i)).matrix
        lam, v = montecarlo.lambda1_and_vector(H)
        gap = max(gap, abs(lam - float(np.linalg.eigvalsh(H)[-1])))
        resid = max(resid, float(np.linalg.norm(H @ v - lam * v)))
    return {"lambda_gap": gap, "residual": resid}


def _bbp(theta, seed, N, reps):
    rep = montecarlo.experiment({"kind": "bbp", "dist": GAUSS, "N": N, "reps": reps,
                                 "theta": theta, "seed": seed})
    return {"mean": rep.mean, "prediction": rep.extra["prediction"], "regime": rep.extra["regime"]}


@_invariant("monte_carlo", "BBP mean and prediction above the transition", mean=(2.4, 2.6),
            prediction_error=1e-12)
def bbp_supercritical(seed=0, N=SMOKE_MC[0], reps=SMOKE_MC[1]):
    values = _bbp(1.0, seed, N, reps)
    return {**values, "prediction_error": abs(values["prediction"] - 2.5)}


@_invariant("monte_carlo", "BBP mean at the edge below the transition", mean=(1.9, 2.1))
def bbp_subcritical(seed=0, N=SMOKE_MC[0], reps=SMOKE_MC[1]):
    return _bbp(0.3, seed, N, reps)


@_invariant("monte_carlo", "deterministic replay (serial == threaded)", mismatches=(0, 0))
def replay(seed=0, N=SMOKE_MC[0], reps=SMOKE_MC[1], threads=2):
    cfg = {"kind": "bbp", "dist": SG, "N": N, "reps": reps, "theta": 0.9, "seed": seed}
    r1, r2 = montecarlo.experiment(cfg), montecarlo.experiment(cfg, threads=threads)
    docs = [json.dumps(r.to_json_dict(), sort_keys=True) for r in (r1, r2)]
    return {"mismatches": (docs[0] != docs[1]) + (r1.samples_csv() != r2.samples_csv())}


@_invariant("monte_carlo", "uniform vector has empty large-coordinate part",
            mass=(0.0, 0.0), support=(0, 0), linf_error=1e-15)
def uniform_vector(N=400, eta=0.1):
    mass, linf, support = montecarlo.eigvec_localization(np.full(N, 1.0 / math.sqrt(N)), eta)
    return {"mass": mass, "support": support, "linf_error": abs(linf - 1.0 / math.sqrt(N))}


def run_all(printer=print) -> bool:
    """Check every invariant at its smoke inputs, one line each; True if all hold."""
    all_ok = True
    for inv in INVARIANTS.values():
        verdicts = inv.verdicts(inv.measure())
        ok = all(holds for holds, _ in verdicts)
        all_ok &= ok
        detail = ", ".join(text for _, text in verdicts)
        printer(f"[{'PASS' if ok else 'FAIL'}] {inv.suite}: {inv.name} ({detail})")
    return all_ok
