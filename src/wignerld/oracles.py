"""Independent cross-checks for the variational solvers.

These deliberately avoid the routes of the main code path: the Gibbs grid
oracle maximizes the discretized objective directly by projected gradient
ascent under the two linear constraints, the Gibbs quadrature oracle
integrates the multiplier equation with Gauss-Legendre panels instead of
Simpson grids and solves it by Brent's method, and the rate
oracles integrate the square-root density numerically.  Agreement between
the two routes is what the invariant suites assert.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .gibbs import GibbsProblem

__all__ = ["gibbs_grid_oracle", "gibbs_quad_oracle", "quad_goe_rate", "quad_log_potential", "fd_log_potential_slope"]


def _project_affine(y, A, AAT_inv, b):
    """Euclidean projection onto {nu : A nu = b}."""
    return y - A.T @ (AAT_inv @ (A @ y - b))


def gibbs_grid_oracle(problem: GibbsProblem, n_points: int = 41,
                      max_iter: int = 20000, tol: float = 1e-12) -> float:
    """Discretized Gibbs optimum on an n-point support grid in [-R, R].

    Maximizes  sum_j nu_j h(s_j) - sum_j nu_j log(nu_j / (ds * gamma(s_j)))
    over nu >= 0 with unit mass and second moment alpha, by projected
    gradient ascent with backtracking (the entropy keeps the optimum in the
    interior, so the affine projection suffices once iterates are positive).
    """
    R, alpha = problem.R, problem.alpha
    s = np.linspace(-R, R, n_points)
    ds = s[1] - s[0]
    h = problem.h(s)
    log_ref = np.log(ds) - 0.5 * s * s - 0.5 * math.log(2.0 * math.pi)

    A = np.vstack([np.ones(n_points), s * s])
    b = np.array([1.0, alpha])
    AAT_inv = np.linalg.inv(A @ A.T)

    # feasible positive start: discrete Gaussian shape with matched moment
    def moment_of(kappa):
        w = np.exp(log_ref - kappa * s * s)
        w = w / w.sum()
        return float(w @ (s * s))

    k_lo, k_hi = -8.0, 8.0
    while moment_of(k_hi) > alpha:
        k_hi *= 2.0
    while moment_of(k_lo) < alpha:
        k_lo *= 2.0
    for _ in range(200):
        k_mid = 0.5 * (k_lo + k_hi)
        if moment_of(k_mid) > alpha:
            k_lo = k_mid
        else:
            k_hi = k_mid
    nu = np.exp(log_ref - 0.5 * (k_lo + k_hi) * s * s)
    nu /= nu.sum()
    nu = _project_affine(nu, A, AAT_inv, b)
    nu = np.maximum(nu, 1e-15)
    nu = _project_affine(nu, A, AAT_inv, b)

    def objective(v):
        return float(v @ h - v @ (np.log(v) - log_ref))

    obj = objective(nu)
    step = 0.05
    stalled = 0
    for _ in range(max_iter):
        grad = h - (np.log(nu) - log_ref) - 1.0
        gproj = grad - A.T @ (AAT_inv @ (A @ grad))
        # interior optimum: the projected gradient must vanish
        if np.abs(nu * gproj).max() < 1e-13:
            break
        moved = False
        trial = step
        while trial > 1e-14:
            cand = _project_affine(nu + trial * gproj, A, AAT_inv, b)
            if cand.min() > 0.0:
                cand_obj = objective(cand)
                if cand_obj >= obj:
                    moved = True
                    break
            trial *= 0.5
        if not moved:
            break
        stalled = stalled + 1 if cand_obj - obj < tol else 0
        nu, obj = cand, cand_obj
        step = min(trial * 1.5, 2.0)
        if stalled > 50:
            break
    return obj


def gibbs_quad_oracle(problem: GibbsProblem) -> tuple:
    """(zeta*, value) of a finite-R Gibbs problem from 12-point Gauss-Legendre
    rules on 4000 equal panels of [-R, R], zeta* the root of alpha - m2(zeta)
    by Brent's method.  A panel is R/2000 wide, so weights of about that
    width are resolved: alpha >= 1e-6 or 1 - alpha/R^2 >= 1e-3 at R <= 6.
    """
    R, alpha = problem.R, problem.alpha
    x, wx = np.polynomial.legendre.leggauss(12)
    half = R / 4000
    s = (np.linspace(-R + half, R - half, 4000)[:, None] + half * x).ravel()
    w = np.tile(half * wx, 4000)
    h = problem.h(s)

    def moments(zeta):
        phi = h - zeta * s * s
        top = phi.max()
        d = w * np.exp(phi - top)
        return math.log(d.sum()) + top, float(d @ (s * s)) / d.sum()

    lo, hi = -1.0, 1.0
    while moments(lo)[1] < alpha:
        lo *= 2.0
    while moments(hi)[1] > alpha:
        hi *= 2.0
    zeta = brentq(lambda z: moments(z)[1] - alpha, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    value = moments(zeta)[0] + alpha * zeta + 0.5 * (1.0 - alpha) - 0.5 * (math.log(2.0 * math.pi) + 1.0)
    return zeta, value


def quad_goe_rate(x: float) -> float:
    """GOE rate by direct adaptive quadrature of the square-root density."""
    if x < 2.0:
        return math.inf
    val, _ = quad(lambda y: 0.5 * math.sqrt(y * y - 4.0), 2.0, x, epsabs=1e-12, epsrel=1e-12)
    return val


def quad_log_potential(x: float) -> float:
    """Semicircle log-potential by adaptive quadrature.

    The substitution s = 2 cos(phi) turns the endpoint square-root weight
    into sin^2(phi), leaving an integrand that adaptive quadrature handles
    to absolute accuracy 1e-10 even at x = 2.
    """
    x = float(x)
    if x < 2.0:
        raise ValueError(f"x={x} is below the spectral edge 2")

    def integrand(phi):
        return (2.0 / math.pi) * math.sin(phi) ** 2 * math.log(x - 2.0 * math.cos(phi))

    val, err = quad(integrand, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-10:
        raise RuntimeError(f"log-potential quadrature error {err:.2e} at x={x}")
    return val


def fd_log_potential_slope(x: float, h: float = 1e-5) -> float:
    """Central difference of the semicircle log-potential (Stieltjes check)."""
    from .semicircle import log_potential

    return (log_potential(x + h) - log_potential(x - h)) / (2.0 * h)
