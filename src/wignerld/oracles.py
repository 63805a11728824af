"""Independent cross-checks for the variational solvers.

These deliberately avoid the routes of the main code path: the Gibbs grid
oracle maximizes the discretized objective directly over the measure, by
Newton's method under the two linear constraints, the Gibbs quadrature oracle
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


def gibbs_grid_oracle(problem: GibbsProblem, n_points: int = 41,
                      max_iter: int = 100, tol: float = 1e-12) -> float:
    """Discretized Gibbs optimum on an n-point support grid in [-R, R].

    Maximizes  f(nu) = sum_j nu_j h(s_j) - sum_j nu_j log(nu_j / (ds * gamma(s_j)))
    over nu > 0 with unit mass and second moment alpha (A nu = b) by Newton's
    method with equality constraints from a feasible start (Boyd &
    Vandenberghe 2004, sec. 10.2).  The Hessian of f is -diag(1/nu), so the
    step is d = nu (g - A^T lam), lam solving (A diag(nu) A^T) lam = A diag(nu)
    g, and A d = 0 keeps the iterates feasible.  A backtracking line search
    keeps nu positive (the entropy keeps the optimum interior) and f rising
    by a quarter of the predicted gain g . d.  It stops once that gain is at
    most ``tol`` or no step of 1e-10 or more gains (f is at rounding level),
    and raises ``RuntimeError`` after ``max_iter`` steps otherwise.
    """
    R, alpha = problem.R, problem.alpha
    s = np.linspace(-R, R, n_points)
    ds = s[1] - s[0]
    h = problem.h(s)
    log_ref = np.log(ds) - 0.5 * s * s - 0.5 * math.log(2.0 * math.pi)
    A = np.vstack([np.ones(n_points), s * s])

    # feasible positive start: discrete Gaussian shape with matched moment
    def excess(kappa):
        w = np.exp(log_ref - kappa * s * s)
        return float(w @ (s * s)) / w.sum() - alpha

    k_lo, k_hi = -8.0, 8.0
    while excess(k_hi) > 0:
        k_hi *= 2.0
    while excess(k_lo) < 0:
        k_lo *= 2.0
    nu = np.exp(log_ref - brentq(excess, k_lo, k_hi, xtol=1e-15) * s * s)
    nu /= nu.sum()

    def objective(v):
        return float(v @ h - v @ (np.log(v) - log_ref))

    obj = objective(nu)
    for _ in range(max_iter):
        g = h - (np.log(nu) - log_ref) - 1.0
        AD = A * nu
        d = nu * (g - A.T @ np.linalg.solve(AD @ A.T, AD @ g))
        gain = float(g @ d)
        if gain <= tol:
            return obj
        t = 1.0
        while t >= 1e-10:
            cand = nu + t * d
            if cand.min() > 0.0 and (cand_obj := objective(cand)) >= obj + 0.25 * t * gain:
                break
            t *= 0.5
        else:
            return obj
        nu, obj = cand, cand_obj
    raise RuntimeError(f"grid oracle: no convergence in {max_iter} Newton steps "
                       f"(decrement {gain:.3g})")


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
