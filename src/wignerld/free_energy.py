"""Restricted and reduced annealed free energies.

Three levels of reduction of the same object:

* ``f_restricted`` -- the finite-N functional built from a localization
  profile w in the unit ball: a delocalized square term, an exact finite
  sum over the support of w (``f_loc``), and a constrained Gibbs term.
* ``f_hat`` -- the N-free single-coordinate reduction in a scalar mass
  alpha, valid when the normalized transform psi is symmetric and
  nondecreasing; uses the whole-line Gibbs value.
* ``f_tilde`` -- the two-scale reduction in (w_check, alpha_tilde), with
  the moderate-scale mass entering through psi's supremum (or through
  psi(t) at a chosen scale t).
"""

from __future__ import annotations

import math

import numpy as np

from .entries import EntryDistribution
from .gibbs import GibbsProblem, _consolidate, gibbs_solve, phi_unbounded

__all__ = ["f_loc", "f_restricted", "f_hat", "f_tilde"]

_NORM_ONE_CLAMP = 1e-9  # profiles within this of unit norm use the degenerate branch


def _loc_terms(vals, counts, N: int):
    """(coefficient, multiplicity) arrays [M, K] of profiles with distinct
    nonzero entries vals[M, T] and counts counts[M, T] (zero-padded), so that
    row i's localized sum becomes sum_k mult[i, k] * L(coef[i, k] * theta) / N.
    Diagonal pairs carry sqrt(2), off-diagonal pairs carry 2; unused terms 0."""
    root_n = math.sqrt(N)
    i, j = np.nonzero(~np.tri(vals.shape[1], dtype=bool))  # pairs i < j
    coefs = np.concatenate([math.sqrt(2.0) * root_n * vals * vals, 2.0 * root_n * vals * vals,
                            2.0 * root_n * vals[:, i] * vals[:, j]], axis=1)
    mults = np.concatenate([counts, counts * (counts - 1) / 2.0, counts[:, i] * counts[:, j]],
                           axis=1)
    used = mults > 0
    keep = used.any(axis=0)
    return np.where(used, coefs, 0.0)[:, keep], mults[:, keep]


def f_loc(dist: EntryDistribution, theta, w, N: int):
    """Localized free-energy sum over the support of w (exact, finite).

    Zero coordinates contribute nothing since L(0) = 0.  Vectorized over
    theta; cost is quadratic in the number of distinct nonzero values of w,
    not in the support size.
    """
    vals, counts = _consolidate(w)
    coefs, mults = _loc_terms(vals[None], counts[None], N)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    th = np.atleast_1d(theta)
    if coefs.size == 0:
        out = np.zeros_like(th)
    else:
        out = (dist.log_laplace(coefs[0][:, None] * th).T @ mults[0]) / N
    return float(out[0]) if scalar else out.reshape(theta.shape)


def f_restricted(dist: EntryDistribution, theta: float, w, N: int, R: float) -> float:
    """Restricted annealed free energy at inverse temperature theta.

    Profiles of unit norm reduce to the localized sum alone; the Gibbs term
    needs a positive leftover mass 1 - |w|^2 and is clamped to the unit-norm
    branch within 1e-9 of the boundary (the half-log term is singular there).
    """
    if N < 1:
        raise ValueError("dimension parameter N must be positive")
    if R <= 0:
        raise ValueError("support half-width R must be positive")
    w = np.asarray(w, dtype=float)
    nsq = float(w @ w)
    if nsq > 1.0 + 1e-12:
        raise ValueError("profile must lie in the closed unit ball")
    if nsq >= 1.0 - _NORM_ONE_CLAMP:
        return float(f_loc(dist, theta, w, N))
    beta = 1.0 - nsq
    phi = gibbs_solve(GibbsProblem(theta * w, dist, R, beta)).value
    return theta**2 * beta**2 + float(f_loc(dist, theta, w, N)) + phi - 0.5 * nsq


def f_hat(dist: EntryDistribution, theta: float, alpha: float) -> float:
    """Single-coordinate reduction: N-free, whole-line Gibbs term."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    psi_inf = dist.psi_extremes().psi_infty
    phi = phi_unbounded(dist, [theta * math.sqrt(alpha)], 1.0 - alpha)
    return theta**2 * ((1.0 - alpha) ** 2 + 2.0 * psi_inf * alpha**2) + phi - 0.5 * alpha


def f_tilde(dist: EntryDistribution, theta: float, w_check, alpha_tilde: float,
            R: float, t: float = None) -> float:
    """Two-scale reduction in (w_check, alpha_tilde).

    The moderate-scale mass alpha_tilde is priced at sup psi by default, or
    at psi(t) when an explicit scale t is supplied (always a lower bound).
    """
    w_check = np.asarray(w_check, dtype=float)
    csq = float(w_check @ w_check)
    beta = 1.0 - alpha_tilde - csq
    if beta < 0.0:
        raise ValueError("profile masses exceed the unit budget (beta < 0)")
    if beta == 0.0:
        raise ValueError("second-moment budget beta must be positive for the Gibbs term")
    ext = dist.psi_extremes()
    psi_sel = ext.psi_max if t is None else float(dist.psi(t))
    quad = (
        beta**2
        + 2.0 * beta * alpha_tilde
        + 2.0 * psi_sel * alpha_tilde**2
        + 2.0 * ext.psi_infty * (csq**2 + 2.0 * alpha_tilde * csq)
    )
    phi = gibbs_solve(GibbsProblem(theta * w_check, dist, R, beta)).value
    return theta**2 * quad + phi - 0.5 * (1.0 - beta)
