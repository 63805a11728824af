"""Restricted and reduced annealed free energies.

Three levels of reduction of the same object:

* ``f_restricted`` -- the finite-N functional built from a localization
  profile w in the unit ball: a delocalized square term, an exact finite
  sum over the support of w (``f_loc``), and a constrained Gibbs term.
* ``f_hat`` -- the N-free single-coordinate reduction in a scalar mass
  alpha, valid when the normalized transform psi is symmetric and
  nondecreasing on t > 0 (``hat_fault``); uses the whole-line Gibbs value.
* ``f_tilde`` -- the two-scale reduction in (w_check, alpha_tilde), with
  the moderate-scale mass entering through psi's supremum (or through
  psi(t) at a chosen scale t).

Every reduction lives once, as a function of rows: ``restricted_rows``,
``hat_rows`` and ``tilde_rows`` evaluate rows of profiles scaled by an
overlap q, at many theta.  The Gibbs term is a callback: ``gibbs(amp,
beta, where)``, the values of the tilts amp * profile at budget beta where
``where`` holds, for the vector reductions, and ``phi1(u)``, the unit-budget
whole-line value, for the hat reduction.  Each scalar form is the one-row
case at q = 1: ``f_restricted`` and ``f_tilde`` on ``gibbs_solve``,
``f_hat`` on ``phi_unbounded``.  ``rate``'s modes are the batched cases.
"""

from __future__ import annotations

import math

import numpy as np

from .entries import EntryDistribution
from .gibbs import GibbsProblem, _consolidate, gibbs_solve, phi_unbounded

__all__ = ["f_loc", "f_restricted", "f_hat", "f_tilde", "hat_fault", "hat_rows", "loc_rows",
           "restricted_rows", "tilde_rows"]

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


def loc_rows(dist: EntryDistribution, theta, vals, counts, N: int):
    """Localized sums [M, P] of the profiles of ``_loc_terms`` at theta[M, P],
    summed in term order at every P (numpy's sum along the term axis groups
    eight or more terms pairwise at P = 1), so a row's sums do not depend on
    the other rows or their zero padding.  L(0) = 0, so zero coordinates add
    nothing; the cost is quadratic in a profile's distinct nonzero values."""
    coefs, mults = _loc_terms(vals, counts, N)
    if not coefs.size:
        return np.zeros(np.shape(theta))
    L = dist.log_laplace(coefs[:, :, None] * theta[:, None, :])
    L *= mults[:, :, None]
    out = L[:, 0].copy()
    for k in range(1, L.shape[1]):
        out += L[:, k]
    return out / N


def restricted_rows(dist: EntryDistribution, theta, q, vals, counts, csq, N: int, gibbs):
    """Restricted free energies [M, P] of the profiles q[i, p] z_i, z_i with
    the entries of ``_loc_terms`` and squared norm csq[i]:
    theta^2 beta^2 + loc + phi - |q z|^2 / 2 with beta = 1 - |q z|^2, loc
    the localized sum of z at theta q^2 and phi = gibbs(theta q, beta, bulk).
    A profile within ``_NORM_ONE_CLAMP`` of unit norm is not in the bulk and
    keeps loc alone (phi's half-log is singular there); a NaN norm stays in
    the bulk, where the Gibbs term fails on it."""
    out = loc_rows(dist, theta * q * q, vals, counts, N)
    nsq = q * q * csq[:, None]
    bulk = ~(nsq >= 1.0 - _NORM_ONE_CLAMP)
    beta = 1.0 - nsq
    th, b = theta[bulk], beta[bulk]
    out[bulk] = th**2 * b**2 + out[bulk] + gibbs(theta * q, beta, bulk) - 0.5 * nsq[bulk]
    return out


def hat_fault(dist: EntryDistribution):
    """None when the hat reduction holds for ``dist``, that is psi is
    symmetric and nondecreasing on t > 0 (checked on a 0.01 grid of [0, 60]
    up to a rounding slack of 1e-12), else the message naming the fault;
    cached on the law like its ``psi_extremes``."""
    if "_hat_fault" not in dist.__dict__:
        t = np.linspace(0.0, 60.0, 6001)
        psi = dist.psi(t)
        faults = []
        down = np.nonzero(np.diff(psi) < -1e-12)[0]
        if down.size:
            faults.append(f"psi decreases between t={t[down[0]]:.2f} and t={t[down[0] + 1]:.2f}")
        gap = np.abs(psi - dist.psi(-t))
        if gap.max() > 1e-12:
            faults.append(f"|psi(t) - psi(-t)| reaches {gap.max():.3g} at t={t[gap.argmax()]:.2f}")
        dist.__dict__["_hat_fault"] = (f"hat mode needs psi symmetric and nondecreasing on t > 0; "
                                       f"for {dist!r} {' and '.join(faults)}" if faults else None)
    return dist.__dict__["_hat_fault"]


def hat_rows(dist: EntryDistribution, theta, q, alpha, phi1):
    """Single-coordinate free energies [M, P] of the masses q[i, p]^2 alpha[i]
    (alpha[M, 1], or any shape that broadcasts against theta and q):

        theta^2 (beta^2 + 2 psi_inf a^2) + phi1(theta sqrt(a beta)) + log(beta) / 2

    with q^2 clipped to [0, 1], a = q^2 alpha and beta = 1 - a; phi1(u) is
    the whole-line Gibbs value of the tilt u at unit budget, to which the
    budget-beta value at theta sqrt(a) reduces by dilation.  It holds where
    ``hat_fault`` finds none; this function does not check."""
    a = np.clip(q * q, 0.0, 1.0) * alpha
    beta = 1.0 - a
    phi = phi1(theta * np.sqrt(a * beta)) + 0.5 * np.log(beta)
    return theta**2 * (beta**2 + 2.0 * dist.psi_extremes().psi_infty * a**2) + phi


def tilde_rows(dist: EntryDistribution, theta, q, alpha_tilde, csq, t, gibbs,
               empty=lambda i: ValueError("two-scale profile masses leave no positive "
                                          "second-moment budget (beta <= 0)")):
    """Two-scale free energies [M, P] of the profiles (w_i, alpha_tilde[i])
    scaled by q[i, p], |w_i|^2 = csq[i]: theta^2 quad + phi - (1 - beta)/2,

        quad = beta^2 + 2 beta a + 2 psi_sel a^2 + 2 psi_inf (c2^2 + 2 a c2),

    with q^2 clipped to [0, 1], c2 = q^2 csq, a = q^2 alpha_tilde, beta =
    1 - a - c2, psi_sel = sup psi or psi(t) for a scale t, and phi =
    gibbs(theta q, beta, all).  A row with a beta <= 0 raises ``empty(row)``."""
    ext = dist.psi_extremes()
    psi_sel = ext.psi_max if t is None else float(dist.psi(t))
    q2 = np.clip(q * q, 0.0, 1.0)
    c2 = q2 * csq[:, None]
    at = q2 * alpha_tilde[:, None]
    beta = 1.0 - at - c2
    spent = beta <= 0  # a NaN q reaches the Gibbs term and fails there
    if spent.any():
        raise empty(np.flatnonzero(spent.any(axis=1))[0])
    quad = (beta**2 + 2.0 * beta * at + 2.0 * psi_sel * at**2
            + 2.0 * ext.psi_infty * (c2**2 + 2.0 * at * c2))
    phi = gibbs(theta * np.sqrt(q2), beta, ~spent).reshape(theta.shape)
    return theta**2 * quad + phi - 0.5 * (1.0 - beta)


def _solved(dist: EntryDistribution, w, R: float):
    """The ``gibbs`` callback of one profile w: ``gibbs_solve`` per tilt."""
    return lambda amp, beta, where: np.array([
        gibbs_solve(GibbsProblem(a * w, dist, R, b)).value
        for a, b in zip(amp[where].tolist(), beta[where].tolist())])


def f_loc(dist: EntryDistribution, theta, w, N: int):
    """Localized free-energy sum over the support of w: one row of
    ``loc_rows``, vectorized over theta."""
    theta = np.asarray(theta, dtype=float)
    out = loc_rows(dist, theta.reshape(1, -1), *(a[None] for a in _consolidate(w)), N)
    return float(out[0, 0]) if theta.ndim == 0 else out.reshape(theta.shape)


def f_restricted(dist: EntryDistribution, theta: float, w, N: int, R: float) -> float:
    """Restricted annealed free energy at inverse temperature theta: one row
    of ``restricted_rows`` at q = 1.  Profiles of unit norm reduce to the
    localized sum alone, clamped to that branch within 1e-9 of the boundary.
    """
    if N < 1:
        raise ValueError("dimension parameter N must be positive")
    if R <= 0:
        raise ValueError("support half-width R must be positive")
    w = np.asarray(w, dtype=float)
    nsq = float(w @ w)
    if nsq > 1.0 + 1e-12:
        raise ValueError("profile must lie in the closed unit ball")
    vals, counts = _consolidate(w)
    return float(restricted_rows(dist, np.full((1, 1), float(theta)), 1.0, vals[None],
                                 counts[None], np.array([nsq]), N, _solved(dist, w, R))[0, 0])


def f_hat(dist: EntryDistribution, theta: float, alpha: float) -> float:
    """Single-coordinate reduction: one row of ``hat_rows`` at q = 1, its
    unit-budget Gibbs value by ``phi_unbounded``.  Raises ``ValueError``
    with ``hat_fault``'s message for a law outside the reduction's domain."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    fault = hat_fault(dist)
    if fault:
        raise ValueError(fault)
    return float(hat_rows(dist, float(theta), 1.0, float(alpha),
                          lambda u: phi_unbounded(dist, [float(u)], 1.0)))


def f_tilde(dist: EntryDistribution, theta: float, w_check, alpha_tilde: float,
            R: float, t: float = None) -> float:
    """Two-scale reduction in (w_check, alpha_tilde): one row of ``tilde_rows``
    at q = 1.  The moderate-scale mass alpha_tilde is priced at sup psi by
    default, or at psi(t) for an explicit scale t (always a lower bound).
    """
    w = np.asarray(w_check, dtype=float)
    return float(tilde_rows(dist, np.full((1, 1), float(theta)), 1.0,
                            np.array([float(alpha_tilde)]), np.array([float(w @ w)]), t,
                            _solved(dist, w, R))[0, 0])
