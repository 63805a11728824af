"""Semicircle-law quantities entering the rate-function formulas.

Stateless closed forms.  All functions require the deviation target
x >= 2 except ``goe_rate``, which returns +inf below the bulk edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralPoint",
    "theta_roots",
    "stieltjes",
    "log_potential",
    "goe_rate",
    "j_value",
    "overlap",
]


@dataclass(frozen=True)
class SpectralPoint:
    """Roots theta-+ of x = 2 theta + 1/(2 theta) at a location x >= 2."""

    x: float
    theta_minus: float
    theta_plus: float

    @property
    def stieltjes(self) -> float:
        return 2.0 * self.theta_minus


def theta_roots(x: float) -> SpectralPoint:
    """Both roots (x -+ sqrt(x^2-4))/4; raises for x below the edge."""
    if x < 2.0:
        raise ValueError(f"x={x} is below the spectral edge 2")
    s = math.sqrt(x * x - 4.0)
    return SpectralPoint(x, (x - s) / 4.0, (x + s) / 4.0)


def stieltjes(x: float) -> float:
    """Stieltjes transform of the semicircle law at x >= 2."""
    return theta_roots(x).stieltjes


def log_potential(x: float) -> float:
    """Integral of log(x - s) against the semicircle density, x >= 2.

    Closed form x/(x + r) - 1/2 + log((x + r)/2) with r = sqrt(x^2 - 4).  It
    equals x^2/4 - 1/2 - goe_rate(x), but subtracts no nearly equal terms,
    so it keeps full precision from the edge (value 1/2) to the far field
    (about log x).  ``oracles.quad_log_potential`` integrates it directly.
    """
    x = float(x)
    if x < 2.0:
        raise ValueError(f"x={x} is below the spectral edge 2")
    r = math.sqrt((x - 2.0) * (x + 2.0))
    return x / (x + r) - 0.5 + math.log((x + r) / 2.0)


def goe_rate(x):
    """GOE large-deviation rate for the top eigenvalue; +inf below 2.

    Closed antiderivative of sqrt(y^2 - 4); validated against quadrature in
    the test suite.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.full(x.shape, np.inf)
    ok = x >= 2.0
    xs = x[ok]
    s = np.sqrt(np.maximum(xs * xs - 4.0, 0.0))
    out[ok] = xs * s / 4.0 - np.log((xs + s) / 2.0)
    return float(out[0]) if scalar else out


def j_value(x: float, theta):
    """Asymptotic spherical-integral free energy J(x, theta), theta >= 0.

    Quadratic branch theta^2 up to theta_minus, log branch beyond; the two
    branches meet C^1 at theta_minus.  Vectorized over theta.
    """
    pt = theta_roots(x)
    L = log_potential(x)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    th = np.atleast_1d(theta)
    if np.any(th < 0):
        raise ValueError("theta must be nonnegative")
    out = np.empty_like(th)
    low = th <= pt.theta_minus
    out[low] = th[low] ** 2
    hi = ~low
    out[hi] = th[hi] * x - 0.5 * L - 0.5 * np.log(2.0 * th[hi]) - 0.5
    return float(out[0]) if scalar else out


def overlap(x: float, theta):
    """Asymptotic alignment q_x(theta) = sqrt((1 - theta_minus/theta)_+)."""
    pt = theta_roots(x)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    th = np.atleast_1d(theta)
    if np.any(th < 0):
        raise ValueError("theta must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        q2 = np.where(th > 0, 1.0 - pt.theta_minus / np.where(th > 0, th, 1.0), 0.0)
    out = np.sqrt(np.maximum(q2, 0.0))
    return float(out[0]) if scalar else out
