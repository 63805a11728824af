"""Semicircle-law quantities entering the rate-function formulas.

Stateless closed forms.  All functions require the deviation target
x >= 2 except ``goe_rate``, which returns +inf below the bulk edge.  Every
function accepts an array of targets; scalar and array calls agree bit for
bit.
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


def _targets(x) -> np.ndarray:
    """``x`` as a float array, checked to lie at or above the spectral edge."""
    x = np.asarray(x, dtype=float)
    below = x < 2.0
    if below.any():
        raise ValueError(f"x={x[below][0]} is below the spectral edge 2")
    return x


def theta_roots(x) -> SpectralPoint:
    """Both roots (x -+ sqrt(x^2-4))/4; raises for x below the edge.

    An array ``x`` gives array roots of the same shape.
    """
    xa = _targets(x)
    s = np.sqrt(xa * xa - 4.0)
    tm, tp = (xa - s) / 4.0, (xa + s) / 4.0
    if xa.ndim == 0:
        return SpectralPoint(x, float(tm), float(tp))
    return SpectralPoint(xa, tm, tp)


def stieltjes(x: float) -> float:
    """Stieltjes transform of the semicircle law at x >= 2."""
    return theta_roots(x).stieltjes


def log_potential(x):
    """Integral of log(x - s) against the semicircle density, x >= 2.

    Closed form x/(x + r) - 1/2 + log((x + r)/2) with r = sqrt(x^2 - 4).  It
    equals x^2/4 - 1/2 - goe_rate(x), but subtracts no nearly equal terms,
    so it keeps full precision from the edge (value 1/2) to the far field
    (about log x).  ``oracles.quad_log_potential`` integrates it directly.
    Accepts scalars or arrays.
    """
    x = _targets(x)
    r = np.sqrt((x - 2.0) * (x + 2.0))
    # the C library's log, element by element: numpy's vectorized log
    # differs from it in the last bit for some inputs, and array and scalar
    # calls must agree exactly
    log = np.array(list(map(math.log, ((x + r) / 2.0).ravel().tolist()))).reshape(x.shape)
    out = x / (x + r) - 0.5 + log
    return float(out) if out.ndim == 0 else out


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


def j_value(x, theta, *, theta_minus=None, log_pot=None):
    """Asymptotic spherical-integral free energy J(x, theta), theta >= 0.

    Quadratic branch theta^2 up to theta_minus, log branch beyond; the two
    branches meet C^1 at theta_minus.  Vectorized over theta and x, which
    broadcast against each other.  A caller evaluating the same targets at
    many thetas may pass ``theta_roots(x).theta_minus`` and
    ``log_potential(x)``, computed once; the result is the same bit for bit.
    """
    tm = theta_roots(x).theta_minus if theta_minus is None else theta_minus
    L = log_potential(x) if log_pot is None else log_pot
    theta = np.asarray(theta, dtype=float)
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    th = np.maximum(theta, tm)  # keeps the log branch finite at theta = 0
    out = np.where(theta <= tm, theta**2, th * x - 0.5 * L - 0.5 * np.log(2.0 * th) - 0.5)
    return float(out) if out.ndim == 0 else out


def overlap(x, theta, *, theta_minus=None):
    """Asymptotic alignment q_x(theta) = sqrt((1 - theta_minus/theta)_+).

    Vectorized over theta and x, which broadcast against each other.
    ``theta_minus`` may be passed precomputed, as in ``j_value``.
    """
    tm = theta_roots(x).theta_minus if theta_minus is None else theta_minus
    theta = np.asarray(theta, dtype=float)
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    out = np.sqrt(1.0 - tm / np.maximum(theta, tm))
    return float(out) if out.ndim == 0 else out
