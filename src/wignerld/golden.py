"""Row-wise golden-section maximization: many brackets shrink side by side,
with one array call of the objective per step.  Depends on numpy only, so
every module of the package can import it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["golden_max_rows"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200


def golden_max_rows(f, a, b, tol: float, *, relative: bool = False):
    """Maximize ``f`` on each bracket [a_i, b_i] by golden-section search.

    ``f(t, rows)`` returns, as a new array, the objective of the rows
    ``rows`` (indices into ``a``) at the points ``t``, one point and one
    value per listed row.  A row stops once its bracket is no wider than
    ``tol`` (``tol * max(1, |a| + |b|)`` when ``relative``) or after
    ``_MAX_ITER`` steps.  Returns the bracket midpoints and ``f`` there, as
    arrays.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    every = np.arange(a.size)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c, every)
    fd = f(d, every)
    for _ in range(_MAX_ITER):
        width = tol * np.maximum(1.0, np.abs(a) + np.abs(b)) if relative else tol
        live = np.flatnonzero(b - a > width)
        if live.size == 0:
            break
        keep_left = fc[live] >= fd[live]
        lft, rgt = live[keep_left], live[~keep_left]
        # maximum in [a, d]: d becomes the right end, c the new inner right point
        b[lft], d[lft], fd[lft] = d[lft], c[lft], fc[lft]
        c[lft] = b[lft] - _INVPHI * (b[lft] - a[lft])
        # maximum in [c, b]: c becomes the left end, d the new inner left point
        a[rgt], c[rgt], fc[rgt] = c[rgt], d[rgt], fd[rgt]
        d[rgt] = a[rgt] + _INVPHI * (b[rgt] - a[rgt])
        ft = f(np.where(keep_left, c[live], d[live]), live)
        fc[lft] = ft[keep_left]
        fd[rgt] = ft[~keep_left]
    mid = 0.5 * (a + b)
    return mid, f(mid, every)
