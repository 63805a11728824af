"""Row-wise bounded Brent maximization: many brackets shrink side by side,
with one array call of the objective per step.  Depends on numpy only, so
every module of the package can import it.

Each row runs Brent's bounded minimizer (Brent 1973, ch. 5, as in
``scipy.optimize.minimize_scalar(method="bounded")``) on the negated
objective: successive parabolic steps through the three best points,
accepted only when they fall inside the bracket and move less than half the
step before last, with a golden-section step otherwise.  One central
three-point vertex step closes each row.  Every row's state is updated
elementwise, so a row's result never depends on the other rows of the call.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["brent_max_rows"]

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(2.2e-16)  # relative floor of a step: below it f only shows rounding
_CBRT_EPS = 2.2e-16 ** (1.0 / 3.0)  # relative half-width of the closing vertex step
_MAX_ITER = 200


def brent_max_rows(f, a, b, tol: float, *, relative: bool = False):
    """Maximize ``f`` on each bracket [a_i, b_i] by bounded Brent search.

    ``f(t, rows)`` returns, as a new array, the objective of the rows
    ``rows`` (indices into ``a``) at the points ``t``, one point and one
    value per listed row.  A row stops once its best point lies within
    2 tol1 - (b - a) / 2 of its bracket's midpoint, with
    tol1 = sqrt(eps) |t| + tol / 3 (``tol`` scaled by max(1, |a| + |b|) of
    the initial bracket when ``relative``), or after ``_MAX_ITER`` steps.
    A closing vertex step through the best point t and t +- h then replaces
    t where the vertex beats both t - h and t + h (rows whose t +- h leaves
    the initial bracket keep t).  Returns the points and ``f`` there, as
    arrays.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    lo, hi = a.copy(), b.copy()
    xatol = np.full(a.shape, float(tol))
    if relative:
        xatol *= np.maximum(1.0, np.abs(a) + np.abs(b))
    # Brent's names: x the best point, w the second best, v the previous w;
    # d the last step, e the step before it; f* hold -f, which is minimized
    x = a + _CGOLD * (b - a)
    fx = -f(x, np.arange(a.size))
    w, v, fw, fv = x.copy(), x.copy(), fx.copy(), fx.copy()
    d, e = np.zeros((2, a.size))
    for _ in range(_MAX_ITER):
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(x) + xatol / 3.0
        live = np.flatnonzero(np.abs(x - xm) > 2.0 * tol1 - 0.5 * (b - a))
        if live.size == 0:
            break
        la, lb, lx, lw, lv = a[live], b[live], x[live], w[live], v[live]
        lfx, lfw, lfv, le, xm, tol1 = fx[live], fw[live], fv[live], e[live], xm[live], tol1[live]

        r = (lx - lw) * (lfx - lfv)
        q = (lx - lv) * (lfx - lfw)
        p = (lx - lv) * q - (lx - lw) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = ((np.abs(le) > tol1) & (np.abs(p) < np.abs(0.5 * q * le))
                     & (p > q * (la - lx)) & (p < q * (lb - lx)))
        step = np.where(lx >= xm, la - lx, lb - lx)  # golden step toward the larger side
        e[live] = np.where(parabolic, d[live], step)
        step = np.where(parabolic, p / np.where(parabolic, q, 1.0), _CGOLD * step)
        # a parabolic point closer than 2 tol1 to an end steps tol1 toward the middle
        u = lx + step
        near = parabolic & ((u - la < 2.0 * tol1) | (lb - u < 2.0 * tol1))
        step = np.where(near, tol1 * (np.sign(xm - lx) + (xm == lx)), step)
        d[live] = step
        u = lx + (np.sign(step) + (step == 0)) * np.maximum(np.abs(step), tol1)
        fu = -f(u, live)

        better = fu <= lfx
        right = u >= lx
        a[live] = np.where(better == right, np.where(better, lx, u), la)
        b[live] = np.where(better != right, np.where(better, lx, u), lb)
        # worse points replace w if no worse than w (or w is x), else v likewise
        to_w = ~better & ((fu <= lfw) | (lw == lx))
        to_v = ~better & ~to_w & ((fu <= lfv) | (lv == lx) | (lv == lw))
        shift = better | to_w
        v[live] = np.where(shift, lw, np.where(to_v, u, lv))
        fv[live] = np.where(shift, lfw, np.where(to_v, fu, lfv))
        w[live] = np.where(better, lx, np.where(to_w, u, lw))
        fw[live] = np.where(better, lfx, np.where(to_w, fu, lfw))
        x[live] = np.where(better, u, lx)
        fx[live] = np.where(better, fu, lfx)

    # Within a few tol1 of the maximum f changes by less than its rounding,
    # so Brent's last probes leave x anywhere on that plateau (1e-8 |x| on
    # the rate objectives).  One vertex step through x and x +- h, with h the
    # central-difference width eps^(1/3) max(1, |x|), pins it to about 1e-10;
    # a vertex is kept only where it beats both outer points.
    h = _CBRT_EPS * np.maximum(1.0, np.abs(x))
    rows = np.flatnonzero((x - h >= lo) & (x + h <= hi))
    if rows.size:
        h, n = h[rows], rows.size
        g = f(np.concatenate((x[rows] - h, x[rows] + h)), np.concatenate((rows, rows)))
        gm, gp = g[:n], g[n:]
        curv = -2.0 * fx[rows] - gm - gp
        ok = curv > 0.0
        delta = 0.5 * h * (gp - gm) / np.where(ok, curv, 1.0)
        ok &= np.abs(delta) < h
        rows, u, top = rows[ok], (x[rows] + delta)[ok], np.maximum(gm, gp)[ok]
        if rows.size:
            gu = f(u, rows)
            won = gu > top
            x[rows[won]], fx[rows[won]] = u[won], -gu[won]
    return x, -fx
