"""Row-wise bracketed maximization by finite-difference Newton steps on
three-point stencils (Dennis & Schnabel 1983, sec. 5.6): many brackets
shrink side by side, with one array call of the objective per step.  Every
row's state is updated elementwise, so a row's result never depends on the
other rows of the call.  Depends on numpy only, so every module of the
package can import it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stencil_max_rows"]

_CBRT_EPS = 2.2e-16 ** (1.0 / 3.0)  # relative half-width of a stencil
_MAX_ITER = 64  # stencils per row: a bisection from the widest cell reaches h in under 40
_OFFSETS = np.array([-1.0, 0.0, 1.0])


def stencil_max_rows(f, cells, values):
    """Maximize ``f`` on the bracket [a, b] of each scan cell (a, m, b).

    ``cells[n, 3]`` holds the cells, a <= m <= b (m may be an end, as at a
    scan's first point), ``values[n, 3]`` the objective there.  ``f(t, rows)``
    returns, as a new array, the objective of the rows ``rows`` (indices into
    ``cells``) at ``t[len(rows), k]``: k = 3 for a stencil (t - h, t, t + h),
    h = eps^(1/3) max(1, |t|), k = 1 for a row's last point.

    A row starts at its cell's parabolic vertex (at m if the cell is not
    strictly concave).  Its stencil, moved inside [a, b] where it would leave
    it, shrinks the bracket by its slope's sign and steps to its Newton
    vertex, or bisects the bracket where it is not concave or the vertex
    leaves the bracket.  A row stops once a step is at most h / 2, once it
    lands within h of an end its stencil touches (a maximum at or next to an
    end, where no stencil fits), or after ``_MAX_ITER`` stencils, and then
    takes one value at its last point, in one call for all rows.  It returns
    that point where its value is at least the outer values of its last
    stencil and the cell maximum, else the best point it has seen, so its
    value is never below the cell maximum.  Returns the points and their
    values.
    """
    cells, values = np.array(cells, dtype=float), np.array(values, dtype=float)
    a, m, b = cells.T
    fa, fm, fb = values.T
    r = np.arange(len(cells))
    k = values.argmax(axis=1)
    best_t, best_v = cells[r, k], values[r, k]
    # the cell's parabola opens downward iff q > 0 (for a < m < b)
    p = (m - a) ** 2 * (fm - fb) - (b - m) ** 2 * (fm - fa)
    q = (m - a) * (fm - fb) + (b - m) * (fm - fa)
    t = np.clip(np.where(q > 0.0, m - 0.5 * p / np.where(q > 0.0, q, 1.0), m), a, b)
    lo, hi = a.copy(), b.copy()
    outer = np.empty(r.size)  # the larger outer value of each row's last stencil
    live = r
    for _ in range(_MAX_ITER):
        if not live.size:
            break
        al, bl = a[live], b[live]
        h = np.minimum(_CBRT_EPS * np.maximum(1.0, np.abs(t[live])), 0.5 * (bl - al))
        c = np.clip(t[live], al + h, bl - h)
        stencil = c[:, None] + h[:, None] * _OFFSETS
        g = f(stencil, live)
        won = g.max(axis=1) > best_v[live]
        best_t[live[won]] = stencil[won, g[won].argmax(axis=1)]
        best_v[live[won]] = g[won].max(axis=1)

        gm, g0, gp = g.T
        outer[live] = np.maximum(gm, gp)
        lo[live] = np.where(gp > gm, np.maximum(lo[live], c - h), lo[live])
        hi[live] = np.where(gp < gm, np.minimum(hi[live], c + h), hi[live])
        curv = 2.0 * g0 - gm - gp
        newton = curv > 0.0
        u = c + np.where(newton, h * (gp - gm) / (2.0 * np.where(newton, curv, 1.0)), 0.0)
        bisect = ~newton | (u < lo[live]) | (u > hi[live])
        u = np.where(bisect, 0.5 * (lo[live] + hi[live]), u)
        # the end rule: a step into the last h before an end the stencil touches
        at_end = ((u < al + h) & (c - h <= al)) | ((u > bl - h) & (c + h >= bl))
        t[live] = u
        live = live[(np.abs(u - c) > 0.5 * h) & ~at_end]

    # on the rounding plateau of a maximum (1e-8 wide on hat alpha rows), the
    # best value seen is any point of it; the last point is a stencil's vertex
    g = f(t[:, None], r)[:, 0]
    won = g >= np.maximum(outer, values.max(axis=1))
    return np.where(won, t, best_t), np.where(won, g, best_v)
