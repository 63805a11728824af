"""Constrained Gibbs variational problem on a symmetric interval.

Maximizes  int h dnu - KL(nu | standard normal)  over probability measures
on [-R, R] with second moment alpha, where h(s) = sum_i L(2 v_i s) is built
from the entry distribution's log-Laplace transform L.  The solver works
through the dual single-variable formulation: the optimizer has density
proportional to exp(h(s) - zeta s^2) on [-R, R], and the multiplier zeta*
is the unique root of a strictly monotone moment equation.

One multiplier core serves both solvers: a safeguarded Newton iteration
on the reciprocal moment 1/m2(zeta), exact in one step for a Gaussian
weight, that learns its bracket from the sign of alpha - m2.
``gibbs_solve`` feeds it one problem's moments from composite Simpson
quadrature restricted to the region where the integrand exceeds exp(-46)
of its peak and refined by doubling until two successive levels agree to
1e-11 relative, the loop ``GibbsSolution.moment`` runs too; the exponent
is max-subtracted since h can reach several hundred for large tilts.  The
solution keeps its last iterate's m2, so its residual costs no quadrature.
The rate module's hot paths solve many problems on one shared Simpson
grid with ``solve_exponent_batch`` instead, warm-started from every fourth
grid node, each row independent of the others.  For a symmetric entry law
h is even, and that grid covers only [0, R] with doubled weights
(``_grid_for``), half the nodes of [-R, R].  The one whole-line limit
R -> inf, ``whole_line_rows``, serves ``phi_unbounded`` and the Phi1 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entries import EntryDistribution

__all__ = ["GibbsProblem", "GibbsSolution", "GibbsError", "g_value", "gibbs_solve", "phi_unbounded", "wasserstein2"]

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0
_QUAD_RTOL = 1e-11
_ACTIVE_DROP = 46.0  # exp(-46) ~ 1e-20 relative cutoff for the active region
_ZETA_LIMIT = 1e6
_MAX_ITER = 80  # moment evaluations per multiplier solve
_SCALAR_F_TOL = 1e-13  # |alpha - m2| stop of gibbs_solve, ~1e-13 in zeta


class GibbsError(RuntimeError):
    """Solver failure (bracket blow-up or non-normalizable integrand)."""


def _consolidate(v) -> tuple:
    """Unique nonzero tilt coefficients with multiplicities."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise ValueError("tilt vector must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError("tilt vector must be finite")
    nz = v[v != 0.0]
    if nz.size == 0:
        return np.empty(0), np.empty(0)
    vals, counts = np.unique(nz, return_counts=True)
    return vals, counts.astype(float)


@dataclass(frozen=True)
class GibbsProblem:
    """Problem data: tilt coefficients v, entry law, half-width R, moment alpha."""

    v: tuple
    dist: EntryDistribution
    R: float
    alpha: float
    _terms: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        object.__setattr__(self, "v", tuple(float(x) for x in v))
        object.__setattr__(self, "_terms", _consolidate(v))
        if not (self.alpha > 0.0):
            raise ValueError("second-moment constraint alpha must be positive")
        if np.isfinite(self.R):
            if self.R <= 0:
                raise ValueError("support half-width R must be positive")
            if self.alpha > self.R * self.R:
                raise ValueError("alpha exceeds R^2; the constraint set is empty")

    def h(self, s):
        """Tilt Hamiltonian h(s) = sum_i L(2 v_i s), vectorized in s."""
        vals, counts = self._terms
        s = np.asarray(s, dtype=float)
        if vals.size == 0:
            return np.zeros_like(s)
        terms = self.dist.log_laplace(2.0 * vals[:, None] * s.reshape(1, -1))
        return (counts @ terms).reshape(s.shape)

    def h_growth_bound(self) -> float:
        """Coefficient c with h(s) <= c s^2 globally (from sup psi)."""
        vals, counts = self._terms
        if vals.size == 0:
            return 0.0
        psi_max = self.dist.psi_extremes().psi_max
        return 4.0 * psi_max * float(counts @ (vals * vals))


def _simpson_weights(n: int, step: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def _active_interval(problem: GibbsProblem, zeta: float, lo: float, hi: float):
    """Hull of the region where the exponent is within _ACTIVE_DROP of its max."""
    s = np.linspace(lo, hi, 513)
    phi = problem.h(s) - zeta * s * s
    m = phi.max()
    keep = np.nonzero(phi >= m - _ACTIVE_DROP)[0]
    i0, i1 = max(keep[0] - 2, 0), min(keep[-1] + 2, s.size - 1)
    return s[i0], s[i1]


def _log_integrals(problem: GibbsProblem, zeta: float, lo: float, hi: float, k: int = 2):
    """(log I0, m_k, m_2k) for the weight exp(h(s) - zeta s^2) on [lo, hi]."""
    a, b = _active_interval(problem, zeta, lo, hi)
    prev = None
    n = 1025
    while True:
        s = np.linspace(a, b, n)
        phi = problem.h(s) - zeta * s * s
        m = phi.max()
        w = _simpson_weights(n, (b - a) / (n - 1)) * np.exp(phi - m)
        sk = s**k
        i0 = w.sum()
        cur = (math.log(i0) + m, (w @ sk) / i0, (w @ (sk * sk)) / i0)
        if prev is not None:
            if (
                abs(cur[0] - prev[0]) <= _QUAD_RTOL * max(1.0, abs(cur[0]))
                and abs(cur[1] - prev[1]) <= _QUAD_RTOL * max(1.0, abs(cur[1]))
            ):
                return cur
            if n >= 32769:
                return cur
        prev = cur
        n = 2 * n - 1


def _infinite_domain(problem: GibbsProblem, zeta: float):
    """Truncation interval for R = inf; requires super-quadratic decay."""
    growth = problem.h_growth_bound()
    if zeta <= growth:
        raise GibbsError(
            f"integrand not normalizable: zeta={zeta:.6g} <= quadratic growth {growth:.6g}"
        )
    S = 16.0
    while True:
        s = np.linspace(-S, S, 513)
        phi = problem.h(s) - zeta * s * s
        m = phi.max()
        edge = max(phi[0], phi[-1])
        if edge < m - 2.0 * _ACTIVE_DROP:
            return -S, S
        if S > 2**20:
            raise GibbsError("integrand not normalizable: no decay found")
        S *= 2.0


def _domain(problem: GibbsProblem, zeta: float):
    if np.isfinite(problem.R):
        return -problem.R, problem.R
    return _infinite_domain(problem, zeta)


def g_value(problem: GibbsProblem, zeta: float, order: int = 0) -> float:
    """log int exp(-zeta s^2 + h(s)) ds over [-R, R], or its zeta-derivative.

    Order 1 returns -m2 of the normalized integrand (a moment, never a
    finite difference of order 0).
    """
    lo, hi = _domain(problem, zeta)
    log_i0, m2, _ = _log_integrals(problem, zeta, lo, hi)
    if order == 0:
        return log_i0
    if order == 1:
        return -m2
    raise ValueError("order must be 0 or 1")


class GibbsSolution:
    """Multiplier, optimum value, and accessors for the optimizing measure."""

    def __init__(self, problem: GibbsProblem, zeta_star: float, value: float, log_norm: float,
                 m2: float, evaluations: int):
        self.problem = problem
        self.zeta_star = zeta_star
        self.value = value
        self.log_norm = log_norm  # log of the unnormalized mass int exp(h - zeta s^2)
        self.m2 = m2  # second moment at zeta_star, from the solve's last evaluation
        self.evaluations = evaluations  # moment evaluations of the multiplier solve

    @property
    def R(self) -> float:
        return self.problem.R

    def density(self, s):
        """Optimizer density on [-R, R]; zero outside."""
        s = np.asarray(s, dtype=float)
        phi = self.problem.h(s) - self.zeta_star * s * s
        out = np.exp(phi - self.log_norm)
        out = np.where(np.abs(s) <= self.problem.R, out, 0.0)
        return float(out) if out.ndim == 0 else out

    def moment(self, k: int) -> float:
        """int s^k dnu for the optimizing measure (the solve's adaptive quadrature)."""
        return float(_log_integrals(self.problem, self.zeta_star, -self.R, self.R, k)[1])

    def root_residual(self) -> float:
        """|m2 - alpha| = |g'(zeta*) + alpha|, the first-order optimality defect."""
        return abs(self.m2 - self.problem.alpha)

    def quantiles(self, q):
        """Inverse CDF at probabilities q (array), by interpolation."""
        lo, hi = -self.problem.R, self.problem.R
        a, b = _active_interval(self.problem, self.zeta_star, lo, hi)
        n = 32769
        s = np.linspace(a, b, n)
        phi = self.problem.h(s) - self.zeta_star * s * s
        dens = np.exp(phi - phi.max())
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5)])
        cdf /= cdf[-1]
        # strictly increasing by positivity of the density
        return np.interp(q, cdf, s)

    def __repr__(self):
        return f"GibbsSolution(zeta_star={self.zeta_star:.6g}, value={self.value:.6g})"


def _newton_multipliers(stats, alpha, h_edge, r2, zeta_init, f_tol, max_iter):
    """Multipliers of the rows of alpha by a safeguarded Newton iteration.

    ``stats(zeta, rows) -> (log_mass, m2, m4)`` gives the moments of the
    weights exp(h - zeta s^2) of the listed rows.  The iteration runs on the
    reciprocal moment 1/m2(zeta), which is linear in zeta for a Gaussian
    weight, so there one step lands on the root: the step is the Newton step
    on alpha - m2 scaled by m2/alpha.  Without ``zeta_init`` a row starts
    from the Gaussian fit h_edge/r2 + 1/(2 alpha), h_edge being h at the
    larger interval end and r2 = R^2.  The sign of alpha - m2 at each
    iterate tightens the row's bracket (m2 decreases in zeta); while a side
    is still open a step is clipped to max(1, |zeta|), and once both are
    known a step leaving the bracket bisects, as does the step of a row
    whose bracket and residual both failed to halve over two passes
    (Dekker 1969; Brent 1973, ch. 4).  A row stops when
    |alpha - m2| <= f_tol * max(1, alpha) or its bracket is narrower than
    1e-13 * max(1, |zeta|), and drops out of later calls of ``stats``.
    Returns (zeta, log_mass, m2, number of ``stats`` calls).
    """
    P = alpha.size
    if zeta_init is None:
        zeta = h_edge / r2 + 0.5 / alpha
    else:
        zeta = np.array(np.broadcast_to(zeta_init, (P,)), dtype=float)
    lo = np.full(P, -np.inf)
    hi = np.full(P, np.inf)
    past = np.full((2, 2, P), np.inf)  # (width, |f|) two passes and one pass back
    log_mass = np.empty(P)
    m2_out = np.empty(P)
    rows = np.arange(P)
    for calls in range(1, max_iter + 1):
        z = zeta[rows]
        log_mass[rows], m2, m4 = stats(z, rows)
        m2_out[rows] = m2
        f = alpha[rows] - m2
        below = f > 0  # m2 decreases in zeta: the root lies below z
        hi[rows[below]] = z[below]
        lo[rows[~below]] = z[~below]
        done = ((np.abs(f) <= f_tol * np.maximum(1.0, alpha[rows]))
                | (hi[rows] - lo[rows] <= 1e-13 * np.maximum(1.0, np.abs(z))))
        keep = ~done
        rows, z, f, m2, m4 = rows[keep], z[keep], f[keep], m2[keep], m4[keep]
        if rows.size == 0:
            return zeta, log_mass, m2_out, calls
        lo_r, hi_r = lo[rows], hi[rows]
        # steps beyond 4 _ZETA_LIMIT leave any bracket: flooring them keeps the
        # quotient finite where m4 - m2^2 cancels to zero (boundary-peaked rows)
        den = np.maximum(alpha[rows] * (m4 - m2 * m2), np.abs(f * m2) / (4 * _ZETA_LIMIT) + 1e-300)
        step = -f * m2 / den
        cap = np.maximum(1.0, np.abs(z))
        one_sided = np.isinf(lo_r) | np.isinf(hi_r)
        new = z + np.where(one_sided, np.clip(step, -cap, cap), step)
        now = np.array([hi_r - lo_r, np.abs(f)])
        slow = (now > 0.5 * past[0][:, rows]).all(axis=0)  # neither halved in two passes
        past[:, :, rows] = past[1][:, rows], now
        inside = (new > lo_r) & (new < hi_r) & ~slow
        new = np.where(inside, new, np.where(one_sided, z - np.copysign(cap, f), 0.5 * (lo_r + hi_r)))
        if not np.all(np.abs(new) <= _ZETA_LIMIT):
            raise GibbsError(f"multiplier bracket failure: |zeta| > {_ZETA_LIMIT:g} or NaN")
        zeta[rows] = new
    raise GibbsError(f"multiplier solve stalled on {rows.size} problem(s)")


def gibbs_solve(problem: GibbsProblem, _zeta_init: float = None) -> GibbsSolution:
    """Solve the constrained problem through its multiplier equation.

    The map zeta -> g'(zeta) + alpha is strictly increasing (the second
    moment of the Gibbs weight decreases in zeta), so its root is unique.
    It is found by the safeguarded Newton iteration on 1/m2(zeta) that
    ``solve_exponent_batch`` runs, on one row whose moments come from the
    adaptive quadrature, started from the Gaussian fit h(R)/R^2 + 1/(2 alpha).
    """
    if not np.isfinite(problem.R):
        raise ValueError("gibbs_solve needs finite R; use phi_unbounded for R=inf")
    alpha, R = problem.alpha, problem.R
    if alpha > R**2 * (1.0 - 1e-8):
        # the multiplier diverges and the boundary peak falls below any
        # quadrature resolution; treat as the bracket blowing up
        raise GibbsError("multiplier bracket failure (alpha too close to R^2)")

    def stats(zeta, rows):
        return tuple(np.array([c]) for c in _log_integrals(problem, float(zeta[0]), -R, R))

    zeta, log_mass, m2, evaluations = _newton_multipliers(
        stats, np.array([alpha]), problem.h(np.array([-R, R])).max(), R * R, _zeta_init,
        _SCALAR_F_TOL, _MAX_ITER)
    value = float(values_from_batch(log_mass, zeta, alpha)[0])
    return GibbsSolution(problem, float(zeta[0]), value, float(log_mass[0]), float(m2[0]), evaluations)


def whole_line_rows(values_at, n: int, where) -> np.ndarray:
    """Whole-line limits of n rows of finite-R values, R doubling from 16.

    ``values_at(R, rows)`` gives the values at half-width R of the listed
    rows (an index array); a row drops out once its value moves by less
    than 1e-8 from one R to the next and keeps that last value.  Past
    R = 2^12, where the batch grid's spacing reaches 0.5, a row still moving
    raises ``GibbsError`` naming the R reached and ``where(row)``.
    """
    R = 16.0
    rows = np.arange(n)
    vals = np.array(values_at(R, rows), dtype=float)
    while R < 2.0**12:
        R *= 2.0
        nxt = values_at(R, rows)
        moving = ~(np.abs(nxt - vals[rows]) < 1e-8)
        vals[rows] = nxt
        rows = rows[moving]
        if rows.size == 0:
            return vals
    raise GibbsError(f"whole-line value did not settle by R={R:g}: {where(rows[0])}")


def phi_unbounded(dist: EntryDistribution, v, alpha: float) -> float:
    """Whole-line optimum as the monotone limit of finite-R solves.

    One row of ``whole_line_rows``; the sequence is nondecreasing in R by
    construction.  Each solve starts from the multiplier of the previous R.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    zeta = None

    def values_at(R, _rows):
        nonlocal zeta
        sol = gibbs_solve(GibbsProblem(v, dist, R, alpha), _zeta_init=zeta)
        zeta = sol.zeta_star
        return np.array([sol.value])

    where = f"phi_unbounded at v={np.ravel(v).tolist()}, alpha={alpha}"
    return float(whole_line_rows(values_at, 1, lambda _row: where)[0])


def wasserstein2(sol1: GibbsSolution, sol2: GibbsSolution, n_quantiles: int = 10_000) -> float:
    """L2-Wasserstein distance between two optimizers via quantile coupling."""
    if not (np.isfinite(sol1.problem.R) and np.isfinite(sol2.problem.R)):
        raise ValueError("both solutions must live on finite intervals")
    q = (np.arange(n_quantiles) + 0.5) / n_quantiles
    d = sol1.quantiles(q) - sol2.quantiles(q)
    return float(math.sqrt(np.mean(d * d)))


# ---------------------------------------------------------------------------
# batched solves on a shared quadrature grid (hot paths in the rate module)


def _grid_for(R: float, symmetric: bool = True) -> tuple:
    """Composite-Simpson nodes s and weights w for integrals over [-R, R].

    The nodes sit at spacing about 0.008, between 4097 and 16385 on
    [-R, R].  With ``symmetric`` the integrand must be even (an even
    Hamiltonian gives an even Gibbs weight): the nodes cover [0, R] only,
    with doubled weights, since the full rule whose middle node is 0 is
    twice the same rule on [0, R].  The half grid has h nodes with
    (h - 1) % 8 == 0 and the full grid 2h - 1 on the same spacing, so that a
    grid and its every fourth node (the coarse warm start of
    ``solve_exponent_batch``) are both Simpson grids.
    """
    h = (min(16385, max(4097, 2 * round(R / 0.008) + 1)) + 1) // 2
    h += -(h - 1) % 8
    if not symmetric:
        return np.linspace(-R, R, 2 * h - 1), _simpson_weights(2 * h - 1, 2.0 * R / (2 * h - 2))
    return np.linspace(0.0, R, h), 2.0 * _simpson_weights(h, R / (h - 1))


def solve_exponent_batch(H: np.ndarray, s: np.ndarray, w: np.ndarray, alpha,
                         f_tol: float = 1e-11, max_iter: int = _MAX_ITER, zeta_init=None):
    """Vectorized multiplier solve for many Gibbs weights on one grid.

    ``H[i, j]`` holds the tilt Hamiltonian of problem i at node s[j]; ``w``
    are the matching quadrature weights, those of ``_grid_for``'s full grid
    or, for even Hamiltonians, of its half grid.  The Gaussian-fit start
    reads H where s^2 is largest.  Returns (zeta, log_mass, m2) with
    log_mass = log int exp(H - zeta s^2), from the Newton iteration of
    ``_newton_multipliers`` (the stopping rule takes ``f_tol``) on moments
    reduced row by row on the grid.  Grids of more than 1600 nodes
    warm-start from a solve on every fourth node.  Rows never interact: a
    row's result does not depend on the other rows of the batch.
    """
    P = H.shape[0]
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (P,)).copy()
    s2 = s * s
    ws = (w, w * s2, w * s2 * s2)

    if zeta_init is None and s.size > 1600 and (s.size - 1) % 8 == 0:
        wc = _simpson_weights((s.size - 1) // 4 + 1, 4.0 * (s[1] - s[0]))
        zeta_init, _, _ = solve_exponent_batch(H[:, ::4], s[::4], wc, alpha, 1e-9, max_iter)

    def stats(zeta, rows):
        phi = np.multiply(-zeta[:, None], s2)
        phi += H if rows.size == P else H[rows]
        m = phi.max(axis=1)
        phi -= m[:, None]
        np.exp(phi, out=phi)
        # row-wise reductions, unlike a BLAS product, round a row the same
        # at any position in the batch
        i0, m2, m4 = (np.einsum("ij,j->i", phi, v) for v in ws)
        return np.log(i0) + m, m2 / i0, m4 / i0

    edge = s2 == s2.max()  # both ends of a full grid, the far end of a half grid
    zeta, log_mass, m2, _ = _newton_multipliers(stats, alpha, H[:, edge].max(axis=1),
                                                s2.max(), zeta_init, f_tol, max_iter)
    return zeta, log_mass, m2


def values_from_batch(log_mass: np.ndarray, zeta: np.ndarray, alpha) -> np.ndarray:
    """Optimum values log_mass + alpha zeta + (1 - alpha)/2 - log(2 pi e)/2."""
    alpha = np.asarray(alpha, dtype=float)
    return log_mass + alpha * zeta + 0.5 * (1.0 - alpha) - 0.5 * _LOG_2PI_E
