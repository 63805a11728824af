"""Constrained Gibbs variational problem on a symmetric interval.

Maximizes  int h dnu - KL(nu | standard normal)  over probability measures
on [-R, R] with second moment alpha, where h(s) = sum_i L(2 v_i s) is built
from the entry distribution's log-Laplace transform L.  The solver works
through the dual single-variable formulation: the optimizer has density
proportional to exp(h(s) - zeta s^2) on [-R, R], and the multiplier zeta*
is the unique root of a strictly monotone moment equation.

One quadrature rule and one multiplier core serve every solve.  The rule is
the composite Simpson grid of ``_grid_for`` (spacing about 0.008), reduced
row by row by ``_grid_moments`` with the exponent max-subtracted, since h
can reach several hundred for large tilts.  For a symmetric entry law h is
even, and the grid covers only [0, R] with doubled weights, half the nodes
of [-R, R].  The core is a safeguarded Newton iteration on the reciprocal
moment 1/m2(zeta), exact in one step for a Gaussian weight, that learns its
bracket from the sign of alpha - m2.  ``solve_exponent_batch`` runs it on
many rows of one grid, warm-started from every fourth grid node, each row
independent of the others; ``gibbs_solve`` is its one-row case.  A single
weight can be narrower than that grid resolves (a small alpha, or alpha
near R^2 with its boundary layer), so ``gibbs_solve``, ``g_value`` and
``GibbsSolution.moment`` check each grid against Simpson's rule on every
other node and move to a finer Simpson grid of the same kind where the two
disagree (``_resolved``).  The solution keeps its last iterate's m2, so its
residual costs no quadrature.  The one whole-line limit R -> inf,
``whole_line_rows``, serves ``phi_unbounded`` and the Phi1 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entries import EntryDistribution

__all__ = ["GibbsProblem", "GibbsSolution", "GibbsError", "g_value", "gibbs_solve", "phi_unbounded", "wasserstein2"]

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0
_TAIL_DROP = 92.0  # R = inf truncates where the weight is below exp(-92) ~ 1e-40 of its peak
_ZETA_LIMIT = 1e6
_MAX_ITER = 80  # moment evaluations per Newton pass of a multiplier solve
_SCALAR_F_TOL = 1e-13  # |alpha - m2| / alpha stop of gibbs_solve, ~1e-13 in zeta
_GRID_RTOL = 1e-11  # agreement of a single weight's grid with its every other node
_MAX_NODES = 2**17 + 1  # node cap of a refined single-weight grid
_MAX_GRIDS = 24  # grids tried for one weight


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


def _infinite_domain(problem: GibbsProblem, zeta: float) -> float:
    """Truncation half-width for R = inf; requires super-quadratic decay."""
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
        if edge < m - _TAIL_DROP:
            return S
        if S > 2**20:
            raise GibbsError("integrand not normalizable: no decay found")
        S *= 2.0


def _weight_grid(problem: GibbsProblem, R: float, zeta: float) -> tuple:
    """((s, w, H), log I0, m2) of the weight exp(h(s) - zeta s^2) on [-R, R],
    on the first grid of ``_resolved`` that resolves it, with the arithmetic
    of ``gibbs_solve``."""

    def moments(s, w, H):
        log_i0, m2 = _grid_moments(H[None], s * s, np.array([zeta]), (w, w * (s * s)))
        return zeta, float(log_i0[0]), float(m2[0])

    grid, _, log_i0, m2 = _resolved(problem, R, R, moments)
    return grid, log_i0, m2


def g_value(problem: GibbsProblem, zeta: float, order: int = 0) -> float:
    """log int exp(-zeta s^2 + h(s)) ds over [-R, R], or its zeta-derivative.

    Order 1 returns -m2 of the normalized integrand (a moment, never a
    finite difference of order 0).  For R = inf the integral is truncated
    where the weight has fallen below exp(-92) of its peak.
    """
    R = problem.R if np.isfinite(problem.R) else _infinite_domain(problem, zeta)
    _, log_i0, m2 = _weight_grid(problem, R, zeta)
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
        """int s^k dnu for the optimizing measure, on the grid that resolves
        its weight at zeta* (the solve's grid when its first grid did, so
        moment(2) is then m2 bit for bit).  Odd k vanish for a symmetric
        law, whose weight is even.
        """
        if k % 2 and self.problem.dist.symmetric:
            return 0.0
        (s, w, H), _, _ = _weight_grid(self.problem, self.R, self.zeta_star)
        return float(_grid_moments(H[None], s * s, np.array([self.zeta_star]), (w, w * s**k))[1][0])

    def root_residual(self) -> float:
        """|m2 - alpha| = |g'(zeta*) + alpha|, the first-order optimality defect."""
        return abs(self.m2 - self.problem.alpha)

    def quantiles(self, q):
        """Inverse CDF at probabilities q (array), by interpolation of the
        trapezoid CDF on the grid that resolves the weight at zeta*, a half
        grid mirrored to [-R, R]."""
        (s, _, H), _, _ = _weight_grid(self.problem, self.R, self.zeta_star)
        phi = H - self.zeta_star * s * s
        if self.problem.dist.symmetric:
            s, phi = np.concatenate([-s[::-1], s]), np.concatenate([phi[::-1], phi])
        dens = np.exp(phi - phi.max())
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(s))])
        cdf /= cdf[-1]
        # nondecreasing, and flat only where the density underflows in the tails
        return np.interp(q, cdf, s)

    def __repr__(self):
        return f"GibbsSolution(zeta_star={self.zeta_star:.6g}, value={self.value:.6g})"


def gibbs_solve(problem: GibbsProblem, _zeta_init: float = None) -> GibbsSolution:
    """Solve the constrained problem through its multiplier equation.

    The map zeta -> g'(zeta) + alpha is strictly increasing (the second
    moment of the Gibbs weight decreases in zeta), so its root is unique.
    The solve is one row of ``solve_exponent_batch`` on the grid
    ``_grid_for(R, dist.symmetric)``, stopped once |alpha - m2| <= 1e-13
    alpha.  It starts from ``_zeta_init`` when given, else from the coarse
    warm start.  Where that grid does not resolve the weight at the
    multiplier found, the solve moves on to the finer grids of ``_resolved``,
    each started from the last multiplier; a weight of width sqrt(alpha)
    below R/256 starts on the grid of [-16 sqrt(alpha), 16 sqrt(alpha)].
    ``evaluations`` counts the moment evaluations of every pass.
    """
    if not np.isfinite(problem.R):
        raise ValueError("gibbs_solve needs finite R; use phi_unbounded for R=inf")
    alpha, R = problem.alpha, problem.R
    if alpha > R**2 * (1.0 - 1e-8):
        # the multiplier diverges and the boundary peak falls below any
        # quadrature resolution; treat as the bracket blowing up
        raise GibbsError("multiplier bracket failure (alpha too close to R^2)")
    zeta, evaluations = _zeta_init, 0

    def solve(s, w, H):
        nonlocal zeta, evaluations
        z, log_mass, m2, count = solve_exponent_batch(
            H[None], s, w, alpha, _SCALAR_F_TOL * min(1.0, alpha), zeta_init=zeta)
        zeta, evaluations = float(z[0]), evaluations + count
        return zeta, float(log_mass[0]), float(m2[0])

    span = 16.0 * math.sqrt(alpha) if 256.0 * math.sqrt(alpha) < R else R
    _, zeta, log_mass, m2 = _resolved(problem, R, span, solve)
    value = float(values_from_batch(log_mass, zeta, alpha))
    return GibbsSolution(problem, zeta, value, log_mass, m2, evaluations)


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
# the quadrature grid and the multiplier solve on it


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
    return _simpson_grid(0.0, R, h, True) if symmetric else _simpson_grid(-R, R, 2 * h - 1, False)


def _simpson_grid(a: float, b: float, n: int, symmetric: bool) -> tuple:
    """n Simpson nodes on [a, b] and their weights, doubled on a half grid."""
    return np.linspace(a, b, n), (2.0 if symmetric else 1.0) * _simpson_weights(n, (b - a) / (n - 1))


def _resolved(problem: GibbsProblem, R: float, span: float, step) -> tuple:
    """Run ``step(s, w, H)`` -> (zeta, log I0, m2) on the grid of
    ``_grid_for(span)`` (span <= R) and then on finer grids of [-R, R] until
    one resolves the weight exp(H - zeta s^2).

    A grid resolves it when Simpson's rule on every other node agrees with
    it to 1e-11 in log I0 and in m2 relative to m2, and where the grid stops
    short of [-R, R] the weight there is below exp(-92) of its peak.  The
    next grid triples a span that stops short too soon; else it spans the
    nodes where the weight is above that bound, one more on each side, if
    they fill at most half the grid; else it halves the spacing of a grid
    of fewer than 2^17 + 1 nodes.  A weight still unresolved raises
    ``GibbsError``.
    Returns ((s, w, H), zeta, log I0, m2) of the last grid.
    """
    sym = problem.dist.symmetric
    lo = 0.0 if sym else -R  # a half grid's 0 is the fold, not an end of the domain
    s, w = _grid_for(span, sym)
    for _ in range(_MAX_GRIDS):
        H = problem.h(s)
        zeta, log_i0, m2 = step(s, w, H)
        c = s[::2]  # a Simpson grid too: (s.size - 1) % 4 == 0
        wc = _simpson_grid(c[0], c[-1], c.size, sym)[1]
        log_c, m2_c = _grid_moments(H[None, ::2], c * c, np.array([zeta]), (wc, wc * (c * c)))
        close = abs(log_c[0] - log_i0) <= _GRID_RTOL and abs(m2_c[0] - m2) <= _GRID_RTOL * m2
        if close and s[0] == lo and s[-1] == R:
            return (s, w, H), zeta, log_i0, m2
        phi = H - zeta * s * s
        live = np.nonzero(phi >= phi.max() - _TAIL_DROP)[0]
        cut = (s[0] > lo and live[0] == 0, s[-1] < R and live[-1] == s.size - 1)
        if close and not any(cut):
            return (s, w, H), zeta, log_i0, m2
        a, b, n = float(s[0]), float(s[-1]), s.size
        if any(cut):
            a, b = (max(lo, a - (b - a)) if cut[0] else a), (min(R, b + (b - a)) if cut[1] else b)
        elif live[-1] - live[0] + 2 <= n // 2:
            a, b = s[max(live[0] - 1, 0)], s[min(live[-1] + 1, n - 1)]
        elif n < _MAX_NODES:
            n = 2 * n - 1
        else:
            break
        s, w = _simpson_grid(a, b, n, sym)
    raise GibbsError(f"quadrature cannot resolve the Gibbs weight at zeta={zeta:.6g} "
                     f"(alpha={problem.alpha:g}, R={R:g})")


def _grid_moments(H: np.ndarray, s2: np.ndarray, zeta: np.ndarray, ws: tuple) -> tuple:
    """log I0 and averages of the weights exp(H[i] - zeta[i] s^2) on a grid.

    ``ws`` holds the quadrature weights w, then w times each function f of
    s to average: I0 = sum_j exp(...) w_j, and each average is
    sum_j exp(...) w_j f(s_j) / I0.  The exponent is max-subtracted by row.
    """
    phi = np.multiply(-zeta[:, None], s2)
    phi += H
    m = phi.max(axis=1)
    phi -= m[:, None]
    np.exp(phi, out=phi)
    # row-wise reductions, unlike a BLAS product, round a row the same at
    # any position in the batch
    i0, *mk = (np.einsum("ij,j->i", phi, v) for v in ws)
    return (np.log(i0) + m, *(x / i0 for x in mk))


def solve_exponent_batch(H: np.ndarray, s: np.ndarray, w: np.ndarray, alpha,
                         f_tol: float = 1e-11, max_iter: int = _MAX_ITER, zeta_init=None):
    """Multiplier solve for many Gibbs weights on one grid.

    ``H[i, j]`` holds the tilt Hamiltonian of problem i at node s[j]; ``w``
    are the matching quadrature weights, those of ``_grid_for``'s full grid
    or, for even Hamiltonians, of its half grid.  Returns (zeta, log_mass,
    m2, evaluations) with log_mass = log int exp(H - zeta s^2) and the
    number of moment evaluations (``_grid_moments`` calls).  Rows never
    interact: a row's result does not depend on the other rows of the batch.

    Grids of more than 1600 nodes warm-start from a solve on every fourth
    node, whose evaluations count too.  Without a warm start or
    ``zeta_init`` a row starts from the Gaussian fit H_edge/R^2 + 1/(2 alpha),
    H_edge being H where s^2 is largest.  The safeguarded Newton iteration
    runs on the reciprocal moment 1/m2(zeta), which is linear in zeta for a
    Gaussian weight, so there one step lands on the root: the step is the
    Newton step on alpha - m2 scaled by m2/alpha.  The sign of alpha - m2 at
    each iterate tightens the row's bracket (m2 decreases in zeta); while a
    side is still open a step is clipped to max(1, |zeta|), and once both
    are known a step leaving the bracket bisects, as does the step of a row
    whose bracket and residual both failed to halve over two passes
    (Dekker 1969; Brent 1973, ch. 4).  A row stops when
    |alpha - m2| <= f_tol * max(1, alpha) or its bracket is narrower than
    1e-13 * max(1, |zeta|), and drops out of later evaluations.
    """
    P = H.shape[0]
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (P,)).copy()
    s2 = s * s
    ws = (w, w * s2, w * s2 * s2)
    coarse = 0
    if zeta_init is None and s.size > 1600 and (s.size - 1) % 8 == 0:
        wc = _simpson_weights((s.size - 1) // 4 + 1, 4.0 * (s[1] - s[0]))
        zeta_init, _, _, coarse = solve_exponent_batch(H[:, ::4], s[::4], wc, alpha, 1e-9, max_iter)
    if zeta_init is None:
        edge = s2 == s2.max()  # both ends of a full grid, the far end of a half grid
        zeta = H[:, edge].max(axis=1) / s2.max() + 0.5 / alpha
    else:
        zeta = np.array(np.broadcast_to(zeta_init, (P,)), dtype=float)
    lo = np.full(P, -np.inf)
    hi = np.full(P, np.inf)
    past = np.full((2, 2, P), np.inf)  # (width, |f|) two passes and one pass back
    log_mass = np.empty(P)
    m2_out = np.empty(P)
    rows = np.arange(P)
    for calls in range(coarse + 1, coarse + max_iter + 1):
        z = zeta[rows]
        log_mass[rows], m2, m4 = _grid_moments(H if rows.size == P else H[rows], s2, z, ws)
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


def values_from_batch(log_mass: np.ndarray, zeta: np.ndarray, alpha) -> np.ndarray:
    """Optimum values log_mass + alpha zeta + (1 - alpha)/2 - log(2 pi e)/2."""
    alpha = np.asarray(alpha, dtype=float)
    return log_mass + alpha * zeta + 0.5 * (1.0 - alpha) - 0.5 * _LOG_2PI_E
