"""Constrained Gibbs variational problem on a symmetric interval.

Maximizes  int h dnu - KL(nu | standard normal)  over probability measures
on [-R, R] with second moment alpha, where h(s) = sum_i L(2 v_i s) is built
from the entry distribution's log-Laplace transform L.  The solver works
through the dual single-variable formulation: the optimizer has density
proportional to exp(h(s) - zeta s^2) on [-R, R], and the multiplier zeta*
is the unique root of a strictly monotone moment equation.

One Hamiltonian builder, ``_hamiltonian``, serves the single problem and
every batch row.  One quadrature rule and one multiplier core serve every
solve and every entry law.  The rule is the composite Simpson grid of
``_grid_for`` on [0, R] with doubled weights (spacing about 0.008), reduced
row by row by ``_moments`` from the weights of ``_weights``, their exponent
max-subtracted by row, since h can reach several hundred for large tilts.
``_fold`` folds h onto [0, R], so the grid is the full rule of [-R, R]
folded at its middle node 0.  The core is a safeguarded Newton iteration on
the reciprocal moment 1/m2(zeta), exact in one step for a Gaussian weight,
that learns its bracket from the sign of alpha - m2.
``solve_exponent_batch`` runs it on many rows of one grid, warm-started
from every fourth grid node, each row independent of the others;
``gibbs_solve`` is its one-row case.  A single weight can be narrower than
that grid resolves (a small alpha, or alpha near R^2 with its boundary
layer), so ``gibbs_solve`` and ``g_value`` check each grid against
Simpson's rule on every other node and move to a finer Simpson grid where
the two disagree (``_resolved``).  The check, ``_simpson_agrees``, sums the
weights of the solve's last Newton evaluation on every other node.  The
solution keeps its last iterate's m2, so its residual costs no quadrature,
and the grid its solve resolved, which ``moment`` and ``quantiles`` read
without resolving again.  R is finite: ``whole_line_rows`` takes the
whole-line value of a row, for ``phi_unbounded`` and the Phi1 table, from
one solve at R = max(32, 16 sqrt(alpha)), certified by weak duality: the
multiplier zeta_R of a solve on [-R, R] prices the whole-line constraint
too, and h(s) <= kappa s^2 for |s| >= R bounds the mass beyond R, so Phi_R
<= Phi_inf <= Phi_R + ``duality_gap``.  A row whose gap is above 1e-8
raises ``GibbsError``.

The batch rows of ``rate`` use the same check the other way round: most
weights need far fewer nodes than the fixed grid holds, so each row climbs
from every fourth node of ``_grid_for(R)`` (``_sub_grid``) to every second
and then every node, and stops on the first grid that passes the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entries import EntryDistribution

__all__ = ["GibbsProblem", "GibbsSolution", "GibbsError", "g_value", "gibbs_solve", "phi_unbounded", "wasserstein2"]

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0
_TAIL_DROP = 92.0  # a grid may stop where the weight is below exp(-92) ~ 1e-40 of its peak
_ZETA_LIMIT = 1e6
_MAX_ITER = 80  # moment evaluations per Newton pass of a multiplier solve
_SCALAR_F_TOL = 1e-13  # |alpha - m2| / alpha stop of gibbs_solve, ~1e-13 in zeta
_GRID_RTOL = 1e-11  # agreement of a grid that resolves a weight with its every other node
_MAX_NODES = 2**17 + 1  # node cap of a refined single-weight grid
_MAX_GRIDS = 24  # grids tried for one weight
_WHOLE_LINE_TOL = 1e-8  # largest duality gap that certifies a whole-line row
_W2_QUANTILES = 10_000  # quantile pairs of wasserstein2


class GibbsError(RuntimeError):
    """Solver failure: bracket blow-up, an unresolved weight, or a whole-line
    value that its duality gap does not certify."""


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
        if not self.R < math.inf:
            raise ValueError(f"a Gibbs problem needs finite R, not R={self.R}; "
                             "phi_unbounded gives the whole-line optimum")
        if self.R <= 0:
            raise ValueError("support half-width R must be positive")
        if self.alpha > self.R * self.R:
            raise ValueError("alpha exceeds R^2; the constraint set is empty")

    def h(self, s):
        """Tilt Hamiltonian h(s) = sum_i L(2 v_i s), vectorized in s: the
        one-row case of ``_hamiltonian``."""
        vals, counts = self._terms
        s = np.asarray(s, dtype=float)
        H = _hamiltonian(self.dist, np.ones(1), vals[None], counts[None], s.reshape(-1))
        return H.reshape(s.shape)


def _hamiltonian(dist: EntryDistribution, amp, vals, counts, s) -> np.ndarray:
    """Rows sum_j counts[i, j] L(2 vals[i, j] amp[i] s) at the nodes s, summed
    over j in order into the first term's array."""
    H = None
    for v, c in zip(vals.T, counts.T):
        if not c.any():  # padding adds nothing
            continue
        term = c[:, None] * dist.log_laplace(2.0 * v[:, None] * amp[:, None] * s)
        if H is None:
            H = term
        else:
            H += term
    return np.zeros((amp.size, s.size)) if H is None else H


def _simpson_weights(n: int, step: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def g_value(problem: GibbsProblem, zeta: float, order: int = 0) -> float:
    """log int exp(-zeta s^2 + h(s)) ds over [-R, R], or its zeta-derivative.

    Order 1 returns -m2 of the normalized integrand (a moment, never a
    finite difference of order 0).  Each call resolves the weight at zeta
    by ``_resolved``, starting from the grid ``_grid_for(R)``, with the
    arithmetic of ``gibbs_solve``.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")

    def moments(s, w, H):
        E, m = _weights(H[None], s * s, np.array([zeta]))
        log_i0, m2 = _moments(E, m, (w, w * (s * s)))
        return zeta, float(log_i0[0]), float(m2[0]), (E, m)

    _, _, log_i0, m2 = _resolved(problem, problem.R, moments)
    return -m2 if order else log_i0


class GibbsSolution:
    """Multiplier, optimum value, and accessors for the optimizing measure."""

    def __init__(self, problem: GibbsProblem, zeta_star: float, value: float, log_norm: float,
                 m2: float, evaluations: int, grid: tuple):
        self.problem = problem
        self.zeta_star = zeta_star
        self.value = value
        self.log_norm = log_norm  # log of the unnormalized mass int exp(h - zeta s^2)
        self.m2 = m2  # second moment at zeta_star, from the solve's last evaluation
        self.evaluations = evaluations  # moment evaluations of the multiplier solve
        self.grid = grid  # (a, b, n) of the Simpson grid of [a, b] that the solve resolved

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
        """int s^k dnu for the optimizing measure, on the grid its solve
        resolved, so moment(2) is m2 bit for bit.  An odd k weights the
        folded grid by tanh((h(s) - h(-s))/2), the odd part of the weight,
        which is exactly 0 for a symmetric law; h is evaluated at +-s once
        for both the fold and that factor.
        """
        s, w = _simpson_grid(*self.grid)
        H, odd = _fold(self.problem.dist, self.problem.h, s, odd=True)
        f = s**k * odd if k % 2 else s**k
        E, m = _weights(H[None], s * s, np.array([self.zeta_star]))
        return float(_moments(E, m, (w, w * f))[1][0])

    def root_residual(self) -> float:
        """|m2 - alpha| = |g'(zeta*) + alpha|, the first-order optimality defect."""
        return abs(self.m2 - self.problem.alpha)

    def quantiles(self, q):
        """Inverse CDF at probabilities q (array), by interpolation of the
        trapezoid CDF on the grid its solve resolved, mirrored to [-R, R],
        with h evaluated at the nodes +-s.

        The CDF at a node is the mass on its left over that mass plus the
        mass on its right, each summed from its own end, so a symmetric
        law's CDF is 1/2 at 0 bit for bit.  The CDF is flat where the
        density underflows; a q on a flat stretch maps to its midpoint.
        """
        s = _simpson_grid(*self.grid)[0]
        s = np.concatenate([-s[::-1], s])
        phi = self.problem.h(s) - self.zeta_star * s * s
        dens = np.exp(phi - phi.max())
        piece = (dens[1:] + dens[:-1]) * 0.5 * np.diff(s)
        left = np.concatenate([[0.0], np.cumsum(piece)])
        right = np.concatenate([np.cumsum(piece[::-1])[::-1], [0.0]])
        cdf = left / (left + right)
        # np.interp takes the last node of a run of equal CDF values; the
        # mirrored call takes the first
        return 0.5 * (np.interp(q, cdf, s) + np.interp(-np.asarray(q), -cdf[::-1], s[::-1]))

    def __repr__(self):
        return f"GibbsSolution(zeta_star={self.zeta_star:.6g}, value={self.value:.6g})"


def gibbs_solve(problem: GibbsProblem) -> GibbsSolution:
    """Solve the constrained problem through its multiplier equation.

    The map zeta -> g'(zeta) + alpha is strictly increasing (the second
    moment of the Gibbs weight decreases in zeta), so its root is unique.
    The solve is one row of ``solve_exponent_batch`` on the grid
    ``_grid_for(R)`` with the folded h, stopped once |alpha - m2| <= 1e-13
    alpha, from the coarse warm start.  Where that grid does not resolve
    the weight at the multiplier found, the solve moves on to the finer
    grids of ``_resolved``, each started from the last multiplier; a
    weight of width sqrt(alpha) below R/256 starts on the grid of [0, 16
    sqrt(alpha)].  The solution keeps the (a, b, n) of the grid that
    resolved it.  ``evaluations`` counts the moment evaluations of every
    pass.
    """
    alpha, R = problem.alpha, problem.R
    if alpha > R**2 * (1.0 - 1e-8):
        # the multiplier diverges and the boundary peak falls below any
        # quadrature resolution; treat as the bracket blowing up
        raise GibbsError("multiplier bracket failure (alpha too close to R^2)")
    zeta, evaluations = None, 0

    def solve(s, w, H):
        nonlocal zeta, evaluations
        z, log_mass, m2, count, last = solve_exponent_batch(
            H[None], s, w, alpha, _SCALAR_F_TOL * min(1.0, alpha), zeta_init=zeta, weights=True)
        zeta, evaluations = float(z[0]), evaluations + count
        return zeta, float(log_mass[0]), float(m2[0]), last

    span = 16.0 * math.sqrt(alpha) if 256.0 * math.sqrt(alpha) < R else R
    grid, zeta, log_mass, m2 = _resolved(problem, span, solve)
    value = float(values_from_batch(log_mass, zeta, alpha))
    return GibbsSolution(problem, zeta, value, log_mass, m2, evaluations, grid)


def tilt_bound(dist: EntryDistribution, sq_norm, abs_norm, R: float):
    """kappa with h(s) <= kappa s^2 for |s| >= R (``duality_gap``'s bound) of
    h(s) = sum_j c_j L(2 a v_j s), given ``sq_norm`` = a^2 sum_j c_j v_j^2 and
    ``abs_norm`` = a sum_j c_j |v_j|: 4 psi_max sq_norm, as L(t) <= psi_max
    t^2, or for a law on [-M, M] (``support_radius``), where L(t) <= M |t|,
    the smaller of that and 2 M abs_norm / R."""
    kappa = 4.0 * dist.psi_extremes().psi_max * np.asarray(sq_norm, dtype=float)
    M = dist.support_radius
    return kappa if M == math.inf else np.minimum(kappa, 2.0 * M * np.asarray(abs_norm) / R)


def duality_gap(R: float, zeta, log_mass, kappa) -> np.ndarray:
    """Weak-duality bounds eps_R >= Phi_inf - Phi_R >= 0 of rows solved on
    [-R, R] with multipliers zeta and log masses log int_{-R}^{R} exp(h -
    zeta s^2), whose Hamiltonians satisfy h(s) <= kappa s^2 (``tilt_bound``);
    inf where g = zeta - kappa <= 0.

    The multiplier zeta prices the moment constraint of the whole-line
    problem too, so Phi_inf is at most Phi_R plus the log of the mass ratio
    of the whole line to [-R, R] at zeta (Boyd & Vandenberghe, Convex
    Optimization, 5.2).  The mass outside [-R, R] is at most the Gaussian
    tail 2 int_R^inf exp(-g s^2) ds <= exp(-g R^2) / (g R), so eps_R =
    log1p(exp(-g R^2 - log(g R) - log_mass)).  Phi_R <= Phi_inf because
    the constraint set grows with R.
    """
    g = np.asarray(zeta, dtype=float) - kappa
    eps = np.full(g.shape, np.inf)
    up = g > 0.0
    gR = g[up] * R
    eps[up] = np.logaddexp(0.0, -gR * R - np.log(gR) - np.asarray(log_mass, dtype=float)[up])
    return eps


def whole_line_rows(solve_at, dist: EntryDistribution, sq_norm, abs_norm, alpha: float,
                    where) -> np.ndarray:
    """Whole-line values of rows with budget alpha, one certified solve each.

    ``solve_at(R)`` solves every row on [-R, R] and returns their (values,
    multipliers, log masses); row i's tilts have the norms ``sq_norm[i]``
    and ``abs_norm[i]`` of ``tilt_bound``.  The rows are solved once, at R =
    max(32, 16 sqrt(alpha)): R = 32 for every alpha <= 4, and past that R^2
    = 256 alpha, so that for the Gaussian, whose margin g = zeta - kappa is
    about 1/(2 alpha), g R^2 is about 128 or more.  A row whose ``duality_gap`` is above 1e-8
    raises ``GibbsError`` naming R, ``where(row)``, its margin and its gap.
    """
    R = max(32.0, 16.0 * math.sqrt(alpha))
    vals, zeta, log_mass = (np.asarray(a, dtype=float) for a in solve_at(R))
    kappa = tilt_bound(dist, sq_norm, abs_norm, R)
    gap = duality_gap(R, zeta, log_mass, kappa)
    for k in np.flatnonzero(~(gap <= _WHOLE_LINE_TOL))[:1]:  # the first open row, if any
        raise GibbsError(f"whole-line value not certified at R={R:g}: {where(k)} has margin zeta - "
                         f"kappa = {zeta[k] - kappa[k]:.6g} and duality gap {gap[k]:.3g}")
    return vals


def phi_unbounded(dist: EntryDistribution, v, alpha: float) -> float:
    """Whole-line optimum: one row of ``whole_line_rows``, a single
    ``gibbs_solve`` at R = max(32, 16 sqrt(alpha)) that its duality gap
    certifies."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")

    def solve_at(R):
        sol = gibbs_solve(GibbsProblem(v, dist, R, alpha))
        return [sol.value], [sol.zeta_star], [sol.log_norm]

    where = f"phi_unbounded at v={np.ravel(v).tolist()}, alpha={alpha}"
    return float(whole_line_rows(solve_at, dist, [np.sum(np.square(v))], [np.sum(np.abs(v))],
                                 alpha, lambda _row: where)[0])


def wasserstein2(sol1: GibbsSolution, sol2: GibbsSolution) -> float:
    """L2-Wasserstein distance between two optimizers via quantile coupling."""
    q = (np.arange(_W2_QUANTILES) + 0.5) / _W2_QUANTILES
    d = sol1.quantiles(q) - sol2.quantiles(q)
    return float(math.sqrt(np.mean(d * d)))


# ---------------------------------------------------------------------------
# the quadrature grid and the multiplier solve on it


def _fold(dist: EntryDistribution, h_of, s: np.ndarray, odd: bool = False):
    """The Hamiltonian ``h_of`` of a law ``dist`` folded onto the nodes s >= 0,
    H(s) = logaddexp(h(s), h(-s)) - log 2: an even function times exp(h - zeta
    s^2) over [-R, R] is twice the same times exp(H - zeta s^2) over [0, R].
    With ``odd`` it returns (H, tanh((h(s) - h(-s))/2)), the second being
    the odd part of exp(h) over its even part exp(H), from the same values
    of h.  A symmetric law's h is even and is not folded; this is the only
    place the Gibbs layer reads ``dist.symmetric``."""
    hp = h_of(s)
    if dist.symmetric:
        return (hp, np.zeros_like(hp)) if odd else hp
    hm = h_of(-s)
    H = np.logaddexp(hp, hm) - math.log(2.0)
    return (H, np.tanh(0.5 * (hp - hm))) if odd else H


def _grid_for(R: float) -> tuple:
    """Composite-Simpson nodes s of [0, R] and their doubled weights, the
    full rule of [-R, R] for even integrands (a Hamiltonian folded by
    ``_fold``).  h nodes, 2049 to 8193 at spacing about 0.008, with
    (h - 1) % 8 == 0 so that the grid's every fourth node (the coarse warm
    start of ``solve_exponent_batch``) is a Simpson grid too.
    """
    h = min(8193, max(2049, round(R / 0.008) + 1))
    h += -(h - 1) % 8
    return _simpson_grid(0.0, R, h)


def _simpson_grid(a: float, b: float, n: int) -> tuple:
    """n Simpson nodes on [a, b] (0 <= a) and their doubled weights."""
    return np.linspace(a, b, n), 2.0 * _simpson_weights(n, (b - a) / (n - 1))


def _sub_grid(s: np.ndarray, w: np.ndarray, stride: int) -> tuple:
    """Every ``stride``-th node of the Simpson grid (s, w) and its Simpson
    weights, for a power of 2 ``stride`` that leaves an even number of
    intervals.  The weights scale the grid's end weight w[0], which holds
    its exact step, by ``stride``, never a node difference: on a grid of
    ``_simpson_grid`` they are those of ``_simpson_grid`` on the same ends
    and node count, bit for bit."""
    c = s[::stride]
    return c, _simpson_weights(c.size, 3.0) * (stride * w[0])


def _simpson_agrees(s: np.ndarray, w: np.ndarray, E: np.ndarray, m: np.ndarray, log_i0,
                    m2) -> np.ndarray:
    """Rows whose Simpson grid (s, w) resolves their weight: Simpson's rule on
    every other node agrees with it to 1e-11 in log I0 and in m2 relative to
    m2.  E and m are the rows' ``_weights`` on the grid, at the multipliers
    that gave log I0 and m2; the coarser rule sums E on its nodes, with no
    second exp.  Needs (s.size - 1) % 4 == 0."""
    c, wc = _sub_grid(s, w, 2)
    # a contiguous copy: einsum sums it as it sums weights computed there
    log_c, m2_c = _moments(E[:, ::2].copy(), m, (wc, wc * (c * c)))
    return (np.abs(log_c - log_i0) <= _GRID_RTOL) & (np.abs(m2_c - m2) <= _GRID_RTOL * m2)


def _resolved(problem: GibbsProblem, span: float, step) -> tuple:
    """Run ``step(s, w, H)`` -> (zeta, log I0, m2, (E, m)) on the grid of
    ``_grid_for(span)`` (span <= R, R = ``problem.R``), H the folded
    Hamiltonian, and then on finer grids of [0, R] until one resolves the
    weight exp(H - zeta s^2), given by ``step`` as the (1, n) weights E =
    exp(H - zeta s^2 - m) of ``_weights`` at the zeta it returns.

    A grid resolves it when it passes ``_simpson_agrees`` and where it stops
    short of [0, R] the weight there is below exp(-92) of its peak.  The
    next grid extends by its own width each end that stops short too soon;
    else it spans the nodes where the weight is above that bound, one more
    on each side, if they fill at most half the grid; else it halves the
    spacing of a grid of fewer than 2^17 + 1 nodes.  A weight still
    unresolved raises ``GibbsError``.
    Returns ((a, b, n), zeta, log I0, m2) of the last grid, which
    ``_simpson_grid(a, b, n)`` rebuilds.
    """
    R = problem.R
    s, w = _grid_for(span)
    for _ in range(_MAX_GRIDS):
        H = _fold(problem.dist, problem.h, s)
        zeta, log_i0, m2, (E, m) = step(s, w, H)
        close = _simpson_agrees(s, w, E, m, log_i0, m2)[0]
        a, b, n = float(s[0]), float(s[-1]), s.size
        if close and a == 0.0 and b == R:
            return (a, b, n), zeta, log_i0, m2
        phi = H - zeta * s * s
        live = np.nonzero(phi >= phi.max() - _TAIL_DROP)[0]
        cut = (a > 0.0 and live[0] == 0, b < R and live[-1] == n - 1)
        if close and not any(cut):
            return (a, b, n), zeta, log_i0, m2
        if any(cut):
            a, b = (max(0.0, a - (b - a)) if cut[0] else a), (min(R, b + (b - a)) if cut[1] else b)
        elif live[-1] - live[0] + 2 <= n // 2:
            a, b = s[max(live[0] - 1, 0)], s[min(live[-1] + 1, n - 1)]
        elif n < _MAX_NODES:
            n = 2 * n - 1
        else:
            break
        s, w = _simpson_grid(a, b, n)
    raise GibbsError(f"quadrature cannot resolve the Gibbs weight at zeta={zeta:.6g} "
                     f"(alpha={problem.alpha:g}, R={R:g})")


def _weights(H: np.ndarray, s2: np.ndarray, zeta: np.ndarray) -> tuple:
    """(E, m): the weights E[i] = exp(H[i] - zeta[i] s^2 - m[i]) on a grid,
    max-subtracted by row, and the row maxima m."""
    phi = np.multiply(-zeta[:, None], s2)
    phi += H
    m = phi.max(axis=1)
    phi -= m[:, None]
    np.exp(phi, out=phi)
    return phi, m


def _moments(E: np.ndarray, m: np.ndarray, ws: tuple) -> tuple:
    """log I0 and averages of the weights exp(m[i]) E[i] of ``_weights``.

    ``ws`` holds the quadrature weights w, then w times each function f of
    s to average: I0 = exp(m) sum_j E_j w_j, and each average is
    sum_j E_j w_j f(s_j) / sum_j E_j w_j.
    """
    # row-wise reductions, unlike a BLAS product, round a row the same at
    # any position in the batch
    i0, *mk = (np.einsum("ij,j->i", E, v) for v in ws)
    return (np.log(i0) + m, *(x / i0 for x in mk))


def solve_exponent_batch(H: np.ndarray, s: np.ndarray, w: np.ndarray, alpha,
                         f_tol: float = 1e-11, zeta_init=None, weights: bool = False):
    """Multiplier solve for many Gibbs weights on one grid.

    ``H[i, j]`` holds the folded tilt Hamiltonian of problem i at node s[j] of
    a half grid of ``_grid_for`` (or a ``_sub_grid`` of one) or
    ``_resolved``, and ``w`` the matching doubled Simpson weights.  Returns
    (zeta, log_mass, m2, evaluations) with log_mass = log int exp(H - zeta
    s^2) and the number of moment evaluations (``_weights`` calls).  With
    ``weights`` it appends (E, m), each row's ``_weights`` at its returned
    zeta, from the evaluation that stopped it.  Rows never interact: a
    row's result does not depend on the other rows of the batch.

    Grids of more than 1600 nodes warm-start from a solve on every fourth
    node, whose evaluations count too.  Without a warm start or
    ``zeta_init`` a row starts from the Gaussian fit H_b/b^2 + 1/(2 alpha),
    H_b being H at the far end b of the grid.  The safeguarded Newton
    iteration runs on the reciprocal moment 1/m2(zeta), which is linear in
    zeta for a Gaussian weight, so there one step lands on the root: the
    step is the Newton step on alpha - m2 scaled by m2/alpha.  The sign of
    alpha - m2 at each iterate tightens the row's bracket (m2 decreases in
    zeta); while a side is still open a step is clipped to max(1, |zeta|),
    and once both are known a step leaving the bracket bisects, as does the
    step of a row whose bracket and residual both failed to halve over two
    passes (Dekker 1969; Brent 1973, ch. 4).  A row stops when
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
        zeta_init, _, _, coarse = solve_exponent_batch(H[:, ::4], s[::4], wc, alpha, 1e-9)
    if zeta_init is None:
        zeta = H[:, -1] / s2[-1] + 0.5 / alpha
    else:
        zeta = np.array(np.broadcast_to(zeta_init, (P,)), dtype=float)
    lo = np.full(P, -np.inf)
    hi = np.full(P, np.inf)
    past = np.full((2, 2, P), np.inf)  # (width, |f|) two passes and one pass back
    log_mass = np.empty(P)
    m2_out = np.empty(P)
    rows = np.arange(P)
    if weights:
        last = np.empty_like(H), np.empty(P)
    for calls in range(coarse + 1, coarse + _MAX_ITER + 1):
        z = zeta[rows]
        E, m = _weights(H if rows.size == P else H[rows], s2, z)
        log_mass[rows], m2, m4 = _moments(E, m, ws)
        m2_out[rows] = m2
        f = alpha[rows] - m2
        below = f > 0  # m2 decreases in zeta: the root lies below z
        hi[rows[below]] = z[below]
        lo[rows[~below]] = z[~below]
        done = ((np.abs(f) <= f_tol * np.maximum(1.0, alpha[rows]))
                | (hi[rows] - lo[rows] <= 1e-13 * np.maximum(1.0, np.abs(z))))
        if weights:
            last[0][rows[done]], last[1][rows[done]] = E[done], m[done]
        keep = ~done
        rows, z, f, m2, m4 = rows[keep], z[keep], f[keep], m2[keep], m4[keep]
        if rows.size == 0:
            return (zeta, log_mass, m2_out, calls) + ((last,) if weights else ())
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
