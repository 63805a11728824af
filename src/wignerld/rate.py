"""Minimax evaluation of the upper-tail rate functions.

The rate at a deviation target x is an outer infimum over localization
profiles of an inner supremum over the inverse temperature theta:

    rate(x) = inf_profile  sup_theta { J(x, theta) - F(theta, profile scaled
                                       by the overlap q_x(theta)) }

with three profile parametrizations (modes): a finite-N vector profile, the
scalar single-coordinate reduction, and the two-scale reduction.  The
overlap enters linearly on vector profiles and quadratically on scalar
masses.

The single-coordinate (hat) mode is the hot path for curve generation; its
Gibbs term reduces to a one-variable function that is precomputed on a grid
and interpolated by a cubic spline (values checked against the direct
free-energy path in the test suite).  Hat mode is batched over x: every
(x, alpha) pair of a block of targets is one row of the row-wise theta
search ``sup_theta_rows``, so the targets share one grid pass, one row-wise
golden search over alpha and one final theta* pass.  The vector modes
make one such call per target, with a row per profile of the search family.
"""

from __future__ import annotations

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import free_energy, semicircle
from .entries import EntryDistribution
from .gibbs import _consolidate, _grid_for, solve_exponent_batch, values_from_batch
from .golden import golden_max_rows

__all__ = [
    "HatSpec",
    "FiniteNSpec",
    "TildeSpec",
    "HatMode",
    "FiniteNMode",
    "TildeMode",
    "ProfileFamily",
    "RatePoint",
    "RateCurve",
    "RateError",
    "RateCurveError",
    "sup_theta",
    "sup_theta_rows",
    "joint_rate",
    "rate_point",
    "rate_curve",
]

_THETA_OFFSET = 1e-6  # lower bracket sits this far above theta_minus
_T_INIT = 8.0
_T_MAX = 1024.0
_DECAY_MARGIN = 1.0  # the objective at T must sit this far below the max
_SCAN_ROWS = 256  # rows per objective call of the theta scan: bounds memory
_TIE_TOL = 1e-9  # minimizers within this of the optimum count as ties


class RateError(RuntimeError):
    """Inner maximization failure (typically an invalid penalty)."""


class RateCurveError(RuntimeError):
    """A grid point failed or a curve-level invariant was violated."""


# ---------------------------------------------------------------------------
# localization specs (argmin records) and search modes


@dataclass(frozen=True)
class HatSpec:
    """Single-coordinate reduction: scalar squared mass alpha."""

    alpha: float

    def _row(self, dist, x):
        return _hat_evaluator(dist).row_penalty, np.array([[x, self.alpha]], dtype=float)


@dataclass(frozen=True)
class FiniteNSpec:
    """Finite-N vector profile z with dimension parameter N and width R."""

    z: tuple
    N: int
    R: float

    @property
    def mass(self) -> float:
        z = np.asarray(self.z)
        return float(z @ z)

    def _row(self, dist, x):
        row = np.concatenate(([x, 0.0], *_consolidate(self.z)))[None]
        return _VectorPenalty(dist, self.R, self.N), row


@dataclass(frozen=True)
class TildeSpec:
    """Two-scale profile: large-entry vector plus moderate-scale mass."""

    w_check: tuple
    alpha_tilde: float
    R: float
    t: float = None

    @property
    def mass(self) -> float:
        w = np.asarray(self.w_check)
        return float(w @ w) + self.alpha_tilde

    def _row(self, dist, x):
        row = np.concatenate(([x, self.alpha_tilde], *_consolidate(self.w_check)))[None]
        return _VectorPenalty(dist, self.R, t=self.t), row


@dataclass(frozen=True)
class ProfileFamily:
    """Structured search family: equal-mass spreads over k coordinates.

    Profiles are c * 1_[k] / sqrt(k) for k in ``k_values`` (powers of two up
    to ceil(sqrt(N)) by default) and c^2 on a uniform grid of ``n_mass``
    points.  Contains both the single-coordinate and the sqrt(N)-spread
    regimes; the outer infimum is over this family, not the full ball.
    """

    k_values: tuple = None
    n_mass: int = 101

    def ks(self, N: int) -> tuple:
        if self.k_values is not None:
            return tuple(self.k_values)
        ks = []
        k = 1
        top = math.ceil(math.sqrt(N))
        while k < top:
            ks.append(k)
            k *= 2
        ks.append(top)
        return tuple(ks)


@dataclass(frozen=True)
class HatMode:
    pass


@dataclass(frozen=True)
class FiniteNMode:
    N: int
    R: float = None
    family: ProfileFamily = field(default_factory=ProfileFamily)

    def width(self) -> float:
        return self.R if self.R is not None else self.N ** 0.2

    def _rows(self, dist, x, cap):
        rows = _family_rows(self.family, self.N, None, x, [cap], [0.0])
        return _VectorPenalty(dist, self.width(), self.N), rows


@dataclass(frozen=True)
class TildeMode:
    N: int
    xi: float = 1e-3
    R: float = None
    t: float = None
    family: ProfileFamily = field(default_factory=ProfileFamily)
    n_alpha: int = 41

    def width(self) -> float:
        return self.R if self.R is not None else self.N ** 0.2

    def _rows(self, dist, x, cap):
        alphas = np.linspace(0.0, cap, self.n_alpha)
        rows = _family_rows(self.family, self.N, self.xi, x, np.sqrt(cap - alphas), alphas)
        return _VectorPenalty(dist, self.width(), t=self.t), rows


@dataclass(frozen=True)
class RatePoint:
    x: float
    rate: float
    theta_star: float
    minimizer: object
    goe_rate: float

    def check(self, slack: float = 1e-6):
        if self.rate < -1e-9:
            raise RateCurveError(f"negative rate {self.rate} at x={self.x}")
        if np.isfinite(self.goe_rate) and self.rate > self.goe_rate + slack:
            raise RateCurveError(
                f"rate {self.rate} exceeds the GOE rate {self.goe_rate} at x={self.x}"
            )


@dataclass(frozen=True)
class RateCurve:
    grid: tuple
    points: tuple
    x_mu: float = None

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    @property
    def goe_rates(self) -> np.ndarray:
        return np.array([p.goe_rate for p in self.points])


# ---------------------------------------------------------------------------
# inner supremum over theta


def sup_theta_rows(x, pen, rows=None, bracket_hint: float = None, *,
                   n_grid: int = 512, theta_tol: float = 1e-10):
    """Maximize J(x, theta) - pen(theta, rows) over theta, row by row.

    ``x`` is one target for every row or an array of one target per row.
    ``pen(theta[M, P], rows[M]) -> [M, P]`` gives the penalty of each row at
    that row's thetas.  ``rows`` holds each row's profile parameters: a
    scalar mass alpha, or a record whose last entry is alpha (the hat
    mode's (x, alpha) pairs); failures name the row's x and alpha, or
    ``pen.label(row)`` where ``pen`` has one.  With
    ``rows=None`` there is one row and ``pen`` receives None.
    Returns ``(theta_star[M], value[M])``.

    Each row scans 512 points of [theta_minus(x) + 1e-6, T], in objective
    calls of at most 256 rows, each kept only as the row's best point and
    its neighbours; a row's T doubles from 8 (or from
    ``bracket_hint``) until the objective at T has dropped a unit below the
    row's maximum, failing with "unbounded objective" past
    T = 1024 (a penalty that grows slower than J signals an infeasible
    profile).  Golden-section search then refines every row's best cell at
    once; a row whose refined value falls below its grid maximum keeps the
    grid point.  Rows never interact: a row's result does not depend on
    the other rows of the call.
    """
    m = 1 if rows is None else len(rows)
    x = np.broadcast_to(np.asarray(x, dtype=float), (m,))
    lo = semicircle.theta_roots(x).theta_minus + _THETA_OFFSET

    def objective(theta, idx):
        return (semicircle.j_value(x[idx, None], theta)
                - pen(theta, None if rows is None else rows[idx]))

    def where(k):
        if rows is None:
            return f"x={x[k]}"
        if hasattr(pen, "label"):
            return pen.label(rows[k])
        return f"x={x[k]}, alpha={np.ravel(rows[k])[-1]}"

    T = np.full(m, _T_INIT) if bracket_hint is None else np.maximum(float(bracket_hint), lo + 1e-3)
    best, top, a, b, last = np.empty((5, m))  # per row: max, its theta, neighbours, value at T
    todo = np.arange(m)
    while todo.size:
        for k in range(0, todo.size, _SCAN_ROWS):
            idx = todo[k:k + _SCAN_ROWS]
            g = np.linspace(lo[idx], T[idx], n_grid, axis=1)
            v = objective(g, idx)
            bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
            if bad.size:
                raise RateError(f"non-finite objective in theta scan at {where(idx[bad[0]])}")
            r = np.arange(idx.size)
            i = v.argmax(axis=1)
            best[idx], top[idx], last[idx] = v[r, i], g[r, i], v[:, -1]
            a[idx] = g[r, np.maximum(i - 1, 0)]
            b[idx] = g[r, np.minimum(i + 1, n_grid - 1)]
        todo = todo[last[todo] > best[todo] - _DECAY_MARGIN]
        stuck = todo[T[todo] >= _T_MAX]
        if stuck.size:
            k = stuck[0]
            raise RateError(f"unbounded objective: no decay by theta={T[k]} at {where(k)}")
        T[todo] = np.minimum(2.0 * T[todo], _T_MAX)

    theta_star, value = golden_max_rows(
        lambda t, idx: objective(t[:, None], idx)[:, 0], a, b, theta_tol
    )
    low = value < best
    theta_star[low], value[low] = top[low], best[low]
    return theta_star, value


def sup_theta(x: float, penalty, bracket_hint: float = None, *, n_grid: int = 512,
              theta_tol: float = 1e-10):
    """Maximize J(x, theta) - penalty(theta) over theta: one row of ``sup_theta_rows``.

    ``penalty`` must accept 1-D numpy arrays.
    """
    theta_star, value = sup_theta_rows(
        x, lambda theta, _rows: penalty(theta.ravel()), None, bracket_hint,
        n_grid=n_grid, theta_tol=theta_tol,
    )
    return float(theta_star[0]), float(value[0])


# ---------------------------------------------------------------------------
# fast single-coordinate (hat) evaluator

_HAT_LOCK = threading.Lock()
_HAT_CACHE: dict = {}  # dist.key() -> _HatEvaluator, least recently used first
_HAT_CACHE_SIZE = 8
_HAT_BLOCK = 16  # grid points per hat-mode rate_point call of rate_curve: bounds memory
_GIBBS_BLOCK_ROWS = 64  # rows per multiplier solve of _gibbs_values: bounds memory


class _Phi1Table:
    """Spline table of the whole-line Gibbs value with a unit moment budget.

    The hat-mode Gibbs term reduces by dilation to phi1(u) evaluated at
    u = theta * sqrt(a(1-a)); phi1 is smooth, so a cubic spline on a 0.01
    grid reproduces the direct solve to ~1e-8 (asserted in tests).
    """

    def __init__(self, dist: EntryDistribution, du: float = 0.01):
        self.dist = dist
        self.du = du
        self.u_max = 0.0
        self.spline = None
        self.lock = threading.Lock()

    def _solve_grid(self, us: np.ndarray) -> np.ndarray:
        R = 16.0
        vals = self._values_at(us, R)
        active = np.ones(us.size, dtype=bool)
        while True:
            R *= 2.0
            nxt = self._values_at(us[active], R)
            moved = np.abs(nxt - vals[active]) >= 1e-8
            vals[active] = nxt
            idx = np.flatnonzero(active)
            active[idx[~moved]] = False
            if not active.any():
                return vals
            if R > 2.0**12:
                raise RateError("hat-mode Gibbs table did not converge in R")

    def _values_at(self, us: np.ndarray, R: float) -> np.ndarray:
        return _gibbs_values(self.dist, us, *np.ones((2, us.size, 1)), 1.0, R)

    def _build(self, u_max: float):
        n = int(math.ceil(u_max / self.du)) + 1
        us = np.linspace(0.0, self.du * (n - 1), n)
        vals = self._solve_grid(us)
        self.spline = CubicSpline(us, vals)
        self.u_max = us[-1]

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        top = float(u.max()) if u.size else 0.0
        if self.spline is None or top > self.u_max:
            with self.lock:
                if self.spline is None or top > self.u_max:
                    self._build(max(6.0, 1.5 * top))
        return self.spline(u)


def _gibbs_values(dist, amp, vals, counts, beta, R):
    """Gibbs values on [-R, R] of rows i with budget beta[i] (or a shared
    beta) and Hamiltonian sum_j counts[i, j] L(2 vals[i, j] amp[i] s), solved
    in near-equal blocks of at most ``_GIBBS_BLOCK_ROWS`` rows."""
    s, w = _grid_for(R)
    beta = np.broadcast_to(beta, amp.shape)
    out = []
    for b in np.array_split(np.arange(amp.size), -(-amp.size // _GIBBS_BLOCK_ROWS) or 1):
        terms = [c[:, None] * dist.log_laplace(2.0 * v[:, None] * amp[b, None] * s)
                 for v, c in zip(vals[b].T, counts[b].T) if c.any()]  # padding adds nothing
        H = sum(terms[1:], terms[0]) if terms else np.zeros((b.size, s.size))
        zeta, log_mass, _ = solve_exponent_batch(H, s, w, beta[b])
        out.append(values_from_batch(log_mass, zeta, beta[b]))
    return np.concatenate(out)


class _HatEvaluator:
    def __init__(self, dist: EntryDistribution):
        self.dist = dist
        self.phi1 = _Phi1Table(dist)
        self.psi_inf = dist.psi_extremes().psi_infty

    def f_hat(self, theta, alpha):
        """Vectorized single-coordinate free energy (spline-backed)."""
        theta = np.asarray(theta, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        beta = 1.0 - alpha
        phi = self.phi1(theta * np.sqrt(alpha * beta)) + 0.5 * np.log(beta)
        return theta**2 * (beta**2 + 2.0 * self.psi_inf * alpha**2) + phi

    def penalty(self, x, alpha):
        def pen(theta):
            q2 = np.clip(semicircle.overlap(x, theta) ** 2, 0.0, 1.0)
            return self.f_hat(theta, q2 * alpha)

        return pen

    def row_penalty(self, theta, rows):
        """``sup_theta_rows`` penalty of (x, alpha) rows ``rows[M, 2]``."""
        return self.penalty(rows[:, :1], rows[:, 1:])(theta)


def _hat_evaluator(dist: EntryDistribution) -> _HatEvaluator:
    key = dist.key()
    with _HAT_LOCK:
        ev = _HAT_CACHE.pop(key, None)
        if ev is None:
            ev = _HatEvaluator(dist)
        _HAT_CACHE[key] = ev
        if len(_HAT_CACHE) > _HAT_CACHE_SIZE:
            del _HAT_CACHE[next(iter(_HAT_CACHE))]
    return ev


# ---------------------------------------------------------------------------
# vector modes: a row is (x, alpha_tilde, v_1..v_T, n_1..n_T), a target with
# a profile's moderate-scale mass (0 in finite-N mode) and its distinct
# nonzero entries v_j with their counts n_j, zero-padded


def _terms(rows):
    """Entries, counts and squared norm of each vector row's profile."""
    T = (rows.shape[1] - 2) // 2
    v, n = rows[:, 2:2 + T], rows[:, 2 + T:]
    return v, n, (n * v * v).sum(axis=1)


@dataclass(frozen=True)
class _VectorPenalty:
    """``sup_theta_rows`` penalty of vector rows, in finite-N mode for an N
    and in two-scale mode for N None, with alpha_tilde priced at psi(t), or
    at sup psi for t None."""

    dist: EntryDistribution
    R: float
    N: int = None
    t: float = None

    def label(self, row) -> str:
        _, n, csq = _terms(row[None])
        out = f"x={row[0]}, k={n.sum():g}, c={math.sqrt(csq[0])}"
        return out if self.N else out + f", alpha_tilde={row[1]}"

    def spec(self, row):
        v, n, _ = _terms(row[None])
        z = tuple(np.repeat(v[0], n[0].astype(int))) or (0.0,)
        return (FiniteNSpec(z, self.N, self.R) if self.N
                else TildeSpec(z, float(row[1]), self.R, self.t))

    def __call__(self, theta, rows):
        dist = self.dist
        vals, counts, csq = _terms(rows)
        q = semicircle.overlap(rows[:, :1], theta)

        def gibbs(amp, beta, where):
            owner = np.nonzero(where)[0]
            return _gibbs_values(dist, amp[where], vals[owner], counts[owner], beta[where], self.R)

        if self.N:
            nsq = np.clip(q * q * csq[:, None], 0.0, 1.0)
            coefs, mults = free_energy._loc_terms(vals, counts, self.N)
            # localized sum with profile q*z: pair products pick up q^2
            args = coefs[:, :, None] * (theta * q * q)[:, None, :]
            out = (dist.log_laplace(args) * mults[:, :, None]).sum(axis=1) / self.N
            bulk = ~(nsq >= 1.0 - 1e-9)  # a NaN overlap reaches the solver and fails there
            beta = 1.0 - nsq
            out[bulk] += (theta[bulk] ** 2 * beta[bulk] ** 2 - 0.5 * nsq[bulk]
                          + gibbs(theta * q, beta, bulk))
            return out

        ext = dist.psi_extremes()
        psi_sel = ext.psi_max if self.t is None else float(dist.psi(self.t))
        q2 = np.clip(q * q, 0.0, 1.0)
        c2 = q2 * csq[:, None]
        at = q2 * rows[:, 1:2]
        beta = 1.0 - at - c2
        empty = np.flatnonzero((beta <= 0).any(axis=1))
        if empty.size:
            where = self.label(rows[empty[0]])
            raise RateError(f"two-scale profile leaves no residual mass at {where}")
        quad = (beta**2 + 2 * beta * at + 2 * psi_sel * at**2
                + 2 * ext.psi_infty * (c2**2 + 2 * at * c2))
        return (theta**2 * quad - 0.5 * (1.0 - beta)
                + gibbs(theta * np.sqrt(q2), beta, ~(beta <= 0)).reshape(theta.shape))


# ---------------------------------------------------------------------------
# joint rate and outer minimization


def joint_rate(dist: EntryDistribution, x: float, spec, bracket_hint: float = None):
    """Inner supremum for a fixed localization profile: (value, theta_star).

    The profile is scaled by the overlap before entering the free energy:
    linearly for vector components, quadratically for scalar masses.  It is
    one row of ``sup_theta_rows``, as in ``rate_point``.
    """
    theta_star, value = sup_theta_rows(x, *spec._row(dist, x), bracket_hint)
    return float(value[0]), float(theta_star[0])


def _pick_smallest_minimizer(candidates):
    vmin = min(v for _, v in candidates)
    ties = [a for a, v in candidates if v <= vmin + _TIE_TOL]
    return min(ties), vmin


def rate_point(dist: EntryDistribution, x, mode, cap: float = 0.95):
    """Outer infimum over the mode's profile family at x.

    A float ``x`` gives one ``RatePoint``; a 1-D sequence gives a tuple of
    them, in order.  Below the spectral edge the rate is +inf.  The
    feasibility cap bounds the localized mass away from 1; a warning fires
    when the argmin presses against it.  Ties report the smallest minimizer.
    In hat mode every x of a sequence shares the ``sup_theta_rows`` calls
    (see ``_hat_points``); the vector modes make one ``sup_theta_rows``
    call per x whose rows are the family's profiles (see ``_vector_point``).
    """
    if not 0.0 < cap < 1.0:
        raise ValueError("cap must lie in (0, 1)")
    single = np.ndim(x) == 0
    xs = [x] if single else list(x)
    points = [RatePoint(v, math.inf, math.inf, None, math.inf) if v < 2.0 else None
              for v in xs]
    todo = [i for i, p in enumerate(points) if p is None]
    if isinstance(mode, HatMode):
        found = _hat_points(dist, [xs[i] for i in todo], cap)
    else:
        found = [_vector_point(dist, xs[i], mode, cap) for i in todo]
    for i, p in zip(todo, found):
        points[i] = p
    return points[0] if single else tuple(points)


def _hat_points(dist: EntryDistribution, xs: list, cap: float) -> list:
    """Hat-mode points at targets x >= 2, evaluated as (x, alpha) rows.

    One ``sup_theta_rows`` call scans all 201 alpha grid values of every
    x; one row-wise golden search refines every local minimum in alpha of
    every x, each step one such call; one last call gives every theta*.  Rows
    never interact, so each point equals its own single-x evaluation.
    """
    if not xs:
        return []
    ev = _hat_evaluator(dist)
    xa = np.array(xs, dtype=float)
    grid = np.linspace(0.0, cap, 201)

    def values(x, alpha):
        return sup_theta_rows(x, ev.row_penalty, np.column_stack((x, alpha)))

    vals = values(np.repeat(xa, grid.size), np.tile(grid, xa.size))[1].reshape(xa.size, -1)
    inf = np.full((xa.size, 1), np.inf)
    left = np.concatenate((inf, vals[:, :-1]), axis=1)
    right = np.concatenate((vals[:, 1:], inf), axis=1)
    k, i = np.nonzero((vals <= left) & (vals <= right))
    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, grid.size - 1)]
    alphas, vneg = golden_max_rows(lambda t, rows: -values(xa[k[rows]], t)[1], a, b, 1e-8)

    alpha_star, rates = [], []
    for j, x in enumerate(xs):
        own = k == j
        candidates = (list(zip(alphas[own].tolist(), (-vneg[own]).tolist()))
                      + list(zip(grid[i[own]].tolist(), vals[j, i[own]].tolist())))
        a_j, rate = _pick_smallest_minimizer(candidates)
        if a_j > cap - 1e-3:
            warnings.warn(f"hat-mode minimizer {a_j:.4f} sits at the cap {cap}")
        alpha_star.append(a_j)
        rates.append(rate)
    theta_star = values(xa, np.array(alpha_star))[0]
    return [RatePoint(x, r, float(th), HatSpec(a_j), semicircle.goe_rate(x))
            for x, r, th, a_j in zip(xs, rates, theta_star, alpha_star)]


def _vector_point(dist: EntryDistribution, x: float, mode, cap: float) -> RatePoint:
    """Finite-N or two-scale point at one target x >= 2: one row per
    profile of the family, the tie rule of hat mode on (mass, k)."""
    pen, rows = mode._rows(dist, x, cap)
    theta_star, value = sup_theta_rows(x, pen, rows)
    _, n, csq = _terms(rows)
    mass = csq + rows[:, 1]
    keys = zip(mass, n.sum(axis=1), range(len(rows)))
    (_, _, i), _ = _pick_smallest_minimizer(list(zip(keys, value)))
    # the finite-N family caps the norm c, the two-scale family the mass
    size, name = (math.sqrt(mass[i]), "finite-N") if pen.N else (mass[i], "two-scale")
    if size > cap - 1e-3:
        warnings.warn(f"{name} minimizer mass {size:.4f} sits at the cap {cap}")
    return RatePoint(x, float(value[i]), float(theta_star[i]), pen.spec(rows[i]),
                     semicircle.goe_rate(x))


def _family_rows(family: ProfileFamily, N: int, xi: float, x: float, c_tops, alphas):
    """Vector rows of the search family at x: for each alpha_tilde, the zero
    profile and every c * 1_[k] / sqrt(k) with c^2 on the mass grid up to
    c_top^2, save those with entries below the large-coordinate threshold xi."""
    rows = []
    for c_top, at in zip(c_tops, alphas):
        rows.append((x, at, 0.0, 0.0))
        c2_grid = np.linspace(0.0, c_top * c_top, family.n_mass)[1:]
        for k in family.ks(N):
            rows.extend((x, at, v, k) for v in np.sqrt(c2_grid[c2_grid > 0]) / math.sqrt(k)
                        if xi is None or v >= xi)
    return np.array(rows, dtype=float)


def rate_curve(dist: EntryDistribution, x_grid, mode, cap: float = 0.95,
               tol: float = 1e-3, threads: int = None) -> RateCurve:
    """Evaluate rate_point across a sorted grid of targets x >= 2.

    Hat mode evaluates blocks of up to ``_HAT_BLOCK`` consecutive grid
    points per ``rate_point`` call; the vector modes one point per call.
    With ``threads > 1`` the calls go to a thread pool.  Any failed call
    poisons the whole curve with its diagnostic.  The detected threshold
    ``x_mu`` is the smallest grid point where the rate drops below the GOE
    rate by more than ``tol`` (no uniqueness claim).  Results are
    deterministic regardless of the thread count.
    """
    x_grid = [float(x) for x in x_grid]
    if any(b < a for a, b in zip(x_grid, x_grid[1:])):
        raise ValueError("x grid must be sorted")
    if x_grid and x_grid[0] < 2.0:
        raise ValueError("x grid must start at or above the spectral edge 2")

    size = 1
    if isinstance(mode, HatMode):
        _hat_evaluator(dist)  # prime the shared table before any fan-out
        size = _HAT_BLOCK
    blocks = [x_grid[i:i + size] for i in range(0, len(x_grid), size)]

    def run(block):
        try:
            return rate_point(dist, block, mode, cap)
        except Exception as e:  # noqa: BLE001 - rewrapped with context below
            return e

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(block) for block in blocks]
    failures, points = [], []
    for block, r in zip(blocks, results):
        if isinstance(r, Exception):
            where = f"x={block[0]:g}" if len(block) == 1 else f"x={block[0]:g}..{block[-1]:g}"
            failures.append(f"{where}: {r}")
        else:
            points.extend(r)
    if failures:
        raise RateCurveError(f"{len(failures)} poisoned block(s): " + "; ".join(failures[:5]))

    for p in points:
        p.check()
    rates = np.array([p.rate for p in points])
    if np.any(np.diff(rates) < -1e-6):
        i = int(np.argmin(np.diff(rates)))
        raise RateCurveError(
            f"rate not nondecreasing between x={x_grid[i]:g} and x={x_grid[i + 1]:g}"
        )

    x_mu = None
    for p in points:
        if np.isfinite(p.goe_rate) and p.goe_rate - p.rate > tol:
            x_mu = p.x
            break
    return RateCurve(tuple(x_grid), tuple(points), x_mu)
