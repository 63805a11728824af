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
evaluate one target and one profile at a time.
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
from .gibbs import _grid_for, solve_exponent_batch, values_from_batch
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
    mode's (x, alpha) pairs); failures name the row's x and alpha.  With
    ``rows=None`` there is one row and ``pen`` receives None.
    Returns ``(theta_star[M], value[M])``.

    Each row scans 512 points of [theta_minus(x) + 1e-6, T], in objective
    calls of at most 256 rows; its T doubles from 8 (or from
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
        return f"x={x[k]}, alpha={np.ravel(rows[k])[-1]}"

    T = np.full(m, _T_INIT) if bracket_hint is None else np.maximum(float(bracket_hint), lo + 1e-3)
    grid = np.empty((m, n_grid))
    vals = np.empty((m, n_grid))
    todo = np.arange(m)
    while todo.size:
        g = np.linspace(lo[todo], T[todo], n_grid, axis=1)
        v = np.concatenate([objective(g[k:k + _SCAN_ROWS], todo[k:k + _SCAN_ROWS])
                            for k in range(0, todo.size, _SCAN_ROWS)])
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            raise RateError(f"non-finite objective in theta scan at {where(todo[bad[0]])}")
        grid[todo], vals[todo] = g, v
        todo = todo[v[:, -1] > v.max(axis=1) - _DECAY_MARGIN]
        stuck = todo[T[todo] >= _T_MAX]
        if stuck.size:
            k = stuck[0]
            raise RateError(f"unbounded objective: no decay by theta={T[k]} at {where(k)}")
        T[todo] = np.minimum(2.0 * T[todo], _T_MAX)

    r = np.arange(m)
    i = vals.argmax(axis=1)
    best = vals[r, i]
    a = grid[r, np.maximum(i - 1, 0)]
    b = grid[r, np.minimum(i + 1, n_grid - 1)]
    theta_star, value = golden_max_rows(
        lambda t, idx: objective(t[:, None], idx)[:, 0], a, b, theta_tol
    )
    low = value < best
    theta_star[low], value[low] = grid[r, i][low], best[low]
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
_PHI1_BLOCK_ROWS = 64  # u-rows per multiplier solve of the table build


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
        # near-equal blocks of at most _PHI1_BLOCK_ROWS rows bound the
        # row-by-node arrays; the solver treats rows independently, so the
        # blocks give the values of one batch
        s, w = _grid_for(R)
        out = []
        for u in np.array_split(us, -(-us.size // _PHI1_BLOCK_ROWS)):
            H = self.dist.log_laplace(2.0 * u[:, None] * s)
            zeta, log_mass, _ = solve_exponent_batch(H, s, w, 1.0)
            out.append(values_from_batch(log_mass, zeta, 1.0))
        return np.concatenate(out)

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
# batched penalties for the vector modes


def _gibbs_penalty_batch(dist, theta_arr, scale_arr, values, counts, beta_arr, R):
    """Gibbs values for tilts (theta_i * scale_i) * values on [-R, R].

    An empty profile (no ``values``) leaves the Hamiltonian zero.
    """
    s, w = _grid_for(R)
    H = np.zeros((theta_arr.size, s.size))
    amp = theta_arr * scale_arr
    for v, c in zip(values, counts):
        H += c * dist.log_laplace(2.0 * v * amp[:, None] * s)
    zeta, log_mass, _ = solve_exponent_batch(H, s, w, beta_arr)
    return values_from_batch(log_mass, zeta, beta_arr)


def _finite_n_penalty(dist: EntryDistribution, x: float, z, N: int, R: float):
    z = np.asarray(z, dtype=float)
    zsq = float(z @ z)
    vals, counts = np.unique(z[z != 0.0], return_counts=True)
    coefs, mults = free_energy._loc_terms(z, N)

    def pen(theta):
        theta = np.asarray(theta, dtype=float)
        q = semicircle.overlap(x, theta)
        nsq = np.clip(q * q * zsq, 0.0, 1.0)
        out = np.zeros_like(theta)
        if coefs.size:
            # localized sum with profile q*z: pair products pick up q^2
            args = coefs[:, None] * (theta * q * q)
            out += (dist.log_laplace(args).T @ mults) / N
        bulk = ~(nsq >= 1.0 - 1e-9)  # a NaN overlap reaches the solver and fails there
        if bulk.any():
            beta = 1.0 - nsq[bulk]
            out[bulk] += (theta[bulk] ** 2 * beta**2 - 0.5 * nsq[bulk]
                          + _gibbs_penalty_batch(dist, theta[bulk], q[bulk], vals, counts, beta, R))
        return out

    return pen


def _tilde_penalty(dist: EntryDistribution, x: float, w_check, alpha_tilde: float,
                   R: float, t: float):
    w_check = np.asarray(w_check, dtype=float)
    csq = float(w_check @ w_check)
    vals, counts = np.unique(w_check[w_check != 0.0], return_counts=True)
    ext = dist.psi_extremes()
    psi_sel = ext.psi_max if t is None else float(dist.psi(t))
    psi_inf = ext.psi_infty

    def pen(theta):
        theta = np.asarray(theta, dtype=float)
        q2 = np.clip(semicircle.overlap(x, theta) ** 2, 0.0, 1.0)
        c2 = q2 * csq
        at = q2 * alpha_tilde
        beta = 1.0 - at - c2
        if np.any(beta <= 0):
            raise RateError("two-scale profile leaves no residual mass")
        quad = beta**2 + 2 * beta * at + 2 * psi_sel * at**2 + 2 * psi_inf * (c2**2 + 2 * at * c2)
        out = theta**2 * quad - 0.5 * (1.0 - beta)
        out += _gibbs_penalty_batch(dist, theta, np.sqrt(q2), vals, counts, beta, R)
        return out

    return pen


# ---------------------------------------------------------------------------
# joint rate and outer minimization


def joint_rate(dist: EntryDistribution, x: float, spec, bracket_hint: float = None):
    """Inner supremum for a fixed localization profile: (value, theta_star).

    The profile is scaled by the overlap before entering the free energy:
    linearly for vector components, quadratically for scalar masses.
    """
    if isinstance(spec, HatSpec):
        pen = _hat_evaluator(dist).penalty(x, spec.alpha)
    elif isinstance(spec, FiniteNSpec):
        pen = _finite_n_penalty(dist, x, spec.z, spec.N, spec.R)
    elif isinstance(spec, TildeSpec):
        pen = _tilde_penalty(dist, x, spec.w_check, spec.alpha_tilde, spec.R, spec.t)
    else:
        raise TypeError(f"unknown localization spec {spec!r}")
    theta_star, value = sup_theta(x, pen, bracket_hint)
    return value, theta_star


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
    (see ``_hat_points``); the vector modes evaluate one x at a time.
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
    """Finite-N or two-scale point at one target x >= 2."""
    goe = semicircle.goe_rate(x)
    if isinstance(mode, FiniteNMode):
        R = mode.width()
        best = None
        for k, c in _vector_family(mode.family, mode.N, cap, None):
            z = np.full(k, c / math.sqrt(k)) if c > 0 else np.zeros(1)
            spec = FiniteNSpec(tuple(z), mode.N, R)
            value, th = joint_rate(dist, x, spec)
            cand = (value, c, k, th, spec)
            if best is None or _better(cand, best):
                best = cand
        value, c, _, th, spec = best
        if c > cap - 1e-3:
            warnings.warn(f"finite-N minimizer mass {c:.4f} sits at the cap {cap}")
        return RatePoint(x, value, th, spec, goe)

    if isinstance(mode, TildeMode):
        R = mode.width()
        best = None
        for at in np.linspace(0.0, cap, mode.n_alpha):
            room = cap - at
            if room < 0:
                continue
            for k, c in _vector_family(mode.family, mode.N, math.sqrt(room), mode.xi):
                w = np.full(k, c / math.sqrt(k)) if c > 0 else np.zeros(1)
                spec = TildeSpec(tuple(w), float(at), R, mode.t)
                value, th = joint_rate(dist, x, spec)
                cand = (value, c * c + at, k, th, spec)
                if best is None or _better(cand, best):
                    best = cand
        value, mass, _, th, spec = best
        if mass > cap - 1e-3:
            warnings.warn(f"two-scale minimizer mass {mass:.4f} sits at the cap {cap}")
        return RatePoint(x, value, th, spec, goe)

    raise TypeError(f"unknown mode {mode!r}")


def _better(cand, best) -> bool:
    # order: smaller value, then smaller mass, then smaller spread
    if cand[0] < best[0] - _TIE_TOL:
        return True
    if cand[0] > best[0] + _TIE_TOL:
        return False
    return (cand[1], cand[2]) < (best[1], best[2])


def _vector_family(family: ProfileFamily, N: int, c_max: float, xi: float):
    """(k, c) pairs of the structured search family; includes the zero profile."""
    yield (1, 0.0)
    c2_grid = np.linspace(0.0, c_max * c_max, family.n_mass)[1:]
    for k in family.ks(N):
        for c2 in c2_grid:
            c = math.sqrt(c2)
            if xi is not None and c / math.sqrt(k) < xi:
                continue  # entries fall below the large-coordinate threshold
            yield (k, c)


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
