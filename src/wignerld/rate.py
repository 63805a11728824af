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
and interpolated by a clamped cubic spline in numpy, equal bit for bit to
scipy's ``CubicSpline`` with the same end conditions (values checked
against the direct free-energy path in the test suite).  Every mode is
batched over x: the targets of a sequence are rows of the row-wise theta
search, one per (x, alpha) pair in hat mode, which shares one
``sup_theta_rows`` grid pass and at most one row-wise search over the
interior alpha minima, whose evaluations give the winners' theta*, and
one per (x, profile) pair of the search family in vector mode, which
shares one ``theta_scan`` and refines only the rows that can still hold
the minimum (branch and bound).  Every refinement, in theta and in alpha,
is ``stencil_max_rows``.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import free_energy, semicircle
from .entries import EntryDistribution
from .gibbs import (GibbsProblem, _consolidate, _fold, _grid_for, _hamiltonian, _simpson_agrees,
                    _sub_grid, gibbs_solve, solve_exponent_batch, values_from_batch,
                    whole_line_rows)
from .stencil import stencil_max_rows

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
    "theta_scan",
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
_GOE_SLACK = 1e-6  # RatePoint.check allows a rate this far above the GOE rate


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

    @property
    def mass(self) -> float:
        return self.alpha

    def _row(self, dist, x):
        return _hat_evaluator(dist), np.array([[x, self.alpha]], dtype=float)


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
    """Single-coordinate reduction; needs psi symmetric and nondecreasing on t > 0."""


@dataclass(frozen=True)
class FiniteNMode:
    """Finite-N vector profiles of dimension N and width R (N^0.2 by default).

    ``rate_point``'s ``cap`` bounds the profile's norm c, so its mass c^2 is
    at most cap^2.
    """

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
    """Two-scale profiles: a large-entry vector of norm c plus a
    moderate-scale mass alpha_tilde on ``n_alpha`` values.

    ``rate_point``'s ``cap`` bounds the total mass c^2 + alpha_tilde.
    """

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

    def check(self, offset: float = 0.0):
        """Raise ``RateCurveError`` on a negative rate or a rate above the GOE
        rate plus ``offset`` (what the mode's zero profile adds to the GOE
        rate, ``_zero_profile_offset``) by more than ``_GOE_SLACK``."""
        if self.rate < -1e-9:
            raise RateCurveError(f"negative rate {self.rate} at x={self.x}")
        if np.isfinite(self.goe_rate) and self.rate > self.goe_rate + offset + _GOE_SLACK:
            raise RateCurveError(f"rate {self.rate} exceeds the GOE rate {self.goe_rate}"
                                 f"{f' plus {offset:.6g}' if offset else ''} at x={self.x}")


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


def theta_scan(pen, rows):
    """Scan J(x, theta) - pen(theta, rows, q) over theta, row by row.

    Each row of ``rows[M]`` starts with its target x, followed by the
    profile parameters the penalty reads.  ``pen(theta[M, P], rows[M],
    q[M, P]) -> [M, P]`` gives each row's penalty at that row's thetas, q
    being the overlap q_x(theta), which the driver computes from per-row
    constants of x it holds anyway; ``pen.label(row)`` names a failing row.
    Returns ``(best[M], refine)``: each row's scan maximum, and
    ``refine(idx) -> (theta_star, value)`` for the rows ``idx``.

    Each row scans ``pen.scan_points`` points of [theta_minus(x) + 1e-6, T],
    in objective calls of at most 256 rows, each kept only as the row's best
    point and its neighbours, with their values; a row's T doubles from 8
    until the objective at T has dropped a unit below the row's maximum,
    failing with "unbounded objective" past T = 1024 (a penalty that grows
    slower than J signals an infeasible profile).  ``refine`` runs
    ``stencil_max_rows`` on the best cells of its rows at once, each step
    one three-point stencil per row in calls of at most 256 rows, so a
    row's value is never below its scan maximum.  Rows never
    interact: a row's result depends neither on the other rows of the scan
    nor on those refined with it.  The one exception is an asymmetric atom
    law: ``DiscreteAtoms.log_laplace`` sums its small-|t| branch as one BLAS
    matrix-vector product over every value of a call, so a row's last bits
    can move with the rows it is batched with.
    """
    m, x, n_grid = len(rows), rows[:, 0], pen.scan_points
    # per-row constants of x, computed once for every objective call
    tm = semicircle.theta_roots(x).theta_minus
    log_pot = semicircle.log_potential(x)
    lo = tm + _THETA_OFFSET

    def objective(theta, idx):
        xi, tmi = x[idx, None], tm[idx, None]
        j = semicircle.j_value(xi, theta, theta_minus=tmi, log_pot=log_pot[idx, None])
        return j - pen(theta, rows[idx], semicircle.overlap(xi, theta, theta_minus=tmi))

    T = np.full(m, _T_INIT)
    cells, vals = np.empty((2, m, 3))  # per row: best theta and its neighbours, values there
    last = np.empty(m)  # per row: value at T
    todo = np.arange(m)
    while todo.size:
        for k in range(0, todo.size, _SCAN_ROWS):
            idx = todo[k:k + _SCAN_ROWS]
            g = np.linspace(lo[idx], T[idx], n_grid, axis=1)
            v = objective(g, idx)
            bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
            if bad.size:
                where = pen.label(rows[idx[bad[0]]])
                raise RateError(f"non-finite objective in theta scan at {where}")
            r = np.arange(idx.size)[:, None]
            i = v.argmax(axis=1)[:, None]
            cell = np.clip(i + [-1, 0, 1], 0, n_grid - 1)
            cells[idx], vals[idx], last[idx] = g[r, cell], v[r, cell], v[:, -1]
        todo = todo[last[todo] > vals[todo, 1] - _DECAY_MARGIN]
        stuck = todo[T[todo] >= _T_MAX]
        if stuck.size:
            k = stuck[0]
            raise RateError(f"unbounded objective: no decay by theta={T[k]} at "
                            + pen.label(rows[k]))
        T[todo] = np.minimum(2.0 * T[todo], _T_MAX)

    def refine(idx):
        idx = np.asarray(idx, dtype=int)
        return stencil_max_rows(lambda t, r: np.concatenate(
            [objective(t[k:k + _SCAN_ROWS], idx[r[k:k + _SCAN_ROWS]])
             for k in range(0, r.size, _SCAN_ROWS)]), cells[idx], vals[idx])

    return vals[:, 1], refine


def sup_theta_rows(pen, rows):
    """Maximize J(x, theta) - pen(theta, rows, q) over theta, row by row:
    the ``theta_scan`` of every row, then its stencil refinement of every row.

    Arguments are those of ``theta_scan``.  Returns
    ``(theta_star[M], value[M])``.  Hat mode and ``joint_rate`` use it as
    it is; the vector modes' ``_vector_points`` runs the same scan but
    refines only the rows that can hold the minimum or a tie, which gives
    each refined row the bits this function gives it.
    """
    best, refine = theta_scan(pen, rows)
    return refine(np.arange(best.size))


@dataclass(frozen=True)
class _ThetaPenalty:
    """``theta_scan`` penalty of (x,) rows from a function of theta alone."""

    fn: object
    scan_points = 64

    def label(self, row) -> str:
        return f"x={row[0]}"

    def __call__(self, theta, rows, q):
        return self.fn(theta.ravel()).reshape(theta.shape)


def sup_theta(x: float, penalty):
    """Maximize J(x, theta) - penalty(theta) over theta, ``penalty`` taking
    1-D numpy arrays: one row of ``sup_theta_rows``."""
    theta_star, value = sup_theta_rows(_ThetaPenalty(penalty), np.array([[x]], dtype=float))
    return float(theta_star[0]), float(value[0])


# ---------------------------------------------------------------------------
# fast single-coordinate (hat) evaluator

_HAT_LOCK = threading.Lock()
_HAT_CACHE: dict = {}  # dist.key() -> _HatEvaluator, least recently used first
_HAT_CACHE_SIZE = 8
_GIBBS_BLOCK_ELEMS = 2**16  # rows x nodes per multiplier solve of _gibbs_solves: 0.5 MB arrays


class _ClampedSpline:
    """Cubic spline through (x, y) with slope 0 at x[0] and a not-a-knot end,
    equal bit for bit to ``scipy.interpolate.CubicSpline(x, y, bc_type=((1,
    0.0), "not-a-knot"))`` on any n >= 4 nodes of a uniform grid, value
    (``nu=0``) and slope (``nu=1``), extrapolating the end cubics."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # the tridiagonal slope system in scipy's assembly, solved as LAPACK's
        # gtsv solves it; it is diagonally dominant, so gtsv never pivots
        end = float(x[-1] - x[-3])
        d = [1.0, *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
        du = [0.0, *dx[:-1].tolist()]
        dl = [*dx[1:].tolist(), end]
        b = [0.0, *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
             float((dx[-1]**2 * slope[-2] + (2 * end + dx[-1]) * dx[-2] * slope[-1]) / end)]
        for i in range(len(d) - 1):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        b[-1] /= d[-1]
        for i in range(len(d) - 2, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
        s = np.array(b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        # column i holds x_i, c0, c1, c2, c3 of x_i <= u < x_{i+1}: one gather per call
        self.cols = np.array([x[:-1], t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
        self.inner = x[1:-1]

    def __call__(self, u, nu: int = 0):
        """Value (``nu=0``) or slope (``nu=1``) at u, summed in scipy's order:
        ((c3 + c2 s) + c1 s^2) + c0 (s^2 s) and (c2 + c1 s 2) + c0 s^2 3."""
        x0, c0, c1, c2, c3 = self.cols.take(self.inner.searchsorted(u, "right"), axis=1)
        s = u - x0
        if nu:
            return (c2 + c1 * s * 2.0) + c0 * (s * s) * 3.0
        # in place on the gathered copy: most calls pass a few points, so the
        # cost is numpy's per-call overhead, not the arithmetic
        c2 *= s
        c2 += c3
        s2 = s * s
        c1 *= s2
        c1 += c2
        s2 *= s
        c0 *= s2
        c0 += c1
        return c0


class _Phi1Table:
    """Spline table of the whole-line Gibbs value with a unit moment budget.

    The hat-mode Gibbs term reduces by dilation to phi1(u) evaluated at
    u = theta * sqrt(a(1-a)); phi1 is smooth, so a cubic spline
    (``_ClampedSpline``) on a 0.01 grid reproduces the direct solve to ~1e-8
    (asserted in tests).  phi1 is even, so the table is read at |u|, and its
    grid grows to cover the largest |u| asked for; a non-finite u raises
    ``RateError``.  Its rows are whole-line values of ``whole_line_rows``:
    one solve at R = 32 per row, certified by its duality gap, or a
    ``GibbsError`` naming u.  A grown table solves only its new rows, since
    its grid extends the old one node for node and rows never interact
    (save on an asymmetric atom law: see ``theta_scan``), and refits the
    spline over all of them.
    """

    def __init__(self, dist: EntryDistribution):
        self.dist = dist
        self.u_max = 0.0
        self.spline = None
        self.rows = np.empty(0), np.empty(0)  # (nodes, values) of the last build
        self.lock = threading.Lock()

    def _solve_grid(self, us: np.ndarray) -> np.ndarray:
        known, vals = self.rows
        new = us[known.size:] if np.array_equal(us[:known.size], known) else us
        fresh = whole_line_rows(lambda R: self._solves_at(new, R), self.dist, new * new,
                                np.abs(new), 1.0, lambda i: f"hat-mode Gibbs table at u={new[i]}")
        self.rows = us, np.concatenate([vals[:us.size - new.size], fresh])
        return self.rows[1]

    def _solves_at(self, us: np.ndarray, R: float) -> tuple:
        return _gibbs_solves(self.dist, us, *np.ones((2, us.size, 1)), 1.0, R)[:3]

    def _build(self, u_max: float):
        n = int(math.ceil(u_max / 0.01)) + 1
        us = np.linspace(0.0, 0.01 * (n - 1), n)
        # phi1 is even in u: clamp the slope at u = 0 instead of a not-a-knot end
        self.spline = _ClampedSpline(us, self._solve_grid(us))
        self.u_max = us[-1]

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        au = np.abs(u)  # phi1 is even: s -> -s maps its integral at u to that at -u
        top = float(au.max()) if u.size else 0.0
        if not math.isfinite(top):
            bad = u[~np.isfinite(u)].flat[0]
            raise RateError(f"hat-mode Φ1 table: u={bad} is not finite")
        if self.spline is None or top > self.u_max:
            with self.lock:
                if self.spline is None or top > self.u_max:
                    self._build(max(6.0, 1.5 * top))
        return self.spline(au)


def _gibbs_solves(dist, amp, vals, counts, beta, R):
    """(values, multipliers, log masses, strides) over [-R, R] of rows i with
    budget beta[i] (or a shared beta) and Hamiltonian sum_j counts[i, j] L(2
    vals[i, j] amp[i] s), built by ``gibbs._hamiltonian`` and folded by
    ``gibbs._fold``, each row on the coarsest rung of a ladder that resolves it.

    The rungs are every fourth node, every second node and every node of
    the half grid ``_grid_for(R)`` (its stride 4 rung is left out where its
    every other node is no Simpson grid).  Every row is solved on the first
    rung; a row that ``gibbs._simpson_agrees`` finds resolved there keeps
    that rung's answer, and the others are solved again on the next rung,
    from their last multiplier, with their Hamiltonian built on its nodes.
    The top rung accepts every row, so no row is solved on a finer grid than
    the half grid.  A rung solves its rows in near-equal blocks of at most
    about ``_GIBBS_BLOCK_ELEMS`` rows x rung nodes, half that on a rung that
    keeps each row's stopping weights for its check, which keep a block's
    arrays in a core's cache.  A row's rungs depend on that row alone.
    The strides returned are those of the rungs that accepted the rows.
    """
    s, w = _grid_for(R)
    beta = np.broadcast_to(beta, amp.shape)
    value, zeta, log_mass = np.empty((3, amp.size))  # zeta: each row's last multiplier
    accepted = np.empty(amp.size, dtype=int)
    rows = np.arange(amp.size)
    strides = (4, 2, 1) if (s.size - 1) % 16 == 0 else (2, 1)
    for stride in strides:
        if not rows.size:
            break
        sr, wr = _sub_grid(s, w, stride)
        # a checked rung also keeps each row's stopping weights: half the elements per block
        elems = _GIBBS_BLOCK_ELEMS // 2 if stride > 1 else _GIBBS_BLOCK_ELEMS
        blocks = -(-rows.size * sr.size // elems)
        up = []
        for b in np.array_split(rows, min(rows.size, blocks)):
            H = _fold(dist, partial(_hamiltonian, dist, amp[b], vals[b], counts[b]), sr)
            solved = solve_exponent_batch(H, sr, wr, beta[b], weights=stride > 1,
                                          zeta_init=None if stride == strides[0] else zeta[b])
            zeta[b], log_mass[b], m2 = solved[:3]
            done = (_simpson_agrees(sr, wr, *solved[4], log_mass[b], m2) if stride > 1
                    else np.ones(b.size, dtype=bool))
            value[b], accepted[b] = values_from_batch(log_mass[b], zeta[b], beta[b]), stride
            up.append(b[~done])
            del H, solved  # freed before the next block builds its own
        rows = np.concatenate(up)
    return value, zeta, log_mass, accepted


class _HatEvaluator:
    """``theta_scan`` penalty of hat-mode (x, alpha) rows: ``free_energy.hat_rows``
    on the law's Φ1 table.  A law outside the hat reduction's domain
    (``free_energy.hat_fault``) raises ``RateError``."""

    scan_points = 64  # matches a 512-point scan to 1e-12 on the tested hat rows

    def __init__(self, dist: EntryDistribution):
        fault = free_energy.hat_fault(dist)
        if fault:
            raise RateError(fault)
        self.dist = dist
        self.phi1 = _Phi1Table(dist)

    def f_hat(self, theta, alpha):
        """Vectorized single-coordinate free energy (spline-backed)."""
        return free_energy.hat_rows(self.dist, np.asarray(theta, dtype=float), 1.0,
                                    np.asarray(alpha, dtype=float), self.phi1)

    def label(self, row) -> str:
        return f"x={row[0]}, alpha={row[1]}"

    def __call__(self, theta, rows, q):
        return free_energy.hat_rows(self.dist, theta, q, rows[:, 1:], self.phi1)


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
    """``sup_theta_rows`` penalty of vector rows: ``free_energy.restricted_rows``
    for an N, else ``free_energy.tilde_rows`` with alpha_tilde priced at
    psi(t), or at sup psi for t None, the Gibbs terms by ``_gibbs_solves``."""

    dist: EntryDistribution
    R: float
    N: int = None
    t: float = None
    scan_points = 16  # matches a 512-point scan to 1e-12 on the tested vector rows

    def label(self, row) -> str:
        _, n, csq = _terms(row[None])
        out = f"x={row[0]}, k={n.sum():g}, c={math.sqrt(csq[0])}"
        return out if self.N else out + f", alpha_tilde={row[1]}"

    def spec(self, row):
        v, n, _ = _terms(row[None])
        z = tuple(np.repeat(v[0], n[0].astype(int))) or (0.0,)
        return (FiniteNSpec(z, self.N, self.R) if self.N
                else TildeSpec(z, float(row[1]), self.R, self.t))

    def __call__(self, theta, rows, q):
        dist = self.dist
        vals, counts, csq = _terms(rows)

        def gibbs(amp, beta, where):
            owner = np.nonzero(where)[0]
            return _gibbs_solves(dist, amp[where], vals[owner], counts[owner], beta[where],
                                 self.R)[0]

        if self.N:
            return free_energy.restricted_rows(dist, theta, q, vals, counts, csq, self.N, gibbs)
        return free_energy.tilde_rows(dist, theta, q, rows[:, 1], csq, self.t, gibbs, lambda i:
                                      RateError(f"two-scale profile leaves no residual mass "
                                                f"at {self.label(rows[i])}"))


# ---------------------------------------------------------------------------
# joint rate and outer minimization


def joint_rate(dist: EntryDistribution, x: float, spec):
    """Inner supremum for a fixed localization profile: (value, theta_star).

    The profile is scaled by the overlap before entering the free energy:
    linearly for vector components, quadratically for scalar masses.  It is
    one row of ``sup_theta_rows``, as in ``rate_point``.
    """
    theta_star, value = sup_theta_rows(*spec._row(dist, x))
    return float(value[0]), float(theta_star[0])


def _pick_smallest_minimizer(candidates):
    vmin = min(v for _, v in candidates)
    ties = [a for a, v in candidates if v <= vmin + _TIE_TOL]
    return min(ties), vmin


def rate_point(dist: EntryDistribution, x, mode, cap: float = 0.95):
    """Outer infimum over the mode's profile family at x.

    A float ``x`` gives one ``RatePoint``; a 1-D sequence gives a tuple of
    them, in order.  Below the spectral edge the rate is +inf.  The
    feasibility cap keeps the localized mass away from 1: it bounds alpha
    in hat mode, the norm c (mass at most cap^2) in finite-N mode and
    c^2 + alpha_tilde in two-scale mode; a warning fires when the argmin
    presses against it.  Ties report the smallest minimizer.
    Every x of a sequence shares the theta scan, as rows (see
    ``_hat_points`` and ``_vector_points``).  The vector modes refine only
    the rows whose scan maximum lies within ``_TIE_TOL`` of their x's first
    refined value; a row's value is never below its scan maximum, so the
    rows dropped could be neither the minimizer nor a tie, and the point is
    the one refining every row gives, bit for bit (to the last bits on an
    asymmetric atom law, whose rows can move with their batch: see
    ``theta_scan``).
    """
    if not 0.0 < cap < 1.0:
        raise ValueError("cap must lie in (0, 1)")
    single = np.ndim(x) == 0
    xs = [x] if single else list(x)
    points = [RatePoint(v, math.inf, math.inf, None, math.inf) if v < 2.0 else None
              for v in xs]
    todo = [i for i, p in enumerate(points) if p is None]
    if todo:
        xt = [xs[i] for i in todo]
        found = (_hat_points(dist, xt, cap) if isinstance(mode, HatMode)
                 else _vector_points(dist, xt, mode, cap))
        for i, p in zip(todo, found):
            points[i] = p
    return points[0] if single else tuple(points)


def _hat_points(dist: EntryDistribution, xs: list, cap: float) -> list:
    """Hat-mode points at targets x >= 2, evaluated as (x, alpha) rows.

    One ``sup_theta_rows`` call scans all 201 alpha grid values of every
    x; one ``stencil_max_rows`` search on -V refines every interior local
    minimum in alpha of every x, each step one such call on the three
    stencil alphas of each row, and is skipped when there is none.  A
    winner takes its theta* from the call that evaluated its (x, alpha)
    row: the grid pass for an alpha of the grid, else the search.  A grid
    minimum at alpha = 0 is its own candidate, (0, V(0)), with no search: by
    Danskin's theorem on ``free_energy.hat_rows``, where phi1(u) = 2u^2 +
    O(u^4) for a standardized law, V'(0+) = q_x(theta*)^2 / 2 > 0 at the
    theta* of alpha = 0, so alpha = 0 is a strict local minimum (the
    ``hat_slope_at_zero`` invariant of ``selfcheck``).  Rows never interact,
    so each point equals its own single-x evaluation, and a winner's theta*
    is the one a ``sup_theta_rows`` call on its row alone would give it.
    """
    ev = _hat_evaluator(dist)
    xa = np.array(xs, dtype=float)
    grid = np.linspace(0.0, cap, 201)

    def values(x, alpha):
        return sup_theta_rows(ev, np.column_stack((x, alpha)))

    thetas, vals = (v.reshape(xa.size, -1)
                    for v in values(np.repeat(xa, grid.size), np.tile(grid, xa.size)))
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=np.inf)
    k, i = np.nonzero((vals <= padded[:, :-2]) & (vals <= padded[:, 2:]))
    ki, ii = k[i > 0], i[i > 0]
    alphas, vneg = np.empty((2, 0))
    searched = {}  # (x index, alpha) -> theta* of each row the alpha search evaluated
    if ii.size:
        cell = np.minimum(ii[:, None] + [-1, 0, 1], grid.size - 1)

        def neg_values(t, rows):
            owner = np.repeat(ki[rows], t.shape[1])
            theta, v = values(xa[owner], t.ravel())
            searched.update(zip(zip(owner.tolist(), t.ravel().tolist()), theta.tolist()))
            return -v.reshape(t.shape)

        alphas, vneg = stencil_max_rows(neg_values, grid[cell], -vals[ki[:, None], cell])

    alpha_star, rates, theta_star = [], [], np.empty(xa.size)
    for j, x in enumerate(xs):
        found, lows = ki == j, i[k == j]
        candidates = (list(zip(alphas[found].tolist(), (-vneg[found]).tolist()))
                      + list(zip(grid[lows].tolist(), vals[j, lows].tolist())))
        a_j, rate = _pick_smallest_minimizer(candidates)
        if a_j > cap - 1e-3:
            warnings.warn(f"hat-mode minimizer {a_j:.4f} sits at the cap {cap}")
        alpha_star.append(a_j)
        rates.append(rate)
        on_grid = np.flatnonzero(grid == a_j)
        theta_star[j] = thetas[j, on_grid[0]] if on_grid.size else searched[j, a_j]
    return [RatePoint(x, r, float(th), HatSpec(a_j), semicircle.goe_rate(x))
            for x, r, th, a_j in zip(xs, rates, theta_star, alpha_star)]


def _vector_points(dist: EntryDistribution, xs: list, mode, cap: float) -> list:
    """Finite-N or two-scale points at targets x >= 2, by branch and bound
    over every x's family rows (Land & Doig 1960).

    One ``theta_scan`` covers the rows of every x.  One ``refine`` call
    then takes, for each x, its row with the smallest scan maximum, and a
    second one every row of that x whose scan maximum is within
    ``_TIE_TOL`` of the first row's refined value; the others are dropped.
    A row's value is never below its scan maximum, so a dropped row lies
    more than ``_TIE_TOL`` above the optimum: it can be neither the
    minimizer nor a tie, and the result equals refining every row, bit for
    bit, since rows never interact (save on an asymmetric atom law: see
    ``theta_scan``).  The tie rule of hat mode on (mass, k)
    and the cap warning then apply to each x's own refined rows.
    """
    parts = [mode._rows(dist, x, cap) for x in xs]
    pen, rows = parts[0][0], np.concatenate([r for _, r in parts])
    sizes = [len(r) for _, r in parts]
    starts = np.cumsum([0] + sizes[:-1])
    best, refine = theta_scan(pen, rows)
    first = np.array([s + np.argmin(best[s:s + n]) for s, n in zip(starts, sizes)])
    theta_star, value = np.full((2, len(rows)), np.inf)  # dropped rows stay at inf
    theta_star[first], value[first] = refine(first)
    bound = np.repeat(value[first], sizes) + _TIE_TOL
    near = best <= bound  # a mask: np.setdiff1d would load numpy.ma on first use
    near[first] = False
    rest = np.flatnonzero(near)
    if rest.size:
        theta_star[rest], value[rest] = refine(rest)
    _, n, csq = _terms(rows)
    mass, k = csq + rows[:, 1], n.sum(axis=1)
    size = np.sqrt(mass) if pen.N else mass
    name = "finite-N minimizer norm c" if pen.N else "two-scale minimizer mass"
    points = []
    for x, s, n in zip(xs, starts, sizes):
        (_, _, i), _ = _pick_smallest_minimizer(
            [((mass[j], k[j], j), value[j]) for j in range(s, s + n)])
        if size[i] > cap - 1e-3:
            warnings.warn(f"{name} {size[i]:.4f} sits at the cap {cap}")
        points.append(RatePoint(x, float(value[i]), float(theta_star[i]), pen.spec(rows[i]),
                                semicircle.goe_rate(x)))
    return points


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


def _zero_profile_offset(dist: EntryDistribution, R: float) -> float:
    """eps(R) = -Phi_R(0, 1), the Gibbs value of no tilt at unit budget on
    [-R, R] negated: a vector mode's zero profile prices theta at theta^2 -
    eps(R), so its rate is the GOE rate plus eps(R) at every x.  eps(R) lies
    in [0, 10 exp(-R^2/8)] (``selfcheck``'s zero-profile window): 6.9e-5 at
    R = 1000^0.2, 2.8e-10 at R = 10000^0.2, and rounding alone at R =
    (10^6)^0.2.  With no tilt it is the same for every law."""
    return -gibbs_solve(GibbsProblem([0.0], dist, R, 1.0)).value


def rate_curve(dist: EntryDistribution, x_grid, mode, cap: float = 0.95,
               tol: float = 1e-3, threads: int = None) -> RateCurve:
    """Evaluate rate_point across a sorted grid of targets x.

    One ``rate_point`` call evaluates the grid, save that with ``threads > 1``
    a vector-mode grid is split into min(threads, os.cpu_count()) contiguous
    blocks at most, one call each on a thread pool.  A failed call poisons
    the curve with its diagnostic.  Points below the spectral edge 2 are
    rate_point's +inf sentinels; the rate must be nondecreasing from the edge
    on, and at most 1e-6 above the GOE rate plus, in a vector mode, the
    zero-profile offset of its R (``_zero_profile_offset``, one
    ``gibbs_solve`` per curve).  The detected threshold ``x_mu`` is the
    smallest grid point where the rate drops below the GOE rate by more than
    ``tol``, a finite number >= 0 (no uniqueness claim).  Results do not
    depend on the thread count, save in the last bits on an asymmetric atom
    law (see ``theta_scan``).
    """
    x_grid = [float(x) for x in x_grid]
    if any(b < a for a, b in zip(x_grid, x_grid[1:])):
        raise ValueError("x grid must be sorted")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, not {tol!r}")

    if isinstance(mode, HatMode):
        _hat_evaluator(dist)  # a law outside hat mode's domain fails here with a bare RateError
        threads = None
    workers = min(threads, os.cpu_count() or 1) if threads else 1
    size = max(1, -(-len(x_grid) // max(workers, 1)))
    blocks = [x_grid[i:i + size] for i in range(0, len(x_grid), size)]

    def run(block):
        try:
            return rate_point(dist, block, mode, cap)
        except Exception as e:  # noqa: BLE001 - rewrapped with context below
            return e

    if len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
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

    offset = 0.0 if isinstance(mode, HatMode) else _zero_profile_offset(dist, mode.width())
    for p in points:
        p.check(offset)
    edge = sum(x < 2.0 for x in x_grid)
    rates = np.array([p.rate for p in points[edge:]])
    if np.any(np.diff(rates) < -1e-6):
        i = edge + int(np.argmin(np.diff(rates)))
        raise RateCurveError(
            f"rate not nondecreasing between x={x_grid[i]:g} and x={x_grid[i + 1]:g}"
        )

    x_mu = None
    for p in points:
        if np.isfinite(p.goe_rate) and p.goe_rate - p.rate > tol:
            x_mu = p.x
            break
    return RateCurve(tuple(x_grid), tuple(points), x_mu)
