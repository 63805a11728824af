"""Standardized entry distributions and their log-Laplace transforms.

Every distribution here is centered with unit variance, so its log-Laplace
transform satisfies L(0) = L'(0) = 0 and L''(0) = 1.  The normalized
transform psi(t) = L(t)/t^2 (with psi(0) = 1/2) drives the classification
into sharp sub-Gaussian laws (sup psi = 1/2) and the rest; its supremum
``psi_max`` and tail limit ``psi_infty`` feed the free-energy formulas.

All operations are pure; sampling takes an explicit numpy Generator so
callers own one stream per worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stencil import stencil_max_rows

__all__ = [
    "EntryDistribution",
    "Gaussian",
    "SparseGaussian",
    "DiscreteAtoms",
    "rademacher",
    "sparse_rademacher",
    "bernoulli_std",
    "standardize_atoms",
    "distribution_from_spec",
    "check_assumptions",
    "PsiBracketError",
]

# psi(t) switches to a Taylor expansion below this |t| to avoid cancellation
_PSI_TAYLOR_CUT = 1e-4
# sharpness test: sup psi <= 1/2 + slack
_SHARP_SLACK = 1e-9


def _logsumexp(a, axis=-1, keepdims=False):
    """log sum exp(a) along ``axis`` for finite real ``a``, with the arithmetic
    of ``scipy.special.logsumexp`` (so the same bits): the m maxima of a
    slice stay out of the sum s of exp(a - max) over its other elements, and
    the result is log1p(s / m) + log(m) + max."""
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True, dtype=float)
    s = np.sum(np.where(top, 0.0, np.exp(a - a_max)), axis=axis, keepdims=True) / m
    out = np.log1p(s) + np.log(m) + a_max
    return out if keepdims else np.squeeze(out, axis=axis)


class PsiBracketError(RuntimeError):
    """The expanding bracket for the psi maximization did not stabilize."""


@dataclass(frozen=True)
class PsiExtremes:
    psi_max: float
    psi_infty: float
    is_sharp: bool


class EntryDistribution:
    """Base class; concrete laws implement the transform and sampling."""

    kind = "abstract"
    # True when the law is invariant under x -> -x, so that L(-t) == L(t)
    # bit for bit; solvers then integrate even weights over half the line
    symmetric = False
    # M = sup |x| over the support, so that L(t) <= M |t|; inf when unbounded
    support_radius = math.inf

    # -- log-Laplace transform -------------------------------------------

    def log_laplace(self, t, order: int = 0):
        """L(t), L'(t) or L''(t); accepts scalars or arrays."""
        raise NotImplementedError

    def third_cumulant(self) -> float:
        raise NotImplementedError

    def fourth_cumulant(self) -> float:
        raise NotImplementedError

    def psi(self, t):
        """Normalized transform L(t)/t^2, extended continuously by 1/2 at 0."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        small = np.abs(t) < _PSI_TAYLOR_CUT
        if small.any():
            k3 = self.third_cumulant()
            k4 = self.fourth_cumulant()
            ts = t[small]
            out[small] = 0.5 + k3 * ts / 6.0 + k4 * ts * ts / 24.0
        if (~small).any():
            tb = t[~small]
            out[~small] = self.log_laplace(tb) / (tb * tb)
        return float(out[0]) if scalar else out

    # -- psi extremes ------------------------------------------------------

    def _psi_infty(self) -> float:
        raise NotImplementedError

    def psi_extremes(self) -> PsiExtremes:
        """(sup_t psi, lim_{|t|->inf} psi, sharp-sub-Gaussian flag); cached."""
        cached = self.__dict__.get("_extremes")
        if cached is None:
            psi_inf = self._psi_infty()
            psi_max = self._psi_max(psi_inf)
            cached = PsiExtremes(psi_max, psi_inf, psi_max <= 0.5 + _SHARP_SLACK)
            self.__dict__["_extremes"] = cached
        return cached

    def _psi_max(self, psi_inf: float) -> float:
        return _numeric_psi_max(self, psi_inf)

    # -- sampling ----------------------------------------------------------

    def sampler(self, n: int, tilt=None):
        """``draw(rng)`` returning n iid draws from the law or its exponential tilt.

        ``tilt`` may be a scalar or an array of per-draw tilt parameters t;
        the tilted law reweights by exp(t x - L(t)).  Everything that does
        not depend on the stream is computed here, once, so a caller drawing
        many samples of one shape and tilt pays only for the random numbers.
        Each draw is a fresh array, which the caller may overwrite.
        """
        raise NotImplementedError

    def sample(self, n: int, tilt=None, rng: np.random.Generator = None):
        """n iid draws from the law, or from its exponential tilt (see ``sampler``)."""
        return self.sampler(n, tilt)(rng)

    # -- identity ----------------------------------------------------------

    def key(self) -> tuple:
        """Hashable identity used for caching derived tables."""
        return (self.kind,)

    def spec_dict(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(EntryDistribution):
    """Standard normal entries: L(t) = t^2/2, psi identically 1/2."""

    kind = "gaussian"
    symmetric = True

    def log_laplace(self, t, order: int = 0):
        t = np.asarray(t, dtype=float)
        if order == 0:
            out = 0.5 * t * t
        elif order == 1:
            out = t.copy()
        elif order == 2:
            out = np.ones_like(t)
        else:
            raise ValueError("order must be 0, 1 or 2")
        return float(out) if out.ndim == 0 else out

    def third_cumulant(self):
        return 0.0

    def fourth_cumulant(self):
        return 0.0

    def _psi_infty(self):
        return 0.5

    def _psi_max(self, psi_inf):
        return 0.5

    def sampler(self, n, tilt=None):
        if tilt is None:
            return lambda rng: rng.standard_normal(n)
        shift = np.broadcast_to(np.asarray(tilt, dtype=float), (n,))
        return lambda rng: rng.standard_normal(n) + shift


class SparseGaussian(EntryDistribution):
    """Bernoulli(p)-thinned Gaussian rescaled to unit variance.

    The law of B G / sqrt(p) with B ~ Ber(p) and G standard normal;
    L(t) = log(1 - p + p exp(t^2 / 2p)), so psi climbs from 1/2 to 1/(2p).
    """

    def __init__(self, p: float):
        if not 0.0 < p <= 1.0:
            raise ValueError("sparsity p must lie in (0, 1]")
        self.p = float(p)

    kind = "sparse_gaussian"
    symmetric = True

    def _log_components(self, t):
        # log of the Gaussian branch p*exp(t^2/2p) and of the total, both
        # overflow-safe for |t| in the hundreds.
        t = np.asarray(t, dtype=float)
        log_b = math.log(self.p) + t * t / (2.0 * self.p)
        c = math.log1p(-self.p) if self.p < 1 else -math.inf
        # logaddexp(c, b) = b + log1p(exp(c - b)) is b bit for bit where
        # b >= c + 40: the added term is at most exp(-40) < 4.3e-18, and a
        # double p < 1 has c >= log(2^-53) > -36.8, so b > 3.2, whose half ulp
        # is 2.2e-16.  Only the other nodes call it; at p = 1 (c = -inf), NaN
        # and +inf none do, and there too it would return b.
        log_s = np.array(log_b)
        np.logaddexp(c, log_b, out=log_s, where=log_b < c + 40.0)
        return t, log_b, log_s

    def log_laplace(self, t, order: int = 0):
        p = self.p
        t, log_b, log_s = self._log_components(t)
        if order == 0:
            out = np.asarray(log_s)  # logaddexp's own output, patched in place
            small = np.abs(t) < 1e-2
            if np.any(small):
                ts = t[small]
                out[small] = np.log1p(p * np.expm1(ts * ts / (2 * p)))
        elif order == 1:
            out = (t / p) * np.exp(log_b - log_s)
        elif order == 2:
            w = np.exp(log_b - log_s)
            out = (t * t + p) / (p * p) * w - (t / p * w) ** 2
        else:
            raise ValueError("order must be 0, 1 or 2")
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def third_cumulant(self):
        return 0.0

    def fourth_cumulant(self):
        # E X^4 = 3/p for the thinned Gaussian
        return 3.0 / self.p - 3.0

    def _psi_infty(self):
        return 0.5 / self.p

    def _psi_max(self, psi_inf):
        # psi is symmetric and nondecreasing on R+ with limit 1/(2p)
        return 0.5 / self.p

    def sampler(self, n, tilt=None):
        p, root_p = self.p, math.sqrt(self.p)
        q, mean = p, None  # weight and mean of the Gaussian component
        if tilt is not None:
            t = np.broadcast_to(np.asarray(tilt, dtype=float), (n,))
            _, log_b, log_s = self._log_components(t)
            q, mean = np.exp(log_b - log_s), t / p

        def draw(rng):
            mask = rng.random(n) < q
            gauss = rng.standard_normal(n)
            gauss /= root_p
            if mean is not None:
                gauss += mean
            bits = gauss.view(np.int64)
            bits *= mask  # masked-out entries become +0.0, branch-free; kept ones keep their bits
            return gauss

        return draw

    def key(self):
        return (self.kind, self.p)

    def spec_dict(self):
        return {"kind": self.kind, "p": self.p}

    def __repr__(self):
        return f"SparseGaussian(p={self.p})"


class DiscreteAtoms(EntryDistribution):
    """Finitely supported standardized law given by (location, mass) atoms."""

    kind = "atoms"

    def __init__(self, locations, masses, _subkind: str = None, _params: tuple = ()):
        xs = np.asarray(locations, dtype=float)
        ms = np.asarray(masses, dtype=float)
        if xs.ndim != 1 or xs.shape != ms.shape or xs.size < 2:
            raise ValueError("need at least two (location, mass) atoms")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ms))):
            raise ValueError("atom locations and masses must be finite")
        if np.any(ms <= 0):
            raise ValueError("atom masses must be positive")
        if abs(ms.sum() - 1.0) > 1e-9:
            raise ValueError("atom masses must sum to 1")
        ms = ms / ms.sum()
        order = np.argsort(xs)
        xs, ms = xs[order], ms[order]
        # canonicalize near-symmetric layouts so psi(-t) == psi(t) exactly
        self.symmetric = bool(
            np.allclose(xs, -xs[::-1], atol=1e-12) and np.allclose(ms, ms[::-1], atol=1e-12)
        )
        if self.symmetric:
            xs = 0.5 * (xs - xs[::-1])
            ms = 0.5 * (ms + ms[::-1])
        self.locations = xs
        self.masses = ms
        self.support_radius = float(np.max(np.abs(xs)))
        self._log_masses = np.log(self.masses)
        self._subkind = _subkind
        self._params = _params
        mean = float(self.masses @ self.locations)
        var = float(self.masses @ (self.locations - mean) ** 2)
        if abs(mean) > 1e-9 or abs(var - 1.0) > 1e-8:
            raise ValueError("atoms are not standardized; use standardize_atoms")

    def log_laplace(self, t, order: int = 0):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        sign = None
        if self.symmetric:
            # evaluate at |t|: L and L'' are even, L' is odd
            sign = np.where(tt < 0, -1.0, 1.0)
            tt = np.abs(tt)
        t2 = tt[..., None]
        logs = self._log_masses + t2 * self.locations
        if order == 0:
            out = _logsumexp(logs, axis=-1)
            small = np.abs(tt) < 1e-2
            if small.any():
                # expm1 form avoids losing the O(t^2) signal to rounding
                ts = tt[small][:, None]
                out[small] = np.log1p(np.expm1(ts * self.locations) @ self.masses)
        else:
            lse = _logsumexp(logs, axis=-1, keepdims=True)
            w = np.exp(logs - lse)
            m1 = w @ self.locations
            if order == 1:
                out = m1 if sign is None else sign * m1
            elif order == 2:
                out = w @ self.locations**2 - m1 * m1
            else:
                raise ValueError("order must be 0, 1 or 2")
        return float(out[0]) if scalar else out.reshape(t.shape)

    def third_cumulant(self):
        return float(self.masses @ self.locations**3)

    def fourth_cumulant(self):
        return float(self.masses @ self.locations**4) - 3.0

    def _psi_infty(self):
        return 0.0  # compact support

    def sampler(self, n, tilt=None):
        xs = self.locations
        if tilt is None:
            return lambda rng: rng.choice(xs, size=n, p=self.masses)
        t = np.broadcast_to(np.asarray(tilt, dtype=float), (n,))
        logs = self._log_masses + t[:, None] * xs
        logs -= _logsumexp(logs, axis=1, keepdims=True)
        cum = np.cumsum(np.exp(logs), axis=1)  # per-draw CDF of the tilted atoms

        def draw(rng):
            idx = (rng.random(n)[:, None] > cum).sum(axis=1)
            return xs[np.minimum(idx, xs.size - 1)]

        return draw

    def key(self):
        if self._subkind:
            return (self._subkind,) + self._params
        return (self.kind, tuple(self.locations), tuple(self.masses))

    def spec_dict(self):
        if self._subkind:
            d = {"kind": self._subkind}
            if self._params:
                d["p"] = self._params[0]
            return d
        return {
            "kind": self.kind,
            "atoms": [[float(x), float(m)] for x, m in zip(self.locations, self.masses)],
        }

    def __repr__(self):
        if self._subkind:
            ps = f"p={self._params[0]}" if self._params else ""
            return f"DiscreteAtoms[{self._subkind}]({ps})"
        return f"DiscreteAtoms({len(self.locations)} atoms)"


class _Rademacher(DiscreteAtoms):
    def __init__(self):
        super().__init__([-1.0, 1.0], [0.5, 0.5], _subkind="rademacher")

    def _psi_max(self, psi_inf):
        return 0.5  # log cosh t <= t^2/2


class _SparseRademacher(DiscreteAtoms):
    def __init__(self, p: float):
        if not 0.0 < p <= 1.0:
            raise ValueError("sparsity p must lie in (0, 1]")
        s = 1.0 / math.sqrt(p)
        if p < 1.0:
            locs = [-s, 0.0, s]
            mass = [p / 2, 1.0 - p, p / 2]
        else:
            locs, mass = [-1.0, 1.0], [0.5, 0.5]
        super().__init__(locs, mass, _subkind="sparse_rademacher", _params=(p,))
        self.p = p

    def _psi_max(self, psi_inf):
        # the maximum sits at t = 0 exactly when p >= 1/3
        if self.p >= 1.0 / 3.0:
            return 0.5
        return _numeric_psi_max(self, psi_inf)


class _BernoulliStd(DiscreteAtoms):
    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError("Bernoulli parameter must lie in (0, 1)")
        hi = math.sqrt((1.0 - p) / p)
        lo = -math.sqrt(p / (1.0 - p))
        super().__init__([lo, hi], [1.0 - p, p], _subkind="bernoulli", _params=(p,))
        self.p = p

    def _psi_max(self, psi_inf):
        if abs(self.p - 0.5) < 1e-12:
            return 0.5
        return _numeric_psi_max(self, psi_inf)


def rademacher() -> DiscreteAtoms:
    """Fair +/-1 entries."""
    return _Rademacher()


def sparse_rademacher(p: float) -> DiscreteAtoms:
    """Law of B Y / sqrt(p), B ~ Ber(p), Y uniform on {+1, -1}."""
    return _SparseRademacher(p)


def bernoulli_std(p: float) -> DiscreteAtoms:
    """Standardized Bernoulli(p): (B - p) / sqrt(p(1-p))."""
    return _BernoulliStd(p)


def standardize_atoms(atoms) -> DiscreteAtoms:
    """Affinely map (location, mass) pairs to mean 0 and variance 1."""
    pairs = [(float(x), float(m)) for x, m in atoms]
    xs = np.array([x for x, _ in pairs])
    ms = np.array([m for _, m in pairs])
    if xs.size < 2 or not np.any(xs != xs[0]):  # np.unique would load numpy.ma
        raise ValueError("degenerate distribution")
    if np.any(ms <= 0) or abs(ms.sum() - 1.0) > 1e-9:
        raise ValueError("masses must be positive and sum to 1")
    mean = xs @ ms
    var = ((xs - mean) ** 2) @ ms
    if var <= 1e-14:
        raise ValueError("degenerate distribution")
    return DiscreteAtoms((xs - mean) / math.sqrt(var), ms)


# ---------------------------------------------------------------------------
# numeric psi maximization


def _numeric_psi_max(dist: EntryDistribution, psi_inf: float) -> float:
    """sup_t psi(t) via grid search plus ``stencil_max_rows`` on the best cell.

    The half-line bracket [0, B] (and its mirror) expands by doubling from
    B = 64, at most 40 times, until psi(+-B) is within 1e-8 of the tail limit.
    """
    best = 0.5  # psi(0)
    for sign in (1.0, -1.0):
        B = 64.0
        for _ in range(40):
            if abs(dist.psi(sign * B) - psi_inf) < 1e-8:
                break
            B *= 2.0
        else:
            raise PsiBracketError(
                f"psi bracket did not stabilize (last B={B}, side={sign:+.0f})"
            )
        # dense pass near the origin, logarithmic tail out to B
        grid = np.concatenate(
            [np.linspace(0.0, min(64.0, B), 4097), np.geomspace(64.0, B, 257) if B > 64 else []]
        )
        vals = dist.psi(sign * grid)
        i = int(np.argmax(vals))
        if vals[i] > best:
            cell = np.clip([i - 1, i, i + 1], 0, grid.size - 1)
            _, v_star = stencil_max_rows(lambda t, _rows: dist.psi(sign * t), grid[None, cell],
                                         vals[None, cell])
            best = float(v_star[0])
    return best


# ---------------------------------------------------------------------------
# JSON surface

_KINDS = {
    "gaussian": lambda d: Gaussian(),
    "rademacher": lambda d: rademacher(),
    "sparse_rademacher": lambda d: sparse_rademacher(_need_p(d)),
    "sparse_gaussian": lambda d: SparseGaussian(_need_p(d)),
    "bernoulli": lambda d: bernoulli_std(_need_p(d)),
    "atoms": lambda d: standardize_atoms(_need_atoms(d)),
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _need_p(d):
    if not _is_number(d.get("p")):
        raise ValueError(f"dist kind '{d['kind']}' requires field 'p' as a finite number,"
                         f" not {d.get('p')!r}")
    return float(d["p"])


def _need_atoms(d):
    atoms = d.get("atoms")
    if not (isinstance(atoms, list) and all(
            isinstance(a, list) and len(a) == 2 and all(map(_is_number, a)) for a in atoms)):
        raise ValueError("dist kind 'atoms' requires field 'atoms' as a list of [location, mass]"
                         f" pairs of finite numbers, not {atoms!r}")
    return atoms


def distribution_from_spec(spec: dict) -> EntryDistribution:
    """Build a distribution from its JSON spec; atoms are auto-standardized."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("dist spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown dist kind {kind!r} in field 'kind'")
    allowed = {"kind", "p", "atoms"}
    for k in spec:
        if k not in allowed:
            raise ValueError(f"unknown key '{k}' in dist spec")
    return _KINDS[kind](spec)


def check_assumptions(dist: EntryDistribution) -> list:
    """Numeric screening of the regularity assumptions behind the formulas.

    Returns a list of warning strings (uniformly bounded L'', equal left and
    right psi limits, supremum of psi attained on the positive half-line).
    The library computes its formulas regardless; these are advisories only.
    """
    msgs = []
    grid = np.linspace(-200.0, 200.0, 2001)
    lpp = np.asarray(dist.log_laplace(grid, order=2))
    interior = np.abs(grid) <= 100.0
    if lpp[~interior].max(initial=0.0) > 1.5 * max(lpp[interior].max(), 1.0):
        msgs.append("second derivative of the log-Laplace transform may be unbounded")
    T = 100.0
    if abs(dist.psi(T) - dist.psi(-T)) > 1e-6:
        msgs.append("left and right tail limits of psi differ")
    pos = float(np.max(dist.psi(np.linspace(0.0, 200.0, 4001))))
    neg = float(np.max(dist.psi(np.linspace(-200.0, 0.0, 4001))))
    if neg > pos + 1e-9:
        msgs.append("supremum of psi appears to be attained at negative arguments")
    return msgs
