"""Desk-scale spectral experiments: Wigner sampling, tilts, localization.

Entries are iid up to symmetry with scale sqrt(2/N) on the diagonal and
sqrt(1/N) off it.  Tilted ensembles reweight each entry by an exponential
tilt whose parameter depends on a direction u; the resulting means follow
the derivative of the log-Laplace transform entrywise.

Randomness comes from counter-based Philox streams keyed by (seed, replica
index), so serial and parallel runs produce bit-identical reports.

An experiment builds one sampling plan for its (law, N, tilt): the upper
triangle's mask, the entry scales, and the law's ``sampler``, which does
the tilt's rng-free work (mixture weights, means, CDF tables) up front.  A
replica then costs its random draws, two masked writes and one eigensolve.

The eigensolve is LAPACK's ``dsyevr`` for the top eigenpair up to N = 256
and a Lanczos run with full reorthogonalization above it, which needs some
40-110 matrix-vector products at N = 400 instead of a full
tridiagonalization.  Its products are BLAS's ``dsymv`` on H's lower
triangle, the one ``dsyevr`` reads, and its Ritz test is LAPACK's
``dstebz`` and ``dstein``.  The LAPACK routines take the arguments that
scipy's subset ``eigh`` and ``eigh_tridiagonal(select="i")`` pass, so their
results keep scipy's bits.  They come from scipy's compiled modules
``scipy.linalg._fblas`` and ``scipy.linalg._flapack``, each loaded from its
file, once, at import: the ``scipy.linalg`` package, whose imports take
some 0.2 s, never loads, and a later ``import scipy.linalg`` shares the
modules.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entries import EntryDistribution

__all__ = [
    "WignerSample",
    "MCReport",
    "EigensolverError",
    "make_rng",
    "replica_rng",
    "sample_wigner",
    "lambda1_and_vector",
    "eigvec_localization",
    "experiment",
]

_DENSE_LIMIT = 256  # dense LAPACK up to here, Lanczos above (crossover table in CHANGES.md)
_LANCZOS_STEPS = 512  # step cap: bounds the loop and the basis (512 x N floats)
_RESIDUAL_TOL = 1e-8


class EigensolverError(RuntimeError):
    pass


def _load_linalg(stem):
    """scipy's compiled module ``scipy.linalg.<stem>``, loaded from its file
    without its package.

    ``find_spec("scipy")`` locates scipy without importing it.  The module is
    registered under the name scipy gives it, so ``scipy.linalg`` shares it.
    """
    name = "scipy.linalg." + stem
    if name in sys.modules:  # scipy.linalg is already loaded
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"montecarlo needs scipy's compiled module {stem}; "
                          "scipy is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, stem + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"no compiled module {stem} in {folder}")


_dsymv = _load_linalg("_fblas").dsymv
_flapack = _load_linalg("_flapack")
_dsyevr, _dsyevr_lwork = _flapack.dsyevr, _flapack.dsyevr_lwork
_dstebz, _dstein = _flapack.dstebz, _flapack.dstein


def _check_info(info, routine, n, step=None):
    """EigensolverError unless LAPACK ``routine`` returned info = 0."""
    if info != 0:
        at = f"N={n}" if step is None else f"N={n}, Lanczos step {step}"
        raise EigensolverError(f"LAPACK {routine} failed for {at}: info={info}")


def make_rng(seed: int) -> np.random.Generator:
    """The stream of replica 0."""
    return replica_rng(seed, 0)


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replica; parallel and serial runs agree."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class WignerSample:
    N: int
    matrix: np.ndarray
    dist_kind: str
    tilt: tuple = None  # (theta, u) if tilted


class _WignerPlan:
    """The rng-free part of sampling one ensemble (law, N, tilt), built once.

    It holds the law's ``draw`` for the N(N+1)/2 upper-triangle entries in
    ``np.triu_indices`` order, their scales, and the upper triangle's mask.
    ``draw(rng)`` scales one draw and writes it through the mask into an
    empty N x N array and into its transpose (a diagonal entry twice), so
    every replica of an experiment pays only for its random numbers.
    """

    def __init__(self, dist: EntryDistribution, N: int, tilt=None):
        if N < 2:
            raise ValueError("N must be at least 2")
        iu, ju = np.triu_indices(N)
        diag = iu == ju
        tparams = None
        if tilt is not None:
            theta, u = tilt
            u = np.asarray(u, dtype=float)
            if u.shape != (N,):
                raise ValueError(f"tilt direction u has shape {u.shape}; N={N} needs ({N},)")
            if abs(u @ u - 1.0) > 1e-9:
                raise ValueError("tilt direction u must be a unit vector")
            root_n = math.sqrt(N)
            tparams = np.where(diag, math.sqrt(2.0), 2.0) * theta * root_n * u[iu] * u[ju]
            tilt = (float(theta), tuple(u))
        self.dist, self.N, self.tilt = dist, N, tilt
        self._entries = dist.sampler(iu.size, tparams)
        self._scale = np.where(diag, math.sqrt(2.0 / N), math.sqrt(1.0 / N))
        self._upper = np.triu(np.ones((N, N), dtype=bool))  # True in triu_indices order

    def draw(self, rng: np.random.Generator) -> WignerSample:
        a = self._entries(rng)
        a *= self._scale
        H = np.empty((self.N, self.N))
        H[self._upper] = a
        H.T[self._upper] = a
        return WignerSample(self.N, H, self.dist.kind, self.tilt)


def sample_wigner(dist: EntryDistribution, N: int, tilt=None,
                  rng: np.random.Generator = None) -> WignerSample:
    """Symmetric N x N sample; optionally from the tilted ensemble (theta, u).

    The per-entry tilt parameter is sqrt(2)*theta*sqrt(N)*u_i^2 on the
    diagonal and 2*theta*sqrt(N)*u_i*u_j off it, so the tilted entry means
    are the entry scale times L'(tilt).  u must be a unit vector of length N.
    """
    return _WignerPlan(dist, N, tilt).draw(rng)


def _as_matrix(sample):
    return sample.matrix if isinstance(sample, WignerSample) else np.asarray(sample, dtype=float)


def _next_test(step, resid, tol, last):
    """Steps from ``step`` to the next Ritz test.

    The residual estimate falls about geometrically, so the next test goes
    where the log-linear fit through this estimate and the ``last`` one,
    a (step, estimate) pair, reaches ``tol``: 2 to 16 steps ahead, and 8
    after the first test, which has no fit.
    """
    if last is None:
        return 8
    rate = math.log(resid / last[1]) / (step - last[0])  # per step; < 0 while converging
    ahead = math.log(tol / resid) / rate if rate < 0 else 16.0
    return max(2, math.ceil(min(ahead, 16.0)))


def _lanczos_top(H):
    """Top Ritz pair of H by Lanczos with full reorthogonalization.

    The start vector is a fixed normal draw, so the result depends on H
    alone.  H v_k is BLAS's ``dsymv`` on the F-contiguous view H.T, read in
    place: its upper triangle is H's lower one, the triangle the dense
    ``dsyevr(lower=1)`` reads.  Each step takes H v_k against the whole
    basis in one classical Gram-Schmidt pass, which subtracts the
    three-term recurrence's terms and the rounding's drift together.  The
    top Ritz pair of T is tested at step 8, then where ``_next_test``
    predicts the residual estimate beta_k |s_k| reaches 1e-12 max(1,
    |theta|), and at once when beta_k <= 1e-12 (where any Ritz pair passes,
    a breakdown included) or at the step cap; a pair within the bound is
    returned.  The pair is bisection's top eigenvalue (``dstebz``) and
    inverse iteration's vector (``dstein``).  Past _LANCZOS_STEPS steps
    EigensolverError names N, the steps and the last estimate.
    """
    n = H.shape[0]
    cap = min(n, _LANCZOS_STEPS)
    Ht = np.asfortranarray(H.T)  # no copy of a C-ordered H; f2py would copy others every step
    V = np.empty((cap + 1, n))  # the basis, one row per vector
    alpha, beta = np.empty(cap), np.empty(cap)
    q = np.random.default_rng(0).standard_normal(n)
    V[0] = q / np.linalg.norm(q)
    test_at, last = 8, None  # the next test's step; the last test's (step, estimate)
    for k in range(cap):
        basis = V[:k + 1]
        w = _dsymv(1.0, Ht, V[k])
        h = basis @ w  # h[k] is alpha_k
        w -= h @ basis
        alpha[k] = h[k]
        beta[k] = b = math.sqrt(w @ w)
        if b <= 1e-12 or k + 1 == test_at or k + 1 == cap:
            if k == 0:  # T is 1 x 1, which the f2py wrappers refuse
                theta, s = alpha[:1], np.ones((1, 1))
            else:
                d, e = alpha[:k + 1], beta[:k]
                m, theta, iblock, isplit, info = _dstebz(d, e, 2, 0.0, 1.0, k + 1, k + 1, 0.0, "B")
                _check_info(info, "dstebz", n, k + 1)
                s, info = _dstein(d, e, theta[:m], iblock, isplit)
                _check_info(info, "dstein", n, k + 1)
            resid = b * abs(s[k, 0])
            tol = 1e-12 * max(1.0, abs(theta[0]))
            if resid <= tol:
                return float(theta[0]), s[:, 0] @ basis
            test_at = k + 1 + _next_test(k + 1, resid, tol, last)
            last = (k + 1, resid)
        np.divide(w, b, out=V[k + 1])
    raise EigensolverError(f"Lanczos did not converge for N={n}: {cap} steps, "
                           f"residual estimate {resid:.2e}")


def lambda1_and_vector(sample):
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    LAPACK's ``dsyevr`` up to N = 256, Lanczos (``_lanczos_top``) above;
    the eigenvector's largest coordinate is positive, and the returned pair
    always satisfies |H v - lambda v| < 1e-8 max(1, |lambda|).
    """
    H = _as_matrix(sample)
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    n = H.shape[0]
    if n <= _DENSE_LIMIT:
        # the workspace query scipy's eigh makes: the f2py default lwork could
        # change dsytrd's blocking and so the bits
        lwork, liwork, info = _dsyevr_lwork(n, lower=1)
        _check_info(info, "dsyevr_lwork", n)
        w, z, _, _, info = _dsyevr(H, compute_v=1, range="I", lower=1, il=n, iu=n,
                                   lwork=int(lwork), liwork=liwork)
        _check_info(info, "dsyevr", n)
        lam, v = float(w[0]), z[:, 0]
    else:
        lam, v = _lanczos_top(H)
    v = v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v  # deterministic sign
    resid = np.linalg.norm(H @ v - lam * v)
    if not resid <= _RESIDUAL_TOL * max(1.0, abs(lam)):  # a NaN fails too
        raise EigensolverError(f"eigenpair residual {resid:.2e} too large for N={n}")
    return lam, v


def eigvec_localization(v1, eta: float):
    """(mass of entries >= N^(eta-1/2) in l2 norm, sup norm, their count)."""
    v = np.asarray(v1, dtype=float)
    if not 0.0 < eta < 0.25:
        raise ValueError("eta must lie in (0, 1/4)")
    n = v.size
    thr = n ** (-0.5 + eta)
    big = np.abs(v) >= thr
    mass = float(np.linalg.norm(v[big])) if big.any() else 0.0
    return mass, float(np.abs(v).max()), int(big.sum())


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class MCReport:
    """Summary of one Monte Carlo experiment; serializes to a stable schema."""

    kind: str
    dist: dict
    N: int
    reps: int
    seed: int
    eta: float
    params: dict
    lambda1: tuple
    mean: float
    stderr: float
    vec_stats: tuple  # per replica: (mass_eta, linf, support_eta)
    extra: dict = field(default_factory=dict)
    version: int = 1

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "kind": self.kind,
            "dist": self.dist,
            "N": self.N,
            "reps": self.reps,
            "seed": self.seed,
            "eta": self.eta,
            "params": self.params,
            "lambda1_mean": self.mean,
            "lambda1_stderr": self.stderr,
            "lambda1_samples": list(self.lambda1),
            "vec_stats": [list(t) for t in self.vec_stats],
            **self.extra,
        }

    def samples_csv(self) -> str:
        lines = ["replica,lambda1,mass_eta,linf,support_eta"]
        for i, (lam, st) in enumerate(zip(self.lambda1, self.vec_stats)):
            lines.append(f"{i},{lam!r},{st[0]!r},{st[1]!r},{st[2]}")
        return "\n".join(lines) + "\n"


def _run_replicas(dist, N, reps, seed, eta, tilt, threads):
    plan = _WignerPlan(dist, N, tilt)

    def one(i):
        rng = replica_rng(seed, i)
        lam, v = lambda1_and_vector(plan.draw(rng))
        return lam, eigvec_localization(v, eta)

    workers = min(threads, os.cpu_count() or 1) if threads else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(i) for i in range(reps)]
    lams = np.array([r[0] for r in results])
    stats = tuple(r[1] for r in results)
    return lams, stats


def experiment(config: dict, threads: int = None) -> MCReport:
    """Run a bbp / tail / localization experiment from a config mapping.

    Required keys: kind, dist (an EntryDistribution), N, reps, seed.
    Optional: eta (default 0.125) and per-kind params (theta for bbp, x for
    tail, top_fraction in (0, 1] for localization).  Identical config and
    seed give a bit-identical report.
    """
    kind = config["kind"]
    dist = config["dist"]
    N = int(config["N"])
    reps = int(config["reps"])
    seed = int(config.get("seed", 0))
    eta = float(config.get("eta", 0.125))
    if reps < 1:
        raise ValueError("reps must be at least 1")
    base = dict(kind=kind, dist=dist.spec_dict(), N=N, reps=reps, seed=seed, eta=eta)

    if kind == "bbp":
        theta = float(config["theta"])
        u = np.full(N, 1.0 / math.sqrt(N))
        lams, stats = _run_replicas(dist, N, reps, seed, eta, (theta, u), threads)
        params = {"theta": theta}
        if theta >= 0.5:
            extra = {"prediction": 2.0 * theta + 0.5 / theta, "regime": "supercritical"}
        else:
            # below the transition the top eigenvalue stays at the bulk edge
            extra = {"prediction": 2.0, "regime": "subcritical"}
        extra["theta"] = theta
    elif kind == "localization":
        top_fraction = float(config.get("top_fraction", 0.01))
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction must lie in (0, 1], not {top_fraction}")
        lams, stats = _run_replicas(dist, N, reps, seed, eta, None, threads)
        params = {"top_fraction": top_fraction}
        k = max(1, int(round(top_fraction * reps)))
        order = np.argsort(lams)[::-1][:k]
        sel = np.zeros(reps, dtype=bool)
        sel[order] = True
        arr = np.array(stats)
        extra = {
            "conditioning": "selection-conditioned (top empirical quantile, not the conditional law)",
            "top_fraction": top_fraction,
            "selected": int(k),
            "conditional_mean_mass_eta": float(arr[sel, 0].mean()),
            "conditional_mean_linf": float(arr[sel, 1].mean()),
            "conditional_mean_support": float(arr[sel, 2].mean()),
            "unconditional_mean_mass_eta": float(arr[:, 0].mean()),
            "unconditional_mean_linf": float(arr[:, 1].mean()),
            "unconditional_mean_support": float(arr[:, 2].mean()),
        }
    elif kind == "tail":
        x = float(config["x"])
        lams, stats = _run_replicas(dist, N, reps, seed, eta, None, threads)
        params = {"x": x}
        hits = int((lams >= x).sum())
        extra = {"x": x, "hits": hits}
        if hits < 5:
            extra["status"] = "insufficient reps"
            extra["diagnostic"] = (
                f"only {hits} of {reps} replicas reached x={x}; the frequency "
                "estimate would be noise, increase reps or lower x"
            )
        else:
            p = hits / reps
            extra["status"] = "ok"
            extra["log_frequency"] = math.log(p)
            z = 1.959963984540054  # 95% Wilson interval
            denom = 1.0 + z * z / reps
            center = (p + z * z / (2 * reps)) / denom
            half = z * math.sqrt(p * (1 - p) / reps + z * z / (4 * reps * reps)) / denom
            extra["wilson_interval"] = [center - half, center + half]
    else:
        raise ValueError(f"unknown experiment kind '{kind}'")

    return MCReport(
        **base, params=params,
        lambda1=tuple(lams), mean=float(lams.mean()),
        stderr=float(lams.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        vec_stats=stats, extra=extra,
    )
