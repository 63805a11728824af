"""The benchmark's workloads: seeded inputs, timed calls and correctness gate.

Every workload uses the half-sparse Gaussian entry law of the fig-1 curve.
A workload object is built from the run's seed, which picks all of its
inputs; the library only ever sees the generated inputs.  One repetition
calls ``law`` and ``prime`` (the set-up a CLI run pays), then ``run`` (the
timed calls, one op at a time, each waiting for the last), then ``check``
(the correctness gate, outside the timed region).

``check`` returns one failure flag per op plus notes naming what failed.
A check on a whole curve or experiment that fails marks all of its ops.
Tolerances are those of ``tests/test_acceptance.py`` and
``tests/test_rate.py``; none is loosened.
"""

from __future__ import annotations

import math
import traceback
from time import perf_counter

import numpy as np

from tracing import Patches
from wignerld import entries, free_energy, gibbs, montecarlo, rate, semicircle

LAW_P = 0.5
FIG1_STEP = 0.02  # grid step of configs/fig1_sparse_gaussian.json


def _grid_offset(seed: int) -> float:
    """Sub-step shift of the fig-1 grid, so each seed sees new x values."""
    return float(np.random.default_rng(seed).uniform(0.0, FIG1_STEP))


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws in [lo, hi), one per equal-width stratum, in random order.

    Keeps the work of a repetition steady from seed to seed while every
    seed still gets fresh parameters.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _guarded(fn, *args, **kwargs):
    """(result, None), or (None, traceback text) if the call raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        return None, traceback.format_exc(limit=3)


class Ops:
    """Latency of every op in one repetition, in the order they ran."""

    def __init__(self):
        self.latencies = []

    def call(self, fn, *args, **kwargs):
        """Time one op; return (result, error text or None)."""
        t0 = perf_counter()
        out = _guarded(fn, *args, **kwargs)
        self.latencies.append(perf_counter() - t0)
        return out

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(perf_counter() - t0)

        return timed

    def timing(self, module, attr) -> Patches:
        """Time each call the library makes to ``module.attr`` as one op."""
        return Patches().wrap(module, attr, self._timed)

    def replicas(self) -> Patches:
        """Time each Monte Carlo replica, from its RNG set-up to its statistics."""
        start = [0.0]

        def starts(fn):
            def replica_rng(*args, **kwargs):
                start[0] = perf_counter()
                return fn(*args, **kwargs)

            return replica_rng

        def ends(fn):
            def eigvec_localization(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.latencies.append(perf_counter() - start[0])

            return eigvec_localization

        return (Patches().wrap(montecarlo, "replica_rng", starts)
                .wrap(montecarlo, "eigvec_localization", ends))


class _Workload:
    # gate values a repetition may hand to the next ones of its run (see VectorPoint)
    reference = None

    def law(self):
        self.dist = entries.SparseGaussian(LAW_P)

    def prime(self):
        pass


class HatCurve(_Workload):
    """``rate_curve`` in hat mode on a short fig-1 grid that straddles x_mu.

    One point at or below 2.40 (GOE regime), two across the transition near
    2.515 so the first localized point has alpha* in [0.24, 0.32] whatever
    the offset, and one at or above 2.70 (localized regime).
    """

    BASE = (2.38, 2.50, 2.54, 2.78)

    def __init__(self, seed: int):
        d = _grid_offset(seed)
        self.grid = [round(x + d, 12) for x in self.BASE]
        self.n_ops = len(self.grid)
        self.curve = None
        self.error = None

    def prime(self):
        # builds the law's Phi1 spline table, as the first hat call of a CLI run does
        rate.joint_rate(self.dist, 2.0, rate.HatSpec(0.0))

    def run(self, ops):
        with ops.timing(rate, "rate_point"):
            self.curve, self.error = _guarded(
                rate.rate_curve, self.dist, self.grid, rate.HatMode(), cap=0.95, tol=1e-3
            )

    def check(self):
        if self.curve is None:
            return [True] * self.n_ops, [f"rate_curve raised: {self.error}"]
        fails, notes = [False] * self.n_ops, []
        for i, p in enumerate(self.curve.points):
            bad = []
            if not p.rate >= -1e-9:
                bad.append("rate < 0")
            if not p.rate <= p.goe_rate + 1e-6:
                bad.append("rate > GOE")
            if p.x <= 2.40 + 1e-12 and not abs(p.rate - p.goe_rate) < 1e-3:
                bad.append("|rate - GOE| >= 1e-3 at x <= 2.40")
            if p.x >= 2.70 - 1e-12 and not p.rate < p.goe_rate - 1e-3:
                bad.append("rate >= GOE - 1e-3 at x >= 2.70")
            if bad:
                fails[i] = True
                notes.append(f"x={p.x}: " + ", ".join(bad))
        curve_bad = []
        rates = self.curve.rates
        if not np.all(np.diff(rates) >= -1e-6):
            curve_bad.append("rate not nondecreasing")
        x_mu = self.curve.x_mu
        if x_mu is None or not 2.42 <= x_mu <= 2.62:
            curve_bad.append(f"x_mu={x_mu} outside [2.42, 2.62]")
        first = next((p for p in self.curve.points if p.goe_rate - p.rate > 1e-3), None)
        if first is None or not 0.24 <= first.minimizer.alpha <= 0.32:
            curve_bad.append("first alpha* outside [0.24, 0.32]")
        if x_mu is not None:
            alphas = [p.minimizer.alpha for p in self.curve.points if p.x >= x_mu]
            if not all(b >= a - 1e-3 for a, b in zip(alphas, alphas[1:])):
                curve_bad.append("alpha* decreases past x_mu")
        if curve_bad:
            return [True] * self.n_ops, notes + curve_bad
        return fails, notes


class VectorPoint(_Workload):
    """One finite-N and one two-scale rate point above x_mu.

    N = 10^6 and the default width R = N^0.2; x is 3.0 shifted by the
    seed's sub-step offset.  The families are coarser than those of
    ``tests/test_rate.py`` so that several repetitions fit one run: the
    finite-N family keeps k in {1, 4} on a c^2 grid of 3 points (the test
    has 11), the two-scale family keeps k = 1 on 3 points and 2 alpha_tilde
    values (the test has 9 and 7).  The grid's middle point c^2 = cap^2 / 2
    lies next to this law's optimum near x = 3, so the gate keeps the
    test's bounds.
    """

    FINITE_N = rate.FiniteNMode(N=10**6, family=rate.ProfileFamily(k_values=(1, 4), n_mass=3))
    TILDE = rate.TildeMode(N=10**6, family=rate.ProfileFamily(k_values=(1,), n_mass=3), n_alpha=2)
    n_ops = 2

    def __init__(self, seed: int):
        self.x = 3.0 + _grid_offset(seed)
        self.results = []

    def run(self, ops):
        self.results = [ops.call(rate.rate_point, self.dist, self.x, mode)
                        for mode in (self.FINITE_N, self.TILDE)]

    def check(self):
        # The hat rate costs a Phi1 table build and a hat point, about half
        # a repetition; the first repetition of a run computes it and the
        # others of the same run (same x, same code) reuse it.
        if not self.reference or self.reference.get("x") != self.x:
            t0 = perf_counter()
            hat = rate.rate_point(self.dist, self.x, rate.HatMode()).rate
            self.reference = {"x": self.x, "hat_rate": hat, "built_s": perf_counter() - t0}
        hat = self.reference["hat_rate"]
        goe = semicircle.goe_rate(self.x)
        (fin, fin_err), (til, til_err) = self.results
        fails, notes = [False, False], []
        if fin is None:
            fails[0] = True
            notes.append(f"finite-N point raised: {fin_err}")
        elif not (fin.rate >= hat - 1e-7 and abs(fin.rate - hat) <= 5e-3
                  and len(fin.minimizer.z) == 1 and fin.rate <= goe + 1e-6):
            fails[0] = True
            notes.append(f"finite-N rate {fin.rate} vs hat {hat} (support "
                         f"{len(fin.minimizer.z)}), GOE {goe}")
        if til is None:
            fails[1] = True
            notes.append(f"two-scale point raised: {til_err}")
        elif not (til.rate <= goe + 1e-6 and til.minimizer.mass <= 0.95):
            fails[1] = True
            notes.append(f"two-scale rate {til.rate} vs GOE {goe}, mass {til.minimizer.mass}")
        return fails, notes


class DirectFreeEnergy(_Workload):
    """A shuffled stream of single evaluations, as the CLI's gibbs-solve and
    free-energy commands run them: Brent + adaptive-Simpson Gibbs solves on
    the criterion-4 ranges, f_restricted and f_tilde on the criterion-5
    ranges, and f_hat (the phi_unbounded R-doubling) on the ranges of the
    spline-vs-direct test.
    """

    PER_KIND = 24

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.PER_KIND
        items = []
        for R, alpha in zip(_stratified(rng, n, 4.0, 9.0), _stratified(rng, n, 0.3, 1.4)):
            v = rng.uniform(-0.8, 0.8, size=rng.integers(1, 3))
            items.append(("gibbs", (v, float(R), float(alpha))))
        # half zero-profile bound checks over criterion 5's (theta, R) pairs,
        # half random two-coordinate profiles compared against R = 12
        pairs = [(t, R) for t in (0.5, 1.0, 2.0) for R in (6.0, 8.0, 12.0)]
        for _ in range(n // 2):
            items.append(("restricted_zero", pairs[rng.integers(len(pairs))]))
        for theta in _stratified(rng, n - n // 2, 0.3, 2.0):
            items.append(("restricted", (float(theta), rng.uniform(-0.5, 0.5, size=2))))
        for th, c, t in zip(_stratified(rng, n, 0.1, 2.0), _stratified(rng, n, 0.0, 0.6),
                            _stratified(rng, n, -30.0, 30.0)):
            at = rng.uniform(0.0, max(1e-6, 1.0 - c * c - 0.05))
            items.append(("tilde", (float(th), float(c), float(at), float(t))))
        for th, a in zip(_stratified(rng, n, 0.2, 3.0), _stratified(rng, n, 0.0, 0.9)):
            items.append(("hat", (float(th), float(a))))
        self.items = [items[i] for i in rng.permutation(len(items))]
        self.n_ops = len(self.items)
        self.results = []

    def _op(self, kind, args):
        d = self.dist
        if kind == "gibbs":
            v, R, alpha = args
            return gibbs.gibbs_solve(gibbs.GibbsProblem(v, d, R, alpha))
        if kind == "restricted_zero":
            theta, R = args
            return free_energy.f_restricted(d, theta, np.zeros(2), 1000, R)
        if kind == "restricted":
            theta, w = args
            return free_energy.f_restricted(d, theta, w, 1000, 6.0)
        if kind == "tilde":
            th, c, at, t = args
            return free_energy.f_tilde(d, th, [c], at, 8.0, t=t)
        th, a = args
        return free_energy.f_hat(d, th, a)

    def run(self, ops):
        self.results = [ops.call(self._op, kind, args) for kind, args in self.items]

    def _violation(self, kind, args, value):
        d = self.dist
        if kind == "gibbs":
            r = value.root_residual()
            return None if r < 1e-9 else f"root residual {r:.2e}"
        if kind == "restricted_zero":
            theta, R = args
            lo = theta**2 - 10.0 * math.exp(-R * R / 8.0)
            return None if lo <= value <= theta**2 else f"{value} outside [{lo}, {theta**2}]"
        if kind == "restricted":
            theta, w = args
            wide = free_energy.f_restricted(d, theta, w, 1000, 12.0)
            return None if value <= wide + 1e-12 else f"R=6 value {value} > R=12 value {wide}"
        if kind == "tilde":
            th, c, at, _ = args
            sup = free_energy.f_tilde(d, th, [c], at, 8.0)
            return None if value <= sup + 1e-9 else f"scale-t value {value} > sup-psi {sup}"
        th, a = args
        spline = float(rate._hat_evaluator(d).f_hat(th, a))
        return None if abs(value - spline) <= 1e-7 else f"direct {value} vs spline {spline}"

    def check(self):
        fails, notes = [], []
        for (kind, args), (value, err) in zip(self.items, self.results):
            bad = err if value is None else self._violation(kind, args, value)
            fails.append(bad is not None)
            if bad is not None:
                notes.append(f"{kind} {args}: {bad}")
        return fails, notes


class _MonteCarlo(_Workload):
    """Shared gate: mean lambda1 inside its window for every experiment, and
    the eigenpair residual guarantee re-checked with an independent dense
    solver on evenly spaced replicas."""

    RECHECK = 6

    def __init__(self, seed: int):
        self.key = int(np.random.default_rng(seed).integers(2**31))
        self.reports = []

    def _experiment(self, ops, config):
        config = dict(config, dist=self.dist, seed=self.key)
        with ops.replicas():
            report, err = _guarded(montecarlo.experiment, config)
        self.reports.append((config, report, err))

    def check(self):
        fails, notes = [], []
        for (config, report, err), (lo, hi) in zip(self.reports, self.WINDOWS):
            reps = config["reps"]
            if report is None:
                fails += [True] * reps
                notes.append(f"experiment raised: {err}")
                continue
            if not lo <= report.mean <= hi:
                fails += [True] * reps
                notes.append(f"{config['kind']} mean lambda1 {report.mean} outside [{lo}, {hi}]")
                continue
            sub = [False] * reps
            N = config["N"]
            tilt = None
            if config["kind"] == "bbp":
                tilt = (config["theta"], np.full(N, 1.0 / math.sqrt(N)))
            for i in np.linspace(0, reps - 1, self.RECHECK).astype(int):
                H = montecarlo.sample_wigner(self.dist, N, tilt=tilt,
                                             rng=montecarlo.replica_rng(self.key, int(i))).matrix
                lam = report.lambda1[i]
                v = np.linalg.eigh(H)[1][:, -1]
                resid = float(np.linalg.norm(H @ v - lam * v))
                if resid > 1e-8 * max(1.0, abs(lam)):
                    sub[i] = True
                    notes.append(f"replica {i}: residual {resid:.2e} of reported lambda1 {lam}")
            fails += sub
        return fails, notes


class McLocalization(_MonteCarlo):
    """Plain sparse-Gaussian localization run: many short N = 100 replicas."""

    CONFIG = {"kind": "localization", "N": 100, "reps": 2000, "top_fraction": 0.01}
    WINDOWS = ((1.85, 2.02),)  # criterion 6's untilted mean-lambda1 window
    n_ops = CONFIG["reps"]

    def run(self, ops):
        self._experiment(ops, self.CONFIG)


class McBbp(_MonteCarlo):
    """Tilted sparse-Gaussian BBP runs at N = 400, above and below theta = 1/2."""

    CONFIGS = ({"kind": "bbp", "N": 400, "reps": 80, "theta": 1.0},
               {"kind": "bbp", "N": 400, "reps": 80, "theta": 0.3})
    WINDOWS = ((2.4, 2.6), (1.9, 2.1))  # criterion 6's windows at theta = 1 and 0.3
    n_ops = sum(c["reps"] for c in CONFIGS)

    def run(self, ops):
        for config in self.CONFIGS:
            self._experiment(ops, config)


WORKLOADS = {
    "hat_curve": HatCurve,
    "vector_point": VectorPoint,
    "direct_free_energy": DirectFreeEnergy,
    "mc_localization": McLocalization,
    "mc_bbp": McBbp,
}
