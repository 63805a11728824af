import importlib.machinery
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import chi2

from wignerld import montecarlo as mc
from wignerld.selfcheck import check
from wignerld.entries import (DiscreteAtoms, Gaussian, SparseGaussian, bernoulli_std,
                              rademacher, sparse_rademacher)

GAUSS = Gaussian()
SG = SparseGaussian(0.5)


# --- sampling -------------------------------------------------------------------


def test_sample_symmetric_and_scaled():
    s = mc.sample_wigner(GAUSS, 120, rng=mc.replica_rng(1, 0))
    assert np.array_equal(s.matrix, s.matrix.T)
    assert s.N == 120


def test_offdiagonal_variance_interval():
    N = 200
    s = mc.sample_wigner(GAUSS, N, rng=mc.replica_rng(2, 0))
    iu, ju = np.triu_indices(N, k=1)
    vals = s.matrix[iu, ju]
    m = vals.size
    stat = vals.var() * m * N  # ~ chi2(m) for Gaussian entries of variance 1/N
    lo, hi = chi2.ppf([0.00135, 0.99865], df=m)
    assert lo < stat < hi


def test_diagonal_variance_doubled():
    N = 150
    reps = 80
    diag = np.concatenate([
        np.diag(mc.sample_wigner(GAUSS, N, rng=mc.replica_rng(3, i)).matrix)
        for i in range(reps)
    ])
    assert diag.var() * N / 2.0 == pytest.approx(1.0, abs=0.1)


def test_tilted_mean_matrix_spike():
    N, theta, reps = 200, 1.0, 100
    u = np.full(N, 1.0 / math.sqrt(N))
    acc = np.zeros((N, N))
    for i in range(reps):
        acc += mc.sample_wigner(GAUSS, N, tilt=(theta, u), rng=mc.replica_rng(4, i)).matrix
    top = np.linalg.eigvalsh(acc / reps)[-1]
    assert top == pytest.approx(2.0 * theta, abs=0.1)


def test_tilted_entry_means():
    N, theta = 120, 0.8
    rng_dir = np.random.default_rng(5)
    u = rng_dir.normal(size=N)
    u /= np.linalg.norm(u)
    reps = 60
    acc = np.zeros((N, N))
    for i in range(reps):
        acc += mc.sample_wigner(SG, N, tilt=(theta, u), rng=mc.replica_rng(6, i)).matrix
    acc /= reps
    iu, ju = np.triu_indices(N)
    diag = iu == ju
    tparams = np.where(diag, math.sqrt(2.0), 2.0) * theta * math.sqrt(N) * u[iu] * u[ju]
    scale = np.where(diag, math.sqrt(2.0 / N), math.sqrt(1.0 / N))
    target = scale * SG.log_laplace(tparams, 1)
    resid = acc[iu, ju] - target
    pooled_se = math.sqrt(np.mean(scale**2 * SG.log_laplace(tparams, 2)) / reps)
    assert abs(resid.mean()) <= 4.0 * pooled_se / math.sqrt(resid.size) * math.sqrt(resid.size)
    # entrywise: worst deviation within 6 per-entry standard errors
    per_se = scale * np.sqrt(np.maximum(SG.log_laplace(tparams, 2), 1e-12) / reps)
    assert np.max(np.abs(resid) / per_se) < 6.0


def test_non_unit_direction_rejected():
    with pytest.raises(ValueError, match="unit"):
        mc.sample_wigner(GAUSS, 50, tilt=(1.0, np.ones(50)), rng=mc.replica_rng(7, 0))


@pytest.mark.parametrize("n_u", [51, 49])
def test_direction_of_wrong_length_rejected(n_u):
    # a unit vector one entry too long passes the norm check
    u = np.full(n_u, 1.0 / math.sqrt(n_u))
    with pytest.raises(ValueError, match=rf"shape \({n_u},\); N=50"):
        mc.sample_wigner(GAUSS, 50, tilt=(1.0, u), rng=mc.replica_rng(7, 0))


# --- sampling plan: bit-identical to the per-replica construction -----------------


def _reference_entries(dist, n, tilt, rng):
    """Each law's draws as built one call at a time, with no precomputation."""
    if isinstance(dist, Gaussian):
        z = rng.standard_normal(n)
        return z if tilt is None else z + np.broadcast_to(tilt, (n,))
    if isinstance(dist, SparseGaussian):
        p = dist.p
        if tilt is None:
            mask = rng.random(n) < p
            return np.where(mask, rng.standard_normal(n) / math.sqrt(p), 0.0)
        _, log_b, log_s = dist._log_components(tilt)
        mask = rng.random(n) < np.exp(log_b - log_s)
        return np.where(mask, tilt / p + rng.standard_normal(n) / math.sqrt(p), 0.0)
    assert isinstance(dist, DiscreteAtoms)
    if tilt is None:
        return rng.choice(dist.locations, size=n, p=dist.masses)
    logs = dist._log_masses + tilt[:, None] * dist.locations
    logs -= logsumexp(logs, axis=1, keepdims=True)
    cum = np.cumsum(np.exp(logs), axis=1)
    idx = (rng.random(n)[:, None] > cum).sum(axis=1)
    return dist.locations[np.minimum(idx, dist.locations.size - 1)]


def _reference_matrix(dist, N, tilt, rng):
    """zeros, scatter the upper triangle, add the transpose, halve the diagonal."""
    iu, ju = np.triu_indices(N)
    diag = iu == ju
    tparams = None
    if tilt is not None:
        theta, u = tilt
        tparams = np.where(diag, math.sqrt(2.0), 2.0) * theta * math.sqrt(N) * u[iu] * u[ju]
    x = _reference_entries(dist, iu.size, tparams, rng)
    scale = np.where(diag, math.sqrt(2.0 / N), math.sqrt(1.0 / N))
    H = np.zeros((N, N))
    H[iu, ju] = x * scale
    H = H + H.T
    H[np.arange(N), np.arange(N)] /= 2.0
    return H


PLAN_LAWS = [GAUSS, SG, SparseGaussian(0.2), sparse_rademacher(0.2), bernoulli_std(0.3)]


@settings(max_examples=60, deadline=None)
@given(
    law=st.sampled_from(PLAN_LAWS),
    N=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    theta=st.none() | st.floats(-3.0, 3.0),
)
def test_sample_matches_reference_construction(law, N, seed, theta):
    tilt = None
    if theta is not None:
        u = np.random.default_rng(seed).normal(size=N)
        tilt = (theta, u / np.linalg.norm(u))
    s = mc.sample_wigner(law, N, tilt=tilt, rng=mc.replica_rng(seed, N))
    ref = _reference_matrix(law, N, tilt, mc.replica_rng(seed, N))
    assert s.matrix.tobytes() == ref.tobytes()  # bit for bit, signed zeros included


@pytest.mark.parametrize("N", [2, 3, 100, 257])
@pytest.mark.parametrize("tilted", [False, True])
def test_masked_write_matches_triu_scatter(N, tilted):
    tilt = (0.8, np.full(N, 1.0 / math.sqrt(N))) if tilted else None
    plan = mc._WignerPlan(SG, N, tilt)
    H = plan.draw(mc.replica_rng(5, N)).matrix
    a = plan._entries(mc.replica_rng(5, N))
    a *= plan._scale
    iu, ju = np.triu_indices(N)
    ref = np.empty((N, N))
    ref[iu, ju] = a
    ref[ju, iu] = a
    assert H.flags.c_contiguous
    assert H.tobytes() == ref.tobytes()


# --- eigensolver -----------------------------------------------------------------


def test_lambda1_diagonal_case():
    H = np.eye(40)
    H[0, 0] = 3.0
    lam, v = mc.lambda1_and_vector(H)
    assert lam == pytest.approx(3.0, abs=1e-12)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)


def test_lambda1_matches_dense_oracle():
    s = mc.sample_wigner(GAUSS, 50, rng=mc.replica_rng(8, 0))
    lam, v = mc.lambda1_and_vector(s)
    full = np.linalg.eigvalsh(s.matrix)
    assert lam == pytest.approx(full[-1], abs=1e-9)
    resid = np.linalg.norm(s.matrix @ v - lam * v)
    assert resid < 1e-8 * max(1.0, abs(lam))


def test_lambda1_rank_one_spike():
    check("spike_mean", seed=9, N=400, reps=20)


def test_lanczos_path_above_dense_limit():
    s = mc.sample_wigner(GAUSS, 2100, rng=mc.replica_rng(10, 0))
    lam, v = mc.lambda1_and_vector(s)
    resid = np.linalg.norm(s.matrix @ v - lam * v)
    assert resid < 1e-8 * max(1.0, abs(lam))
    assert 1.8 < lam < 2.3


def test_lanczos_branch_matches_dense_eigh(monkeypatch):
    monkeypatch.setattr(mc, "_DENSE_LIMIT", 50)
    s = mc.sample_wigner(SG, 120, rng=mc.replica_rng(21, 0))
    lam, v = mc.lambda1_and_vector(s)
    vals, vecs = scipy.linalg.eigh(s.matrix)
    u = vecs[:, -1] * np.sign(vecs[np.argmax(np.abs(vecs[:, -1])), -1])  # the sign rule
    assert lam == pytest.approx(vals[-1], abs=1e-10)
    np.testing.assert_allclose(v, u, rtol=0, atol=1e-10)
    assert v[np.argmax(np.abs(v))] > 0
    assert np.linalg.norm(s.matrix @ v - lam * v) < mc._RESIDUAL_TOL * max(1.0, abs(lam))


def test_lanczos_failure_names_n(monkeypatch):
    monkeypatch.setattr(mc, "_DENSE_LIMIT", 50)
    monkeypatch.setattr(mc, "_LANCZOS_STEPS", 2)  # far too few steps to converge
    s = mc.sample_wigner(SG, 120, rng=mc.replica_rng(21, 0))
    with pytest.raises(mc.EigensolverError, match="N=120"):
        mc.lambda1_and_vector(s)


@pytest.mark.parametrize("routine, N, at", [("dsyevr_lwork", 40, ""), ("dsyevr", 40, ""),
                                            ("dstebz", 120, ", Lanczos step 8"),
                                            ("dstein", 120, ", Lanczos step 8")])
def test_lapack_failure_names_routine_and_n(monkeypatch, routine, N, at):
    monkeypatch.setattr(mc, "_DENSE_LIMIT", 50)
    real = getattr(mc, "_" + routine)
    monkeypatch.setattr(mc, "_" + routine, lambda *a, **kw: (*real(*a, **kw)[:-1], 1))
    s = mc.sample_wigner(SG, N, rng=mc.replica_rng(21, 0))
    with pytest.raises(mc.EigensolverError, match=f"LAPACK {routine} failed for N={N}{at}: info=1"):
        mc.lambda1_and_vector(s)


@pytest.mark.parametrize("stem", ["_flapack", "_fblas"])
def test_missing_lapack_module_names_its_folder(monkeypatch, stem):
    monkeypatch.delitem(sys.modules, "scipy.linalg." + stem)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=rf"no compiled module {stem} in .*scipy.linalg"):
        mc._load_linalg(stem)


@pytest.mark.parametrize("N", [257, 400])
@pytest.mark.parametrize("law, theta", [(SG, None), (SG, 0.3), (SG, 0.6), (SG, 1.0),
                                        (bernoulli_std(0.3), None)],
                         ids=["sg", "sg-0.3", "sg-0.6", "sg-1.0", "bernoulli"])
def test_lanczos_matches_dense_eigh(N, law, theta):
    assert N > mc._DENSE_LIMIT  # the Lanczos path
    tilt = None if theta is None else (theta, np.full(N, 1.0 / math.sqrt(N)))
    plan = mc._WignerPlan(law, N, tilt)
    for i in range(20):
        H = plan.draw(mc.replica_rng(31, i)).matrix
        lam, v = mc.lambda1_and_vector(H)
        vals, vecs = scipy.linalg.eigh(H, subset_by_index=(N - 1, N - 1))
        u = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])  # the sign rule
        assert abs(lam - vals[0]) <= 1e-10
        np.testing.assert_allclose(v, u, rtol=0, atol=1e-9)
        assert v[np.argmax(np.abs(v))] > 0


def test_lanczos_breakdown_returns_exact_pair():
    # the Krylov space of e_1 and the rest is invariant after two steps
    H = np.eye(300)
    H[0, 0] = 3.0
    lam, v = mc._lanczos_top(H)
    assert not np.isnan(v).any()
    assert lam == pytest.approx(3.0, abs=1e-10)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-10)
    lam, v = mc.lambda1_and_vector(H)
    assert lam == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(v, np.eye(300)[0], rtol=0, atol=1e-10)


def test_lanczos_reads_the_lower_triangle():
    # the triangle the dense dsyevr(lower=1) reads; the upper one is never read
    H = mc.sample_wigner(SG, 300, rng=mc.replica_rng(4, 0)).matrix
    garbled = H.copy()
    garbled[np.triu_indices(300, 1)] = 7.0
    lam, v = mc._lanczos_top(H)
    lam_g, v_g = mc._lanczos_top(garbled)
    assert lam == lam_g and v.tobytes() == v_g.tobytes()


def test_next_test_follows_the_log_linear_fit():
    assert mc._next_test(8, 1e-4, 1e-12, None) == 8  # no fit after the first test
    assert mc._next_test(16, 1e-8, 1e-12, (8, 2e-4)) == 8  # 7.4 steps ahead
    assert mc._next_test(16, 1e-8, 1e-12, (8, 1e-6)) == 16  # not falling
    assert mc._next_test(16, 1e-8, 1e-12, (15, 2e-7)) == 4  # 3.1 steps ahead
    assert mc._next_test(16, 1e-8, 1e-12, (8, 1e-5)) == 11  # 10.7 steps ahead
    assert mc._next_test(16, 2e-12, 1e-12, (8, 1e-4)) == 2  # clamped below
    assert mc._next_test(16, 1e-5, 1e-12, (8, 1e-4)) == 16  # clamped above


@pytest.mark.parametrize("theta, max_tests, max_mean_steps", [(1.0, 6, 46.0), (0.3, 9, 94.0)])
def test_lanczos_steps_and_ritz_tests_bounded(monkeypatch, theta, max_tests, max_mean_steps):
    # a test every 8 steps took 5-7 tests and 47.3 steps a replica here at
    # theta = 1, and 9-14 tests and 95.0 steps at theta = 0.3
    tests, steps = [], []
    dsymv, dstebz = mc._dsymv, mc._dstebz

    def count_step(*a, **kw):
        steps[-1] += 1
        return dsymv(*a, **kw)

    def count_test(*a, **kw):
        tests[-1] += 1
        return dstebz(*a, **kw)

    monkeypatch.setattr(mc, "_dsymv", count_step)
    monkeypatch.setattr(mc, "_dstebz", count_test)
    N = 400
    plan = mc._WignerPlan(SG, N, (theta, np.full(N, 1.0 / math.sqrt(N))))
    for i in range(24):
        tests.append(0)
        steps.append(0)
        mc.lambda1_and_vector(plan.draw(mc.replica_rng(17, i)))
    assert max(tests) <= max_tests
    assert np.mean(steps) <= max_mean_steps


def test_lanczos_agrees_with_lapack_invariant():
    check("lanczos_vs_lapack", seed=32, N=300, reps=6)


def test_lambda1_rejects_nonfinite():
    H = np.zeros((4, 4))
    H[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mc.lambda1_and_vector(H)


# --- localization statistics --------------------------------------------------------


def test_localization_uniform_vector():
    check("uniform_vector", N=400, eta=0.1)


def test_localization_basis_vector():
    v = np.zeros(100)
    v[3] = 1.0
    assert mc.eigvec_localization(v, 0.1) == (1.0, 1.0, 1)


def test_localization_mixed_vector():
    N = 400
    v = np.full(N, math.sqrt(0.5 / (N - 1)))
    v[0] = math.sqrt(0.5)
    v /= np.linalg.norm(v)
    mass, linf, support = mc.eigvec_localization(v, 0.1)
    assert mass == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert support == 1


def test_localization_support_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        N = int(rng.integers(50, 800))
        eta = float(rng.uniform(0.02, 0.24))
        v = rng.normal(size=N)
        v /= np.linalg.norm(v)
        _, _, support = mc.eigvec_localization(v, eta)
        assert support <= math.ceil(N ** (1 - 2 * eta))


def test_localization_eta_domain():
    with pytest.raises(ValueError):
        mc.eigvec_localization(np.ones(4) / 2.0, 0.3)


# --- experiments ----------------------------------------------------------------------


def test_goe_mean_window():
    check("goe_mean", seed=12, N=300, reps=50)


def test_bbp_experiment_supercritical():
    check("bbp_supercritical", seed=21, N=400, reps=20)


def test_bbp_experiment_subcritical():
    assert check("bbp_subcritical", seed=22, N=400, reps=20)["regime"] == "subcritical"


def test_localization_experiment_selection_conditioning():
    # the desk-scale signal is weak (top-quantile selection among typical
    # fluctuations, not the conditional law), so the seed is pinned
    rep = mc.experiment(
        {"kind": "localization", "dist": SG, "N": 300, "reps": 2000, "seed": 3,
         "eta": 0.1, "top_fraction": 0.01},
        threads=2,
    )
    assert "selection-conditioned" in rep.extra["conditioning"]
    assert rep.extra["selected"] == 20
    assert rep.extra["conditional_mean_linf"] > rep.extra["unconditional_mean_linf"]


@pytest.mark.parametrize("top_fraction", [2.0, 0.0, -1.0])
def test_localization_experiment_refuses_top_fraction_outside_unit_interval(top_fraction):
    with pytest.raises(ValueError, match=r"top_fraction must lie in \(0, 1\]"):
        mc.experiment({"kind": "localization", "dist": GAUSS, "N": 50, "reps": 4,
                       "top_fraction": top_fraction})


def test_tail_experiment_insufficient_reps():
    rep = mc.experiment({"kind": "tail", "dist": GAUSS, "N": 150, "reps": 40, "x": 3.5, "seed": 24})
    assert rep.extra["status"] == "insufficient reps"
    assert "increase reps" in rep.extra["diagnostic"]


def test_tail_experiment_reachable():
    rep = mc.experiment({"kind": "tail", "dist": GAUSS, "N": 100, "reps": 60, "x": 1.9, "seed": 25})
    assert rep.extra["status"] == "ok"
    lo, hi = rep.extra["wilson_interval"]
    assert 0.0 <= lo <= math.exp(rep.extra["log_frequency"]) <= hi <= 1.0


def test_deterministic_replay_bit_identical():
    check("replay", seed=77, N=150, reps=12, threads=4)


def test_report_schema():
    rep = mc.experiment({"kind": "bbp", "dist": GAUSS, "N": 100, "reps": 3, "theta": 1.0, "seed": 1})
    doc = rep.to_json_dict()
    assert doc["version"] == 1
    assert doc["dist"] == {"kind": "gaussian"}
    assert len(doc["lambda1_samples"]) == 3
    csv = rep.samples_csv()
    assert csv.splitlines()[0] == "replica,lambda1,mass_eta,linf,support_eta"
    assert len(csv.splitlines()) == 4


# reprs of lambda1_samples recorded with the per-replica construction the plan replaced
PINNED_RUNS = [
    ({"kind": "bbp", "dist": SG, "N": 24, "reps": 4, "seed": 11, "theta": 1.0},
     ["2.343180047705744", "3.204361901612241", "2.6953075819710217", "2.721634707403202"]),
    ({"kind": "bbp", "dist": bernoulli_std(0.3), "N": 16, "reps": 3, "seed": 12, "theta": 0.8},
     ["1.996299093176857", "2.658296688989361", "2.3205171728586067"]),
    ({"kind": "localization", "dist": sparse_rademacher(0.2), "N": 20, "reps": 5, "seed": 13,
      "top_fraction": 0.4},
     ["1.858029977697078", "1.6913866150160854", "1.8182613669526673", "1.9198837366598835",
      "1.5313537231925445"]),
    ({"kind": "tail", "dist": GAUSS, "N": 12, "reps": 6, "seed": 14, "x": 1.5},
     ["1.8052795166053779", "1.949571074863441", "1.6290785791070894", "1.7614865679656553",
      "1.1559754726024007", "1.8050863695503396"]),
]


@pytest.mark.parametrize("threads", [None, 2])
@pytest.mark.parametrize("config, expected", PINNED_RUNS,
                         ids=[f"{c['kind']}-{c['dist'].spec_dict()['kind']}" for c, _ in PINNED_RUNS])
def test_experiment_samples_pinned(config, expected, threads):
    rep = mc.experiment(config, threads=threads)
    assert [repr(float(lam)) for lam in rep.lambda1] == expected


def test_tilt_prepared_once_per_experiment(monkeypatch):
    law = SparseGaussian(0.5)
    calls = {"sampler": 0, "log_components": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(law, "sampler", counted("sampler", law.sampler))
    monkeypatch.setattr(law, "_log_components", counted("log_components", law._log_components))
    mc.experiment({"kind": "bbp", "dist": law, "N": 30, "reps": 6, "theta": 1.0, "seed": 3},
                  threads=2)
    assert calls == {"sampler": 1, "log_components": 1}
