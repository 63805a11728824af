import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wignerld import selfcheck
from wignerld.cli import ConfigError, main, parse_config, run
from wignerld.entries import SparseGaussian


HEAVY_SCIPY = ["scipy.special", "scipy.interpolate", "scipy.sparse", "scipy.integrate",
               "scipy.optimize", "scipy.stats", "scipy.spatial", "scipy.fft"]


def _heavy_scipy_after(code):
    """The heavy scipy subpackages loaded after ``code`` runs in a fresh interpreter."""
    return _fresh_stdout(code + f"; import sys; print([m for m in {HEAVY_SCIPY!r} "
                                "if m in sys.modules])")


def _scipy_after(code):
    """Every scipy module, ``scipy.linalg`` included, loaded after ``code``
    runs in a fresh interpreter."""
    return _fresh_stdout(code + "; import sys; print(sorted(m for m in sys.modules "
                                "if m.split('.')[0] == 'scipy'))")


def _fresh_stdout(code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_loads_only_scipy_linalg():
    # the other scipy subpackages load on the paths that use them
    assert _heavy_scipy_after("import wignerld, wignerld.cli") == "[]"


def test_hat_rate_curve_loads_only_scipy_linalg():
    # the Φ1 table's spline is numpy: a hat run needs no scipy.interpolate
    code = ("from wignerld import entries, rate; "
            "rate.rate_curve(entries.SparseGaussian(0.5), [2.4, 2.8], rate.HatMode())")
    assert _heavy_scipy_after(code) == "[]"


def test_rate_run_loads_no_scipy():
    # montecarlo, which imports scipy.linalg, loads only for the Monte Carlo names
    code = ("import wignerld, wignerld.cli; from wignerld import entries, rate; "
            "rate.rate_curve(entries.SparseGaussian(0.5), [2.4, 2.8], rate.HatMode())")
    assert _scipy_after(code) == "[]"
    assert "'scipy.linalg'" in _scipy_after("import wignerld; wignerld.experiment")


def test_mc_run_above_dense_cutoff_loads_no_scipy_sparse():
    # the eigensolver above N = 256 is numpy Lanczos, not ARPACK
    code = ("from wignerld import entries, montecarlo; montecarlo.experiment({'kind': 'bbp', "
            "'dist': entries.Gaussian(), 'N': 300, 'reps': 2, 'theta': 1.0})")
    loaded = _scipy_after(code)
    assert "'scipy.linalg'" in loaded
    assert "'scipy.sparse" not in loaded


def test_parse_rate_curve_defaults():
    spec = parse_config(json.dumps({
        "command": "rate-curve",
        "dist": {"kind": "sparse_gaussian", "p": 0.5},
        "x": [2, 3.5, 0.02],
        "mode": "hat",
    }))
    assert spec.command == "rate-curve"
    assert spec.payload["cap"] == 0.95
    assert spec.defaults_applied == {"cap": 0.95, "tol": 1e-3}
    assert isinstance(spec.payload["dist"], SparseGaussian)


def test_parse_unknown_dist_kind():
    with pytest.raises(ConfigError, match="unknown dist kind 'cauchy'"):
        parse_config(json.dumps({"command": "rate-curve", "dist": {"kind": "cauchy"}, "x": [2, 3, 0.5]}))


def test_parse_missing_field_names_it():
    with pytest.raises(ConfigError, match="missing required field 'x'"):
        parse_config(json.dumps({"command": "rate-curve", "dist": {"kind": "gaussian"}}))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key 'exotic'"):
        parse_config(json.dumps({
            "command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2, 3, 0.5], "exotic": 1,
        }))


def test_parse_rejects_bad_command_and_json():
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config('{"command": "plot"}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_parse_mc_defaults_echoed():
    spec = parse_config(json.dumps({
        "command": "mc", "kind": "bbp", "dist": {"kind": "gaussian"},
        "N": 100, "reps": 5, "theta": 1.0,
    }))
    assert spec.defaults_applied == {"seed": 0, "eta": 0.125}


def test_run_rate_curve_csv(tmp_path, capsys):
    cfg = {
        "command": "rate-curve",
        "dist": {"kind": "gaussian"},
        "x": [2.5, 2.7, 0.1],
        "mode": "hat",
    }
    out = tmp_path / "curve.csv"
    status = run(parse_config(json.dumps({**cfg, "out": str(out)})))
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,rate,goe_rate,theta_star,alpha_star"
    assert len(lines) == 4  # header + three grid points
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["defaults_applied"] == {"cap": 0.95, "tol": 1e-3}
    assert meta["x_mu"] is None
    # byte-identical rerun
    out2 = tmp_path / "curve2.csv"
    run(parse_config(json.dumps({**cfg, "out": str(out2)})))
    assert out.read_bytes() == out2.read_bytes()


def test_run_gibbs_solve(capsys):
    cfg = {
        "command": "gibbs-solve",
        "dist": {"kind": "sparse_gaussian", "p": 0.5},
        "v": [0.4], "R": 8, "alpha": 0.9,
    }
    assert run(parse_config(json.dumps(cfg))) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["second_moment"] == pytest.approx(0.9, abs=1e-8)
    assert doc["root_residual"] < selfcheck.INVARIANTS["gibbs_scaling"].bounds["residual"]
    assert 1 <= doc["moment_evaluations"] <= 8


def test_run_gibbs_solve_whole_line_large_alpha(capsys):
    # the whole-line value of a budget past 4 is one solve at R = 16 sqrt(alpha)
    cfg = {"command": "gibbs-solve", "dist": {"kind": "sparse_gaussian", "p": 0.5},
           "v": [0.3], "R": "inf", "alpha": 300}
    assert run(parse_config(json.dumps(cfg))) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["R"] == "inf" and math.isfinite(doc["value"])


def test_run_free_energy(capsys):
    cfg = {
        "command": "free-energy",
        "dist": {"kind": "gaussian"},
        "form": "hat", "theta": 1.0, "alpha": 0.5,
    }
    assert run(parse_config(json.dumps(cfg))) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["value"] == pytest.approx(1.0 + 0.5 * math.log(0.5), abs=1e-6)


def test_free_energy_hat_refuses_law_outside_its_domain(tmp_path, capsys):
    # the hat form applies hat mode's validity rule: Rademacher's psi decreases
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "free-energy", "dist": {"kind": "rademacher"},
                               "form": "hat", "theta": 1.0, "alpha": 0.3}))
    assert main(["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: hat mode needs psi symmetric and nondecreasing on t > 0; "
                            "for DiscreteAtoms[rademacher]() "
                            "psi decreases between t=0.00 and t=0.01\n")


def test_run_mc_bbp_prediction(tmp_path, capsys):
    cfg = {
        "command": "mc", "kind": "bbp", "dist": {"kind": "gaussian"},
        "N": 120, "reps": 5, "theta": 1.0, "seed": 3,
        "samples_csv": str(tmp_path / "samples.csv"),
    }
    assert run(parse_config(json.dumps(cfg))) == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["prediction"] == 2.5
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0].startswith("replica,lambda1")
    assert len(lines) == 6


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "rate-curve", "dist": {"kind": "cauchy"}, "x": [2, 3, 0.5]}))
    assert main(["--config", str(bad)]) == 2
    assert "unknown dist kind" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ('{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [NaN, 3, 0.1]}', "x"),
    ('{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2, 3, 0.1], "cap": NaN}',
     "cap"),
    ('{"command": "gibbs-solve", "dist": {"kind": "gaussian"}, "v": [0.1], "R": 6,'
     ' "alpha": Infinity}', "alpha"),
    ('{"command": "gibbs-solve", "dist": {"kind": "gaussian"}, "v": [0.1, NaN], "R": 6,'
     ' "alpha": 0.5}', "v"),
    ('{"command": "free-energy", "dist": {"kind": "gaussian"}, "form": "hat", "theta": NaN,'
     ' "alpha": 0.5}', "theta"),
    ('{"command": "mc", "kind": "bbp", "dist": {"kind": "gaussian"}, "N": 50, "reps": 2,'
     ' "theta": NaN}', "theta"),
    ('{"command": "mc", "kind": "bbp", "dist": {"kind": "gaussian"}, "N": 50, "reps": 2,'
     ' "theta": 1.0, "seed": NaN}', "seed"),
], ids=["rate-curve-x", "rate-curve-cap", "gibbs-solve-alpha", "gibbs-solve-v", "free-energy",
        "mc-theta", "mc-seed"])
def test_main_non_finite_number_names_its_field(tmp_path, capsys, config, field):
    # JSON's NaN and Infinity parse as floats; a field refuses them at once
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(["--config", str(cfg)]) == 2
    assert f"field '{field}' must be a finite number" in capsys.readouterr().err


FREE_ENERGY = '{"command": "free-energy", "dist": {"kind": "gaussian"}, "theta": 0.5, '
MC_BBP = '{"command": "mc", "kind": "bbp", "dist": {"kind": "gaussian"}, "theta": 1.0, '
CURVE = '{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2.5, 2.5, 1], '
MC_LOCALIZATION = ('{"command": "mc", "kind": "localization", "dist": {"kind": "gaussian"}, '
                   '"N": 50, "reps": 4, "top_fraction": ')
GIBBS = '{"command": "gibbs-solve", "dist": {"kind": "gaussian"}, "v": [0.1], '
SPARSE_GIBBS = ('{{"command": "gibbs-solve", "dist": {{"kind": "sparse_gaussian", {}}},'
                ' "v": [0.1], "R": 6, "alpha": 0.5}}')


@pytest.mark.parametrize("config, message", [
    (FREE_ENERGY + '"form": "loc", "w": 0.5, "N": 100}',
     "field 'w' must be a list of numbers, not 0.5"),
    (FREE_ENERGY + '"form": "restricted", "w": "0.5", "N": 100}',
     "field 'w' must be a list of numbers, not '0.5'"),
    (FREE_ENERGY + '"form": "tilde", "w_check": 0.5, "alpha_tilde": 0.1, "R": 4}',
     "field 'w_check' must be a list of numbers, not 0.5"),
    ('{"command": "gibbs-solve", "dist": {"kind": "gaussian"}, "v": 0.1, "R": 6, "alpha": 0.5}',
     "field 'v' must be a list of numbers, not 0.1"),
    ('{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2, 3, 0.1],'
     ' "mode": "finite_n", "N": 1000.5}', "field 'N' must be an integer, not 1000.5"),
    (FREE_ENERGY + '"form": "loc", "w": [0.5], "N": 100.25}',
     "field 'N' must be an integer, not 100.25"),
    (MC_BBP + '"N": 50.7, "reps": 2}', "field 'N' must be an integer, not 50.7"),
    (MC_BBP + '"N": 50, "reps": 2.5}', "field 'reps' must be an integer, not 2.5"),
    (MC_BBP + '"N": 50, "reps": 2, "seed": 7.5}', "field 'seed' must be an integer, not 7.5"),
    (MC_BBP + '"N": 50, "reps": 2, "seed": -1}',
     "field 'seed' must be an integer in [0, 2**64), not -1"),
    (MC_BBP + '"N": 50, "reps": 2, "seed": 18446744073709551616}',
     "field 'seed' must be an integer in [0, 2**64), not 18446744073709551616"),
    (FREE_ENERGY + '"form": "hat", "alpha": 0.5, "out": 1}',
     "field 'out' must be a path string, not 1"),
    (FREE_ENERGY + '"form": "hat", "alpha": 0.5, "out": true}',
     "field 'out' must be a path string, not True"),
    ('{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2, 3, 0.1], "out": 2}',
     "field 'out' must be a path string, not 2"),
    ('{"command": "gibbs-solve", "dist": {"kind": "gaussian"}, "v": [0.1], "R": 6,'
     ' "alpha": 0.5, "out": ["a"]}', "field 'out' must be a path string, not ['a']"),
    (MC_BBP + '"N": 50, "reps": 2, "out": 1}', "field 'out' must be a path string, not 1"),
    (MC_BBP + '"N": 50, "reps": 2, "samples_csv": 1}',
     "field 'samples_csv' must be a path string, not 1"),
    (SPARSE_GIBBS.format('"p": null'), "requires field 'p' as a finite number, not None"),
    (SPARSE_GIBBS.format('"p": [0.5]'), "requires field 'p' as a finite number, not [0.5]"),
    (SPARSE_GIBBS.format('"p": true'), "requires field 'p' as a finite number, not True"),
    (SPARSE_GIBBS.format('"p": "0.5"'), "requires field 'p' as a finite number, not '0.5'"),
    ('{"command": "gibbs-solve", "dist": {"kind": "atoms", "atoms": 5}, "v": [0.1], "R": 6,'
     ' "alpha": 0.5}', "requires field 'atoms' as a list of [location, mass] pairs"),
    ('{"command": "gibbs-solve", "dist": {"kind": ["x"]}, "v": [0.1], "R": 6, "alpha": 0.5}',
     "unknown dist kind ['x'] in field 'kind'"),
    (CURVE + '"cap": 1.5}', "field 'cap' must be a number in (0, 1), not 1.5"),
    (CURVE + '"cap": 0}', "field 'cap' must be a number in (0, 1), not 0"),
    (CURVE + '"tol": -1}', "field 'tol' must be a finite number >= 0, not -1"),
    (MC_BBP + '"N": 50, "reps": 0}', "field 'reps' must be an integer >= 1, not 0"),
    (MC_BBP + '"N": 1, "reps": 2}', "field 'N' must be an integer >= 2, not 1"),
    (MC_BBP + '"N": 50, "reps": 2, "eta": 0.5}',
     "field 'eta' must be a number in (0, 1/4), not 0.5"),
    (MC_BBP + '"N": 50, "reps": 2, "eta": 0}', "field 'eta' must be a number in (0, 1/4), not 0"),
    (MC_LOCALIZATION + '2.0}', "field 'top_fraction' must be a number in (0, 1], not 2.0"),
    (MC_LOCALIZATION + '0}', "field 'top_fraction' must be a number in (0, 1], not 0"),
    (MC_LOCALIZATION + '-1}', "field 'top_fraction' must be a number in (0, 1], not -1"),
    (CURVE + '"mode": "finite_n", "N": 0}', "field 'N' must be an integer >= 1, not 0"),
    (CURVE + '"mode": "finite_n", "R": 0}', "field 'R' must be a number > 0, not 0"),
    (CURVE + '"mode": "tilde", "R": -1}', "field 'R' must be a number > 0, not -1"),
    (GIBBS + '"R": -2, "alpha": 0.5}', "field 'R' must be a number > 0, not -2"),
    (GIBBS + '"R": "inf", "alpha": 0}', "field 'alpha' must be a number > 0, not 0"),
    (FREE_ENERGY + '"form": "loc", "w": [0.5], "N": 0}',
     "field 'N' must be an integer >= 1, not 0"),
    (FREE_ENERGY + '"form": "restricted", "w": [0.5], "N": 100, "R": 0}',
     "field 'R' must be a number > 0, not 0"),
    (FREE_ENERGY + '"form": "tilde", "w_check": [0.5], "alpha_tilde": 0.1, "R": -3}',
     "field 'R' must be a number > 0, not -3"),
    (FREE_ENERGY + '"form": "hat", "alpha": 1.5}',
     "field 'alpha' must be a number in [0, 1), not 1.5"),
    (FREE_ENERGY + '"form": "hat", "alpha": -0.1}',
     "field 'alpha' must be a number in [0, 1), not -0.1"),
], ids=["loc-w", "restricted-w", "tilde-w_check", "gibbs-solve-v", "rate-curve-N",
        "free-energy-N", "mc-N", "mc-reps", "mc-seed", "mc-seed-negative", "mc-seed-too-big",
        "free-energy-out-int", "free-energy-out-bool", "rate-curve-out", "gibbs-solve-out",
        "mc-out", "mc-samples_csv", "dist-p-null", "dist-p-list", "dist-p-bool",
        "dist-p-string", "dist-atoms-int", "dist-kind-list", "cap-above-1", "cap-zero",
        "tol-negative", "mc-reps-zero", "mc-N-one", "eta-too-big", "eta-zero",
        "top_fraction-above-1", "top_fraction-zero", "top_fraction-negative",
        "rate-curve-N-zero", "rate-curve-R-zero", "rate-curve-R-negative",
        "gibbs-solve-R-negative", "gibbs-solve-alpha-zero", "free-energy-N-zero", "restricted-R-zero", "tilde-R-negative",
        "hat-alpha-above-1", "hat-alpha-negative"])
def test_main_malformed_field_names_it(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(["--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_integral_floats_parse_as_integers():
    spec = parse_config('{"command": "rate-curve", "dist": {"kind": "gaussian"},'
                        ' "x": [2, 3, 0.1], "mode": "finite_n", "N": 1e6}')
    assert spec.payload["N"] == 10**6 and type(spec.payload["N"]) is int
    spec = parse_config(MC_BBP + '"N": 5e1, "reps": 2.0, "seed": 3e0}')
    assert [spec.payload[k] for k in ("N", "reps", "seed")] == [50, 2, 3]
    assert all(type(spec.payload[k]) is int for k in ("N", "reps", "seed"))
    spec = parse_config(MC_BBP + '"N": 50, "reps": 2, "seed": 12345678901234567891}')
    assert spec.payload["seed"] == 12345678901234567891


def test_main_seed_flag_out_of_range_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # refused whatever the command, though only mc runs take a seed
    for config in (MC_BBP + '"N": 50, "reps": 2}',
                   '{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2, 3, 0.1]}'):
        cfg.write_text(config)
        assert main(["--config", str(cfg), "--seed", "-1"]) == 2
        assert "field 'seed' must be an integer in [0, 2**64), not -1" in capsys.readouterr().err


def test_main_flags_are_checked_config_fields(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text('{"command": "rate-curve", "dist": {"kind": "gaussian"}, "x": [2.5, 2.5, 1]}')
    mc = tmp_path / "mc.json"
    mc.write_text(MC_BBP + '"N": 20, "reps": 2}')
    for cfg in (curve, mc):
        assert main(["--config", str(cfg), "--tol", "nan"]) == 2
        assert "field 'tol' must be a finite number, not nan" in capsys.readouterr().err
        assert main(["--config", str(cfg), "--tol", "-1"]) == 2
        assert "field 'tol' must be a finite number >= 0, not -1.0" in capsys.readouterr().err
        for threads in ("0", "-4"):  # --threads is no field, but checked like one
            assert main(["--config", str(cfg), "--threads", threads]) == 2
            assert f"'threads' must be an integer >= 1, not {threads}" in capsys.readouterr().err
    # a flag is a field only where its command has one: rate curves take no seed
    assert main(["--config", str(curve), "--tol", "0.01", "--seed", "7"]) == 0
    meta = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert meta["tol"] == 0.01 and meta["defaults_applied"] == {"cap": 0.95, "mode": "hat"}
    assert main(["--config", str(mc), "--seed", "7", "--tol", "0.01"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 7 and doc["defaults_applied"] == {"eta": 0.125}


def test_main_missing_config_file(capsys):
    assert main(["--config", "/nonexistent/cfg.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_io_failure_reports_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "gibbs-solve", "dist": {"kind": "gaussian"},
        "v": [0.1], "R": 6, "alpha": 0.5,
        "out": "/nonexistent-dir/out.json",
    }))
    assert main(["--config", str(cfg)]) == 1
    assert "/nonexistent-dir/out.json" in capsys.readouterr().err


def test_checked_in_fig1_config_parses():
    with open("configs/fig1_sparse_gaussian.json") as f:
        spec = parse_config(f.read())
    assert spec.command == "rate-curve"
    assert spec.payload["mode"] == "hat"
    n = int(round((spec.payload["stop"] - spec.payload["start"]) / spec.payload["step"])) + 1
    assert n == 76


def test_selfcheck_runs_clean(capsys):
    spec = parse_config(json.dumps({"command": "selfcheck"}))
    assert run(spec) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.count("\n") == len(selfcheck.INVARIANTS) + 1


def test_selfcheck_reports_a_broken_invariant(monkeypatch, capsys):
    good = selfcheck.INVARIANTS["log_potential_edge"]  # and a copy that measures out of bounds
    broken = dataclasses.replace(good, measure=lambda: {"error": 1.0})
    monkeypatch.setattr(selfcheck, "INVARIANTS", {"good": good, "broken": broken})
    assert run(parse_config(json.dumps({"command": "selfcheck"}))) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "[PASS] semicircle: log-potential edge value 1/2 (error 0 < 1e-10)",
        "[FAIL] semicircle: log-potential edge value 1/2 (error 1 not < 1e-10)",
        "selfcheck: FAILURES above",
    ]
    with pytest.raises(selfcheck.InvariantError, match=r"error 1 not < 1e-10"):
        selfcheck.check("broken")


def test_run_rate_curve_below_edge_inf_rows(tmp_path):
    cfg = {
        "command": "rate-curve",
        "dist": {"kind": "gaussian"},
        "x": [1.9, 2.2, 0.15],
        "mode": "hat",
    }
    out = tmp_path / "edge.csv"
    assert run(parse_config(json.dumps({**cfg, "out": str(out)}))) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1.9,inf,inf,inf,inf")
    last = lines[-1].split(",")
    assert all(math.isfinite(float(v)) for v in last)


# Golden artifacts: each command's stdout, byte for byte, for one short run.
HAT_CURVE_CSV = """x,rate,goe_rate,theta_star,alpha_star
1.9,inf,inf,inf,inf
2.1,0.021239265861376866,0.021239265861376644,0.6850781058949569,0.0
2.3,0.11197718037750692,0.11197718037750715,0.8589454173049016,0.0
2.5,0.24435281944005438,0.2443528194400547,1.0000000000141065,0.0
2.7,0.35928114133718514,0.41033900487599206,0.8053535300871041,0.36998621053585645
"""
GOLDEN = {
    "rate-curve": (
        {"command": "rate-curve", "dist": {"kind": "sparse_gaussian", "p": 0.5},
         "x": [1.9, 2.7, 0.2]},
        HAT_CURVE_CSV
        + '{"cap": 0.95, "command": "rate-curve", "defaults_applied": {"cap": 0.95, "mode": "hat",'
          ' "tol": 0.001}, "dist": {"kind": "sparse_gaussian", "p": 0.5}, "mode": "hat",'
          ' "points": 5, "tol": 0.001, "version": 1, "x_mu": 2.7}\n'),
    "gibbs-solve": (
        {"command": "gibbs-solve", "dist": {"kind": "sparse_gaussian", "p": 0.5},
         "v": [0.4, 0.2], "R": 8, "alpha": 0.9},
        '{"command": "gibbs-solve", "defaults_applied": {}, "dist": {"kind": "sparse_gaussian",'
        ' "p": 0.5}, "moment_evaluations": 6, "root_residual": 2.4424906541753444e-15,'
        ' "second_moment": 0.9000000000000025, "value": 0.4669020822934853, "version": 1,'
        ' "zeta_star": 1.166202145653998}\n'),
    "free-energy": (
        {"command": "free-energy", "dist": {"kind": "sparse_gaussian", "p": 0.5},
         "form": "restricted", "theta": 0.8, "w": [0.3, 0.1], "N": 1000},
        '{"command": "free-energy", "defaults_applied": {"R": "N^(1/5)"}, "dist": {"kind":'
        ' "sparse_gaussian", "p": 0.5}, "form": "restricted", "theta": 0.8,'
        ' "value": 0.608033530048514, "version": 1}\n'),
    "mc": (
        {"command": "mc", "kind": "bbp", "dist": {"kind": "gaussian"}, "N": 40, "reps": 3,
         "theta": 1.0},
        '{"N": 40, "defaults_applied": {"eta": 0.125, "seed": 0}, "dist": {"kind": "gaussian"},'
        ' "eta": 0.125, "kind": "bbp", "lambda1_mean": 2.408082499068428, "lambda1_samples":'
        ' [2.278129868351465, 2.526303129073248, 2.419814499780572], "lambda1_stderr":'
        ' 0.0718812022595914, "params": {"theta": 1.0}, "prediction": 2.5, "regime":'
        ' "supercritical", "reps": 3, "seed": 0, "theta": 1.0, "vec_stats":'
        ' [[0.5092751915593998, 0.3420712474286872, 3], [0.6587591278541003,'
        ' 0.34088155972973994, 5], [0.47825940659232136, 0.29437532038728836, 3]],'
        ' "version": 1}\n'),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_main_golden_artifacts(tmp_path, capsys, command):
    config, expected = GOLDEN[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == expected
    # with an artifact path the file holds the CSV, or the JSON line also printed
    out = tmp_path / "artifact"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    if command == "rate-curve":
        assert out.read_text() == HAT_CURVE_CSV and expected.endswith(printed)
    else:
        assert out.read_text() == printed == expected
