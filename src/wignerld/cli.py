"""Command-line surface: JSON run configs in, CSV/JSON artifacts out.

The config carries the command; flags override output path, seed, thread
cap and detection tolerance.  Every defaulted field is echoed back in the
run metadata so artifacts are self-describing, and numeric CSV columns use
shortest round-trip formatting (17 significant digits) for stable diffs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import free_energy, montecarlo, rate, semicircle
from .entries import check_assumptions, distribution_from_spec
from .gibbs import GibbsProblem, gibbs_solve

__all__ = ["RunSpec", "ConfigError", "parse_config", "run", "main"]

_COMMANDS = ("rate-curve", "gibbs-solve", "free-energy", "mc", "selfcheck")


class ConfigError(ValueError):
    pass


@dataclass
class RunSpec:
    command: str
    payload: dict
    defaults_applied: dict = field(default_factory=dict)


def _reject_unknown(d: dict, allowed, path: str):
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown key '{k}' at {path}")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required field '{key}' at {path}")
    return d[key]


def _number(v, key: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"field '{key}' must be a finite number, not {v!r}")
    return float(v)


def _integer(v, key: str) -> int:
    n = _number(v, key)
    if n != int(n):
        raise ConfigError(f"field '{key}' must be an integer, not {v!r}")
    return v if isinstance(v, int) else int(n)  # a JSON integer keeps every digit


def _seed(v) -> int:
    """A replica seed: an integer in [0, 2**64), the range of a Philox key word."""
    n = _integer(v, "seed")
    if not 0 <= n < 2**64:
        raise ConfigError(f"field 'seed' must be an integer in [0, 2**64), not {v!r}")
    return n


def _path(doc: dict, key: str):
    v = doc.get(key)
    if v is not None and not isinstance(v, str):
        raise ConfigError(f"field '{key}' must be a path string, not {v!r}")
    return v


def _numbers(v, key: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"field '{key}' must be a list of numbers, not {v!r}")
    return [_number(a, key) for a in v]


def _dist(doc: dict):
    try:
        return distribution_from_spec(_require(doc, "dist", "top level"))
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{e} at dist") from e


def parse_config(text) -> RunSpec:
    """Validate a JSON config document into a RunSpec with defaults filled."""
    if isinstance(text, (bytes, str)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    command = _require(doc, "command", "top level")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}' (choose from {', '.join(_COMMANDS)})")
    defaults = {}

    if command == "selfcheck":
        _reject_unknown(doc, {"command"}, "top level")
        return RunSpec(command, {}, defaults)

    if command == "rate-curve":
        allowed = {"command", "dist", "x", "mode", "cap", "tol", "N", "R", "xi", "t", "out"}
        _reject_unknown(doc, allowed, "top level")
        dist = _dist(doc)
        x = _require(doc, "x", "top level")
        if not (isinstance(x, list) and len(x) == 3):
            raise ConfigError("field 'x' must be [start, stop, step]")
        start, stop, step = (_number(v, "x") for v in x)
        if step <= 0 or stop < start:
            raise ConfigError("field 'x' must satisfy start <= stop and step > 0")
        mode_name = doc.get("mode")
        if mode_name is None:
            mode_name, defaults["mode"] = "hat", "hat"
        if mode_name not in ("hat", "finite_n", "tilde"):
            raise ConfigError(f"unknown mode '{mode_name}' at top level")
        cap = doc.get("cap")
        if cap is None:
            cap, defaults["cap"] = 0.95, 0.95
        tol = doc.get("tol")
        if tol is None:
            tol, defaults["tol"] = 1e-3, 1e-3
        payload = {
            "dist": dist,
            "start": start,
            "stop": stop,
            "step": step,
            "mode": mode_name,
            "cap": _number(cap, "cap"),
            "tol": _number(tol, "tol"),
            "out": _path(doc, "out"),
        }
        if mode_name in ("finite_n", "tilde"):
            N = _integer(doc.get("N", 10**6), "N")
            if "N" not in doc:
                defaults["N"] = N
            R = doc.get("R")
            if R is None:
                defaults["R"] = "N^(1/5)"
            payload["N"] = N
            payload["R"] = None if R is None else _number(R, "R")
            if mode_name == "tilde":
                xi = doc.get("xi")
                if xi is None:
                    xi, defaults["xi"] = 1e-3, 1e-3
                payload["xi"] = _number(xi, "xi")
                payload["t"] = None if doc.get("t") is None else _number(doc["t"], "t")
        return RunSpec(command, payload, defaults)

    if command == "gibbs-solve":
        allowed = {"command", "dist", "v", "R", "alpha", "out"}
        _reject_unknown(doc, allowed, "top level")
        dist = _dist(doc)
        v = _numbers(_require(doc, "v", "top level"), "v")
        if not v:
            raise ConfigError("field 'v' must be a non-empty list of numbers")
        R = _require(doc, "R", "top level")
        R = math.inf if R == "inf" else _number(R, "R")
        alpha = _number(_require(doc, "alpha", "top level"), "alpha")
        return RunSpec(command, {"dist": dist, "v": v, "R": R,
                                 "alpha": alpha, "out": _path(doc, "out")}, defaults)

    if command == "free-energy":
        allowed = {"command", "dist", "form", "theta", "w", "N", "R", "alpha",
                   "w_check", "alpha_tilde", "t", "out"}
        _reject_unknown(doc, allowed, "top level")
        dist = _dist(doc)
        form = _require(doc, "form", "top level")
        if form not in ("loc", "restricted", "hat", "tilde"):
            raise ConfigError(f"unknown form '{form}' at top level")
        theta = _number(_require(doc, "theta", "top level"), "theta")
        payload = {"dist": dist, "form": form, "theta": theta, "out": _path(doc, "out")}
        if form in ("loc", "restricted"):
            payload["w"] = _numbers(_require(doc, "w", "top level"), "w")
            payload["N"] = _integer(_require(doc, "N", "top level"), "N")
            if form == "restricted":
                R = doc.get("R")
                if R is None:
                    R = payload["N"] ** 0.2
                    defaults["R"] = "N^(1/5)"
                payload["R"] = _number(R, "R")
        elif form == "hat":
            payload["alpha"] = _number(_require(doc, "alpha", "top level"), "alpha")
        else:
            payload["w_check"] = _numbers(_require(doc, "w_check", "top level"), "w_check")
            payload["alpha_tilde"] = _number(_require(doc, "alpha_tilde", "top level"), "alpha_tilde")
            payload["R"] = _number(_require(doc, "R", "top level"), "R")
            payload["t"] = None if doc.get("t") is None else _number(doc["t"], "t")
        return RunSpec(command, payload, defaults)

    # command == "mc"
    allowed = {"command", "kind", "dist", "N", "reps", "seed", "eta", "theta",
               "x", "top_fraction", "out", "samples_csv"}
    _reject_unknown(doc, allowed, "top level")
    kind = _require(doc, "kind", "top level")
    if kind not in ("bbp", "tail", "localization"):
        raise ConfigError(f"unknown mc kind '{kind}'")
    dist = _dist(doc)
    payload = {
        "kind": kind,
        "dist": dist,
        "N": _integer(_require(doc, "N", "top level"), "N"),
        "reps": _integer(_require(doc, "reps", "top level"), "reps"),
        "out": _path(doc, "out"),
        "samples_csv": _path(doc, "samples_csv"),
    }
    seed = doc.get("seed")
    if seed is None:
        seed, defaults["seed"] = 0, 0
    payload["seed"] = _seed(seed)
    eta = doc.get("eta")
    if eta is None:
        eta, defaults["eta"] = 0.125, 0.125
    payload["eta"] = _number(eta, "eta")
    if kind == "bbp":
        payload["theta"] = _number(_require(doc, "theta", "top level"), "theta")
    elif kind == "tail":
        payload["x"] = _number(_require(doc, "x", "top level"), "x")
    else:
        tf = doc.get("top_fraction")
        if tf is None:
            tf, defaults["top_fraction"] = 0.01, 0.01
        payload["top_fraction"] = _number(tf, "top_fraction")
    return RunSpec(command, payload, defaults)


# ---------------------------------------------------------------------------
# execution


def _fmt(v) -> str:
    """Shortest round-trip float formatting; infinities as the literal inf."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _write_text(path: str, text: str):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise RuntimeError(f"cannot write artifact '{path}': {e}") from e


def _curve_csv(curve: rate.RateCurve, below_edge=()) -> str:
    lines = ["x,rate,goe_rate,theta_star,alpha_star"]
    sentinels = [rate.RatePoint(x, math.inf, math.inf, None, math.inf) for x in below_edge]
    for p in sentinels + list(curve.points):
        mass = math.inf if p.minimizer is None else p.minimizer.mass  # below-edge rows: all inf
        lines.append(",".join(_fmt(v) for v in (p.x, p.rate, p.goe_rate, p.theta_star, mass)))
    return "\n".join(lines) + "\n"


def run(spec: RunSpec, out: str = None, seed: int = None, threads: int = None,
        tol: float = None, printer=print) -> int:
    """Execute a parsed RunSpec; returns the process exit status."""
    p = spec.payload
    out = out or p.get("out")
    meta = {"version": 1, "command": spec.command, "defaults_applied": spec.defaults_applied}

    if spec.command == "selfcheck":
        from . import selfcheck  # its oracles load scipy.integrate and scipy.optimize

        ok = selfcheck.run_all(printer)
        printer("selfcheck: " + ("all suites passed" if ok else "FAILURES above"))
        return 0 if ok else 1

    if spec.command == "rate-curve":
        dist = p["dist"]
        for msg in check_assumptions(dist):
            printer(f"warning: {msg}")
        n = int(round((p["stop"] - p["start"]) / p["step"])) + 1
        grid = [p["start"] + i * p["step"] for i in range(n)]
        below = [x for x in grid if x < 2.0]  # rate is +inf below the edge
        grid = [x for x in grid if x >= 2.0]
        if p["mode"] == "hat":
            mode = rate.HatMode()
        elif p["mode"] == "finite_n":
            mode = rate.FiniteNMode(N=p["N"], R=p["R"])
        else:
            mode = rate.TildeMode(N=p["N"], R=p["R"], xi=p["xi"], t=p["t"])
        curve = rate.rate_curve(dist, grid, mode, cap=p["cap"],
                                tol=tol if tol is not None else p["tol"], threads=threads)
        csv = _curve_csv(curve, below_edge=below)
        if out:
            _write_text(out, csv)
        else:
            printer(csv.rstrip("\n"))
        meta.update({"dist": dist.spec_dict(), "mode": p["mode"], "points": n,
                     "x_mu": curve.x_mu, "cap": p["cap"]})
        printer(json.dumps(meta, sort_keys=True))
        return 0

    if spec.command == "gibbs-solve":
        dist = p["dist"]
        if math.isinf(p["R"]):
            from .gibbs import phi_unbounded

            value = phi_unbounded(dist, p["v"], p["alpha"])
            doc = {"value": value, "R": "inf"}
        else:
            sol = gibbs_solve(GibbsProblem(p["v"], dist, p["R"], p["alpha"]))
            doc = {"value": sol.value, "zeta_star": sol.zeta_star,
                   "second_moment": sol.m2, "root_residual": sol.root_residual(),
                   "moment_evaluations": sol.evaluations}
        doc.update(meta)
        doc["dist"] = dist.spec_dict()
        text = json.dumps(doc, sort_keys=True)
        if out:
            _write_text(out, text + "\n")
        printer(text)
        return 0

    if spec.command == "free-energy":
        dist, form, theta = p["dist"], p["form"], p["theta"]
        if form == "loc":
            value = float(free_energy.f_loc(dist, theta, np.array(p["w"]), p["N"]))
        elif form == "restricted":
            value = free_energy.f_restricted(dist, theta, np.array(p["w"]), p["N"], p["R"])
        elif form == "hat":
            value = free_energy.f_hat(dist, theta, p["alpha"])
        else:
            value = free_energy.f_tilde(dist, theta, np.array(p["w_check"]),
                                        p["alpha_tilde"], p["R"], p["t"])
        doc = {**meta, "dist": dist.spec_dict(), "form": form, "theta": theta, "value": value}
        text = json.dumps(doc, sort_keys=True)
        if out:
            _write_text(out, text + "\n")
        printer(text)
        return 0

    # mc
    cfg = dict(p)
    cfg.pop("out", None)
    csv_path = cfg.pop("samples_csv", None)
    if seed is not None:
        cfg["seed"] = seed
    report = montecarlo.experiment(cfg, threads=threads)
    doc = report.to_json_dict()
    doc["defaults_applied"] = spec.defaults_applied
    text = json.dumps(doc, sort_keys=True)
    if out:
        _write_text(out, text + "\n")
    printer(text)
    if csv_path:
        _write_text(csv_path, report.samples_csv())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wignerld",
        description="Rate functions and spectral experiments for heavy upper-tail "
                    "deviations of the largest eigenvalue of Wigner matrices.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="primary artifact path")
    parser.add_argument("--seed", type=int, default=None, help="seed override (mc runs)")
    parser.add_argument("--threads", type=int, default=None, help="worker thread cap")
    parser.add_argument("--tol", type=float, default=None, help="detection tolerance override")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            spec = parse_config(f.read())
        if args.seed is not None:
            _seed(args.seed)  # the flag overrides the config's seed field
    except OSError as e:
        print(f"error: cannot read config '{args.config}': {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return run(spec, out=args.out, seed=args.seed, threads=args.threads, tol=args.tol)
    except Exception as e:  # noqa: BLE001 - single reporting point for run failures
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
