"""Command-line surface: JSON run configs in, CSV/JSON artifacts out.

The config carries the command.  The flags --out, --seed and --tol pass the
check of the config field of the same name whatever the command, and set
that field, where the command has one, before the config is checked;
--threads (at least 1) caps the worker threads, at most one per CPU.  Every
defaulted field is echoed back in the run metadata so artifacts are
self-describing, and numeric CSV columns use shortest round-trip formatting
(17 significant digits) for stable diffs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import free_energy, rate
from .entries import check_assumptions, distribution_from_spec
from .gibbs import GibbsProblem, gibbs_solve

__all__ = ["RunSpec", "ConfigError", "parse_config", "run", "main"]

# each command's config fields besides "command"
_COMMANDS = {
    "rate-curve": {"dist", "x", "mode", "cap", "tol", "N", "R", "xi", "t", "out"},
    "gibbs-solve": {"dist", "v", "R", "alpha", "out"},
    "free-energy": {"dist", "form", "theta", "w", "N", "R", "alpha", "w_check", "alpha_tilde",
                    "t", "out"},
    "mc": {"kind", "dist", "N", "reps", "seed", "eta", "theta", "x", "top_fraction", "out",
           "samples_csv"},
    "selfcheck": set(),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunSpec:
    command: str
    payload: dict
    defaults_applied: dict = field(default_factory=dict)


def _number(v, key: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"field '{key}' must be a finite number, not {v!r}")
    return float(v)


def _integer(v, key: str) -> int:
    n = _number(v, key)
    if n != int(n):
        raise ConfigError(f"field '{key}' must be an integer, not {v!r}")
    return v if isinstance(v, int) else int(n)  # a JSON integer keeps every digit


def _within(check, ok, what: str):
    """``check`` restricted to the values ``ok`` accepts, ``what`` naming them."""
    def checked(v, key: str):
        n = check(v, key)
        if not ok(n):
            raise ConfigError(f"field '{key}' must be {what}, not {v!r}")
        return n
    return checked


# a replica seed spans the range of a Philox key word
_seed = _within(_integer, lambda n: 0 <= n < 2**64, "an integer in [0, 2**64)")
_cap = _within(_number, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_tol = _within(_number, lambda v: v >= 0.0, "a finite number >= 0")
_eta = _within(_number, lambda v: 0.0 < v < 0.25, "a number in (0, 1/4)")
_count = _within(_integer, lambda n: n >= 1, "an integer >= 1")
_size = _within(_integer, lambda n: n >= 2, "an integer >= 2")
_positive = _within(_number, lambda v: v > 0.0, "a number > 0")
_fraction = _within(_number, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_mass = _within(_number, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _path(v, key: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"field '{key}' must be a path string, not {v!r}")
    return v


def _numbers(v, key: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"field '{key}' must be a list of numbers, not {v!r}")
    return [_number(a, key) for a in v]


def _grid(v, key: str) -> tuple:
    if not (isinstance(v, list) and len(v) == 3):
        raise ConfigError(f"field '{key}' must be [start, stop, step]")
    start, stop, step = (_number(a, key) for a in v)
    if step <= 0 or stop < start:
        raise ConfigError(f"field '{key}' must satisfy start <= stop and step > 0")
    return start, stop, step


def _one_of(*names):
    def check(v, key: str):
        if v not in names:
            raise ConfigError(f"unknown {key} '{v}' (choose from {', '.join(names)})")
        return v
    return check


def _dist(spec, key: str):
    try:
        return distribution_from_spec(spec)
    except ValueError as e:
        raise ConfigError(f"{e} at {key}") from e


def _require(doc: dict, key: str, check):
    if key not in doc:
        raise ConfigError(f"missing required field '{key}' at top level")
    return check(doc[key], key)


def _field(doc: dict, defaults: dict, key: str, check, default=None, shown=None):
    """The checked value of an optional field.  A missing or null one takes
    ``default``, echoed in ``defaults`` as ``shown`` (or the default itself)
    unless both are None."""
    v = doc.get(key)
    if v is not None:
        return check(v, key)
    shown = default if shown is None else shown
    if shown is not None:
        defaults[key] = shown
    return default


def _document(text) -> dict:
    if isinstance(text, (bytes, str)):
        try:
            text = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(text, dict):
        raise ConfigError("config must be a JSON object")
    return text


def parse_config(text) -> RunSpec:
    """Validate a JSON config document into a RunSpec with defaults filled."""
    doc = _document(text)
    command = _require(doc, "command", _one_of(*_COMMANDS))
    for k in doc:
        if k != "command" and k not in _COMMANDS[command]:
            raise ConfigError(f"unknown key '{k}' at top level")
    defaults = {}
    if command == "selfcheck":
        return RunSpec(command, {}, defaults)
    p = {"dist": _require(doc, "dist", _dist), "out": _field(doc, defaults, "out", _path)}

    if command == "rate-curve":
        p["start"], p["stop"], p["step"] = _require(doc, "x", _grid)
        p["mode"] = _field(doc, defaults, "mode", _one_of("hat", "finite_n", "tilde"), "hat")
        p["cap"] = _field(doc, defaults, "cap", _cap, 0.95)
        p["tol"] = _field(doc, defaults, "tol", _tol, 1e-3)
        if p["mode"] != "hat":
            p["N"] = _field(doc, defaults, "N", _count, 10**6)
            p["R"] = _field(doc, defaults, "R", _positive, None, "N^(1/5)")
        if p["mode"] == "tilde":
            p["xi"] = _field(doc, defaults, "xi", _number, 1e-3)
            p["t"] = _field(doc, defaults, "t", _number)

    elif command == "gibbs-solve":
        p["v"] = _require(doc, "v", _numbers)
        if not p["v"]:
            raise ConfigError("field 'v' must be a non-empty list of numbers")
        p["R"] = _require(doc, "R", lambda v, key: math.inf if v == "inf" else _positive(v, key))
        p["alpha"] = _require(doc, "alpha", _positive)

    elif command == "free-energy":
        form = p["form"] = _require(doc, "form", _one_of("loc", "restricted", "hat", "tilde"))
        p["theta"] = _require(doc, "theta", _number)
        if form in ("loc", "restricted"):
            p["w"] = _require(doc, "w", _numbers)
            p["N"] = _require(doc, "N", _count)
        if form == "restricted":
            p["R"] = _field(doc, defaults, "R", _positive, p["N"] ** 0.2, "N^(1/5)")
        elif form == "hat":
            p["alpha"] = _require(doc, "alpha", _mass)
        elif form == "tilde":
            p["w_check"] = _require(doc, "w_check", _numbers)
            p["alpha_tilde"] = _require(doc, "alpha_tilde", _number)
            p["R"] = _require(doc, "R", _positive)
            p["t"] = _field(doc, defaults, "t", _number)

    else:  # mc
        kind = p["kind"] = _require(doc, "kind", _one_of("bbp", "tail", "localization"))
        p["N"] = _require(doc, "N", _size)
        p["reps"] = _require(doc, "reps", _count)
        p["samples_csv"] = _field(doc, defaults, "samples_csv", _path)
        p["seed"] = _field(doc, defaults, "seed", _seed, 0)
        p["eta"] = _field(doc, defaults, "eta", _eta, 0.125)
        if kind == "bbp":
            p["theta"] = _require(doc, "theta", _number)
        elif kind == "tail":
            p["x"] = _require(doc, "x", _number)
        else:
            p["top_fraction"] = _field(doc, defaults, "top_fraction", _fraction, 0.01)
    return RunSpec(command, p, defaults)


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


def _emit(doc: dict, out, printer):
    """Print a JSON artifact as one sorted-key line, and write it to ``out`` if given."""
    text = json.dumps(doc, sort_keys=True)
    if out:
        _write_text(out, text + "\n")
    printer(text)


def _curve_csv(curve: rate.RateCurve) -> str:
    lines = ["x,rate,goe_rate,theta_star,alpha_star"]
    for p in curve.points:
        mass = math.inf if p.minimizer is None else p.minimizer.mass  # below-edge rows: all inf
        lines.append(",".join(_fmt(v) for v in (p.x, p.rate, p.goe_rate, p.theta_star, mass)))
    return "\n".join(lines) + "\n"


def run(spec: RunSpec, threads: int = None, printer=print) -> int:
    """Execute a parsed RunSpec; returns the process exit status."""
    p = spec.payload
    meta = {"version": 1, "command": spec.command, "defaults_applied": spec.defaults_applied}

    if spec.command == "selfcheck":
        from . import selfcheck  # its oracles load scipy.integrate and scipy.optimize

        ok = selfcheck.run_all(printer)
        printer("selfcheck: " + ("all suites passed" if ok else "FAILURES above"))
        return 0 if ok else 1

    dist = p["dist"]
    if spec.command == "rate-curve":
        for msg in check_assumptions(dist):
            printer(f"warning: {msg}")
        n = int(round((p["stop"] - p["start"]) / p["step"])) + 1
        if p["mode"] == "hat":
            mode = rate.HatMode()
        elif p["mode"] == "finite_n":
            mode = rate.FiniteNMode(N=p["N"], R=p["R"])
        else:
            mode = rate.TildeMode(N=p["N"], R=p["R"], xi=p["xi"], t=p["t"])
        curve = rate.rate_curve(dist, [p["start"] + i * p["step"] for i in range(n)], mode,
                                cap=p["cap"], tol=p["tol"], threads=threads)
        csv = _curve_csv(curve)
        if p["out"]:
            _write_text(p["out"], csv)
        else:
            printer(csv.rstrip("\n"))
        _emit({**meta, "dist": dist.spec_dict(), "mode": p["mode"], "points": n,
               "x_mu": curve.x_mu, "cap": p["cap"], "tol": p["tol"]}, None, printer)
        return 0

    if spec.command == "gibbs-solve":
        if math.isinf(p["R"]):
            from .gibbs import phi_unbounded

            doc = {"value": phi_unbounded(dist, p["v"], p["alpha"]), "R": "inf"}
        else:
            sol = gibbs_solve(GibbsProblem(p["v"], dist, p["R"], p["alpha"]))
            doc = {"value": sol.value, "zeta_star": sol.zeta_star,
                   "second_moment": sol.m2, "root_residual": sol.root_residual(),
                   "moment_evaluations": sol.evaluations}
        doc.update(meta, dist=dist.spec_dict())
    elif spec.command == "free-energy":
        form, theta = p["form"], p["theta"]
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
    else:  # mc
        from . import montecarlo  # loads scipy.linalg, which only mc runs use

        report = montecarlo.experiment(p, threads=threads)
        doc = {**report.to_json_dict(), "defaults_applied": spec.defaults_applied}
    _emit(doc, p["out"], printer)
    if p.get("samples_csv"):
        _write_text(p["samples_csv"], report.samples_csv())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wignerld",
        description="Rate functions and spectral experiments for heavy upper-tail "
                    "deviations of the largest eigenvalue of Wigner matrices.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="primary artifact path (the 'out' field)")
    parser.add_argument("--seed", type=int, default=None, help="the 'seed' field of mc runs")
    parser.add_argument("--threads", type=int, default=None, help="worker thread cap (>= 1)")
    parser.add_argument("--tol", type=float, default=None,
                        help="the 'tol' field of rate curves: detection tolerance")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            doc = _document(f.read())
        command = doc.get("command")
        fields = _COMMANDS.get(command, ()) if isinstance(command, str) else ()
        for key, check in (("out", _path), ("seed", _seed), ("tol", _tol)):
            flag = getattr(args, key)
            if flag is not None:
                check(flag, key)  # refused whatever the command, applied where it is a field
                if key in fields:
                    doc[key] = flag
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"flag 'threads' must be an integer >= 1, not {args.threads}")
        spec = parse_config(doc)
    except OSError as e:
        print(f"error: cannot read config '{args.config}': {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return run(spec, threads=args.threads)
    except Exception as e:  # noqa: BLE001 - single reporting point for run failures
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
