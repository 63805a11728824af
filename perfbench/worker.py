"""One repetition of a workload in a fresh interpreter.

Started by ``run.py`` with the monotonic time it spawned this process, so
``setup_s`` covers interpreter start, the library import, building the
entry law and any priming a CLI run pays.  Prints one JSON line.

Modes: ``setup`` stops once set-up is done; ``work`` also runs the timed
ops and the correctness gate; ``traced`` does the same with every layer
boundary wrapped (see ``tracing.py``) and writes its spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _blas_info() -> list:
    """Version string and live thread count of every OpenBLAS loaded."""
    import ctypes

    out, seen = [], set()
    with open("/proc/self/maps") as f:
        paths = [line.split()[-1] for line in f if "openblas" in line.lower()]
    for path in paths:
        if path in seen:
            continue
        seen.add(path)
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for suffix in ("64_", ""):
            threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(threads=threads(), config=config().decode().strip())
                break
        out.append(info)
    return out


def _provenance() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_info()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "work", "traced"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans")
    ap.add_argument("--reference", help="JSON gate values from an earlier repetition of the run")
    args = ap.parse_args()

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.reference:
        wl.reference = json.loads(args.reference)
    wl.law()
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install(wl.dist)
    wl.prime()
    setup_s = time.monotonic() - args.spawned
    record = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    ops = workloads.Ops()
    calls_before = tracer.n_calls() if tracer else 0
    t0 = perf_counter()
    wl.run(ops)
    wall_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer.layers())
        # traced over untraced wall_s, the untraced one being the traced
        # one less the cost of the wrapped calls of the timed region
        cost_s = (tracer.n_calls() - calls_before) * tracing.Tracer.call_cost()
        layers["trace.overhead_frac"] = cost_s / max(wall_s - cost_s, 1e-9)
        record["layers"] = layers
        tracer.write(args.spans)
    try:
        fails, notes = wl.check()
    except Exception:  # noqa: BLE001 - a gate that cannot run fails every op
        fails, notes = [True] * wl.n_ops, ["check raised: " + traceback.format_exc(limit=3)]
    record.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, latencies_s=ops.latencies,
                  attempted=wl.n_ops, failed=sum(fails), notes=notes[:20],
                  reference=wl.reference, provenance=_provenance())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
