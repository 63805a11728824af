"""wignerld benchmark: one workload, measured for a fixed window.

    python3 perfbench/run.py --workload hat_curve --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``; nothing needs installing).  The load is a closed loop from one
caller: each op waits for the last, library calls are serial and BLAS is
pinned to one thread.  Each repetition runs in a fresh interpreter
(``worker.py``), so process-wide caches start cold as they do for every CLI
run, with a fixed string-hash seed, so its memory use repeats.  Repetitions start while the next one is expected to end inside the
``--seconds`` window (at least one).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  setup_s      interpreter start to ready (import, entry law, priming),
               median over every repetition and over set-up-only probes
               added until there are at least three
  wall_s       first workload call to last result, mean over repetitions
  peak_rss_mb  ru_maxrss of a repetition after its ops, largest

``--trace 1`` runs traced repetitions only and reports the per-layer
metrics of BENCHMARK.json (lower median over the repetitions), among them
``trace.overhead_frac``, traced against untraced wall_s as estimated in
each traced process (see ``tracing.py``).

The line before the result holds what the metrics cannot: the op count,
op_ms_p50 and op_ms_tail (at the highest percentile with at least ten ops
beyond it) over every op of the untraced repetitions, the failure fraction,
the notes of any failed check, and the provenance (revision, ``src/`` line
count, machine, library and BLAS versions, BLAS threads).  Op
latencies stay out of BENCHMARK.json: the host's other tenants slow a
shared core by up to a half for tens of seconds at a time, and a median of
millisecond ops flips between the two speeds from run to run.  The same
record and the traced repetitions' spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SETUPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          # str hashing orders some of the library's allocations; with a random
          # hash seed the same inputs peak anywhere from 267 to 324 MB on hat_curve
          "PYTHONHASHSEED": "0"}


class HarnessError(RuntimeError):
    """A repetition did not produce a record; the run has no result."""


def _spawn(workload, seed, mode, timeout, spans=None, reference=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    if reference:
        cmd += ["--reference", json.dumps(reference)]
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{mode} repetition of {workload} exceeded {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} repetition of {workload} exited {proc.returncode}:\n"
                           + proc.stderr[-3000:])
    return json.loads(lines[-1])


def _repetitions(workload, seed, seconds, trace) -> list:
    start = time.monotonic()
    window_end, hard_end = start + seconds, start + RUN_LIMIT_S
    mode = "traced" if trace else "work"
    took, reps = {}, []
    while True:
        now = time.monotonic()
        if reps and now + took[mode] > min(window_end, hard_end):
            break
        spans = OUT / f"spans-{workload}-seed{seed}-rep{len(reps)}.jsonl" if trace else None
        reference = reps[-1].get("reference") if reps else None
        reps.append(_spawn(workload, seed, mode, hard_end - now, spans, reference))
        took[mode] = time.monotonic() - now
        if reps[-1].get("reference") != reference:  # built the gate's reference; the next reuse it
            took[mode] -= reps[-1]["reference"]["built_s"]
    if not trace:
        while sum(r["mode"] in ("work", "setup") for r in reps) < MIN_SETUPS:
            now = time.monotonic()
            if now + took.get("setup", 0.0) > hard_end:
                break
            reps.append(_spawn(workload, seed, "setup", hard_end - now))
            took["setup"] = time.monotonic() - now
    return reps


def _tail(latencies_ms):
    """(percentile, value): the highest listed percentile with >= 10 ops beyond it."""
    n = len(latencies_ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100.0)  # nearest rank
        if n - rank >= 10:
            return pct, sorted(latencies_ms)[rank - 1]
    return None, None


def _git_revision():
    """HEAD of the checkout, or None where it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def _provenance(worker_side: dict) -> dict:
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    return {"git_revision": _git_revision(), "src_lines": lines, "nproc": os.cpu_count(),
            "cpu": cpu, "blas_threads_env": PINNED["OPENBLAS_NUM_THREADS"], **worker_side}


def _summarize(workload, seed, seconds, trace, reps, bench) -> tuple:
    work = [r for r in reps if r["mode"] == "work"]
    traced = [r for r in reps if r["mode"] == "traced"]
    ran = work + traced
    attempted = sum(r["attempted"] for r in ran)
    failed = sum(r["failed"] for r in ran)
    lat_ms = [x * 1e3 for r in work for x in r["latencies_s"]]
    if trace:
        values = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reps
                                         if r["mode"] in ("work", "setup")),
            "wall_s": statistics.fmean(r["wall_s"] for r in work),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in work),
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise HarnessError(f"no value for metric(s) {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    pct, tail = _tail(lat_ms)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "load": "closed loop, one caller, serial library calls, BLAS pinned to one thread",
        "ops": len(lat_ms),
        "op_ms_p50": statistics.median(lat_ms) if lat_ms else None,
        "op_ms_tail": tail, "op_tail_percentile": pct,
        "fail_frac": failed / attempted if attempted else None,
        "repetitions": [{k: r.get(k) for k in ("mode", "setup_s", "wall_s", "peak_rss_mb",
                                               "attempted", "failed")} for r in reps],
        "notes": [n for r in ran for n in r["notes"]][:20],
        "provenance": _provenance(ran[0]["provenance"]),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "wignerld" / "__init__.py").is_file():
        print(f"no wignerld sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):  # byte-compile so no repetition pays for it
        compileall.compile_dir(ROOT / "src", quiet=1)
        compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        reps = _repetitions(args.workload, args.seed, args.seconds, args.trace)
        detail, result = _summarize(args.workload, args.seed, args.seconds, args.trace,
                                    reps, bench)
    except HarnessError as e:
        print(f"benchmark harness error: {e}", file=sys.stderr)
        return 1
    record = json.dumps(detail)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(record + "\n")
    print(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
