"""Layer spans recorded from outside the library.

Each public function is wrapped at the name its caller looks up, so a call
is seen once at the boundary where it enters a layer: ``rate.sup_theta`` is
replaced in the ``rate`` module, ``dist.log_laplace`` on the entry-law
instance, and so on.  Calls a layer makes to itself (the coarse warm-start
solve inside ``solve_exponent_batch``) go through the unwrapped name and fall
inside the outer span, so nothing is counted twice.

Spans (name, start, end, parent, child seconds, size) stay in memory until
the repetition ends.  High-frequency boundaries (``semicircle.*`` and
``entries.log_laplace``) are folded into per-parent counters instead of one
span per call.  A layer's self time is its span time minus the time its
wrapped children took.

The tracing overhead is estimated in the process rather than by comparing
a traced with an untraced repetition, whose ratio on a shared host moves
with the host's speed more than with the tracer: the wrapped calls of the
timed region times the measured cost of one wrapped call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import partial
from time import perf_counter

from wignerld import free_energy, gibbs, montecarlo, rate, semicircle


class Patches:
    """Replace attributes with wrappers and put the originals back.

    ``wrap(owner, attr, make)`` sets ``owner.attr = make(original)``.  A
    method wrapped on an instance is removed again on restore, so the
    class method shows through.  Usable as a context manager.
    """

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, make(original))
        return self

    def restore(self):
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _size_of_arg(i):
    def size(args, kwargs):
        return int(getattr(args[i], "size", 1)) if len(args) > i else 1

    return size


def _batch_size(args, kwargs):
    rows, nodes = args[0].shape
    return rows, rows * nodes


def _matrix_cube(args, kwargs):
    s = args[0]
    n = int(s.N if hasattr(s, "N") else len(s))
    return n**3


# (module, attribute, layer name, aggregate into counters, size of one call)
MODULE_TARGETS = (
    (rate, "rate_point", "rate.rate_point", False, None),
    (rate, "joint_rate", "rate.joint_rate", False, None),
    (rate, "sup_theta", "rate.sup_theta", False, None),
    (rate, "solve_exponent_batch", "gibbs.solve_exponent_batch", False, _batch_size),
    (semicircle, "j_value", "semicircle.j_value", True, _size_of_arg(1)),
    (semicircle, "overlap", "semicircle.overlap", True, _size_of_arg(1)),
    (semicircle, "log_potential", "semicircle.log_potential", True, None),
    (free_energy, "f_hat", "free_energy.f_hat", False, None),
    (free_energy, "f_restricted", "free_energy.f_restricted", False, None),
    (free_energy, "f_tilde", "free_energy.f_tilde", False, None),
    (free_energy, "gibbs_solve", "gibbs.gibbs_solve", False, None),
    (free_energy, "phi_unbounded", "gibbs.phi_unbounded", False, None),
    (gibbs, "gibbs_solve", "gibbs.gibbs_solve", False, None),
    (montecarlo, "replica_rng", "montecarlo.replica_rng", False, None),
    (montecarlo, "sample_wigner", "montecarlo.sample_wigner", False, None),
    (montecarlo, "lambda1_and_vector", "montecarlo.lambda1_and_vector", False, _matrix_cube),
    (montecarlo, "eigvec_localization", "montecarlo.eigvec_localization", False, None),
)

# entry-law methods, wrapped on the instance the workload builds
DIST_TARGETS = (
    ("log_laplace", "entries.log_laplace", True, _size_of_arg(0)),
    ("sample", "entries.sample", False, lambda args, kwargs: int(args[0])),
)


class Tracer:
    """Spans and counters of one process; install, run, uninstall, write."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child seconds, size]
        self.counters = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, s, child s, size
        self._stack = []  # open frames: [name, span index, child seconds]
        self._patches = Patches()

    def _wrap(self, fn, name, aggregate, size):
        spans, counters, stack = self.spans, self.counters, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, None, 0.0]
            if not aggregate:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent[1] if parent else None, 0.0, 0])
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[2] += dt
                n = size(args, kwargs) if size else 0
                if aggregate:
                    c = counters[(name, parent[0] if parent else None)]
                    c[0] += 1
                    c[1] += dt
                    c[2] += frame[2]
                    c[3] += n
                else:
                    rec = spans[frame[1]]
                    rec[1], rec[2], rec[4], rec[5] = t0, t1, frame[2], n

        return traced

    def install(self, dist):
        """Wrap every module target that exists, and the law's methods."""
        for module, attr, name, aggregate, size in MODULE_TARGETS:
            if hasattr(module, attr):
                self._patches.wrap(module, attr, partial(self._wrap, name=name,
                                                         aggregate=aggregate, size=size))
        for attr, name, aggregate, size in DIST_TARGETS:
            self._patches.wrap(dist, attr, partial(self._wrap, name=name,
                                                   aggregate=aggregate, size=size))

    def uninstall(self):
        self._patches.restore()

    def n_calls(self) -> int:
        """Wrapped calls so far, spans and counted calls together."""
        return len(self.spans) + sum(c[0] for c in self.counters.values())

    @staticmethod
    def call_cost(n: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a throwaway tracer.

        Half the calls open a span and half go to a counter, each under an
        open parent frame as in the library; computing a call's size is not
        included.
        """
        def noop():
            pass

        def loop(fn):
            t0 = perf_counter()
            for _ in range(n):
                fn()
            return perf_counter() - t0

        probe = Tracer()
        probe._stack.append(["parent", None, 0.0])
        bare = 2 * loop(noop)
        traced = loop(probe._wrap(noop, "span", False, None)) + loop(
            probe._wrap(noop, "count", True, None))
        return max(traced - bare, 0.0) / (2 * n)

    def layers(self) -> dict:
        """Per-layer totals: calls, s, self_s, size, and child calls by name."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0,
                                   "children": defaultdict(int)})
        for name, t0, t1, parent, child, size in self.spans:
            d = out[name]
            d["calls"] += 1
            d["s"] += t1 - t0
            d["self_s"] += t1 - t0 - child
            if isinstance(size, tuple):
                d["size"] = tuple(a + b for a, b in zip(d["size"] or (0,) * len(size), size))
            else:
                d["size"] += size
            if parent is not None:
                out[self.spans[parent][0]]["children"][name] += 1
        for (name, parent), (calls, s, child, size) in self.counters.items():
            d = out[name]
            d["calls"] += calls
            d["s"] += s
            d["self_s"] += s - child
            d["size"] += size
            if parent is not None:
                out[parent]["children"][name] += calls
        return out

    def write(self, path):
        """Write spans (one JSON line each) and the per-parent counters."""
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
            for (name, parent), (calls, s, child, size) in sorted(
                self.counters.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            ):
                f.write(json.dumps({"counter": name, "parent": parent, "calls": calls,
                                    "s": s, "child_s": child, "size": size}) + "\n")


def _per(a, b):
    return a / b if b else 0.0


def layer_metrics(layers) -> dict:
    """The benchmark's per-layer metrics from ``Tracer.layers()`` totals."""
    def get(name):
        return layers.get(name) or {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0,
                                    "children": {}}

    m = {}
    for name in ("rate.rate_point", "rate.sup_theta", "semicircle.j_value",
                 "semicircle.overlap", "semicircle.log_potential",
                 "gibbs.solve_exponent_batch", "gibbs.gibbs_solve", "gibbs.phi_unbounded",
                 "free_energy.f_hat", "free_energy.f_restricted", "free_energy.f_tilde",
                 "entries.log_laplace", "entries.sample"):
        m[name + ".calls"] = get(name)["calls"]
        m[name + ".s"] = get(name)["s"]
    m["rate.joint_rate.calls"] = get("rate.joint_rate")["calls"]
    m["rate.sup_theta.self_s"] = get("rate.sup_theta")["self_s"]

    j = get("semicircle.j_value")
    m["semicircle.j_value.elems_per_call"] = _per(j["size"], j["calls"])

    b = get("gibbs.solve_exponent_batch")
    rows, cells = b["size"] if b["size"] else (0, 0)
    m["gibbs.solve_exponent_batch.rows"] = rows
    m["gibbs.solve_exponent_batch.nodes_per_row"] = _per(cells, rows)
    m["gibbs.solve_exponent_batch.computed_mb"] = cells * 8 / 1e6

    p = get("gibbs.phi_unbounded")
    m["gibbs.phi_unbounded.solves_per_call"] = _per(p["children"].get("gibbs.gibbs_solve", 0),
                                                    p["calls"])

    m["entries.log_laplace.elems"] = get("entries.log_laplace")["size"]
    m["entries.sample.elems"] = get("entries.sample")["size"]

    for name in ("replica_rng", "sample_wigner", "eigvec_localization", "lambda1_and_vector"):
        m[f"montecarlo.{name}.s"] = get("montecarlo." + name)["s"]
    m["montecarlo.sample_wigner.self_s"] = get("montecarlo.sample_wigner")["self_s"]
    m["montecarlo.lambda1_and_vector.computed_gflop"] = (
        4.0 / 3.0 * get("montecarlo.lambda1_and_vector")["size"] / 1e9
    )
    return m
