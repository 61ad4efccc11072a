"""Spans around the public calls of each ``beliefbounds`` module.

The tracer replaces a function wherever the package holds a reference to it
(module globals, the package namespace, or a class attribute) with a wrapper
that times the call, so no line of the program changes. Every wrapped call
adds its duration to its span name's inclusive time and, minus the time of
the wrapped calls made inside it, to its self time. Calls at coarse
boundaries are also kept as individual spans (name, parent, query, start,
end) and written out when the run ends; the hot leaf calls (eliminations,
kernel contractions, LP solves) are only aggregated, which keeps memory flat.

A wrapper does nothing but call through while ``tracer.active`` is false, so
work the benchmark does between queries is not counted.
"""

from __future__ import annotations

import json
import math
import sys
import time
import types
from collections import defaultdict

#: Span names kept as individual records; everything else is aggregated only.
RECORDED = {
    "query", "harness.run", "harness.serialize", "model.parse", "graphs.cutset",
    "tuples.select", "engine.prepare", "engine.assembly", "bounder.make",
    "bounder.tuple_tables", "bounder.propagate",
}


class Tracer:
    """Per-name call counts and inclusive/self times, recorded spans, and the
    objects the hooks keep until the end of the current query."""

    def __init__(self):
        self.active = False
        self.query = -1
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.bounders: list = []
        self.reports: list = []
        self.networks: list = []
        self.last_network = None
        self._stack: list[list] = []  # [child time, span id or None]
        self._undo: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        sid = None
        if name in RECORDED:
            sid = len(self.spans)
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            self.spans.append([sid, parent, name, self.query, 0.0, 0.0])
        frame = [0.0, sid]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            stack.pop()
            st = self.stats[name]
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[0]
            if stack:
                stack[-1][0] += dt
            if sid is not None:
                self.spans[sid][4:6] = [t0, t1]

    # -- installation -----------------------------------------------------

    def wrap(self, owner, attr: str, name, hook=None):
        """Replace ``owner.attr`` by a timed wrapper named ``name`` (a string,
        or a function of the tracer giving the name at call time). ``hook``
        runs after each active call with (args, kwargs, result)."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(tracer)
            result = tracer.call(span, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return wrapper

    def wrap_everywhere(self, fn, name, hook=None):
        """Wrap every reference the package holds to ``fn``."""
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.wrap(mod, attr, name, hook)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
        }

    def dump(self, path: str, meta: dict):
        keys = ["id", "parent", "name", "query", "start", "end"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "beliefbounds" or n.startswith("beliefbounds.")) and m is not None]


# ---------------------------------------------------------------------------
# the wrapped boundaries of each layer

def _count(key, value_of):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += value_of(args, kwargs, result)
    return hook


def _keep(listname):
    def hook(tracer, args, kwargs, result):
        getattr(tracer, listname).append(result)
    return hook


def _cutset_hook(tracer, args, kwargs, result):
    tracer.counts["graphs.cutset_size"] += result.size
    tracer.counts["graphs.log2_m"] += math.log2(result.n_tuples)


def _propagate_hook(tracer, args, kwargs, result):
    tracer.counts["bounder.propagate_sweeps"] += result.iterations
    tracer.counts["bounder.skipped_vars"] += len(result.skipped)


def _contract_hook(tracer, args, kwargs, result):
    tables, gathers, n_out, n_sum = args
    elems = len(gathers) * n_out * n_sum
    tracer.counts["kernels.gathered_elems"] += elems
    # computed, not measured: one int32 index and one float64 read per
    # gathered element, one float64 written per output entry
    tracer.counts["kernels.bytes_computed"] += elems * 12 + n_out * 8


def _eliminate_from_exact(tracer) -> str:
    # exact.eliminate reached through exact's own module global: attribute it
    # to the layer whose span is open (tuples for bucket_eliminate_pe)
    for frame in reversed(tracer._stack):
        sid = frame[1]
        if sid is not None:
            return "exact.eliminate@" + tracer.spans[sid][2].split(".", 1)[0]
    return "exact.eliminate@bench"


def install(bb) -> Tracer:
    """Wrap the public boundaries of every layer of the imported package
    ``bb``; returns the (inactive) tracer."""
    t = Tracer()
    model, graphs, tuples, exact = bb.model, bb.graphs, bb.tuples, bb.exact
    kernels, bounder, engine, harness = bb.kernels, bb.bounder, bb.engine, bb.harness

    t.wrap_everywhere(model.parse_network, "model.parse", _keep("networks"))
    t.wrap_everywhere(graphs.find_loop_cutset, "graphs.cutset", _cutset_hook)
    t.wrap_everywhere(tuples.select_tuples_gibbs, "tuples.select")
    t.wrap(tuples, "bucket_eliminate_pe", "tuples.pe_eval")
    # one wrapper per importing module, so eliminations split by caller
    t.wrap(engine, "eliminate", "exact.eliminate@engine")
    t.wrap(bounder, "eliminate", "exact.eliminate@bounder")
    t.wrap(tuples, "eliminate", "exact.eliminate@tuples")
    t.wrap(exact, "eliminate", _eliminate_from_exact)
    t.wrap(exact, "_build_plan", "exact.plan_build")
    # exact.eliminate reads kernels.active at call time
    proxy = types.SimpleNamespace(contract_bucket=kernels.active.contract_bucket)
    t._undo.append((kernels, "active", kernels.active))
    kernels.active = proxy
    t.wrap(proxy, "contract_bucket", "kernels.contract", _contract_hook)
    t.wrap_everywhere(bounder.make_bounder, "bounder.make", _keep("bounders"))
    t.wrap(bounder.JointBounder, "tuple_tables", "bounder.tuple_tables")
    t.wrap_everywhere(bounder.propagate_marginal_bounds, "bounder.propagate", _propagate_hook)
    t.wrap_everywhere(bounder.solve_blanket_lp_greedy, "bounder.lp")
    t.wrap(bounder, "_single_member_opt", "bounder.lp_member")
    t.wrap_everywhere(engine.prepare_inputs, "engine.prepare")
    t.wrap_everywhere(engine.compute_report, "engine.assembly", _keep("reports"))
    t.wrap_everywhere(harness.run_experiment, "harness.run")
    t.wrap_everywhere(
        harness.dumps_canonical, "harness.serialize",
        _count("harness.json_bytes", lambda a, k, r: len(r.encode())),
    )
    return t
