"""Pipeline benchmark for beliefbounds: seeded grid workloads, latency,
tightness and memory end to end, and a traced run for per-layer numbers.

Run from the root of a checkout:

    python3 pipebench/run.py --workload bf-warm --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped. ``--trace
1`` first runs the same command with ``--trace 0`` in a child process, then
repeats the loop with every layer's public calls wrapped (see tracing.py) and
reports per-layer counts and times, each layer's self time, and the tracing
overhead: how much slower the traced median query was than the companion's
(two separate runs, so it carries their run-to-run noise). Spans go to
``.pipebench/trace-<workload>-seed<seed>.json`` and every run's full result to
``.pipebench/result-<workload>-seed<seed>-trace<t>.json``.

Query and setup times are CPU seconds of the process doing the work (see
workloads.measure for why); query times are corrected for the host's speed
by a reference loop timed next to them (see hostspeed.py). Tightness and the
digest come from a fixed panel of queries answered after the timed loop (see
workloads.panel). Every count and time of the traced run is per query;
counts are taken over the run's first ``checked`` queries and repeat exactly
for one seed.

The program is imported from ``src/`` of the checkout, with whichever
contraction kernel it selects. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when the run completed, whether or not answers were correct; it is 2
when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".pipebench")

#: Fresh interpreters timed per run for setup_s (after one untimed start that
#: writes the bytecode caches). Each is timed by its CPU time, user plus
#: system, for the reason given in workloads.measure. They are not corrected
#: for the host's speed: starting an interpreter is mostly file-system and
#: import work, which the reference loop does not track (corrected, the
#: median of 5 runs of bf-sweep spread 19% instead of 13%).
SETUP_REPS = 5
SETUP_CODE = "import sys, beliefbounds; beliefbounds.parse_network(open(sys.argv[1]).read())"

LAYERS = ("model", "graphs", "tuples", "exact", "kernels", "bounder", "engine", "harness")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "beliefbounds", "__init__.py")):
        print(f"error: no beliefbounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            result = run_traced(args, wl, workdir)
        else:
            result = run_untraced(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return 0


def env_info() -> dict:
    import numpy

    import beliefbounds

    return {
        "kernels.compiled": int(beliefbounds.kernels.COMPILED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_untraced(args, wl, workdir) -> dict:
    import beliefbounds as bb
    import workloads

    raw = workloads.measure(bb, wl, args.seed, args.seconds, False, workdir,
                            hard_limit(args.seconds))
    fixed = workloads.panel(bb, wl, workdir)
    setup = setup_times(os.path.join(workdir, "network.uai"))
    lat = raw["latencies"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "query_s_p50": (statistics.median(lat), "s"),
        "query_s_tail": (percentile(lat, wl.tail_pct), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (raw["at_checked"]["rss_mb"], "MB"),
        "mean_width": (fixed["mean_width"], "prob"),
        "i_h_mean": (fixed["i_h_mean"], "prob"),
        "pe_rel_width": (fixed["pe_rel_width"], "ratio"),
    }
    attempted = raw["attempted"] + fixed["attempted"]
    failures = raw["failures"] + [f"panel {f}" for f in fixed["failures"]]
    notes = {
        "tail_percentile": wl.tail_pct,
        "samples": len(lat),
        "host_speed": raw["speed"],
        "cpu_query_s_p50": statistics.median(raw["cpu"]),
        "wall_query_s_p50": statistics.median(raw["wall"]),
        "checked_queries": raw["checked"],
        "panel_queries": fixed["attempted"],
        "failed_frac": len(failures) / attempted,
        "strict_misses": raw["strict_misses"] + fixed["strict_misses"],
        "panel_digest": fixed["digest"],
        "setup_samples_s": setup,
    }
    return finish(args, wl, attempted, failures, metrics, notes)


def run_traced(args, wl, workdir) -> dict:
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
         "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"untraced companion run failed with code {child.returncode}")
    for line in lines[:-1]:
        print(f"untraced | {line}")
    base_p50 = json.loads(lines[-1])["metrics"]["query_s_p50"]["value"]

    import beliefbounds as bb
    import workloads

    raw = workloads.measure(bb, wl, args.seed, args.seconds, True, workdir,
                            hard_limit(args.seconds))
    tracer = raw.pop("tracer")
    lat = raw["latencies"]
    trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
    tracer.dump(trace_path, {"workload": wl.name, "seed": args.seed})
    metrics = layer_metrics(bb, raw, tracer, len(lat))
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(lat) / base_p50 - 1.0), "%")
    notes = {
        "samples": len(lat),
        "checked_queries": raw["checked"],
        "host_speed": raw["speed"],
        "traced_query_s_p50": statistics.median(lat),
        "untraced_query_s_p50": base_p50,
        "failed_frac": len(raw["failures"]) / raw["attempted"],
        "checked_digest": raw["digest"],
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(trace_path, ROOT),
    }
    return finish(args, wl, raw["attempted"], raw["failures"], metrics, notes)


def layer_metrics(bb, raw, tracer, n: int) -> dict:
    """Per-query counts over the checked queries, per-query times over all."""
    k = raw["checked"]
    snap = raw["at_checked"]["trace"]
    calls = {name: st[0] for name, st in snap["stats"].items()}
    cnt = snap["counts"]
    stats = tracer.stats
    counts = tracer.counts

    def per_q(name):  # calls of one span per checked query
        return calls.get(name, 0) / k

    def secs(*names):  # inclusive seconds per query
        return sum(stats[x][1] for x in names if x in stats) / n

    lookups = sum(n for x, n in calls.items() if x.startswith("exact.eliminate@"))
    parses = stats["model.parse"][0] if "model.parse" in stats else 0
    out = {
        "model.parse_s": ((stats["model.parse"][1] / parses) if parses else 0.0, "s"),
        "model.cache_entries": (raw["at_checked"]["cache_entries"] or 0, "count"),
        "graphs.cutset_s": (secs("graphs.cutset"), "s"),
        "graphs.cutset_size": (cnt.get("graphs.cutset_size", 0) / k, "count"),
        "graphs.log2_m": (cnt.get("graphs.log2_m", 0) / k, "bits"),
        "tuples.select_s": (secs("tuples.select"), "s"),
        "tuples.pe_evals": (per_q("tuples.pe_eval"), "count"),
    }
    for caller in ("engine", "bounder", "tuples"):
        out[f"exact.eliminate_calls.{caller}"] = (per_q(f"exact.eliminate@{caller}"), "count")
    out.update({
        "exact.eliminate_s": (secs(*[x for x in stats if x.startswith("exact.eliminate@")]), "s"),
        "exact.plan_builds": (per_q("exact.plan_build"), "count"),
        "exact.plan_hit_ratio": (1.0 - calls.get("exact.plan_build", 0) / lookups
                                 if lookups else 0.0, "ratio"),
        "kernels.contract_calls": (per_q("kernels.contract"), "count"),
        "kernels.contract_s": (secs("kernels.contract"), "s"),
        "kernels.gathered_elems": (cnt.get("kernels.gathered_elems", 0) / k, "count"),
        "kernels.bytes_computed": (cnt.get("kernels.bytes_computed", 0) / k, "B"),
        "kernels.compiled": (int(bb.kernels.COMPILED), "bool"),
        "bounder.tuple_tables_calls": (per_q("bounder.tuple_tables"), "count"),
        "bounder.tuple_tables_s": (secs("bounder.tuple_tables"), "s"),
        "bounder.invocations": (cnt.get("bounder.invocations", 0) / k, "count"),
        "bounder.propagate_calls": (per_q("bounder.propagate"), "count"),
        "bounder.propagate_sweeps": (cnt.get("bounder.propagate_sweeps", 0) / k, "count"),
        "bounder.skipped_vars": (cnt.get("bounder.skipped_vars", 0) / k, "count"),
        "bounder.lp_solves": (per_q("bounder.lp"), "count"),
        "bounder.lp_member_solves": (per_q("bounder.lp_member"), "count"),
        "bounder.lp_s": (secs("bounder.lp"), "s"),
        "engine.prepare_s": (secs("engine.prepare"), "s"),
        "engine.exact_sums_s": (counts["engine.exact_sums_s"] / n, "s"),
        "engine.plugin_s": (counts["engine.plugin_s"] / n, "s"),
        "engine.assembly_s": (counts["engine.assembly_s"] / n, "s"),
        "engine.clamp_events": (cnt.get("engine.clamp_events", 0) / k, "count"),
        "engine.degenerate": (cnt.get("engine.degenerate", 0) / k, "count"),
        "engine.strict_misses": (raw["strict_misses"] / k, "count"),
        "harness.run_s": (secs("harness.run"), "s"),
        "harness.serialize_s": (secs("harness.serialize"), "s"),
        "harness.json_bytes": (cnt.get("harness.json_bytes", 0) / k, "B"),
    })
    own = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        own["bench" if layer == "query" else layer] += st[2]
    for layer, total in own.items():
        out[f"self_s.{layer}"] = (total / n, "s")
    return out


def finish(args, wl, attempted, failures, metrics, notes) -> dict:
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_info(),
        "notes": notes,
        "failures": failures,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("env " + "  ".join(f"{k} {v}" for k, v in result["env"].items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["notes"].items():
        print(f"  {name:<30} {value}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def setup_times(network_path: str) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE, network_path]
    times = []
    for rep in range(SETUP_REPS + 1):
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, env=env, check=True, timeout=120)
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if rep:
            times.append(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)
    return times


def hard_limit(seconds: float) -> float:
    """Loop cut-off that keeps a traced run (two loops) within 180 s."""
    return 2 * seconds + 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


if __name__ == "__main__":
    raise SystemExit(main())
