"""The benchmark's workloads: inputs, one query, the check, the timed loop.

Every workload is a closed loop with one client: the next query is sent when
the previous one has returned, in one process, with ``jobs=1``. Query ``i``
of a run depends only on the workload, the seed and ``i``.

The first ``checked`` queries of a run are its fixed sample: work counters
and the memory figure are taken after exactly these, so they repeat exactly
for one seed. The loop then goes on until the time is up; those later queries
add latency samples and are checked as well.

Interval widths differ far more between seeds than any change of the program
would move them (the skewed CPTs make the covered mass vary from query to
query), so tightness and the digest come from a fixed panel of queries that
every run answers the same way, outside the timed loop (see ``panel``).
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from dataclasses import dataclass

import gen
import hostspeed
import tracing
from oracle import Oracle

#: Absolute slack of the package's own acceptance tests.
SLACK = 1e-9

#: Seed of the fixed panel every run answers for tightness and the digest.
PANEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    cols: int
    warm: bool  # networks parsed once, public API; else run_experiment from files
    plugin: str
    hs: tuple[int, ...]  # each clipped to the query's cutset space M
    iters: int
    checked: int  # queries in the fixed sample of a run (see module docstring)
    panel: int  # queries in the fixed panel (see panel())
    networks: int = 1  # networks parsed once by the warm workload (see Session)
    diagonal: bool = False  # evidence on the grid's diagonal (see gen.evidence)

    @property
    def tail_pct(self) -> int:
        """Highest whole percentile with at least 10 of ``checked`` samples
        beyond it (every run has at least ``checked`` samples)."""
        return math.floor(100 * (self.checked - 10) / self.checked)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bf-sweep",
            "cold CLI-style compare sweep, a new 4x6 network per query: per-tuple exact "
            "eliminations and kernel contractions do most of the work (exact layer, kernel)",
            4, 6, False, "bf", (0, 10, 30), 50, 60, 10,
        ),
        Workload(
            "abdp-sweep",
            "cold sweep with the abdp bounder on 4x4 networks, diagonal evidence: blanket-LP "
            "propagation does nearly all the work, the exact layer almost none (bounder; control)",
            4, 4, False, "abdp", (0, 1), 4, 80, 5, diagonal=True,
        ),
        Workload(
            "bf-warm",
            "four 7x7 networks parsed once serve many evidence sets via the public API: "
            "Gibbs selection (M > 4096), extension-prior eliminations, growing caches",
            7, 7, True, "bf", (10,), 50, 20, 4, 4,
        ),
    )
}


class Session:
    """Inputs of one (workload, seed) run and the calls that make a query.

    The cold workloads give every query its own network, written to a file
    with its evidence. The warm one parses ``wl.networks`` networks once and
    sends query i to network i mod ``wl.networks``: how long a warm query
    takes depends on the network's tables, so one network per run would make
    the run's median depend on the seed more than on the program.
    """

    def __init__(self, bb, wl: Workload, seed: int, workdir: str):
        self.bb, self.wl, self.seed, self.workdir = bb, wl, seed, workdir
        self.net_path = os.path.join(workdir, "network.uai")
        self.paths: dict = {}  # einsum paths, shared by every network of this shape
        self.bns: list = []
        if wl.warm:
            self.grids = [gen.Grid(wl.rows, wl.cols, seed, j) for j in range(wl.networks)]
            self.oracles = [Oracle(g.parents, g.tables, self.paths) for g in self.grids]
            self._write(self.net_path, self.grids[0].text())

    def open(self):
        """The warm workload parses its networks once, before the queries."""
        if self.wl.warm:
            self.bns = [self.bb.parse_network(g.text()) for g in self.grids]

    def _write(self, path, text):
        with open(path, "w") as fh:
            fh.write(text)

    def prepare(self, i: int) -> dict:
        """Query i's inputs, written where the program will read them."""
        wl = self.wl
        net = i % wl.networks if wl.warm else None
        grid = self.grids[net] if wl.warm else gen.Grid(wl.rows, wl.cols, self.seed, i)
        e = gen.evidence(grid, self.seed, i, wl.diagonal)
        text = gen.evidence_text(e)
        q = {"i": i, "e": e, "text": text, "grid": grid, "net": net}
        if not wl.warm:
            net_text = grid.text()
            self._write(self.net_path, net_text)
            ev_path = os.path.join(self.workdir, "query.evid")
            self._write(ev_path, text)
            # the query's cutset space M, from the program's own cutset
            ref = self.bb.parse_network(net_text)
            m = self.bb.find_loop_cutset(ref, exclude=frozenset(e)).n_tuples
            q["config"] = self.bb.ExperimentConfig(
                network=self.net_path, evidence=ev_path,
                sweep_h=tuple(sorted({min(h, m) for h in wl.hs})),
                plugin=wl.plugin, iters=wl.iters, oracle="off",
                out_json=os.path.join(self.workdir, "out.json"),
            )
        return q

    def truth(self, q: dict):
        """The oracle's (P(e), posterior marginals) for query q."""
        grid = q["grid"]
        if self.wl.warm:
            return self.oracles[q["net"]].solve(q["e"])
        return Oracle(grid.parents, grid.tables, self.paths).solve(q["e"])

    def run(self, q: dict):
        """One query, the part that is timed. Returns the program's answer."""
        bb = self.bb
        if not self.wl.warm:
            return bb.harness.run_experiment(q["config"])
        bn = self.bns[q["net"]]
        e = bb.model.parse_evidence(q["text"])
        cut = bb.graphs.find_loop_cutset(bn, exclude=frozenset(e))
        h = min(self.wl.hs[0], cut.n_tuples)
        active = bb.tuples.select_tuples_gibbs(bn, e, cut, h)
        bounder = bb.bounder.make_bounder(self.wl.plugin, bn, e, cut.vars)
        return bb.engine.compute_report(bb.engine.prepare_inputs(bn, e, active, bounder))

    def runs(self, answer) -> list[tuple]:
        """(h, i_h, P(e) interval, marginal intervals) per h, ascending."""
        if self.wl.warm:
            r = answer
            return [(r.h, r.i_h, tuple(r.evidence), r.marginals)]
        return [
            (run["h"], run["i_h"], tuple(run["evidence"]),
             {int(v): [tuple(iv) for iv in rows] for v, rows in run["marginals"].items()})
            for run in answer["runs"]
        ]

    def canonical(self, answer) -> str:
        """Canonical JSON of the answer without its timings subtree."""
        bb = self.bb
        if self.wl.warm:
            payload = bb.harness.report_payload(answer, {})
        else:
            payload = {k: v for k, v in answer.items() if k != "timings"}
        return bb.harness.dumps_canonical(payload)


def check(runs, pe: float, marginals: dict) -> tuple[list[str], int]:
    """Errors of one answer against the oracle, and its zero-tolerance misses.

    Every interval must satisfy 0 <= L <= U <= 1 and contain the truth within
    SLACK, every marginal interval must be at most i_h (+ SLACK) wide, and
    every unobserved variable must be reported.
    """
    errors: list[str] = []
    strict = 0

    def interval(label, lo, hi, truth):
        nonlocal strict
        if not (0.0 <= lo <= hi <= 1.0):
            errors.append(f"{label}: [{lo!r}, {hi!r}] is not within 0 <= L <= U <= 1")
        if truth < lo - SLACK or truth > hi + SLACK:
            errors.append(f"{label}: [{lo!r}, {hi!r}] misses {truth!r}")
        if truth < lo or truth > hi:
            strict += 1

    for h, i_h, (lo, hi), rows in runs:
        interval(f"h={h} P(e)", lo, hi, pe)
        if set(rows) != set(marginals):
            errors.append(f"h={h}: reported variables differ from the unobserved ones")
            continue
        for v, table in marginals.items():
            for x, (l, u) in enumerate(rows[v]):
                interval(f"h={h} P(X{v}={x}|e)", l, u, float(table[x]))
                if u - l > i_h + SLACK:
                    errors.append(f"h={h} P(X{v}={x}|e): width {u - l!r} > i_h {i_h!r}")
    return errors, strict


def tightness(runs) -> tuple[list[float], float, float]:
    """Marginal widths, i_h and relative P(e) width at the largest h."""
    h, i_h, (lo, hi), rows = runs[-1]
    widths = [u - l for ivs in rows.values() for (l, u) in ivs]
    return widths, i_h, (hi - lo) / hi if hi > 0.0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bb, wl: Workload, seed: int, seconds: float, trace: bool, workdir: str,
            hard_limit: float) -> dict:
    """Run the closed loop and check every answer; returns raw results.

    The loop runs at least ``wl.checked`` queries and until ``seconds`` of
    wall-clock time have passed, but stops after ``hard_limit`` seconds
    whatever the count. Each query's latency is the CPU time of this process
    over the call: the program runs on this one thread (``jobs=1``), so on an
    idle machine it equals the wall-clock time, but it leaves out time the
    host takes from a virtual machine, which on a shared 2-vCPU one made
    wall-clock times of equal work differ by up to 20% between runs. The
    latencies returned are those CPU times corrected for the host's speed
    (see hostspeed.py); the raw CPU times, the wall-clock times and the
    host's speed factor are kept alongside.
    """
    tracer = tracing.install(bb) if trace else None
    try:
        sess = Session(bb, wl, seed, workdir)
        if tracer:
            tracer.active = True
        sess.open()
        if tracer:
            tracer.active = False
        cpus: list[float] = []  # CPU seconds per query
        walls: list[float] = []  # wall-clock seconds per query
        refs = [hostspeed.reference()]  # before the first query and after each
        done: list[tuple] = []  # (query, answer or None, error or None)
        at_checked = None
        start = time.perf_counter()
        i = 0
        while True:
            now = time.perf_counter()
            if now - start >= hard_limit or (i >= wl.checked and now - start >= seconds):
                break
            q = sess.prepare(i)
            answer, error = None, None
            if tracer:
                tracer.query = i
                tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer:
                    answer = tracer.call("query", sess.run, (q,), {})
                else:
                    answer = sess.run(q)
            except Exception as exc:  # a failed query is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            if tracer:
                tracer.active = False
                _absorb(tracer, sess)
            refs.append(hostspeed.reference())
            cpus.append(cpu)
            walls.append(wall)
            done.append((q, answer, error))
            i += 1
            if i == wl.checked:
                at_checked = _snapshot(tracer, sess)
        if at_checked is None:  # the hard limit came first
            at_checked = _snapshot(tracer, sess)
    finally:
        if tracer:
            tracer.uninstall()

    checked = min(wl.checked, len(done))
    out = assess(sess, done, checked)
    out.update(latencies=hostspeed.corrected(cpus, refs), cpu=cpus, wall=walls,
               speed=hostspeed.speed(refs), checked=checked, at_checked=at_checked,
               tracer=tracer)
    return out


def panel(bb, wl: Workload, workdir: str) -> dict:
    """Answer and check the workload's fixed panel, untimed.

    The panel is queries 0 .. ``wl.panel``-1 of seed PANEL_SEED, the same in
    every run whatever its seed: interval widths and the digest are taken
    here, so they move only when the program's answers move.
    """
    sess = Session(bb, wl, PANEL_SEED, workdir)
    sess.open()
    done = []
    for i in range(wl.panel):
        q = sess.prepare(i)
        try:
            done.append((q, sess.run(q), None))
        except Exception as exc:  # a failed query is counted, not fatal
            done.append((q, None, f"{type(exc).__name__}: {exc}"))
    return assess(sess, done, wl.panel)


def assess(sess: Session, done, first: int) -> dict:
    """Check every answer against the oracle. Zero-tolerance misses,
    tightness and the digest are taken over the first ``first`` queries."""
    failures: list[str] = []
    strict = 0
    widths: list[float] = []
    ihs: list[float] = []
    pe_rel: list[float] = []
    digest = hashlib.sha256()
    for q, answer, error in done:
        if error is None:
            pe, marginals = sess.truth(q)
            runs = sess.runs(answer)
            errs, misses = check(runs, pe, marginals)
            if errs:
                error = "; ".join(errs[:3])
        if error is not None:
            failures.append(f"query {q['i']}: {error}")
        elif q["i"] < first:
            strict += misses
            w, i_h, rel = tightness(runs)
            widths += w
            ihs.append(i_h)
            pe_rel.append(rel)
        if q["i"] < first:
            text = "" if answer is None else sess.canonical(answer)
            digest.update(hashlib.sha256(text.encode()).hexdigest().encode())
    return {
        "attempted": len(done),
        "failures": failures,
        "strict_misses": strict,
        "mean_width": math.fsum(widths) / len(widths) if widths else float("nan"),
        "i_h_mean": math.fsum(ihs) / len(ihs) if ihs else float("nan"),
        "pe_rel_width": math.fsum(pe_rel) / len(pe_rel) if pe_rel else float("nan"),
        "digest": digest.hexdigest(),
    }


def _snapshot(tracer, sess) -> dict:
    """Memory and counters after the checked queries."""
    out = {"rss_mb": peak_rss_mb(), "cache_entries": None, "trace": None}
    if tracer:
        bns = sess.bns if sess.wl.warm else [tracer.last_network]
        out["cache_entries"] = sum(len(bn._cache) for bn in bns)
        out["trace"] = tracer.snapshot()
    return out


def _absorb(tracer, sess):
    """Fold what one query left in the tracer's lists into its counters, then
    drop the objects, so tracing keeps no network or bounder alive."""
    c = tracer.counts
    for b in tracer.bounders:
        c["bounder.invocations"] += b.invocations
    for r in tracer.reports:
        c["engine.clamp_events"] += r.clamp_events
        c["engine.degenerate"] += len(r.degenerate)
        c["engine.exact_sums_s"] += r.timings.get("exact_sums", 0.0)
        c["engine.plugin_s"] += r.timings.get("plugin", 0.0)
        c["engine.assembly_s"] += r.timings.get("assembly", 0.0)
    if tracer.networks:
        tracer.last_network = tracer.networks[-1]
    tracer.bounders.clear()
    tracer.reports.clear()
    tracer.networks.clear()
