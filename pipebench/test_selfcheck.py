"""Self-checks of the benchmark itself. Run from the repository root:

    python3 -m pytest pipebench
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import beliefbounds as bb  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402


@pytest.fixture
def workdir(request):
    path = os.path.join(ROOT, ".pipebench", f"selfcheck-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _counters(raw) -> dict:
    trace = raw["at_checked"]["trace"]
    calls = {name: st[0] for name, st in trace["stats"].items()}
    # times vary, and so does the JSON size by a few bytes: the written report
    # carries its own timings subtree
    counts = {k: v for k, v in trace["counts"].items()
              if not k.endswith("_s") and k != "harness.json_bytes"}
    return {"calls": calls, "counts": counts,
            "cache_entries": raw["at_checked"]["cache_entries"],
            "strict_misses": raw["strict_misses"], "digest": raw["digest"]}


@pytest.mark.parametrize(
    "name,rows,cols,checked",
    [("bf-sweep", 3, 4, 3), ("abdp-sweep", 3, 3, 2), ("bf-warm", 3, 4, 3), ("bf-warm", 7, 7, 1)],
)
def test_traced_counters_repeat_exactly(workdir, name, rows, cols, checked):
    wl = dataclasses.replace(workloads.WORKLOADS[name], rows=rows, cols=cols, checked=checked)
    runs = [workloads.measure(bb, wl, 11, 0.0, True, workdir, hard_limit=120) for _ in range(2)]
    for raw in runs:
        assert raw["failures"] == []
        assert len(raw["latencies"]) == checked
    first, second = (_counters(raw) for raw in runs)
    assert first == second
    assert first["calls"]["query"] == checked
    assert sum(n for k, n in first["calls"].items() if k.startswith("exact.eliminate@")) > 0


def test_panel_is_the_same_whatever_the_run(workdir):
    wl = dataclasses.replace(workloads.WORKLOADS["abdp-sweep"], rows=3, cols=3, panel=2)
    first, second = (workloads.panel(bb, wl, workdir) for _ in range(2))
    assert first["failures"] == [] and first["attempted"] == 2
    assert first == second
    assert 0.0 <= first["mean_width"] <= first["i_h_mean"] <= 1.0


def test_oracle_matches_enumeration():
    grid = gen.Grid(3, 4, 5)
    bn = bb.parse_network(grid.text())
    oracle = Oracle(grid.parents, grid.tables)
    for query in range(4):
        e = gen.evidence(grid, 5, query)
        pe, marginals = oracle.solve(e)
        want_pe, want = bb.enumerate_oracle(bn, e)
        assert pe == pytest.approx(want_pe, rel=1e-12, abs=0.0)
        assert set(marginals) == {v for v in range(bn.n) if v not in e}
        for v, table in marginals.items():
            assert table == pytest.approx(want[v], rel=0.0, abs=1e-12)


def test_host_speed_correction_scales_by_the_nearby_reference_runs():
    ref = hostspeed.REF_S
    assert hostspeed.corrected([0.5, 0.25], [ref, ref, ref]) == [0.5, 0.25]
    # a host running at half speed around both calls
    assert hostspeed.corrected([0.5, 0.25], [2 * ref] * 3) == [0.25, 0.125]
    # with no window, only the reference runs right before and after count
    assert hostspeed.corrected([1.0, 1.0], [ref, ref, 3 * ref], window=0) == [1.0, 0.5]
    assert hostspeed.speed([2 * ref, 2 * ref, ref]) == 0.5


def test_diagonal_evidence_fixes_the_nodes_and_draws_the_values():
    grid = gen.Grid(4, 5, 2)
    draws = [gen.evidence(grid, 2, query, diagonal=True) for query in range(20)]
    assert all(sorted(e) == [0, 6, 12, 18] for e in draws)
    assert len({tuple(e.values()) for e in draws}) > 1


def test_check_flags_unsound_and_malformed_intervals():
    truth = {0: [0.25, 0.75], 1: [0.5, 0.5]}
    good = [(5, 0.6, (0.1, 0.3), {0: [(0.2, 0.3), (0.7, 0.8)], 1: [(0.5, 0.5), (0.4, 0.6)]})]
    assert workloads.check(good, 0.2, truth) == ([], 0)

    near = [(5, 0.6, (0.1, 0.2 - 1e-12), good[0][3])]
    assert workloads.check(near, 0.2, truth) == ([], 1)

    bad = [(5, 0.05, (0.3, 0.4), {0: [(0.3, 0.2), (0.7, 0.8)], 1: [(0.5, 0.5), (0.4, 0.6)]})]
    errors, _ = workloads.check(bad, 0.2, truth)
    assert any("P(e)" in err and "misses" in err for err in errors)
    assert any("0 <= L <= U <= 1" in err for err in errors)
    assert any("> i_h" in err for err in errors)

    missing = [(5, 0.6, (0.1, 0.3), {0: [(0.2, 0.3), (0.7, 0.8)]})]
    errors, _ = workloads.check(missing, 0.2, truth)
    assert errors == ["h=5: reported variables differ from the unobserved ones"]


def test_benchmark_json_names_what_the_runner_reports(workdir):
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    wl = dataclasses.replace(workloads.WORKLOADS["bf-sweep"], rows=3, cols=3, checked=1)
    raw = workloads.measure(bb, wl, 3, 0.0, True, workdir, hard_limit=60)
    metrics = run.layer_metrics(bb, raw, raw["tracer"], len(raw["latencies"]))
    metrics["trace.overhead_pct"] = (0.0, "%")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]
