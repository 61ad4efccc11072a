"""Acceptance criteria: one test (and one pass/fail line) per criterion.

Criteria 2-8, 10 and 11 share one set of precomputed reports: for every suite
case, both plug-in bounders are run at every truncation level h in {0..M}
with nested active prefixes and a shared memoizing bounder per case, exactly
how the sweep pipeline runs them.
"""

import math
import time

import numpy as np
import pytest

from beliefbounds.bounder import make_bounder, solve_blanket_lp_greedy
from beliefbounds.engine import compute_report, prepare_inputs
from beliefbounds.exact import bucket_eliminate_marginals, bucket_eliminate_pe
from beliefbounds.graphs import Cutset
from beliefbounds.harness import ExperimentConfig, dumps_canonical, run_experiment
from beliefbounds.model import parse_network
from beliefbounds.tuples import (
    ActiveTupleSet,
    build_truncated_tree,
    partition_check,
    select_tuples_gibbs,
)

from conftest import lp_basis_enumeration, random_lp, solve_blanket_lp_exact

_REPORTS = None
_SUITE_SECONDS = None


def _compute_all(acceptance_suite):
    """reports[case_index][kind][h] plus the wall-clock cost of it all."""
    global _REPORTS, _SUITE_SECONDS
    if _REPORTS is not None:
        return _REPORTS, _SUITE_SECONDS
    t0 = time.perf_counter()
    per_case = []
    for case in acceptance_suite:
        runs = {}
        for kind, bounder in (
            ("bf", make_bounder("bf", case.bn, case.e, case.cutset.vars)),
            (
                "abdp",
                make_bounder(
                    "abdp", case.bn, case.e, case.cutset.vars, k=64, iters=1
                ),
            ),
        ):
            rows = []
            for h in range(case.m + 1):
                inputs = prepare_inputs(
                    case.bn, case.e, case.active_full.prefix(h), bounder
                )
                rows.append(compute_report(inputs))
            runs[kind] = rows
        per_case.append(runs)
    _REPORTS = per_case
    _SUITE_SECONDS = time.perf_counter() - t0
    return _REPORTS, _SUITE_SECONDS


@pytest.fixture(scope="session")
def suite_reports(acceptance_suite):
    return _compute_all(acceptance_suite)[0]


def _queries(case, report):
    """(variable, value, truth, (lo, hi)) over every marginal interval."""
    for var, rows in report.marginals.items():
        truth = case.posteriors[var]
        for value, (lo, hi) in enumerate(rows):
            yield var, value, float(truth[value]), (lo, hi)


def test_criterion_01_worked_example_tree_under_a_millisecond():
    c = Cutset(vars=(0, 1, 2, 3), cards=(2, 3, 2, 2))
    active = ActiveTupleSet(
        cutset=c,
        tuples=((0, 1, 0, 0), (0, 1, 0, 1), (0, 2, 1, 0), (0, 2, 1, 1)),
        pe=np.zeros(4),
    )
    build_truncated_tree(c, active)  # warm-up
    t0 = time.perf_counter()
    tree = build_truncated_tree(c, active)
    elapsed = time.perf_counter() - t0
    assert tree.cutset.n_tuples == 24
    assert tree.partials == ((0, 0), (0, 1, 1), (0, 2, 0), (1,))
    assert tree.active.h + tree.m_prime == 8
    assert elapsed < 1e-3
    print(f"criterion 1: PASS (tree built in {elapsed * 1e6:.0f} us)")


def test_criterion_02_sandwich_every_case_h_bounder_query(
    acceptance_suite, suite_reports
):
    assert len(acceptance_suite) >= 200
    checked = 0
    for case, runs in zip(acceptance_suite, suite_reports):
        assert case.bn.n <= 12
        assert max(case.bn.cards) <= 3
        for kind in ("bf", "abdp"):
            assert len(runs[kind]) == case.m + 1
            for rep in runs[kind]:
                for _var, _val, truth, (lo, hi) in _queries(case, rep):
                    assert lo - 1e-9 <= truth <= hi + 1e-9
                    assert -1e-12 <= lo <= hi <= 1 + 1e-12
                    checked += 1
    seconds = _SUITE_SECONDS
    assert seconds < 300.0
    print(
        f"criterion 2: PASS ({len(acceptance_suite)} cases, {checked} sandwich "
        f"checks, suite computed in {seconds:.1f}s)"
    )


def test_criterion_03_saturation_is_exact(acceptance_suite, suite_reports):
    for case, runs in zip(acceptance_suite, suite_reports):
        for kind in ("bf", "abdp"):
            rep = runs[kind][case.m]
            assert rep.m_prime == 0
            assert rep.evidence[1] - rep.evidence[0] <= 1e-9
            assert abs(rep.evidence[0] - case.pe) <= 1e-9
            for _var, _val, truth, (lo, hi) in _queries(case, rep):
                assert hi - lo <= 1e-9
                assert abs(lo - truth) <= 1e-9
    print("criterion 3: PASS (h = M collapses every interval)")


def test_criterion_04_dominance_chain(acceptance_suite, suite_reports):
    for case, runs in zip(acceptance_suite, suite_reports):
        for h in range(case.m + 1):
            bf, ab = runs["bf"][h], runs["abdp"][h]
            for var, rows in bf.marginals.items():
                bc_rows = bf.bc_marginals[var]
                ab_rows = ab.marginals[var]
                for value, (bl, bh) in enumerate(rows):
                    cl, ch = bc_rows[value]
                    al, ah = ab_rows[value]
                    # anytime bounds with the trivial plug-in refine the baseline
                    assert bl >= cl - 1e-12 and bh <= ch + 1e-12
                    # the propagation plug-in refines the trivial plug-in
                    assert al >= bl - 1e-12 and ah <= bh + 1e-12
            assert ab.evidence[0] >= bf.evidence[0] - 1e-12
            assert ab.evidence[1] <= bf.evidence[1] + 1e-12
    print("criterion 4: PASS (abdp within bf within baseline)")


def test_criterion_05_baseline_width_at_least_remainder(
    acceptance_suite, suite_reports
):
    for case, runs in zip(acceptance_suite, suite_reports):
        for rep in runs["bf"]:
            for rows in rep.bc_marginals.values():
                for lo, hi in rows:
                    assert hi - lo >= rep.r - 1e-12
    print("criterion 5: PASS (baseline width >= uncovered prior mass)")


def test_criterion_06_width_cap_and_monotone_cap(acceptance_suite, suite_reports):
    for case, runs in zip(acceptance_suite, suite_reports):
        for kind in ("bf", "abdp"):
            last = None
            for rep in runs[kind]:
                for rows in rep.marginals.values():
                    for lo, hi in rows:
                        assert hi - lo <= rep.i_h + 1e-12
                if last is not None:
                    assert rep.i_h <= last + 1e-15
                last = rep.i_h
    print("criterion 6: PASS (widths <= remainder ratio, cap non-increasing)")


def test_criterion_07_tree_size_and_partition(acceptance_suite, suite_reports):
    for case, runs in zip(acceptance_suite, suite_reports):
        d_max = max(case.cutset.cards)
        size = case.cutset.size
        for h in range(case.m + 1):
            rep = runs["bf"][h]
            if h == 0:
                assert rep.m_prime == 1
            elif h == case.m:
                assert rep.m_prime == 0
            else:
                assert rep.m_prime <= h * (d_max - 1) * size
            tree = build_truncated_tree(case.cutset, case.active_full.prefix(h))
            s, r = partition_check(case.bn, case.e, tree)
            assert s + r == pytest.approx(case.pe, abs=1e-9)
    print("criterion 7: PASS (tree size bounded, partition mass exact)")


def test_criterion_08_evidence_bounds_and_closed_form(
    acceptance_suite, suite_reports
):
    for case, runs in zip(acceptance_suite, suite_reports):
        for kind in ("bf", "abdp"):
            for rep in runs[kind]:
                lo, hi = rep.evidence
                assert lo - 1e-9 <= case.pe <= hi + 1e-9
                if kind == "bf":
                    # bit-for-bit the closed form S, min(1, S + R)
                    assert lo == rep.s
                    assert hi == max(min(1.0, rep.s + rep.r), rep.s)
    print("criterion 8: PASS (P(e) boxed, prior-mass route closed-form exact)")


def test_criterion_09_lp_relaxation_against_exact_and_enumeration():
    rng = np.random.default_rng(424242)
    for _ in range(500):
        lp = random_lp(rng)
        assert len(lp.coeffs) <= 2**8
        for sense, grace in (("max", 1e-9), ("min", -1e-9)):
            greedy = solve_blanket_lp_greedy(lp, sense)
            exact = solve_blanket_lp_exact(lp, sense)
            if sense == "max":
                assert greedy >= exact - 1e-9
            else:
                assert greedy <= exact + 1e-9
    shapes = [[2, 2], [2, 3], [4], [2, 2, 2]]
    n_tiny = 0
    for i in range(12):
        lp = random_lp(rng, cards=shapes[i % len(shapes)])
        assert len(lp.coeffs) <= 2**4
        for sense in ("min", "max"):
            want = lp_basis_enumeration(lp, sense)
            got = solve_blanket_lp_exact(lp, sense)
            assert got == pytest.approx(want, abs=1e-8)
        n_tiny += 1
    print(
        f"criterion 9: PASS (500 greedy-vs-exact instances, {n_tiny} "
        "basis-enumeration instances)"
    )


def test_criterion_10_bucket_elimination_matches_oracle(acceptance_suite):
    for case in acceptance_suite:
        pe = bucket_eliminate_pe(case.bn, case.e)
        assert pe == pytest.approx(case.pe, abs=1e-9)
        tables = bucket_eliminate_marginals(case.bn, case.e)
        for var, want in case.posteriors.items():
            np.testing.assert_allclose(tables[var], want, atol=1e-9)
    print("criterion 10: PASS (bucket elimination vs enumeration)")


def test_criterion_11_plugin_invocation_budget(acceptance_suite, suite_reports):
    for case, runs in zip(acceptance_suite, suite_reports):
        d_max = max(case.cutset.cards)
        for kind in ("bf", "abdp"):
            for rep in runs[kind]:
                if rep.m_prime == 0:
                    assert rep.invocations == 0
                else:
                    assert rep.invocations <= 2 * (1 + d_max) * rep.m_prime
    print("criterion 11: PASS (invocations within 2(1+d)M' per report)")


def test_criterion_12_reports_are_byte_identical(tmp_path):
    src = """BAYES
6
2 3 2 2 2 2
6
1 0
2 0 1
2 0 2
3 1 2 3
3 1 2 4
3 3 4 5

2
 0.6 0.4
6
 0.5 0.3 0.2 0.15 0.45 0.4
4
 0.75 0.25 0.2 0.8
12
 0.6 0.4 0.35 0.65 0.8 0.2 0.1 0.9 0.45 0.55 0.7 0.3
12
 0.3 0.7 0.55 0.45 0.25 0.75 0.9 0.1 0.5 0.5 0.05 0.95
8
 0.2 0.8 0.65 0.35 0.4 0.6 0.85 0.15
"""
    net = tmp_path / "determinism.uai"
    net.write_text(src)
    evid = tmp_path / "determinism.evid"
    evid.write_text("1\n5 1\n")

    from beliefbounds.graphs import find_loop_cutset

    bn = parse_network(src)
    m = find_loop_cutset(bn, exclude=frozenset({5})).with_cards(bn).n_tuples
    sweep = tuple(sorted({0, 1, m // 2, m}))

    def render():
        cfg = ExperimentConfig(
            network=str(net),
            evidence=str(evid),
            sweep_h=sweep,
            plugin="abdp",
            k=128,
            iters=2,
        )
        payload = run_experiment(cfg)
        payload.pop("timings")
        return dumps_canonical(payload)

    first = render()
    again = render()
    assert first == again
    print(f"criterion 12: PASS ({len(first)} canon bytes, repeat runs identical)")
