"""Blanket LPs, iterative bound propagation, and the joint-bound plug-ins."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbounds import bounder as bounder_mod
from beliefbounds import exact as exact_mod
from beliefbounds.bounder import (
    BlanketLp,
    ChainPropagationBounder,
    PriorMassBounder,
    _boundary_structure,
    _chain_bounds,
    _greedy_bounds,
    make_bounder,
    propagate_marginal_bounds,
    solve_blanket_lp_greedy,
)
from beliefbounds.graphs import find_loop_cutset
from beliefbounds.model import BayesianNetwork, Cpt, Variable, ancestors_of
from beliefbounds.tuples import build_truncated_tree, select_tuples_gibbs

from conftest import (
    BlanketLpInfeasible,
    brute_event_mass,
    brute_posteriors,
    chain_joint_bounds,
    fraction_event_mass,
    free_cells,
    grid_network,
    lp_basis_enumeration,
    prior_mass_bounds,
    random_evidence,
    random_lp,
    random_network,
    random_tree_network,
    reference_greedy_lp,
    solve_blanket_lp_exact,
)


def _chain_ab():
    """A -> B with P(A=1) = 0.3; the module's documentation example."""
    variables = (Variable(0, "a", 2), Variable(1, "b", 2))
    cpts = (
        Cpt(0, (), np.array([0.7, 0.3])),
        Cpt(1, (0,), np.array([[0.6, 0.4], [0.2, 0.8]])),
    )
    return BayesianNetwork(variables, cpts)


class TestExactLp:
    def test_no_members_gives_coefficient_extremes(self, rng):
        coeffs = rng.random(6)
        lp = BlanketLp(query=(0, 0), coeffs=coeffs, members=())
        assert solve_blanket_lp_exact(lp, "max") == pytest.approx(coeffs.max())
        assert solve_blanket_lp_exact(lp, "min") == pytest.approx(coeffs.min())

    def test_point_constraints_pin_the_average(self, rng):
        for _ in range(10):
            lp = random_lp(rng, n_members=1, point=True)
            _, col, lows, _ = lp.members[0]
            best = np.full(len(lows), -np.inf)
            np.maximum.at(best, col, lp.coeffs)
            worst = np.full(len(lows), np.inf)
            np.minimum.at(worst, col, lp.coeffs)
            assert solve_blanket_lp_exact(lp, "max") == pytest.approx(
                float(np.dot(lows, best)), abs=1e-9
            )
            assert solve_blanket_lp_exact(lp, "min") == pytest.approx(
                float(np.dot(lows, worst)), abs=1e-9
            )

    def test_matches_basis_enumeration_on_tiny_instances(self, rng):
        shapes = [[2, 2], [2, 3], [4], [2, 2, 2]]
        for i in range(16):
            lp = random_lp(rng, cards=shapes[i % len(shapes)])
            for sense in ("min", "max"):
                want = lp_basis_enumeration(lp, sense)
                got = solve_blanket_lp_exact(lp, sense)
                assert got == pytest.approx(want, abs=1e-8)

    def test_infeasible_raises(self):
        lp = BlanketLp(
            query=(0, 0),
            coeffs=np.array([0.5, 0.5]),
            members=(
                (1, np.array([0, 1]), np.array([0.8, 0.8]), np.array([1.0, 1.0])),
            ),
        )
        with pytest.raises(BlanketLpInfeasible):
            solve_blanket_lp_exact(lp, "max")

    def test_size_and_sense_validation(self):
        lp = BlanketLp(query=(0, 0), coeffs=np.zeros(2**10 + 1), members=())
        with pytest.raises(ValueError, match="too large"):
            solve_blanket_lp_exact(lp, "max")
        lp2 = BlanketLp(query=(0, 0), coeffs=np.zeros(2), members=())
        with pytest.raises(ValueError, match="sense"):
            solve_blanket_lp_exact(lp2, "between")


class TestGreedyLp:
    def test_brackets_exact_on_random_instances(self, rng):
        for _ in range(150):
            lp = random_lp(rng)
            assert len(lp.coeffs) <= 2**8
            g_max = solve_blanket_lp_greedy(lp, "max")
            g_min = solve_blanket_lp_greedy(lp, "min")
            assert g_min <= g_max + 1e-12
            e_max = solve_blanket_lp_exact(lp, "max")
            e_min = solve_blanket_lp_exact(lp, "min")
            assert g_max >= e_max - 1e-9
            assert g_min <= e_min + 1e-9

    def test_single_member_instances_are_solved_exactly(self, rng):
        for _ in range(40):
            lp = random_lp(rng, n_members=1)
            for sense in ("min", "max"):
                assert solve_blanket_lp_greedy(lp, sense) == pytest.approx(
                    solve_blanket_lp_exact(lp, sense), abs=1e-9
                )

    def test_no_members_gives_coefficient_extremes(self, rng):
        coeffs = rng.random(5)
        lp = BlanketLp(query=(0, 0), coeffs=coeffs, members=())
        assert solve_blanket_lp_greedy(lp, "max") == coeffs.max()
        assert solve_blanket_lp_greedy(lp, "min") == coeffs.min()

    def test_infeasible_members_fall_back_to_extremes(self):
        coeffs = np.array([0.2, 0.9])
        lp = BlanketLp(
            query=(0, 0),
            coeffs=coeffs,
            members=(
                (1, np.array([0, 1]), np.array([0.8, 0.8]), np.array([1.0, 1.0])),
            ),
        )
        assert solve_blanket_lp_greedy(lp, "max") == coeffs.max()
        assert solve_blanket_lp_greedy(lp, "min") == coeffs.min()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        point=st.booleans(),
        jitter=st.sampled_from([0.0, 1e-15, 0.1]),
        drop=st.booleans(),
    )
    def test_equals_the_per_call_reference(self, seed, point, jitter, drop):
        # jitter pushes bounds past 0 and 1 and makes some members
        # infeasible; drop removes configurations, leaving empty groups
        rng = np.random.default_rng(seed)
        lp = random_lp(rng, point=point)
        keep = rng.random(len(lp.coeffs)) < (0.6 if drop else 2.0)
        keep[0] = True
        members = tuple(
            (u, col[keep], lows + rng.uniform(-jitter, jitter, len(lows)),
             highs + rng.uniform(-jitter, jitter, len(highs)))
            for u, col, lows, highs in lp.members
        )
        lp = BlanketLp(query=lp.query, coeffs=lp.coeffs[keep], members=members)
        for sense in ("min", "max"):
            assert solve_blanket_lp_greedy(lp, sense) == reference_greedy_lp(lp, sense)


class TestPropagation:
    def test_sound_against_enumeration(self, rng):
        for _ in range(20):
            bn = random_network(rng, n=int(rng.integers(4, 8)), max_card=3)
            e = random_evidence(rng, bn)
            pe, post = brute_posteriors(bn, e)
            if pe <= 0:
                continue
            mb = propagate_marginal_bounds(bn, e, k=256, max_iters=3)
            for v in range(bn.n):
                for val in range(bn.cards[v]):
                    lo, hi = mb.interval(v, val)
                    assert lo - 1e-9 <= post[v][val] <= hi + 1e-9
                    assert -1e-12 <= lo <= hi <= 1 + 1e-12

    def test_observed_variables_pinned(self, rng):
        bn = random_network(rng, n=5)
        e = {1: 0}
        mb = propagate_marginal_bounds(bn, e, max_iters=1)
        np.testing.assert_array_equal(mb.lows[1], mb.highs[1])
        assert mb.lows[1][0] == 1.0 and mb.lows[1][1:].sum() == 0.0

    def test_interval_sums_bracket_one(self, rng):
        for _ in range(10):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            mb = propagate_marginal_bounds(bn, e, max_iters=2)
            for v in range(bn.n):
                assert math.fsum(mb.lows[v].tolist()) <= 1.0 + 1e-9
                assert math.fsum(mb.highs[v].tolist()) >= 1.0 - 1e-9

    def test_more_iterations_never_widen(self, rng):
        for _ in range(8):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            prev = propagate_marginal_bounds(bn, e, max_iters=1, tol=0.0)
            for iters in (2, 4):
                cur = propagate_marginal_bounds(bn, e, max_iters=iters, tol=0.0)
                for v in range(bn.n):
                    assert np.all(cur.lows[v] >= prev.lows[v] - 1e-15)
                    assert np.all(cur.highs[v] <= prev.highs[v] + 1e-15)
                prev = cur

    def test_intervals_stay_ordered_and_lows_never_fall(self):
        # When the greedy min came out an ulp above the greedy max, the upper
        # end was clamped against the old lower end and crossed the new one;
        # the next sweep then lowered L. The grid case crossed on variable 0
        # at max_iters=7.
        cases = [(grid_network(4, 5, 30, 0), {10: 0, 12: 0, 15: 1, 6: 1, 8: 1, 1: 0})]
        rng = np.random.default_rng(5)
        for _ in range(25):
            bn = random_network(rng, n=int(rng.integers(5, 10)), max_card=2)
            cases.append((bn, random_evidence(rng, bn, max_obs=3)))
        for bn, e in cases:
            prev = None
            for iters in range(1, 10):
                cur = propagate_marginal_bounds(bn, e, max_iters=iters, tol=0.0)
                for v in range(bn.n):
                    assert np.all(cur.lows[v] <= cur.highs[v]), (v, iters)
                    if prev is not None:
                        assert np.all(cur.lows[v] >= prev.lows[v]), (v, iters)
                prev = cur

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_precomputed_tables_equal_the_greedy_solver(self, seed):
        # the tables cached per boundary structure and the member states
        # shared across values give exactly the one-shot solver's optimum
        rng = np.random.default_rng(seed)
        bn = random_network(rng, n=int(rng.integers(3, 8)))
        e = random_evidence(rng, bn, max_obs=3)
        lows, highs = {}, {}
        for v in range(bn.n):  # some intervals cross, some leave [0, 1]
            lows[v] = rng.random(bn.cards[v]) * 0.6 - 0.05
            highs[v] = lows[v] + rng.random(bn.cards[v]) * 0.9 - 0.05
        has_obs_below = ancestors_of(bn, set(e))
        for x in range(bn.n):
            if x in e:
                continue
            kids = tuple(c for c in bn.children[x] if c in e or c in has_obs_below)
            struct = _boundary_structure(bn, x, kids, e, 256)
            if struct["skip"]:
                continue
            members = tuple(
                (u, struct["cols"][u], lows[u], highs[u]) for u in struct["unobs"]
            )
            for val, (lo, hi) in enumerate(_greedy_bounds(struct, {}, lows, highs)):
                lp = BlanketLp((x, val), struct["coeffs"][:, val], members)
                assert lo == solve_blanket_lp_greedy(lp, "min") == reference_greedy_lp(lp, "min")
                assert hi == solve_blanket_lp_greedy(lp, "max") == reference_greedy_lp(lp, "max")

    def test_structure_cache_shared_across_evidence_is_exact(self, rng):
        # entries are keyed on a variable's local evidence only, so a cache
        # filled under other evidence sets gives the same bounds as a cold one
        for _ in range(10):
            bn = random_network(rng, n=7)
            evs = [random_evidence(rng, bn, max_obs=3) for _ in range(4)]
            warm = [propagate_marginal_bounds(bn, e, max_iters=3) for e in evs + evs]
            for e, got in zip(evs + evs, warm):
                cold = BayesianNetwork(variables=bn.variables, cpts=bn.cpts)
                want = propagate_marginal_bounds(cold, e, max_iters=3)
                for v in range(bn.n):
                    assert got.lows[v].tolist() == want.lows[v].tolist()
                    assert got.highs[v].tolist() == want.highs[v].tolist()

    def test_tiny_k_skips_to_vacuous(self, rng):
        bn = random_network(rng, n=6, extra_edge_prob=1.0)
        mb = propagate_marginal_bounds(bn, {}, k=1, max_iters=2)
        assert mb.skipped  # something had a boundary bigger than one config
        for v in mb.skipped:
            assert np.all(mb.lows[v] == 0.0) and np.all(mb.highs[v] == 1.0)

    def test_collapses_on_directed_trees(self, rng):
        # No evidence and a tree: point constraints force exact priors.
        bn = random_tree_network(rng, n=7)
        _, post = brute_posteriors(bn, {})
        mb = propagate_marginal_bounds(bn, {}, max_iters=50, tol=1e-9)
        for v in range(bn.n):
            np.testing.assert_allclose(mb.lows[v], post[v], atol=1e-6)
            np.testing.assert_allclose(mb.highs[v], post[v], atol=1e-6)


class TestPriorMassBounds:
    def test_empty_assignment_is_vacuous(self, rng):
        bn = random_network(rng, n=4)
        assert prior_mass_bounds(bn, {}, None) == (0.0, 1.0)

    def test_chain_example(self):
        bn = _chain_ab()
        assert prior_mass_bounds(bn, {1: 0}, {0: 1}) == (0.0, pytest.approx(0.3))

    def test_full_tuple_and_conflicts(self, rng):
        bn = _chain_ab()
        lo, hi = prior_mass_bounds(bn, {}, {0: 1, 1: 0})
        assert lo == 0.0 and hi == pytest.approx(0.3 * 0.2)
        assert prior_mass_bounds(bn, {}, ((0, 1), (0, 0))) == (0.0, 0.0)
        assert prior_mass_bounds(bn, {}, {0: 1}, extra=(0, 0)) == (0.0, 0.0)


class TestChainJointBounds:
    def test_empty_evidence_collapses_to_prior_point(self, rng):
        for _ in range(5):
            bn = random_network(rng, n=5)
            a = {0: 1}
            lo, hi = chain_joint_bounds(bn, {}, a, k=64, iters=2)
            want = brute_event_mass(bn, a)
            assert lo == pytest.approx(want, abs=1e-12)
            assert hi == pytest.approx(want, abs=1e-12)

    def test_conflicts_collapse_to_zero(self):
        bn = _chain_ab()
        assert chain_joint_bounds(bn, {0: 0}, {0: 1}) == (0.0, 0.0)
        assert chain_joint_bounds(bn, {}, ((0, 1), (0, 0))) == (0.0, 0.0)

    def test_large_randomized_joint_sandwich(self, rng):
        """>= 10^4 joint queries: truth inside both plug-ins' intervals,
        and the propagated interval inside the prior-mass interval."""
        checked = 0
        for _ in range(30):
            bn = random_network(rng, n=5, max_card=2)
            e = random_evidence(rng, bn, max_obs=2)
            free = [v for v in range(bn.n) if v not in e]
            for _q in range(175):
                size = int(rng.integers(0, min(3, len(free)) + 1))
                vs = rng.choice(free, size=size, replace=False)
                a = {int(v): int(rng.integers(bn.cards[v])) for v in vs}
                extra = None
                if free and rng.random() < 0.3:
                    ev = int(rng.choice(free))
                    extra = (ev, int(rng.integers(bn.cards[ev])))
                merged = dict(a)
                conflict = False
                if extra is not None:
                    if extra[0] in merged and merged[extra[0]] != extra[1]:
                        conflict = True
                    merged[extra[0]] = extra[1]
                for var, val in e.items():
                    if var in merged and merged[var] != val:
                        conflict = True
                    merged[var] = val
                truth = 0.0 if conflict else brute_event_mass(bn, merged)
                bl, bu = prior_mass_bounds(bn, e, a, extra)
                cl, cu = chain_joint_bounds(bn, e, a, extra, k=64, iters=1)
                for lo, hi in ((bl, bu), (cl, cu)):
                    assert lo - 1e-9 <= truth <= hi + 1e-9
                    assert 0.0 <= lo <= hi <= 1.0
                assert bl - 1e-15 <= cl and cu <= bu + 1e-15
                checked += 2
        assert checked >= 10_000


class TestBounderPlugins:
    def _setting(self, rng, n=6):
        while True:
            bn = random_network(rng, n=n, max_card=3)
            e = random_evidence(rng, bn)
            cand = [v for v in range(bn.n) if v not in e]
            if len(cand) >= 3:
                return bn, e, tuple(cand[:2])

    def test_prior_mass_tables_match_enumeration(self, rng):
        bn, e, cvars = self._setting(rng)
        b = PriorMassBounder(bn, e, cvars)
        partial = ((cvars[0], 1),)
        tab = b.tuple_tables(partial)
        prior = brute_event_mass(bn, dict(partial))
        assert tab.prior == pytest.approx(prior, abs=1e-12)
        assert tab.joint == (0.0, pytest.approx(min(1.0, prior)))
        for v, arr in tab.var_prior.items():
            for val in range(bn.cards[v]):
                want = brute_event_mass(bn, {**dict(partial), v: val})
                assert arr[val] == pytest.approx(want, abs=1e-12)
        for v, (low, high) in free_cells(b, partial, tab).items():
            assert np.all(low == 0.0)
            truth = np.array(
                [
                    brute_event_mass(bn, {**dict(partial), **e, v: val})
                    if not (v in e or (v in dict(partial)))
                    else 0.0
                    for val in range(bn.cards[v])
                ]
            )
            assert np.all(truth <= high + 1e-12)

    def test_chain_tables_sound_and_inside_prior_tables(self, rng):
        for _ in range(6):
            bn, e, cvars = self._setting(rng, n=5)
            bf = PriorMassBounder(bn, e, cvars)
            ab = ChainPropagationBounder(bn, e, cvars, k=64, iters=1)
            partial = ((cvars[0], 0),)
            t_bf = bf.tuple_tables(partial)
            t_ab = ab.tuple_tables(partial)
            truth_joint = brute_event_mass(bn, {**dict(partial), **e})
            assert t_ab.joint[0] - 1e-9 <= truth_joint <= t_ab.joint[1] + 1e-9
            assert t_ab.joint[0] >= t_bf.joint[0] - 1e-15
            assert t_ab.joint[1] <= t_bf.joint[1] + 1e-15
            bf_cells = free_cells(bf, partial, t_bf)
            for v, (low, high) in free_cells(ab, partial, t_ab).items():
                assert np.all(low >= bf_cells[v][0] - 1e-15)
                assert np.all(high <= bf_cells[v][1] + 1e-15)
                for val in range(bn.cards[v]):
                    want = brute_event_mass(bn, {**dict(partial), **e, v: val})
                    assert low[val] - 1e-9 <= want
                    assert want <= high[val] + 1e-9

    def test_zero_prior_partial_costs_nothing(self, rng):
        variables = (Variable(0, "a", 2), Variable(1, "b", 2))
        cpts = (
            Cpt(0, (), np.array([1.0, 0.0])),
            Cpt(1, (0,), np.array([[0.5, 0.5], [0.5, 0.5]])),
        )
        bn = BayesianNetwork(variables, cpts)
        ab = ChainPropagationBounder(bn, {}, (0,))
        tab = ab.tuple_tables(((0, 1),))
        assert tab.cost == 0
        assert tab.joint == (0.0, 0.0)
        assert np.all(tab.high == 0.0)
        assert ab.invocations == 0

    def test_prior_mass_tables_are_read_only(self, rng):
        bn, e, cvars = self._setting(rng)
        b = PriorMassBounder(bn, e, cvars)
        first = b.tuple_tables(((cvars[0], 0),))
        other = b.tuple_tables(((cvars[0], 1),))
        with pytest.raises(ValueError):
            first.low[0] = 1.0
        with pytest.raises(ValueError):
            first.high[0] = 1.0
        # every partial's low is one shared zeros row, and it stays zeros
        assert first.low is other.low
        assert np.all(other.low == 0.0)

    def test_memoization_counts_each_partial_once(self, rng):
        bn, e, cvars = self._setting(rng)
        b = PriorMassBounder(bn, e, cvars)
        partial = ((cvars[0], 0),)
        tabs = [b.tuple_tables(partial) for _ in range(16)]
        assert b.invocations == 1
        assert all(t is tabs[0] for t in tabs)
        b.tuple_tables(((cvars[0], 1),))
        assert b.invocations == 2

    def _partials(self, rng, h=2, size=2):
        """A network with planted zeros, its evidence and loop cutset (size
        or more variables), h active tuples and the truncated tree's
        partials as pairs."""
        while True:
            bn = random_network(rng, n=int(rng.integers(5, 8)), zero_rows=True)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if cut.size >= size:
                break
        active = select_tuples_gibbs(bn, e, cut, min(h, cut.n_tuples))
        partials = [
            tuple(zip(cut.vars[: len(vals)], vals))
            for vals in build_truncated_tree(cut, active).partials
        ]
        return bn, e, cut, active, partials

    def test_batched_priors_match_exact_rationals(self, rng):
        # one indicator bucket-tree pass gives the prior of every partial of
        # every depth and of its one-variable extensions: each is the exact
        # rational sum to within 1e-13 relative, and a partial of no prior
        # mass gets exactly 0.0, which abdp's zero-prior branch tests for
        checked = zeros = 0
        while checked < 5 or not zeros:
            bn, e, cut, _, partials = self._partials(rng)
            checked += 1
            bounders = [
                make_bounder(kind, bn, e, cut.vars, k=64, iters=2) for kind in ("bf", "abdp")
            ]
            tables = [b.tables_for(partials)[0] for b in bounders]
            for j, partial in enumerate(partials):
                assigned = dict(partial)
                wanted = [v for v in cut.vars if v not in assigned and v not in e]
                prior = fraction_event_mass(bn, assigned)
                ext = {v: fraction_event_mass(bn, assigned, (v,)) for v in wanted}
                zeros += prior == 0
                for tab in (t[j] for t in tables):
                    assert abs(Fraction(tab.prior) - prior) <= Fraction(1e-13) * prior
                    assert sorted(tab.var_prior) == wanted
                    for v, row in tab.var_prior.items():
                        for got, want in zip(row.tolist(), ext[v]):
                            assert abs(Fraction(got) - want) <= Fraction(1e-13) * want
                tab = tables[1][j]
                if tab.prior > 0.0:
                    assert tab.joint == _chain_bounds(bn, e, assigned, tab.prior, 64, 2)
                else:
                    assert tab.joint == (0.0, 0.0) and tab.cost == 0

    def test_a_pass_over_the_work_cap_splits_by_depth(self, rng, monkeypatch):
        # with no work allowed every band splits down to rows that pin the
        # same variables, one sliced pass per depth; the priors stay exact to
        # rounding and the active tuples' priors come back in order. A repeat
        # lays out no plan: the rejected layouts are cached as well
        calls, built = [], []
        real, build = bounder_mod.eliminate_marginals, exact_mod._build_plan

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        def building(*args):
            built.append(args[1:])
            return build(*args)

        for _ in range(4):
            bn, e, cut, active, partials = self._partials(rng, h=1, size=3)
            one = make_bounder("bf", bn, e, cut.vars).tables_for(partials, active.tuples)
            monkeypatch.setattr(exact_mod, "INDICATED_WORK_CAP", 0)
            monkeypatch.setattr(bounder_mod, "eliminate_marginals", counted)
            calls.clear()
            split = make_bounder("bf", bn, e, cut.vars).tables_for(partials, active.tuples)
            depths = {len(p) for p in partials} | {cut.size}
            assert len(depths) >= 3  # so some half of the rows is split again
            assert [c for c in calls if not c] == [[]] * len(depths)
            monkeypatch.setattr(exact_mod, "_build_plan", building)
            again = make_bounder("bf", bn, e, cut.vars).tables_for(partials, active.tuples)
            monkeypatch.undo()
            assert built == [] and again[1] == split[1]
            for a, b in zip(one[0], split[0]):
                assert b.prior == pytest.approx(a.prior, rel=1e-13, abs=0.0)
                assert sorted(a.var_prior) == sorted(b.var_prior)
                for v, row in a.var_prior.items():
                    np.testing.assert_allclose(b.var_prior[v], row, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(split[1], one[1], rtol=1e-13, atol=0.0)

    def test_factory(self, rng):
        bn, e, cvars = self._setting(rng)
        assert isinstance(make_bounder("bf", bn, e, cvars), PriorMassBounder)
        ab = make_bounder("abdp", bn, e, cvars, k=8, iters=3)
        assert isinstance(ab, ChainPropagationBounder)
        assert (ab.k, ab.iters) == (8, 3)
        with pytest.raises(ValueError, match="unknown bounder"):
            make_bounder("best-first", bn, e, cvars)

    def test_knobs_below_their_least_raise(self, rng):
        # each building block rejects a knob below its least value itself
        bn, e, cvars = self._setting(rng)
        for kind in ("bf", "abdp"):
            with pytest.raises(ValueError, match="k must be at least 0, got -1"):
                make_bounder(kind, bn, e, cvars, k=-1, iters=0)
            with pytest.raises(ValueError, match="iters must be at least 1, got 0"):
                make_bounder(kind, bn, e, cvars, iters=0)
        with pytest.raises(ValueError, match="max_iters must be at least 1, got 0"):
            propagate_marginal_bounds(bn, e, max_iters=0)
        with pytest.raises(ValueError, match="k must be at least 0, got -1"):
            propagate_marginal_bounds(bn, e, k=-1)
        cut = find_loop_cutset(bn, exclude=frozenset(e))
        for cap in (0, cut.n_tuples):  # the Gibbs path and the exhaustive one
            with pytest.raises(ValueError, match="sweeps must be at least 0, got -5"):
                select_tuples_gibbs(bn, e, cut, 1, sweeps=-5, cap=cap)
