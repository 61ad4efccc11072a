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
    _blanket_bounds,
    _boundary_structure,
    _plan,
    _propagate,
    make_bounder,
    propagate_marginal_bounds,
    solve_blanket_lp_greedy,
)
from beliefbounds.graphs import find_loop_cutset
from beliefbounds.model import BayesianNetwork, Cpt, Variable, ancestors_of, held_bytes
from beliefbounds.tuples import EXHAUSTIVE_CAP, build_truncated_tree, select_tuples_gibbs

from conftest import (
    BlanketLpInfeasible,
    blanket_lp_inputs,
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
    reference_abdp_tables,
    reference_chain_bounds,
    reference_greedy_lp,
    reference_propagate,
    select_by_chain,
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

    def test_more_iterations_never_widen(self, rng, monkeypatch):
        monkeypatch.setattr(bounder_mod, "DEFAULT_TOL", 0.0)  # every sweep runs
        for _ in range(8):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            prev = propagate_marginal_bounds(bn, e, max_iters=1)
            for iters in (2, 4):
                cur = propagate_marginal_bounds(bn, e, max_iters=iters)
                for v in range(bn.n):
                    assert np.all(cur.lows[v] >= prev.lows[v] - 1e-15)
                    assert np.all(cur.highs[v] <= prev.highs[v] + 1e-15)
                prev = cur

    def test_intervals_stay_ordered_and_lows_never_fall(self, monkeypatch):
        # When the greedy min came out an ulp above the greedy max, the upper
        # end was clamped against the old lower end and crossed the new one;
        # the next sweep then lowered L. The grid case crossed on variable 0
        # at max_iters=7.
        cases = [(grid_network(4, 5, 30, 0), {10: 0, 12: 0, 15: 1, 6: 1, 8: 1, 1: 0})]
        monkeypatch.setattr(bounder_mod, "DEFAULT_TOL", 0.0)  # every sweep runs
        rng = np.random.default_rng(5)
        for _ in range(25):
            bn = random_network(rng, n=int(rng.integers(5, 10)), max_card=2)
            cases.append((bn, random_evidence(rng, bn, max_obs=3)))
        for bn, e in cases:
            prev = None
            for iters in range(1, 10):
                cur = propagate_marginal_bounds(bn, e, max_iters=iters)
                for v in range(bn.n):
                    assert np.all(cur.lows[v] <= cur.highs[v]), (v, iters)
                    if prev is not None:
                        assert np.all(cur.lows[v] >= prev.lows[v]), (v, iters)
                prev = cur

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_precomputed_tables_equal_the_greedy_solver(self, seed):
        # one array update at a variable, over contexts whose boundary
        # structures differ (padded member axes, mixed member cards), gives
        # each context exactly the one-shot solver's optimum
        rng = np.random.default_rng(seed)
        bn = random_network(rng, n=int(rng.integers(3, 8)))
        contexts = [random_evidence(rng, bn, max_obs=3) for _ in range(3)]
        starts = np.cumsum((0,) + bn.cards[:-1])
        width = sum(bn.cards)
        # some intervals cross, some leave [0, 1]
        lows = rng.random((len(contexts), width)) * 0.6 - 0.05
        highs = lows + rng.random(lows.shape) * 0.9 - 0.05
        for x in range(bn.n):
            kids, structs = {}, {}
            for c, ctx in enumerate(contexts):
                if x not in ctx:
                    kept = set(ctx) | ancestors_of(bn, set(ctx))
                    kids[c] = tuple(u for u in bn.children[x] if u in kept)
                    structs[c] = _boundary_structure(bn, x, kids[c], ctx, 256)
            rows = [c for c, st in structs.items() if st]
            if not rows:
                continue
            plan = _plan(bn, x, rows, [structs[c] for c in rows], starts, width)
            lo, hi = _blanket_bounds(plan[2], plan[3], lows.reshape(-1), highs.reshape(-1))
            for a, c in enumerate(rows):
                unobs = tuple(structs[c][0].tolist())
                cols, coeffs = blanket_lp_inputs(bn, x, kids[c], contexts[c], unobs)
                members = tuple(
                    (u, cols[u], lows[c, starts[u]:starts[u] + bn.cards[u]],
                     highs[c, starts[u]:starts[u] + bn.cards[u]])
                    for u in unobs
                )
                for val in range(bn.cards[x]):
                    lp = BlanketLp((x, val), coeffs[:, val], members)
                    want_lo = solve_blanket_lp_greedy(lp, "min")
                    want_hi = solve_blanket_lp_greedy(lp, "max")
                    assert lo[a, val] == want_lo == reference_greedy_lp(lp, "min")
                    assert hi[a, val] == want_hi == reference_greedy_lp(lp, "max")

    @staticmethod
    def _assert_same(bn, got_lows, got_highs, iterations, skipped, ref):
        for v in range(bn.n):
            assert got_lows[v].tolist() == ref.lows[v].tolist(), v
            assert got_highs[v].tolist() == ref.highs[v].tolist(), v
        assert iterations == ref.iterations
        assert skipped == ref.skipped

    def _check_lock_step(self, bn, contexts, k, iters):
        """``propagate_marginal_bounds`` of each context, and one lock-step
        call over all of them, against the per-context reference."""
        want = [reference_propagate(bn, ctx, k=k, max_iters=iters) for ctx in contexts]
        cells, lows, highs, iterations, skipped = _propagate(bn, contexts, contexts[0], k, iters)
        for c, ref in enumerate(want):
            self._assert_same(
                bn, {v: lows[c, sl] for v, sl in cells.items()},
                {v: highs[c, sl] for v, sl in cells.items()}, iterations[c], skipped[c], ref,
            )
            one = propagate_marginal_bounds(bn, contexts[c], k=k, max_iters=iters)
            self._assert_same(bn, one.lows, one.highs, one.iterations, one.skipped, ref)
        return want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        small_k=st.booleans(),
        iters=st.integers(1, 12),
    )
    def test_lock_step_equals_the_per_context_reference(self, seed, small_k, iters):
        rng = np.random.default_rng(seed)
        bn = random_network(rng, n=int(rng.integers(3, 9)), max_card=3)
        k = int(rng.integers(2, 20)) if small_k else 2**10
        contexts = [random_evidence(rng, bn, max_obs=4) for _ in range(int(rng.integers(1, 6)))]
        self._check_lock_step(bn, contexts, k, iters)

    def test_lock_step_covers_skips_ternary_cards_and_staggered_stops(self):
        # fixed cases that the property above may not reach: contexts that
        # stop at different sweeps, ternary members, skipped variables
        grid = grid_network(4, 5, 30, 0)
        grid_ctx = [{10: 0, 12: 0, 15: 1}, {10: 0}, {}, {10: 0, 12: 0, 15: 1, 6: 1, 8: 1, 1: 0}]
        rng = np.random.default_rng(5)
        bn = random_network(rng, n=9, max_card=3)
        e = random_evidence(rng, bn, max_obs=3)
        ternary_ctx = [e, {**e, 2: 2}, {**e, 2: 1, 4: 0}, {}]
        stops = self._check_lock_step(grid, grid_ctx, 2**10, 7)
        assert len({mb.iterations for mb in stops}) > 1
        skips = self._check_lock_step(bn, ternary_ctx, 24, 10)
        assert any(mb.skipped for mb in skips)
        assert max(bn.cards) == 3

    def test_structure_entries_hold_only_arrays_charged_in_full(self, rng):
        bn = random_network(rng, n=8, max_card=3)
        for e in [random_evidence(rng, bn, max_obs=3) for _ in range(4)]:
            propagate_marginal_bounds(bn, e, k=24, max_iters=2)
        entries = [hit for key, hit in bn._cache._entries.items() if key[0] == "bdp-var"]
        assert any(not value for value, _ in entries) and any(value for value, _ in entries)
        for value, nbytes in entries:
            assert isinstance(value, tuple)
            assert all(isinstance(a, np.ndarray) for a in value)
            assert nbytes == held_bytes(list(value))

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

    def test_collapses_on_directed_trees(self, rng, monkeypatch):
        # No evidence and a tree: point constraints force exact priors.
        bn = random_tree_network(rng, n=7)
        _, post = brute_posteriors(bn, {})
        monkeypatch.setattr(bounder_mod, "DEFAULT_TOL", 1e-9)
        mb = propagate_marginal_bounds(bn, {}, max_iters=50)
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

    def test_abdp_tables_of_many_partials_equal_the_per_partial_reference(self, rng, monkeypatch):
        # one lock-step propagation over every partial's contexts gives each
        # partial the tables that one propagation per context gives it, in
        # one chunk of contexts or in chunks of 2 that split a partial's
        # contexts; the planted zeros give some partials no mass, and a
        # repeated key is tabled once
        for _ in range(6):
            bn, e, cut, _, partials = self._partials(rng, h=3)
            partials += [((cut.vars[0], 0),), ()] + partials[:1]
            whole, _ = ChainPropagationBounder(bn, e, cut.vars, iters=6).tables_for(partials)
            monkeypatch.setattr(bounder_mod, "PROPAGATE_CHUNK", 2)
            bounder = ChainPropagationBounder(bn, e, cut.vars, iters=6)
            tabs, _ = bounder.tables_for(partials)
            monkeypatch.undo()
            assert bounder.invocations == sum(t.cost for t in {id(t): t for t in tabs}.values())
            for one, tab in zip(whole, tabs):
                assert one.joint == tab.joint
                assert one.low.tolist() == tab.low.tolist()
                assert one.high.tolist() == tab.high.tolist()
            for partial, tab in zip(partials, tabs):
                if tab.prior == 0.0:
                    assert tab.cost == 0 and tab.joint == (0.0, 0.0)
                    continue
                joint, low, high = reference_abdp_tables(bounder, partial, tab.prior, tab.var_prior)
                assert tab.joint == joint
                assert tab.low.tolist() == low.tolist()
                assert tab.high.tolist() == high.tolist()

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
                    assert tab.joint == reference_chain_bounds(bn, e, assigned, tab.prior, 64, 2)
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
        assert cut.n_tuples <= EXHAUSTIVE_CAP
        for select in (select_by_chain, select_tuples_gibbs):  # the Gibbs path, the exhaustive one
            with pytest.raises(ValueError, match="sweeps must be at least 0, got -5"):
                select(bn, e, cut, 1, sweeps=-5)
