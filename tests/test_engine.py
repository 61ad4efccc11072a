"""Assembly of exact active sums and plug-in partial tables into intervals."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import beliefbounds.bounder as bounder_mod
import beliefbounds.engine as engine_mod
import beliefbounds.exact as exact_mod
from beliefbounds.bounder import JointBounder, PartialTupleBounds, PriorMassBounder, make_bounder
from beliefbounds.engine import (
    bounded_conditioning_bounds,
    compute_report,
    evidence_bounds,
    evidence_closed_form,
    marginal_bounds,
    prepare_inputs,
    run_engine,
)
from beliefbounds.exact import enumerate_oracle
from beliefbounds.graphs import Cutset, find_loop_cutset
from beliefbounds.model import (
    BayesianNetwork,
    Cpt,
    NetworkFormatError,
    Variable,
    assignment_tuples,
)
from beliefbounds.tuples import ActiveTupleSet, select_tuples_gibbs

from conftest import (
    ExactBounder,
    conditioned_joint,
    grid_network,
    prior_mass_closed_interval,
    random_evidence,
    random_network,
    random_tree_network,
    reference_exact_sums,
    reference_partial_terms,
    select_by_chain,
)


def _diamond():
    """0 -> {1, 2} -> 3 with asymmetric tables; loop cutset is (0,)."""
    variables = tuple(Variable(i, f"v{i}", 2) for i in range(4))
    cpts = (
        Cpt(0, (), np.array([0.65, 0.35])),
        Cpt(1, (0,), np.array([[0.8, 0.2], [0.3, 0.7]])),
        Cpt(2, (0,), np.array([[0.45, 0.55], [0.9, 0.1]])),
        Cpt(3, (1, 2), np.array(
            [[[0.7, 0.3], [0.25, 0.75]], [[0.5, 0.5], [0.05, 0.95]]]
        )),
    )
    return BayesianNetwork(variables, cpts)


def _inputs(bn, e, h, bounder, **kw):
    cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
    active = select_tuples_gibbs(bn, e, cut, h)
    return prepare_inputs(bn, e, active, bounder, **kw)


class TestExactPluginReconstruction:
    def test_assembly_recovers_posteriors_with_exact_tables(self, rng):
        """With a plug-in that answers exactly, both interval ends hit the
        true posterior at every h: the assembly arithmetic itself is exact."""
        done = 0
        while done < 6:
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples > 12:
                continue
            pe, post = enumerate_oracle(bn, e)
            if pe <= 1e-6:
                continue
            done += 1
            for h in (0, 1, cut.n_tuples // 2, cut.n_tuples):
                bounder = ExactBounder(bn, e, cut.vars)
                inputs = _inputs(bn, e, h, bounder)
                for var in inputs.query_vars():
                    for val in range(bn.cards[var]):
                        lo, hi = marginal_bounds(inputs, var, val)
                        assert lo == pytest.approx(post[var][val], abs=1e-9)
                        assert hi == pytest.approx(post[var][val], abs=1e-9)
                lo, hi = evidence_bounds(inputs)
                assert lo == pytest.approx(pe, abs=1e-9)
                assert hi == pytest.approx(pe, abs=1e-9)


class TestClosedFormAgreement:
    def test_prior_mass_assembly_equals_closed_form_off_cutset(self, rng):
        """Under the prior-mass plug-in the generic assembly reduces to the
        closed forms S_x/(S+R), (S_x+R)/(S+R) for non-cutset variables."""
        for _ in range(6):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples > 16:
                continue
            for h in range(cut.n_tuples + 1):
                inputs = _inputs(bn, e, h, make_bounder("bf", bn, e, cut.vars))
                for var in inputs.query_vars():
                    if var in inputs.cutset_pos:
                        continue
                    for val in range(bn.cards[var]):
                        lo, hi = marginal_bounds(inputs, var, val)
                        clo, chi = prior_mass_closed_interval(inputs, var, val)
                        assert lo == pytest.approx(min(clo, 1.0), abs=1e-12)
                        assert hi == pytest.approx(min(chi, 1.0), abs=1e-12)

    def test_cutset_variables_at_least_as_tight_as_closed_form(self, rng):
        for _ in range(6):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples > 16:
                continue
            h = max(1, cut.n_tuples // 2)
            inputs = _inputs(bn, e, h, make_bounder("bf", bn, e, cut.vars))
            for var in inputs.cutset_pos:
                for val in range(bn.cards[var]):
                    lo, hi = marginal_bounds(inputs, var, val)
                    clo, chi = prior_mass_closed_interval(inputs, var, val)
                    assert lo >= min(clo, 1.0) - 1e-15
                    assert hi <= min(chi, 1.0) + 1e-15

    def test_evidence_closed_form_is_the_bf_route(self):
        bn = _diamond()
        e = {3: 1}
        rep = run_engine(bn, e, h=1, plugin="bf")
        inputs = _inputs(bn, e, 1, make_bounder("bf", bn, e, (0,)))
        assert rep.evidence == evidence_closed_form(inputs)
        assert rep.evidence[0] == inputs.s
        assert rep.evidence[1] == max(min(1.0, inputs.s + inputs.r), inputs.s)


class TestSaturation:
    def test_h_equals_m_is_exact(self):
        bn = _diamond()
        for e in ({}, {3: 1}, {1: 0, 3: 0}):
            pe, post = enumerate_oracle(bn, e)
            m = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn).n_tuples
            for plugin in ("bf", "abdp"):
                rep = run_engine(bn, e, h=m, plugin=plugin)
                assert rep.m == m and rep.m_prime == 0
                assert rep.r == 0.0
                assert rep.i_h == 0.0
                assert rep.evidence[0] == pytest.approx(pe, abs=1e-12)
                assert rep.evidence[1] - rep.evidence[0] <= 1e-12
                for var, rows in rep.marginals.items():
                    for val, (lo, hi) in enumerate(rows):
                        assert hi - lo <= 1e-9
                        assert lo == pytest.approx(post[var][val], abs=1e-9)

    def test_empty_cutset_saturates_at_one_tuple(self, rng):
        bn = random_tree_network(rng, 6)
        e = {5: 0}
        pe, post = enumerate_oracle(bn, e)
        rep = run_engine(bn, e, h=1, plugin="bf")
        assert rep.m == 1 and rep.h == 1 and rep.m_prime == 0
        assert rep.evidence[0] == pytest.approx(pe, abs=1e-12)
        for var, rows in rep.marginals.items():
            for val, (lo, hi) in enumerate(rows):
                assert hi - lo <= 1e-9
                assert lo == pytest.approx(post[var][val], abs=1e-9)

    def test_empty_cutset_h_zero_is_the_whole_space(self, rng):
        bn = random_tree_network(rng, 5)
        rep = run_engine(bn, {4: 0}, h=0, plugin="bf")
        assert rep.m == 1 and rep.h == 0 and rep.m_prime == 1
        lo, hi = rep.evidence
        pe, _ = enumerate_oracle(bn, {4: 0})
        assert lo - 1e-12 <= pe <= hi + 1e-12

    @pytest.mark.parametrize("plugin", ["bf", "abdp"])
    def test_every_variable_observed(self, plugin):
        bn = _diamond()
        e = {0: 1, 1: 0, 2: 1, 3: 1}
        pe, _ = enumerate_oracle(bn, e)
        for h in (0, 1):
            rep = run_engine(bn, e, h=h, plugin=plugin)
            assert rep.m == 1 and rep.m_prime == 1 - h
            assert rep.marginals == {} and rep.bc_marginals == {}
            lo, hi = rep.evidence
            assert lo - 1e-12 <= pe <= hi + 1e-12
        assert hi - lo <= 1e-12  # h = 1: the one tuple is exact


class TestDegenerateAndClamps:
    def test_impossible_evidence_saturated_flags_degenerate(self):
        variables = (Variable(0, "a", 2), Variable(1, "b", 2))
        cpts = (
            Cpt(0, (), np.array([1.0, 0.0])),
            Cpt(1, (0,), np.array([[0.5, 0.5], [0.25, 0.75]])),
        )
        bn = BayesianNetwork(variables, cpts)
        cut = Cutset(vars=(1,)).with_cards(bn)
        rep = run_engine(bn, {0: 1}, h=2, cutset=cut, plugin="bf")
        assert rep.s == 0.0 and rep.r == 0.0
        assert rep.i_h == 1.0
        assert rep.degenerate  # every marginal is reported as [0, 1]
        for rows in rep.marginals.values():
            assert all((lo, hi) == (0.0, 1.0) for lo, hi in rows)

    def test_inconsistent_stub_tables_are_clamped_and_counted(self):
        class StubBounder(JointBounder):
            name = "stub"

            def _tables(self, fresh, loaded):
                big = np.full(self.width, 5.0)
                return [
                    PartialTupleBounds(
                        prior=1.0,
                        joint=(0.0, 0.1),
                        low=big,
                        high=big,
                        var_prior={},
                        cost=1,
                    )
                    for _ in fresh
                ]

        bn = _diamond()
        e = {}
        cut = Cutset(vars=(0,)).with_cards(bn)
        active = select_tuples_gibbs(bn, e, cut, 1)
        inputs = prepare_inputs(bn, e, active, StubBounder(bn, e, cut.vars))
        rep = compute_report(inputs)
        assert rep.clamp_events > 0
        for rows in rep.marginals.values():
            for lo, hi in rows:
                assert 0.0 <= lo <= hi <= 1.0


class _CrossingBounder(JointBounder):
    """Unsound on purpose: every free value's low is 0.4 and its high 0,
    and the joint is (0.9, 0.95), so assembled ends cross."""

    name = "crossing"

    def _tables(self, fresh, loaded):
        return [
            PartialTupleBounds(
                prior=1.0,
                joint=(0.9, 0.95),
                low=np.full(self.width, 0.4),
                high=np.zeros(self.width),
                var_prior={},
                cost=1,
            )
            for _ in fresh
        ]


class TestCrossedIntervals:
    """Ends that cross are reported as the gap between them, never collapsed
    onto one end, which would be unsound if the truth lay past it."""

    def _inputs(self):
        bn = _diamond()
        e = {3: 1}
        cut = Cutset(vars=(0,)).with_cards(bn)
        active = select_tuples_gibbs(bn, e, cut, 1)
        return prepare_inputs(bn, e, active, _CrossingBounder(bn, e, cut.vars))

    def test_crossed_marginal_reports_both_ends(self):
        inputs = self._inputs()
        rep = compute_report(inputs)
        s = inputs.s
        for var in (1, 2):
            for value in range(2):
                s_val = float(inputs.active_mass[var][value])
                # lower: (S_x + 0.4) / (S + 0.4); upper: S_x / (S + 0.4)
                low = (s_val + 0.4) / (s + 0.4)
                high = s_val / (s + 0.4)
                assert high < low
                assert rep.marginals[var][value] == (high, low)
        assert rep.clamp_events == 0

    def test_crossed_evidence_interval_reports_both_ends(self):
        inputs = self._inputs()
        rep = compute_report(inputs)
        gl, _ = evidence_bounds(inputs)
        _, ch = evidence_closed_form(inputs)
        assert ch < gl  # the plug-in's lower end passes the closed form's upper
        assert rep.evidence == (ch, gl)


class TestQueryValidation:
    def test_wrong_query_kind_rejected(self):
        bn = _diamond()
        e = {3: 1}
        inputs = _inputs(bn, e, 1, make_bounder("bf", bn, e, (0,)))
        with pytest.raises(ValueError, match="observed"):
            marginal_bounds(inputs, 3, 0)

    def test_unknown_modes_rejected(self):
        bn = _diamond()
        with pytest.raises(ValueError, match="cutset kind"):
            run_engine(bn, {}, h=1, cutset_kind="random")
        with pytest.raises(ValueError, match="unknown bounder"):
            run_engine(bn, {}, h=1, plugin="bp")

    def test_evidence_outside_the_network_rejected(self):
        bn = grid_network(3, 3, 0, 1)
        with pytest.raises(NetworkFormatError, match="variable 8"):
            run_engine(bn, {8: 5}, h=1)
        with pytest.raises(NetworkFormatError, match="variable 9"):
            run_engine(bn, {9: 0}, h=1)

    def test_given_cutset_must_fit_the_network(self):
        # cards (1,) on the ternary variable 1 once covered a third of the
        # cutset space and reported P(e) as a point far below the truth
        bn = random_network(np.random.default_rng(3), n=6)
        e = {5: 0}
        assert bn.cards[1] == 3
        for cutset in (
            Cutset((1,), cards=(1,)), Cutset((1,), cards=(4,)), Cutset((0, 0)), Cutset((9,)),
        ):
            with pytest.raises(ValueError, match="cutset"):
                run_engine(bn, e, 1, cutset=cutset)
        active = ActiveTupleSet(Cutset((1,), cards=(1,)), ((0,),), np.ones(1))
        with pytest.raises(ValueError, match="differ from the network's"):
            prepare_inputs(bn, e, active, make_bounder("bf", bn, e, (1,)))
        report = run_engine(bn, e, 1, cutset=Cutset((1,), cards=(3,)))
        pe = enumerate_oracle(bn, e)[0]
        assert report.evidence[0] <= pe <= report.evidence[1]

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_cutset_sharing_evidence_runs(self, exhaustive):
        # the cutset names observed variable 4: tuples with 4=1 contradict
        # the evidence, and the two tuples with 4=0 carry all of P(e); from
        # h=3 on the active set holds a contradicting tuple
        bn = grid_network(3, 3, 0, 1)
        e = {8: 1, 4: 0}
        cut = Cutset(vars=(4, 1)).with_cards(bn)
        pe, posteriors = enumerate_oracle(bn, e)
        for h in range(1, cut.n_tuples + 1):
            if exhaustive:
                report = run_engine(bn, e, h=h, cutset=cut)
            else:  # the Gibbs branch
                active = select_by_chain(bn, e, cut, h)
                bounder = make_bounder("bf", bn, e, cut.vars)
                report = compute_report(prepare_inputs(bn, e, active, bounder))
            if h >= 2:
                assert report.s == pytest.approx(pe, rel=1e-12)
            for var, rows in report.marginals.items():
                for (low, high), truth in zip(rows, posteriors[var]):
                    assert low - 1e-12 <= truth <= high + 1e-12


class TestPrepareInputs:
    def test_mismatched_bounder_rejected(self):
        # an abdp bounder for evidence {8: 0} would bound joints with 8=0
        bn = grid_network(3, 3, 1, 0)
        e = {8: 1}
        cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
        active = select_tuples_gibbs(bn, e, cut, 1)
        for bounder in (
            make_bounder("abdp", bn, {8: 0}, cut.vars),
            make_bounder("abdp", grid_network(3, 3, 1, 0), e, cut.vars),
            make_bounder("abdp", bn, e, cut.vars[1:]),
        ):
            with pytest.raises(ValueError, match="another network, evidence or cutset"):
                prepare_inputs(bn, e, active, bounder)

    def test_hand_built_tuples_must_be_distinct_and_inside_the_cards(self):
        # read by numpy, -1 would be the last value and give an unsound point
        # P(e); 3 and 5 lie past the end
        bn = random_network(np.random.default_rng(3), n=6)
        e = {5: 0}
        cut = Cutset((1,)).with_cards(bn)
        assert cut.cards == (3,)
        for tuples in (((-1,),), ((3,),), ((5,),), ((2,), (0,), (2,))):
            active = ActiveTupleSet(cut, tuples, np.full(len(tuples), 0.05))
            with pytest.raises(ValueError, match="active tuple"):
                prepare_inputs(bn, e, active, make_bounder("bf", bn, e, cut.vars))
        pe = np.array([conditioned_joint(bn, e, {1: x}) for x in (2, 0)])
        good = ActiveTupleSet(cut, ((2,), (0,)), pe)
        prepare_inputs(bn, e, good, make_bounder("bf", bn, e, cut.vars))

    def test_leaves_the_active_set_unchanged(self):
        bn = _diamond()
        e = {3: 1}
        cut = Cutset(vars=(0,)).with_cards(bn)
        active = select_tuples_gibbs(bn, e, cut, 1)
        tuples, pe = active.tuples, active.pe.copy()
        prepare_inputs(bn, e, active, make_bounder("bf", bn, e, cut.vars))
        assert active.tuples == tuples
        np.testing.assert_array_equal(active.pe, pe)

    @staticmethod
    def _matches_per_tuple_reference(bn, e, active):
        inputs = prepare_inputs(bn, e, active, make_bounder("bf", bn, e, active.cutset.vars))
        priors, mass = reference_exact_sums(bn, e, active)
        # r = 1 - Σ tuple priors, against the exact rationals: within 1e-13
        # of the unit mass it is carved from, which each prior's relative
        # 1e-13 gives (r itself may be small, where 1 - Σ cancels)
        r = Fraction(0) if inputs.m_prime == 0 else max(Fraction(0), 1 - sum(priors))
        assert abs(Fraction(inputs.r) - r) <= Fraction(1e-13)
        for var, want in mass.items():
            assert np.array_equal(inputs.active_mass[var], want)
        return inputs

    def test_batched_sums_equal_per_tuple_sums(self, rng):
        for _ in range(12):
            bn = random_network(rng, n=int(rng.integers(4, 10)), zero_rows=True)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            for h in sorted({0, 1, cut.n_tuples // 2, cut.n_tuples}):
                self._matches_per_tuple_reference(bn, e, select_tuples_gibbs(bn, e, cut, h))

    def test_empty_cutset_one_tuple(self, rng):
        bn = random_tree_network(rng, 6)
        e = {5: 1}
        cut = Cutset(vars=()).with_cards(bn)
        active = select_tuples_gibbs(bn, e, cut, 1)
        assert active.tuples == ((),)
        inputs = self._matches_per_tuple_reference(bn, e, active)
        assert inputs.m_prime == 0

    def test_cutset_value_overrides_shared_evidence(self, rng):
        bn = _diamond()
        e = {3: 1, 2: 0}
        cut = Cutset(vars=(0, 2)).with_cards(bn)  # 2 is also observed
        tuples = tuple(assignment_tuples(cut.cards))[:3]  # (0, 1) contradicts e
        pe = np.array([conditioned_joint(bn, {**e, **dict(zip(cut.vars, t))}, {})
                       for t in tuples])
        active = ActiveTupleSet(cutset=cut, tuples=tuples, pe=pe)
        inputs = self._matches_per_tuple_reference(bn, e, active)
        assert inputs.active_mass[1].sum() == pytest.approx(inputs.s, abs=1e-15)

    def test_one_elimination_per_kept_variable(self, rng, monkeypatch):
        # the engine batches over active tuples; the bounder makes one
        # indicator bucket-tree pass over every partial of every depth, which
        # also gives the active tuples' priors
        calls = {"engine": 0, "bounder": 0}

        def counted(mod, name):
            for attr in ("eliminate", "eliminate_marginals"):
                real = getattr(mod, attr)

                def wrapper(*args, real=real, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                monkeypatch.setattr(mod, attr, wrapper)

        counted(engine_mod, "engine")
        counted(bounder_mod, "bounder")
        while True:
            bn = random_network(rng, n=10)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if cut.size >= 2 and cut.n_tuples >= 3:
                break
        active = select_tuples_gibbs(bn, e, cut, 2)
        inputs = prepare_inputs(bn, e, active, make_bounder("bf", bn, e, cut.vars))
        free = [v for v in range(bn.n) if v not in e and v not in cut.vars]
        assert inputs.tree.m_prime > 0
        assert calls["engine"] == int(bool(free))
        assert calls["bounder"] == 1

    def test_one_plan_per_assigned_set(self, rng, monkeypatch):
        # a cold prepare_inputs builds two plans: the indicator tree, which
        # gives the priors of every partial and active tuple, and the active
        # masses of the free variables
        while True:
            bn = random_network(rng, n=10)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            free = [v for v in range(bn.n) if v not in e and v not in cut.vars]
            if cut.size >= 2 and cut.n_tuples >= 3 and free:
                break
        active = select_tuples_gibbs(bn, e, cut, 2)
        built = []
        real = exact_mod._build_plan

        def counting(bn, assigned, *args):
            built.append(assigned)
            return real(bn, assigned, *args)

        monkeypatch.setattr(exact_mod, "_build_plan", counting)
        cold = BayesianNetwork(bn.variables, bn.cpts)  # selection filled bn's cache
        prepare_inputs(cold, e, active, make_bounder("bf", cold, e, cut.vars))
        assert len(built) == 2

    def test_new_evidence_values_add_no_cache_entry(self, rng):
        while True:
            bn = random_network(rng, n=9)
            e1 = random_evidence(rng, bn, max_obs=3)
            cut = find_loop_cutset(bn, exclude=frozenset(e1)).with_cards(bn)
            if e1 and cut.n_tuples >= 4:
                break
        e2 = {v: (x + 1) % bn.cards[v] for v, x in e1.items()}
        first = select_tuples_gibbs(bn, e1, cut, cut.n_tuples // 2)
        # the same tuples, so the same partials; only the evidence values move
        pe = np.array(
            [conditioned_joint(bn, e2, dict(zip(cut.vars, t))) for t in first.tuples]
        )
        second = ActiveTupleSet(cutset=cut, tuples=first.tuples, pe=pe)
        prepare_inputs(bn, e1, first, make_bounder("bf", bn, e1, cut.vars))
        size = len(bn._cache)
        prepare_inputs(bn, e2, second, make_bounder("bf", bn, e2, cut.vars))
        assert len(bn._cache) == size


def _terms(inputs) -> dict:
    return dict(engine_mod._terms_by_var(inputs))


def _assert_terms_match_reference(inputs):
    terms = _terms(inputs)
    assert list(terms) == list(inputs.query_vars())
    for var in inputs.query_vars():
        got = terms[var]
        assert len(got) == inputs.bn.cards[var]
        for value, parts in enumerate(got):
            assert parts == reference_partial_terms(inputs, var, value)


class _JunkPinnedBounder(PriorMassBounder):
    """bf with 7.0 in every cell of the variables a partial pins."""

    def _tables(self, fresh, loaded):
        out = []
        for partial, tab in zip(fresh, super()._tables(fresh, loaded)):
            low, high = tab.low.copy(), tab.high.copy()
            for v, _ in partial:
                if v in self.cells:
                    low[self.cells[v]] = high[self.cells[v]] = 7.0
            out.append(dataclasses.replace(tab, low=low, high=high))
        return out


class TestAssembly:
    def test_pinned_cells_are_never_read(self, rng):
        pinned = 0
        for _ in range(4):
            bn, e, cut = self._loopy_case(rng, max_card=3)
            for h in sorted({0, 1, cut.n_tuples // 2}):
                active = select_tuples_gibbs(bn, e, cut, h)
                plain = prepare_inputs(bn, e, active, make_bounder("bf", bn, e, cut.vars))
                junk = prepare_inputs(bn, e, active, _JunkPinnedBounder(bn, e, cut.vars))
                pinned += sum(len(vals) > 0 for vals in junk.tree.partials)
                want, got = compute_report(plain), compute_report(junk)
                for f in dataclasses.fields(want):
                    if f.name != "timings":
                        assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert pinned > 0

    @pytest.mark.parametrize("plugin", ["bf", "abdp"])
    def test_terms_equal_the_per_value_reference(self, rng, plugin):
        checked = 0
        while checked < 6:
            bn = random_network(rng, n=int(rng.integers(5, 9)))
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples < 3:
                continue
            active = select_tuples_gibbs(bn, e, cut, cut.n_tuples // 3)
            bounder = make_bounder(plugin, bn, e, cut.vars, iters=5)
            _assert_terms_match_reference(prepare_inputs(bn, e, active, bounder))
            checked += 1

    @staticmethod
    def _loopy_case(rng, **kw):
        while True:
            bn = random_network(rng, n=int(rng.integers(5, 9)), **kw)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if cut.vars and 3 <= cut.n_tuples <= 64:
                return bn, e, cut

    @pytest.mark.parametrize("plugin", ["bf", "abdp"])
    def test_saturated_set_has_no_partial_terms(self, rng, plugin):
        bn, e, cut = self._loopy_case(rng)
        active = select_tuples_gibbs(bn, e, cut, cut.n_tuples)
        inputs = prepare_inputs(bn, e, active, make_bounder(plugin, bn, e, cut.vars, iters=5))
        assert inputs.m_prime == 0
        _assert_terms_match_reference(inputs)
        for per_value in _terms(inputs).values():
            assert all(parts == ([], [], [], []) for parts in per_value)

    @pytest.mark.parametrize("plugin", ["bf", "abdp"])
    def test_empty_set_has_the_one_empty_partial(self, rng, plugin):
        bn, e, cut = self._loopy_case(rng)
        active = select_tuples_gibbs(bn, e, cut, 0)
        inputs = prepare_inputs(bn, e, active, make_bounder(plugin, bn, e, cut.vars, iters=5))
        assert inputs.tree.partials == ((),)
        _assert_terms_match_reference(inputs)

    @pytest.mark.parametrize("plugin", ["bf", "abdp"])
    def test_ternary_cutset_and_free_variables(self, rng, plugin):
        checked = 0
        while checked < 3:
            bn, e, cut = self._loopy_case(rng, max_card=3)
            free = [v for v in range(bn.n) if v not in e and v not in cut.vars]
            if 3 not in cut.cards or all(bn.cards[v] != 3 for v in free):
                continue
            for h in (1, cut.n_tuples // 2):
                active = select_tuples_gibbs(bn, e, cut, h)
                bounder = make_bounder(plugin, bn, e, cut.vars, iters=5)
                _assert_terms_match_reference(prepare_inputs(bn, e, active, bounder))
            checked += 1

    @pytest.mark.parametrize("plugin", ["bf", "abdp"])
    def test_evidence_on_all_but_one_variable(self, rng, plugin):
        for _ in range(4):
            bn = random_network(rng, n=6)
            v = int(rng.integers(bn.n))
            e = {u: int(rng.integers(bn.cards[u])) for u in range(bn.n) if u != v}
            # the one free variable alone, and as the cutset
            for cut in (Cutset(vars=()), Cutset(vars=(v,))):
                cut = cut.with_cards(bn)
                for h in range(cut.n_tuples + 1):
                    active = select_tuples_gibbs(bn, e, cut, h)
                    bounder = make_bounder(plugin, bn, e, cut.vars, iters=5)
                    inputs = prepare_inputs(bn, e, active, bounder)
                    assert inputs.query_vars() == (v,)
                    _assert_terms_match_reference(inputs)


class TestInvocationAccounting:
    def test_costs_per_report(self):
        bn = _diamond()
        e = {3: 1}
        for plugin, per_partial in (("bf", 1), ("abdp", 2)):
            rep = run_engine(bn, e, h=1, plugin=plugin)
            assert rep.m_prime == 1
            assert rep.invocations <= per_partial * rep.m_prime
            d_max = max(bn.cards)
            assert rep.invocations <= 2 * (1 + d_max) * max(rep.m_prime, 1)

    def test_shared_bounder_memoizes_across_prefixes(self):
        bn = _diamond()
        e = {3: 1}
        cut = Cutset(vars=(0,)).with_cards(bn)
        active = select_tuples_gibbs(bn, e, cut, 2)
        bounder = make_bounder("bf", bn, e, cut.vars)
        seen = []
        for h in (0, 1, 2, 1, 0):
            inputs = prepare_inputs(bn, e, active.prefix(h), bounder)
            seen.append(compute_report(inputs).invocations)
        # h=0: the empty prefix partial; h=1: the single complement; h=2: none
        assert seen == [1, 1, 0, 1, 1]
        assert bounder.invocations == 2  # (,) and (complement,) each computed once


class TestBaselineColumns:
    def test_baseline_interval_and_remainder_width(self, rng):
        for _ in range(6):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples > 16:
                continue
            pe, post = enumerate_oracle(bn, e)
            if pe <= 1e-9:
                continue
            for h in (0, 1, cut.n_tuples):
                inputs = _inputs(bn, e, h, make_bounder("bf", bn, e, cut.vars))
                rep = compute_report(inputs)
                assert rep.bc_evidence == evidence_closed_form(inputs)
                for var in inputs.query_vars():
                    for val in range(bn.cards[var]):
                        lo, hi, deg = bounded_conditioning_bounds(inputs, var, val)
                        assert rep.bc_marginals[var][val] == (lo, hi)
                        assert lo - 1e-9 <= post[var][val] <= hi + 1e-9
                        if not deg:
                            assert hi - lo >= rep.r - 1e-12


class TestEndToEnd:
    def test_w_cutset_route(self):
        bn = _diamond()
        rep = run_engine(bn, {3: 1}, h=1, cutset_kind="w", w=1)
        pe, _ = enumerate_oracle(bn, {3: 1})
        assert rep.evidence[0] - 1e-12 <= pe <= rep.evidence[1] + 1e-12

    def test_abdp_report_tighter_than_bf(self):
        bn = _diamond()
        e = {3: 1}
        bf = run_engine(bn, e, h=1, plugin="bf")
        ab = run_engine(bn, e, h=1, plugin="abdp")
        assert ab.evidence[0] >= bf.evidence[0] - 1e-15
        assert ab.evidence[1] <= bf.evidence[1] + 1e-15
        for var in bf.marginals:
            for (bl, bh), (al, ah) in zip(bf.marginals[var], ab.marginals[var]):
                assert al >= bl - 1e-15
                assert ah <= bh + 1e-15

    def test_interval_width_capped_by_remainder_ratio(self):
        bn = _diamond()
        e = {3: 1}
        last_ih = None
        for h in (0, 1, 2):
            rep = run_engine(bn, e, h=h)
            for rows in rep.marginals.values():
                for lo, hi in rows:
                    assert hi - lo <= rep.i_h + 1e-12
            if last_ih is not None:
                assert rep.i_h <= last_ih + 1e-15
            last_ih = rep.i_h
