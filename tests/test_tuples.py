"""Active tuple selection and the truncated search tree."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefbounds.exact as exact_mod
import beliefbounds.tuples as tuples_mod
from beliefbounds.exact import bucket_eliminate_pe
from beliefbounds.graphs import Cutset, find_loop_cutset
from beliefbounds.model import (
    BayesianNetwork,
    Cpt,
    Variable,
    assignment_tuples,
)
from beliefbounds.tuples import (
    ActiveTupleSet,
    _forward_sample_cutset,
    build_truncated_tree,
    select_tuples_gibbs,
)

from conftest import (
    brute_event_mass,
    conditioned_joint,
    grid_network,
    merge_assignment,
    partition_check,
    random_evidence,
    random_network,
    reference_gibbs_select,
    select_by_chain,
)


def _worked_cutset():
    return Cutset(vars=(0, 1, 2, 3), cards=(2, 3, 2, 2))


def _tree_for(active_tuples, cards=(2, 3, 2, 2)):
    c = Cutset(vars=tuple(range(len(cards))), cards=cards)
    active = ActiveTupleSet(
        cutset=c,
        tuples=tuple(active_tuples),
        pe=np.zeros(len(active_tuples)),
    )
    return build_truncated_tree(c, active)


class TestTruncatedTree:
    def test_worked_example(self):
        # four active tuples in a (2,3,2,2) space of M = 24
        tree = _tree_for([(0, 1, 0, 0), (0, 1, 0, 1), (0, 2, 1, 0), (0, 2, 1, 1)])
        assert tree.cutset.n_tuples == 24
        assert tree.partials == (
            (0, 0),
            (0, 1, 1),
            (0, 2, 0),
            (1,),
        )
        assert tree.m_prime == 4
        # processed work: h exact tuples + m' bounded partials
        assert tree.active.h + tree.m_prime == 8

    def test_empty_active_set_covers_everything(self):
        tree = _tree_for([])
        assert tree.partials == ((),)
        assert tree.m_prime == 1

    def test_saturated_active_set_leaves_nothing(self):
        cards = (2, 2)
        tree = _tree_for(list(assignment_tuples(cards)), cards=cards)
        assert tree.partials == ()

    def test_partial_count_bound(self):
        # m' <= h * (d_max - 1) * |C| for any nonempty active set
        cards = (3, 3, 2)
        pool = list(assignment_tuples(cards))
        rng = np.random.default_rng(5)
        for h in range(1, len(pool) + 1):
            pick = [pool[i] for i in rng.choice(len(pool), size=h, replace=False)]
            tree = _tree_for(pick, cards=cards)
            assert tree.m_prime <= h * (max(cards) - 1) * len(cards)

    @staticmethod
    def _covers_once(tree, cards):
        prefixes = set(tree.partials)
        actives = set(tree.active.tuples)
        for full in itertools.product(*(range(c) for c in cards)):
            homes = int(full in actives)
            homes += sum(
                1 for p in prefixes if full[: len(p)] == p
            )
            assert homes == 1, f"{full} covered {homes} times"

    def test_partition_property_examples(self):
        cards = (2, 3, 2, 2)
        tree = _tree_for([(0, 1, 0, 0), (0, 1, 0, 1), (0, 2, 1, 0), (0, 2, 1, 1)])
        self._covers_once(tree, cards)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_partition_property_random(self, data):
        cards = tuple(
            data.draw(
                st.lists(st.integers(2, 3), min_size=1, max_size=4), label="cards"
            )
        )
        pool = list(itertools.product(*(range(c) for c in cards)))
        k = data.draw(st.integers(0, min(len(pool), 6)), label="h")
        idx = data.draw(
            st.lists(
                st.integers(0, len(pool) - 1), min_size=k, max_size=k, unique=True
            ),
            label="which",
        )
        tree = _tree_for([pool[i] for i in idx], cards=cards)
        self._covers_once(tree, cards)
        # every partial is a strict prefix assignment, never a full tuple,
        # except when it IS the whole-space sentinel for an empty active set
        for p in tree.partials:
            if tree.active.h:
                assert 0 < len(p) <= len(cards)

    def test_missing_cards_rejected(self):
        c = Cutset(vars=(0, 1))
        active = ActiveTupleSet(cutset=c, tuples=(), pe=np.zeros(0))
        with pytest.raises(ValueError, match="cardinalities"):
            build_truncated_tree(c, active)


class TestExhaustiveSelection:
    def test_true_top_h_with_lexicographic_ties(self, rng):
        for _ in range(20):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples > 64:
                continue
            m = cut.n_tuples
            h = int(rng.integers(0, m + 1))
            active = select_tuples_gibbs(bn, e, cut, h)
            # independent ranking by enumeration
            scored = [
                (tup, brute_event_mass(bn, {**e, **dict(zip(cut.vars, tup))}))
                for tup in assignment_tuples(cut.cards)
            ]
            scored.sort(key=lambda kv: (-kv[1], kv[0]))
            assert active.tuples == tuple(t for t, _ in scored[:h])
            for (tup, want), got in zip(scored[:h], active.pe):
                assert got == pytest.approx(want, abs=1e-12)

    def test_nested_prefixes(self, rng):
        while True:
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if cut.vars and cut.n_tuples <= 32:
                break
        m = cut.n_tuples
        full = select_tuples_gibbs(bn, e, cut, m)
        for h in range(m + 1):
            again = select_tuples_gibbs(bn, e, cut, h)
            assert again.tuples == full.prefix(h).tuples

    def test_cutset_sharing_evidence_gives_conflicting_tuples_zero_mass(self):
        # the first cutset variable is also observed
        for bn, e, cvars in (
            (grid_network(3, 3, 0, 1), {8: 1, 4: 0}, (4, 1)),
            (grid_network(3, 4, 1, 1), {11: 1, 5: 0}, (5, 1, 6)),
        ):
            cut = Cutset(vars=cvars).with_cards(bn)
            want = {}
            for tup in assignment_tuples(cut.cards):
                merged, conflict = merge_assignment(e, tuple(zip(cut.vars, tup)))
                want[tup] = 0.0 if conflict else bucket_eliminate_pe(bn, merged)
            active = select_tuples_gibbs(bn, e, cut, cut.n_tuples)
            assert set(active.tuples) == set(want)
            for tup, pe in zip(active.tuples, active.pe):
                assert pe == want[tup]
            # the sampler path gives the same masses
            gibbs = select_by_chain(bn, e, cut, cut.n_tuples)
            assert dict(zip(gibbs.tuples, gibbs.pe.tolist())) == want

    def test_masses_equal_the_chain_s_bit_for_bit(self, rng):
        # both branches sum every tuple the same way: one batched
        # elimination, conflicts with shared evidence zeroed after
        for seed in range(8):
            bn = grid_network(*((3, 4) if seed % 2 else (4, 4)), seed)
            e = random_evidence(rng, bn, max_obs=3)
            cut = find_loop_cutset(bn).with_cards(bn)  # may share evidence
            m = cut.n_tuples
            exhaustive = select_tuples_gibbs(bn, e, cut, m)
            chain = select_by_chain(bn, e, cut, m, sweeps=2, seed=seed)
            assert set(exhaustive.tuples) == set(chain.tuples) == set(assignment_tuples(cut.cards))
            got = dict(zip(exhaustive.tuples, exhaustive.pe.tolist()))
            assert got == dict(zip(chain.tuples, chain.pe.tolist()))

    def test_h_out_of_range(self, rng):
        bn = random_network(rng, n=5)
        cut = find_loop_cutset(bn).with_cards(bn)
        with pytest.raises(ValueError, match="exceeds"):
            select_tuples_gibbs(bn, {}, cut, cut.n_tuples + 1)
        with pytest.raises(ValueError, match=">= 0"):
            select_tuples_gibbs(bn, {}, cut, -1)


class TestGibbsSelection:
    def _loopy_net(self, rng):
        while True:
            bn = random_network(rng, n=8, max_card=3)
            cut = find_loop_cutset(bn).with_cards(bn)
            if cut.size >= 2 and cut.n_tuples <= 200:
                return bn, cut

    def test_sampler_path_properties(self, rng):
        bn, cut = self._loopy_net(rng)
        h = min(6, cut.n_tuples)
        # the sampling path even though M is small
        a1 = select_by_chain(bn, {}, cut, h, sweeps=4, seed=11)
        a2 = select_by_chain(bn, {}, cut, h, sweeps=4, seed=11)
        assert a1.tuples == a2.tuples  # seeded determinism
        assert len(set(a1.tuples)) == h  # distinct
        for tup, p in zip(a1.tuples, a1.pe):
            want = brute_event_mass(bn, dict(zip(cut.vars, tup)))
            assert p == pytest.approx(want, abs=1e-12)  # masses are exact

    def test_padding_reaches_h_without_sweeps(self, rng):
        bn, cut = self._loopy_net(rng)
        h = min(8, cut.n_tuples)
        active = select_by_chain(bn, {}, cut, h, sweeps=0, seed=3)
        assert active.h == h
        assert len(set(active.tuples)) == h

    def test_tree_build_works_on_sampled_sets(self, rng):
        bn, cut = self._loopy_net(rng)
        h = min(5, cut.n_tuples)
        active = select_by_chain(bn, {}, cut, h, sweeps=3, seed=1)
        tree = build_truncated_tree(cut, active)
        TestTruncatedTree._covers_once(tree, cut.cards)

    def test_all_zero_conditional_keeps_the_current_value(self):
        # every value of X0 has zero mass; the chain must keep X0=0 (not the
        # last value tried, 2, whose prior is 0) for X1 to move to 1 and find
        # the only positive tuple
        bn, e, cut = _zero_conditional_case()
        active = select_by_chain(bn, e, cut, 1, sweeps=1, seed=0)
        assert active.tuples == ((0, 1),)
        assert active.pe[0] == pytest.approx(0.01)


def _zero_conditional_case():
    """X0 is 0 for sure; the forward sample draws X1=0, which evidence E=1
    rules out, so every value of X0 has zero mass at the first coordinate."""
    variables = (Variable(0, "x0", 3), Variable(1, "x1", 2), Variable(2, "e", 2))
    cpts = (
        Cpt(0, (), np.array([1.0, 0.0, 0.0])),
        Cpt(1, (), np.array([0.99, 0.01])),
        Cpt(2, (1,), np.array([[1.0, 0.0], [0.0, 1.0]])),
    )
    return BayesianNetwork(variables, cpts), {2: 1}, Cutset(vars=(0, 1), cards=(3, 2))


def _state_changes(bn, e, c, sweeps, seed) -> int:
    """How often the Gibbs chain moves to a new state: a replay of its draws
    on scalar masses."""
    rng = np.random.default_rng(seed)
    state = list(_forward_sample_cutset(bn, e, c, rng))
    changes = 0
    for _ in range(sweeps):
        for k in range(c.size):
            probs = np.array([
                conditioned_joint(bn, e, dict(zip(c.vars, state[:k] + [val] + state[k + 1:])))
                for val in range(c.cards[k])
            ])
            total = probs.sum()
            if total > 0.0:
                val = int(rng.choice(c.cards[k], p=probs / total))
                changes += val != state[k]
                state[k] = val
    return changes


class TestDraw:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(
            st.sampled_from([0.0, 1e-300, 0.1, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0),
            min_size=2, max_size=4,
        ).filter(lambda w: sum(w) > 0.0),
    )
    def test_replays_generator_choice(self, seed, weights):
        # the same index from the same draw, and the stream goes on alike
        p = np.array(weights)
        p = p / p.sum()
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert tuples_mod._draw(mine, weights) == int(theirs.choice(len(p), p=p))
        assert mine.random() == theirs.random()

    def test_all_zero_weights_draw_nothing(self):
        mine, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert tuples_mod._draw(mine, [0.0, 0.0, 0.0]) is None
        assert mine.random() == theirs.random()

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(
            st.sampled_from([0.0, 1e-300, 0.1, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0),
            min_size=1, max_size=12,
        ),
    )
    def test_cdf_is_numpys(self, weights):
        # the cdf _draw makes in Python floats is the one Generator.choice
        # makes in numpy, bit for bit, pairwise-summed totals of 8 or more
        # weights included
        p = np.array(weights)
        total = p.sum()
        got = tuples_mod._cdf(weights)
        if not total > 0.0:
            assert got is None
            return
        want = (p / total).cumsum()
        want /= want[-1]
        assert np.array(got).tobytes() == want.tobytes()


class TestBatchedChain:
    """The chain evaluates a state's unseen one-coordinate neighbours in one
    batched elimination; its selections equal the one-tuple-per-call chain's."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sweeps=st.integers(0, 4),
        zero_rows=st.booleans(),
        shared=st.booleans(),
        data=st.data(),
    )
    def test_equals_the_scalar_reference(self, seed, sweeps, zero_rows, shared, data):
        rng = np.random.default_rng(seed)
        bn = random_network(rng, n=int(rng.integers(3, 10)), max_card=3, zero_rows=zero_rows)
        e = random_evidence(rng, bn)
        cvars = data.draw(
            st.lists(st.integers(0, bn.n - 1), min_size=1, max_size=4, unique=True),
            label="cutset",
        )
        if shared and e:  # a cutset variable is observed: conflict rows
            cvars = sorted(set(cvars) | {min(e)})
        cut = Cutset(vars=tuple(cvars)).with_cards(bn)
        h = data.draw(st.integers(0, min(cut.n_tuples, 8)), label="h")
        got = select_by_chain(bn, e, cut, h, sweeps=sweeps, seed=seed)
        want = reference_gibbs_select(bn, e, cut, h, sweeps, seed)
        assert got.tuples == want.tuples
        assert got.pe.tobytes() == want.pe.tobytes()

    @pytest.mark.parametrize("sweeps", [0, 1, 3])
    def test_all_zero_conditional_equals_the_scalar_reference(self, sweeps):
        bn, e, cut = _zero_conditional_case()
        for h in range(cut.n_tuples + 1):
            got = select_by_chain(bn, e, cut, h, sweeps=sweeps, seed=0)
            want = reference_gibbs_select(bn, e, cut, h, sweeps, 0)
            assert got.tuples == want.tuples
            assert got.pe.tobytes() == want.pe.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sweeps=st.integers(1, 3), shared=st.booleans())
    def test_high_cardinality_equals_the_scalar_reference(self, seed, sweeps, shared):
        # a cutset variable of 9 to 12 values: np.sum adds its conditional
        # pairwise, not left to right
        rng = np.random.default_rng(seed)
        bn = random_network(rng, n=4, max_card=12, max_parents=2, zero_rows=True)
        while not 9 <= max(bn.cards) <= 12:
            bn = random_network(rng, n=4, max_card=12, max_parents=2, zero_rows=True)
        wide = bn.cards.index(max(bn.cards))
        e = random_evidence(rng, bn)
        if not shared:
            e.pop(wide, None)
        others = [v for v in range(bn.n) if v != wide]
        cvars = [wide] + [int(v) for v in rng.choice(others, size=2, replace=False)]
        cut = Cutset(vars=tuple(cvars)).with_cards(bn)
        h = int(rng.integers(1, 9))
        got = select_by_chain(bn, e, cut, h, sweeps=sweeps, seed=seed)
        want = reference_gibbs_select(bn, e, cut, h, sweeps, seed)
        assert got.tuples == want.tuples
        assert got.pe.tobytes() == want.pe.tobytes()

    @pytest.mark.parametrize("sweeps, h, padded", [(3, 4, 0), (0, 5, 4)])
    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_one_elimination_per_state_change(self, monkeypatch, sweeps, h, padded, seed):
        bn = grid_network(5, 5, seed)
        e = {24: 1, 12: 0}
        cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
        assert cut.size >= 4 and cut.n_tuples > 5
        # every evaluation, batched or not, applies a plan (exact._apply),
        # and each goes through the module's eliminate, the name the
        # benchmark's tracer counts
        calls, named = [], []
        apply, eliminate = exact_mod._apply, tuples_mod.eliminate
        monkeypatch.setattr(exact_mod, "_apply", lambda *a: calls.append(1) or apply(*a))
        monkeypatch.setattr(tuples_mod, "eliminate", lambda *a: named.append(1) or eliminate(*a))
        active = select_by_chain(bn, e, cut, h, sweeps=sweeps, seed=seed)
        assert active.h == h
        assert named == calls
        assert 1 <= len(calls) <= _state_changes(bn, e, cut, sweeps, seed) + 2 + padded

    @pytest.mark.parametrize("cap", [0, 4096])  # the sampling and the exhaustive branch
    def test_h_zero_eliminates_nothing(self, monkeypatch, cap):
        bn = grid_network(5, 5, 1)
        e = {24: 1, 12: 0}
        cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
        assert cut.n_tuples <= 4096
        calls = []
        apply = exact_mod._apply
        monkeypatch.setattr(exact_mod, "_apply", lambda *a: calls.append(1) or apply(*a))
        monkeypatch.setattr(tuples_mod, "EXHAUSTIVE_CAP", cap)
        active = select_tuples_gibbs(bn, e, cut, 0)
        assert calls == []
        assert active.tuples == () and active.pe.dtype == np.float64 and active.pe.size == 0
        assert active.cutset.cards == cut.cards


class TestPartitionCheck:
    def test_masses_sum_to_event_probability(self, rng):
        for _ in range(12):
            bn = random_network(rng, n=7)
            e = random_evidence(rng, bn)
            cut = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
            if not cut.vars or cut.n_tuples > 64:
                continue
            pe = brute_event_mass(bn, e)
            for h in (0, min(3, cut.n_tuples), cut.n_tuples):
                active = select_tuples_gibbs(bn, e, cut, h)
                tree = build_truncated_tree(cut, active)
                s, r = partition_check(bn, e, tree)
                assert s + r == pytest.approx(pe, abs=1e-9)
                assert s == pytest.approx(math.fsum(active.pe), abs=1e-12)

    def test_refuses_oversized_spaces(self, rng):
        while True:
            bn = random_network(rng, n=6)
            cut = find_loop_cutset(bn).with_cards(bn)
            if cut.vars:
                break
        active = select_tuples_gibbs(bn, {}, cut, 0)
        tree = build_truncated_tree(cut, active)
        with pytest.raises(ValueError, match="too large"):
            partition_check(bn, {}, tree, max_terms=0)


class TestPrefixViews:
    def test_prefix_slices_every_cache(self, rng):
        while True:
            bn = random_network(rng, n=6)
            cut = find_loop_cutset(bn).with_cards(bn)
            if cut.vars and cut.n_tuples <= 64:
                break
        m = cut.n_tuples
        active = select_tuples_gibbs(bn, {}, cut, m)
        view = active.prefix(2)
        assert view.tuples == active.tuples[:2]
        np.testing.assert_array_equal(view.pe, active.pe[:2])
        assert active.prefix(0).tuples == ()
        for h in (m + 1, -1):  # a negative h would slice from the end
            with pytest.raises(ValueError, match=f"prefix {h} outside"):
                active.prefix(h)
