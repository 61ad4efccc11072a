"""Min-fill orders, induced width, and cutset selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbounds.exact import _layout
from beliefbounds.graphs import (
    Cutset,
    find_loop_cutset,
    find_w_cutset,
    is_loop_cutset,
    min_fill_order,
)
from beliefbounds.model import BayesianNetwork, Cpt, Variable

from conftest import (
    grid_network,
    random_network,
    random_tree_network,
    reference_induced_width,
    reference_min_fill_sequence,
)


def _net(n, edges):
    """Uniform-CPT network with the given parent edges (for structure tests)."""
    parents = {i: tuple(sorted(p for p, c in edges if c == i)) for i in range(n)}
    variables = tuple(Variable(i, f"v{i}", 2) for i in range(n))
    cpts = tuple(
        Cpt(i, parents[i], np.full(tuple([2] * len(parents[i])) + (2,), 0.5))
        for i in range(n)
    )
    return BayesianNetwork(variables, cpts)


DIAMOND = _net(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def _scopes(bn, removed=()):
    """CPT scopes less the removed variables: what a plan sees once they are
    assigned."""
    gone = set(removed)
    return [tuple(v for v in cpt.parents + (cpt.child,) if v not in gone) for cpt in bn.cpts]


class TestMinFill:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 14),
        n_stay=st.integers(0, 3),
        density=st.sampled_from([0.15, 0.35, 0.7]),
    )
    def test_same_order_as_the_rescanning_reference(self, seed, n, n_stay, density):
        rng = np.random.default_rng(seed)
        variables = [int(v) for v in rng.permutation(n)]
        scopes = []
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            scopes.append(tuple(v for v in variables if rng.random() < density))
        # the first n_stay variables stay, as the cutset does in a plan
        elim = sorted(variables[n_stay:])
        want = reference_min_fill_sequence(scopes, elim)
        assert min_fill_order(scopes, elim) == (want, reference_induced_width(scopes, want))


class TestInducedWidth:
    def test_chain_natural_order(self):
        assert reference_induced_width([(0, 1), (1, 2), (2, 3)], (0, 1, 2, 3)) == 1

    def test_complete_graph_any_order(self):
        n = 5
        scopes = [(i, j) for i in range(n) for j in range(i)]
        assert reference_induced_width(scopes, tuple(range(n))) == n - 1
        assert reference_induced_width(scopes, tuple(reversed(range(n)))) == n - 1

    def test_cycle_needs_width_two(self):
        assert min_fill_order([(0, 1), (1, 2), (2, 3), (3, 0)], range(4))[1] == 2

    def test_min_fill_is_permutation_and_deterministic(self, rng):
        for _ in range(20):
            bn = random_network(rng)
            order, width = min_fill_order(_scopes(bn), range(bn.n))
            assert sorted(order) == list(range(bn.n))
            assert (order, width) == min_fill_order(_scopes(bn), range(bn.n))

    def test_trees_have_width_one(self, rng):
        for _ in range(10):
            bn = random_tree_network(rng, n=int(rng.integers(3, 10)))
            assert min_fill_order(_scopes(bn), range(bn.n))[1] <= 1


class TestCutsetCards:
    def test_with_cards_checks_the_cutset_against_the_network(self):
        cut = Cutset((2, 0), kind="w", w=1)
        assert cut.with_cards(DIAMOND) == Cutset((2, 0), kind="w", w=1, cards=(2, 2))
        assert Cutset((2, 0), cards=(2, 2)).with_cards(DIAMOND).cards == (2, 2)
        for bad, message in (
            (Cutset((1, 1)), "repeats"),
            (Cutset((4,)), "outside"),
            (Cutset((-1,)), "outside"),
            (Cutset((1,), cards=(1,)), "differ"),
            (Cutset((1, 3), cards=(2, 3)), "differ"),
        ):
            with pytest.raises(ValueError, match=message):
                bad.with_cards(DIAMOND)


class TestLoopCutset:
    def test_diamond_membership(self):
        # Deleting the out-edges of 0 (or of both 1 and 2) breaks the loop;
        # the sink 3 has no out-edges, so {3} changes nothing.
        assert not is_loop_cutset(DIAMOND, set())
        assert is_loop_cutset(DIAMOND, {0})
        assert is_loop_cutset(DIAMOND, {1, 2})
        assert not is_loop_cutset(DIAMOND, {3})

    def test_singly_connected_needs_nothing(self, rng):
        bn = random_tree_network(rng, 6)
        assert is_loop_cutset(bn, set())
        assert find_loop_cutset(bn).vars == ()

    def test_found_cutset_is_valid_minimal_deterministic(self, rng):
        for _ in range(40):
            bn = random_network(rng)
            cut = find_loop_cutset(bn)
            assert is_loop_cutset(bn, cut)
            assert cut.vars == find_loop_cutset(bn).vars
            # 1-minimal: no single member is redundant
            for v in cut.vars:
                assert not is_loop_cutset(bn, set(cut.vars) - {v})

    def test_exclusion_respected(self, rng):
        for _ in range(25):
            bn = random_network(rng)
            full = find_loop_cutset(bn)
            if not full.vars:
                continue
            exclude = frozenset(full.vars[:1])
            cut = find_loop_cutset(bn, exclude=exclude)
            assert not set(cut.vars) & exclude
            # joint guarantee: excluded vertices plus the result break all loops
            assert is_loop_cutset(bn, set(cut.vars) | exclude)

    def test_cards_and_tuple_count(self):
        cut = find_loop_cutset(DIAMOND)
        assert cut.cards == tuple(DIAMOND.cards[v] for v in cut.vars)
        assert cut.n_tuples == int(np.prod(cut.cards))
        assert Cutset(vars=()).n_tuples == 1
        with pytest.raises(ValueError, match="align"):
            Cutset(vars=(0, 1), cards=(2,))


class TestWCutset:
    def test_width_cap_holds(self, rng):
        cases = [(random_network(rng), (1, 2)) for _ in range(20)]
        cases += [(grid_network(rows, 9, 0), (2, 4, 8)) for rows in range(6, 10)]
        for bn, ws in cases:
            for w in ws:
                cut = find_w_cutset(bn, w)
                scopes = _scopes(bn, cut.vars)
                order, width = min_fill_order(scopes, [v for v in range(bn.n) if v not in cut.vars])
                assert width == reference_induced_width(scopes, order) <= w
                assert cut.kind == "w" and cut.w == w

    def test_plans_meet_the_width(self):
        # the width is a promise about the plans that sum the cutset's tuples:
        # with the cutset and x71 assigned, no bucket of P(x71)'s plan may hold
        # more than w + 1 = 9 binary variables: a cap of 2^9 entries admits it
        bn = grid_network(6, 12, 0)
        cut = find_w_cutset(bn, 8, exclude={71})
        assert cut.vars
        _layout(bn, tuple(sorted(cut.vars + (71,))), 2**9)

    def test_larger_w_never_needs_more_vertices(self, rng):
        for _ in range(10):
            bn = random_network(rng)
            assert len(find_w_cutset(bn, 2).vars) <= len(find_w_cutset(bn, 1).vars)

    def test_exclude_respected(self, rng):
        for _ in range(10):
            bn = random_network(rng)
            cut = find_w_cutset(bn, 1)
            if not cut.vars:
                continue
            exclude = frozenset(cut.vars[:1])
            cut2 = find_w_cutset(bn, 1, exclude=exclude)
            assert not set(cut2.vars) & exclude

    def test_w_must_be_positive(self):
        with pytest.raises(ValueError):
            find_w_cutset(DIAMOND, 0)
