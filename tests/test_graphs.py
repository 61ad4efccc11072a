"""Moralization, orderings, induced width, and cutset selection."""

import numpy as np
import pytest

from beliefbounds.graphs import (
    Cutset,
    find_loop_cutset,
    find_w_cutset,
    graph_from_edges,
    induced_width,
    is_loop_cutset,
    min_fill_ordering,
    moral_graph,
)
from beliefbounds.model import BayesianNetwork, Cpt, Variable

from conftest import random_network, random_tree_network


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


class TestMoralGraph:
    def test_collider_parents_married(self):
        bn = _net(3, [(0, 2), (1, 2)])
        g = moral_graph(bn)
        assert 1 in g.neighbors(0)
        assert 2 in g.neighbors(0) and 2 in g.neighbors(1)

    def test_chain_gets_no_extra_edges(self):
        bn = _net(3, [(0, 1), (1, 2)])
        g = moral_graph(bn)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_self_loops_dropped_and_adjacency_symmetric(self):
        g = graph_from_edges(3, [(0, 0), (0, 1), (1, 0), (2, 1)])
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        for u in range(3):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


class TestInducedWidth:
    def test_chain_natural_order(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert induced_width(g, (0, 1, 2, 3)) == 1

    def test_complete_graph_any_order(self):
        n = 5
        g = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i)])
        assert induced_width(g, tuple(range(n))) == n - 1
        assert induced_width(g, tuple(reversed(range(n)))) == n - 1

    def test_rejects_non_permutation(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            induced_width(g, (0, 1, 1))

    def test_cycle_needs_width_two(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        o = min_fill_ordering(g)
        assert induced_width(g, o) == 2

    def test_min_fill_is_permutation_and_deterministic(self, rng):
        for _ in range(20):
            bn = random_network(rng)
            g = moral_graph(bn)
            o = min_fill_ordering(g)
            assert sorted(o) == list(range(g.n))
            assert o == min_fill_ordering(g)

    def test_trees_have_width_one(self, rng):
        for _ in range(10):
            bn = random_tree_network(rng, n=int(rng.integers(3, 10)))
            g = moral_graph(bn)
            assert induced_width(g, min_fill_ordering(g)) <= 1


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
    def _residual_width(self, bn, cut):
        g = moral_graph(bn)
        keep = [v for v in range(g.n) if v not in set(cut.vars)]
        mapping = {old: new for new, old in enumerate(keep)}
        edges = [
            (mapping[u], mapping[v])
            for u, v in g.edges()
            if u in mapping and v in mapping
        ]
        sub = graph_from_edges(len(keep), edges)
        if sub.n == 0:
            return 0
        return induced_width(sub, min_fill_ordering(sub))

    def test_width_cap_holds(self, rng):
        for _ in range(20):
            bn = random_network(rng)
            for w in (1, 2):
                cut = find_w_cutset(bn, w)
                assert self._residual_width(bn, cut) <= w
                assert cut.kind == "w" and cut.w == w

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
