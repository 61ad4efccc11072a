"""Network model: parsing, validation, assignments, the structure cache."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import beliefbounds.model as model_mod
from beliefbounds.engine import run_engine
from beliefbounds.model import (
    BayesianNetwork,
    NetworkFormatError,
    StructureCache,
    assignment_tuples,
    parse_evidence,
    parse_network,
    validate_evidence,
)

from conftest import (
    brute_joint,
    merge_assignment,
    network_text,
    random_evidence,
    random_network,
)

CHAIN_SRC = """BAYES
3
2 2 2
3
1 0
2 0 1
2 1 2

2
 0.6 0.4
4
 0.7 0.3 0.2 0.8
4
 0.5 0.5 0.1 0.9
"""


class TestParse:
    def test_chain_roundtrip_values(self):
        bn = parse_network(CHAIN_SRC)
        assert bn.n == 3
        assert bn.cards == (2, 2, 2)
        assert bn.topo_order == (0, 1, 2)
        assert bn.parents(2) == (1,)
        assert bn.children == ((1,), (2,), ())
        # child is the trailing scope member; table axes follow scope order.
        np.testing.assert_allclose(bn.cpts[1].table, [[0.7, 0.3], [0.2, 0.8]])
        assert brute_joint(bn, {0: 0, 1: 1, 2: 0}) == pytest.approx(0.6 * 0.3 * 0.1)

    def test_whitespace_layout_irrelevant(self):
        messy = CHAIN_SRC.replace(" 0.6 0.4", "\t0.6\n\n   0.4\n")
        bn = parse_network(messy)
        np.testing.assert_allclose(bn.cpts[0].table, [0.6, 0.4])

    def test_wrong_preamble(self):
        with pytest.raises(NetworkFormatError, match="BAYES"):
            parse_network(CHAIN_SRC.replace("BAYES", "MARKOV"))

    def test_truncated_document(self):
        head = CHAIN_SRC.strip().rsplit("\n", 1)[0]
        with pytest.raises(NetworkFormatError, match="end of document"):
            parse_network(head)

    def test_duplicate_child_rejected(self):
        src = CHAIN_SRC.replace("2 1 2", "2 1 1")
        with pytest.raises(NetworkFormatError, match="already has a CPT"):
            parse_network(src)

    def test_repeated_scope_member_rejected(self):
        src = CHAIN_SRC.replace("2 0 1", "2 1 1")
        with pytest.raises(NetworkFormatError):
            parse_network(src)

    def test_scope_index_out_of_range(self):
        src = CHAIN_SRC.replace("2 1 2", "2 7 2")
        with pytest.raises(NetworkFormatError, match="out of range"):
            parse_network(src)

    def test_non_numeric_entry(self):
        src = CHAIN_SRC.replace("0.6", "zero-point-six")
        with pytest.raises(NetworkFormatError, match="expected"):
            parse_network(src)

    def test_row_sum_violation(self):
        src = CHAIN_SRC.replace("0.5 0.5 0.1 0.9", "0.5 0.5 0.1 0.7")
        with pytest.raises(NetworkFormatError, match="sums to"):
            parse_network(src)

    @pytest.mark.parametrize("row", ["nan nan", "nan 0.5", "inf -inf", "0.5 -nan"])
    def test_non_finite_entry_rejected(self, row):
        # every comparison with NaN is false, so range and row-sum checks
        # alone let it through
        src = CHAIN_SRC.replace("0.6 0.4", row)
        with pytest.raises(NetworkFormatError, match="variable 0: entries not finite"):
            parse_network(src)

    def test_entry_above_one_rejected(self):
        src = CHAIN_SRC.replace("0.5 0.5 0.1 0.9", "1.5 -0.5 0.1 0.9")
        with pytest.raises(NetworkFormatError, match="outside"):
            parse_network(src)

    def test_value_count_mismatch(self):
        src = CHAIN_SRC.replace("4\n 0.5 0.5 0.1 0.9", "3\n 0.5 0.5 0.1")
        with pytest.raises(NetworkFormatError):
            parse_network(src)

    def test_trailing_token_rejected(self):
        src = CHAIN_SRC.replace("0.5 0.5 0.1 0.9", "0.5 0.5 0.1 0.9 junk")
        with pytest.raises(NetworkFormatError, match="line 14: unexpected token 'junk'"):
            parse_network(src)

    def test_cycle_rejected(self):
        src = """BAYES
2
2 2
2
2 1 0
2 0 1

4
 0.5 0.5 0.5 0.5
4
 0.5 0.5 0.5 0.5
"""
        with pytest.raises(NetworkFormatError, match="cycle"):
            parse_network(src)

    def test_roundtrip_random_networks(self, rng):
        for _ in range(25):
            bn = random_network(rng)
            back = parse_network(network_text(bn))
            assert back.cards == bn.cards
            for a, b in zip(back.cpts, bn.cpts):
                assert a.parents == b.parents
                # 17 significant digits written, so doubles survive exactly
                assert np.array_equal(a.table, b.table)


class TestEvidence:
    def test_parse_pairs(self):
        assert parse_evidence("2\n0 1\n3 0\n") == {0: 1, 3: 0}
        assert parse_evidence("0\n") == {}

    def test_negative_count_rejected(self):
        with pytest.raises(NetworkFormatError, match="pair count -1 < 0"):
            parse_evidence("-1")
        with pytest.raises(NetworkFormatError, match="pair count -2 < 0"):
            parse_evidence("-2\n0 1\n")

    def test_duplicate_variable(self):
        with pytest.raises(NetworkFormatError, match="duplicate"):
            parse_evidence("2\n1 0\n1 1\n")

    def test_trailing_tokens_rejected(self):
        # one pair declared, two given: the second must not be dropped
        with pytest.raises(NetworkFormatError, match="line 1: unexpected token '5'"):
            parse_evidence("1 0 1 5 0")
        # UAI-2010 layout: a leading sample count shifts every field by one
        with pytest.raises(NetworkFormatError, match="line 2: unexpected token '1'"):
            parse_evidence("1\n2 0 1 3 0\n")

    def test_validate_range(self):
        bn = parse_network(CHAIN_SRC)
        validate_evidence(bn, {0: 1, 2: 0})
        with pytest.raises(NetworkFormatError, match="out of range"):
            validate_evidence(bn, {5: 0})
        with pytest.raises(NetworkFormatError):
            validate_evidence(bn, {1: 2})


class TestAssignments:
    def test_assignment_tuples_lexicographic(self):
        got = list(assignment_tuples((2, 3)))
        assert got == list(itertools.product(range(2), range(3)))

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4))
    def test_assignment_tuples_matches_product(self, cards):
        got = list(assignment_tuples(tuple(cards)))
        assert got == list(itertools.product(*(range(c) for c in cards)))

    def test_merge_disjoint(self):
        merged, conflict = merge_assignment({0: 1}, ((2, 0),), extra=(3, 1))
        assert merged == {0: 1, 2: 0, 3: 1}
        assert not conflict

    def test_merge_conflicts(self):
        _, conflict = merge_assignment({0: 1}, ((0, 0),))
        assert conflict
        _, conflict = merge_assignment({}, ((2, 0), (2, 1)))
        assert conflict
        merged, conflict = merge_assignment({0: 1}, ((0, 1),))
        assert merged == {0: 1}
        assert not conflict


class TestStructureCache:
    def test_least_recently_used_entries_go_first(self, monkeypatch):
        monkeypatch.setattr(model_mod, "CACHE_BYTES", 300)
        cache = StructureCache()
        for key in "abc":
            cache.put(key, key.upper(), 100)
        assert cache.get("a") == "A"  # now the most recently used
        cache.put("d", "D", 100)
        assert cache.get("b") is None
        assert [cache.get(k) for k in "acd"] == ["A", "C", "D"]
        assert len(cache) == 3 and cache.nbytes == 300
        cache.put("huge", "H", 301)  # larger than the whole budget: not kept
        assert cache.get("huge") is None and len(cache) == 3

    def test_bytes_stay_within_the_budget_over_many_evidence_sets(self, monkeypatch):
        """200 evidence sets on one network through both plug-ins, with a
        budget the plans and blanket structures overflow many times."""
        rng = np.random.default_rng(7)
        bn = random_network(rng, n=8)
        budget = 2**17
        monkeypatch.setattr(model_mod, "CACHE_BYTES", budget)
        seen = set()
        for i in range(200):
            e = random_evidence(rng, bn, max_obs=3)
            plugin = "abdp" if i % 4 == 0 else "bf"
            report = run_engine(bn, e, 1, plugin=plugin, iters=3)
            assert bn._cache.nbytes <= budget
            seen.update(bn._cache._entries)
            if i % 40 == 0:  # a fresh cache gives the same answer
                fresh = BayesianNetwork(bn.variables, bn.cpts)
                again = run_engine(fresh, e, 1, plugin=plugin, iters=3)
                assert again.marginals == report.marginals
                assert again.evidence == report.evidence
        assert len(seen) > 2 * len(bn._cache)  # entries were dropped
        assert {key[0] for key in seen} == {"plan", "bdp-var"}
