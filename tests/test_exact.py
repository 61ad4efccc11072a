"""Plan-compiled bucket elimination vs independent enumeration oracles."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbounds import kernels
from beliefbounds.exact import (
    DEFAULT_TABLE_CAP,
    ScopeCapError,
    ZeroEvidenceError,
    bucket_eliminate_marginals,
    bucket_eliminate_pe,
    eliminate,
    eliminate_marginals,
    enumerate_oracle,
    _plan_for,
    _run,
)
from beliefbounds.model import BayesianNetwork, Cpt, Variable

from conftest import (
    barren_network,
    brute_event_mass,
    brute_posteriors,
    conditioned_joint,
    fraction_event_mass,
    random_evidence,
    random_network,
)


class TestEliminate:
    def test_empty_event_normalizes_to_one(self, rng):
        for _ in range(10):
            bn = random_network(rng)
            assert bucket_eliminate_pe(bn, {}) == pytest.approx(1.0, abs=1e-12)

    def test_event_mass_matches_enumeration(self, rng):
        for _ in range(40):
            bn = random_network(rng, n=int(rng.integers(4, 9)))
            e = random_evidence(rng, bn, max_obs=3)
            got = bucket_eliminate_pe(bn, e)
            want = brute_event_mass(bn, e)
            assert got == pytest.approx(want, abs=1e-12)

    def test_cap_enforced(self, rng):
        bn = random_network(rng, n=10, max_card=3)
        with pytest.raises(ScopeCapError):
            _run(bn, {}, tuple(range(bn.n)), 8)

    def test_zero_row_networks_stay_exact(self, rng):
        for _ in range(15):
            bn = random_network(rng, n=6, zero_rows=True)
            e = random_evidence(rng, bn, max_obs=2)
            got = bucket_eliminate_pe(bn, e)
            assert got == pytest.approx(brute_event_mass(bn, e), abs=1e-12)


class TestBatchedEliminate:
    @staticmethod
    def _case(seed, batch, zero_rows):
        """Random network (cards 2-3), scalar evidence and array values on
        other variables (a batch of assignments)."""
        rng = np.random.default_rng(seed)
        bn = random_network(rng, n=int(rng.integers(1, 9)), zero_rows=zero_rows)
        rest = [int(v) for v in rng.permutation(bn.n)]
        n_arr = int(rng.integers(1, len(rest) + 1))
        n_ev = int(rng.integers(0, len(rest) - n_arr + 1))
        arrays = {v: rng.integers(bn.cards[v], size=batch) for v in rest[:n_arr]}
        e = {v: int(rng.integers(bn.cards[v])) for v in rest[n_arr:n_arr + n_ev]}
        return bn, e, arrays

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([1, 2, 5]),
        zero_rows=st.booleans(),
    )
    def test_rows_equal_one_assignment_calls(self, seed, batch, zero_rows):
        bn, e, arrays = self._case(seed, batch, zero_rows)
        got = eliminate(bn, {**e, **arrays})
        assert got.shape == (batch,)
        for i in range(batch):
            one = {v: int(a[i]) for v, a in arrays.items()}
            want = eliminate(bn, {**e, **one})
            assert got[i] == want

    def test_chunks_within_the_cap_change_nothing(self, rng):
        for seed in range(20):
            bn, e, arrays = self._case(seed, 7, seed % 2 == 0)
            assigned = {**e, **arrays}
            want = eliminate(bn, assigned)
            peak = _plan_for(bn, tuple(sorted(assigned)), DEFAULT_TABLE_CAP).peak
            for cap in (peak, 2 * peak + 1):  # chunks of one row, of two rows
                assert np.array_equal(_run(bn, assigned, (), cap)[0], want)

    def test_unequal_batch_lengths_rejected(self, rng):
        bn = random_network(rng, n=5)
        with pytest.raises(ValueError, match="one length"):
            eliminate(bn, {0: np.array([0, 1]), 1: np.array([1, 0, 1])})


def _ancestral_set(bn, seeds) -> set[int]:
    """The seeds and everything above them, by repeated parent lookups."""
    out = set(seeds)
    while True:
        grown = out | {p for v in out for p in bn.cpts[v].parents}
        if grown == out:
            return out
        out = grown


class TestAncestralPruning:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_wanted=st.sampled_from([0, 1]),
        batch=st.sampled_from([0, 1, 3]),
        leaf_evidence=st.booleans(),
    )
    def test_eliminate_is_within_1e13_of_exact_rationals(
        self, seed, n_wanted, batch, leaf_evidence
    ):
        rng = np.random.default_rng(seed)
        n_core = int(rng.integers(2, 5))
        bn = barren_network(rng, n_core, n_leaves=int(rng.integers(2, 7)))
        core = [int(v) for v in rng.permutation(n_core)]
        leaves = [int(v) for v in rng.permutation(range(n_core, bn.n))]
        e = {v: int(rng.integers(bn.cards[v])) for v in core[:int(rng.integers(0, 2))]}
        if leaf_evidence:  # on at most two leaves, and never on all of them
            e.update({v: int(rng.integers(bn.cards[v])) for v in leaves[:min(2, len(leaves) - 1)]})
        free = [v for v in core + leaves if v not in e]
        wanted = tuple(free[:n_wanted])
        # batched calls give array values to up to two more variables
        arrays = {
            v: rng.integers(bn.cards[v], size=batch) for v in free[n_wanted:n_wanted + 2]
        } if batch else {}
        got = eliminate(bn, {**e, **arrays})
        tables = eliminate_marginals(bn, {**e, **arrays}, wanted)[1]
        rows = [{v: int(a[i]) for v, a in arrays.items()} for i in range(batch)] or [{}]
        if not batch:
            got = got[None]
            tables = {v: t[None] for v, t in tables.items()}
        tolerance = Fraction(1, 10**13)
        for i, assigned in enumerate(rows):
            cases = [(float(got[i]), fraction_event_mass(bn, {**e, **assigned}))]
            for v in wanted:
                want = fraction_event_mass(bn, {**e, **assigned}, (v,))
                cases += [(float(x), exact) for x, exact in zip(tables[v][i], want)]
            for x, exact in cases:
                assert abs(Fraction(x) - exact) <= tolerance * exact, (x, float(exact))

    def test_prior_plan_takes_only_the_ancestral_cpts(self, rng):
        for _ in range(40):
            n_core = int(rng.integers(2, 8))
            bn = barren_network(rng, n_core, n_leaves=int(rng.integers(1, 6)))
            order = [int(v) for v in rng.permutation(bn.n)]
            n_assigned = int(rng.integers(0, 3))
            assigned = tuple(sorted(order[:n_assigned]))
            wanted = tuple(order[n_assigned:n_assigned + int(rng.integers(0, 2))])
            plan = _plan_for(bn, assigned, DEFAULT_TABLE_CAP, wanted)
            taken = (
                [t for t in plan.leaves if t is not None]
                + [t for _, t, _, _ in plan.sliced]
                + [t for t, _ in plan.scalar_leaves]
            )
            held = sorted(
                v for v in range(bn.n)
                if any(np.shares_memory(t, bn.cpts[v].table) for t in taken)
            )
            assert held == sorted(_ancestral_set(bn, assigned + wanted))
            assert len(taken) == len(held)


class TestBucketTree:
    @staticmethod
    def _case(seed, batch, barren, zero_rows, indicate=False):
        """Random network (cards 2-3; with barren leaves, or with hard zeros),
        scalar evidence, array values on up to two more variables, and a
        random subset of the remaining variables wanted. With ``indicate``
        the array variables are indicated, free (-1) in some rows, and may
        be wanted too."""
        rng = np.random.default_rng(seed)
        if barren:
            bn = barren_network(rng, int(rng.integers(2, 5)), n_leaves=int(rng.integers(1, 4)))
        else:
            bn = random_network(rng, n=int(rng.integers(2, 7)), zero_rows=zero_rows)
        order = [int(v) for v in rng.permutation(bn.n)]
        n_ev = int(rng.integers(0, min(2, bn.n - 1) + 1))
        e = {v: int(rng.integers(bn.cards[v])) for v in order[:n_ev]}
        rest = order[n_ev:]
        n_arr = min(int(rng.integers(1, 3)), len(rest)) if batch else 0
        arrays = {v: rng.integers(bn.cards[v], size=batch) for v in rest[:n_arr]}
        wanted = [v for v in rest[n_arr:] if rng.random() < 0.7]
        indicated = list(arrays) if indicate else []
        for v in indicated:
            arrays[v][rng.random(batch) < 0.4] = -1
            if rng.random() < 0.7:
                wanted.append(v)
        return bn, e, arrays, wanted, indicated

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([0, 1, 3]),
        barren=st.booleans(),
        zero_rows=st.booleans(),
        chunked=st.booleans(),
        indicate=st.booleans(),
    )
    def test_every_marginal_is_within_1e13_of_exact_rationals(
        self, seed, batch, barren, zero_rows, chunked, indicate
    ):
        bn, e, arrays, wanted, indicated = self._case(seed, batch, barren, zero_rows, indicate)
        assigned = {**e, **arrays}
        if chunked:  # a cap of one step's peak makes every row its own chunk
            key = tuple(sorted(wanted))
            sliced = tuple(sorted(v for v in assigned if v not in indicated))
            ind = tuple(sorted(indicated))
            cap = _plan_for(bn, sliced, DEFAULT_TABLE_CAP, key, ind).peak
            total, tables = _run(bn, assigned, key, cap, ind)
        else:
            total, tables = eliminate_marginals(bn, assigned, wanted, indicated)
        assert sorted(tables) == sorted(wanted)
        lead = (batch,) if batch else ()
        assert total.shape == lead
        rows = [
            {v: int(a[i]) for v, a in arrays.items() if a[i] >= 0} for i in range(batch)
        ] or [{}]
        if not batch:
            total = total[None]
            tables = {v: t[None] for v, t in tables.items()}
        tolerance = Fraction(1, 10**13)
        for i, row in enumerate(rows):
            mass = fraction_event_mass(bn, {**e, **row})
            cases = [(float(total[i]), mass)]
            for v in wanted:
                assert tables[v].shape == (len(rows), bn.cards[v])
                if v in row:  # an indicated variable the row pins
                    want = [mass if x == row[v] else 0 for x in range(bn.cards[v])]
                else:
                    want = fraction_event_mass(bn, {**e, **row}, (v,))
                cases += [(float(got), exact) for got, exact in zip(tables[v][i], want)]
            for got, exact in cases:
                # exact zeros must come out as 0.0
                assert abs(Fraction(got) - exact) <= tolerance * exact, (got, float(exact))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([1, 2, 5]),
        barren=st.booleans(),
        zero_rows=st.booleans(),
        indicate=st.booleans(),
    )
    def test_rows_equal_one_assignment_calls(self, seed, batch, barren, zero_rows, indicate):
        # with indicators, rows that pin different variables (partials of
        # mixed depth) share the pass and still equal one-row calls
        bn, e, arrays, wanted, indicated = self._case(seed, batch, barren, zero_rows, indicate)
        total, tables = eliminate_marginals(bn, {**e, **arrays}, wanted, indicated)
        for i in range(batch):
            one = {v: int(a[i]) for v, a in arrays.items()}
            one_total, one_tables = eliminate_marginals(bn, {**e, **one}, wanted, indicated)
            assert total[i] == one_total
            for v in wanted:
                assert np.array_equal(tables[v][i], one_tables[v])

    def test_no_wanted_variable_is_the_prior_plan(self, rng):
        for _ in range(10):
            bn = random_network(rng, n=int(rng.integers(3, 9)))
            e = random_evidence(rng, bn)
            total, tables = eliminate_marginals(bn, e, ())
            assert tables == {}
            assert total == eliminate(bn, e)

    def test_barren_buckets_are_never_computed(self, rng):
        # every bucket of a variable no assigned one descends from sums to
        # one: the forward steps are as many as those of the prior plan, and
        # a total over nothing assigned is exactly 1
        for _ in range(30):
            bn = random_network(rng, n=int(rng.integers(2, 9)))
            e = random_evidence(rng, bn)
            wanted = [v for v in range(bn.n) if v not in e]
            tree = _plan_for(bn, tuple(sorted(e)), DEFAULT_TABLE_CAP, tuple(wanted))
            prior = _plan_for(bn, tuple(sorted(e)), DEFAULT_TABLE_CAP)
            assert len(tree.steps) == len(prior.steps)
            assert eliminate_marginals(bn, {}, range(bn.n))[0] == 1.0

    def test_wanted_tables_match_per_value_masses(self, rng):
        for _ in range(15):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            free = [v for v in range(bn.n) if v not in e]
            v = free[int(rng.integers(len(free)))]
            table = eliminate_marginals(bn, e, (v,))[1][v]
            assert table.shape == (bn.cards[v],)
            for val in range(bn.cards[v]):
                want = brute_event_mass(bn, {**e, v: val})
                assert table[val] == pytest.approx(want, abs=1e-12)

    def test_wanted_assigned_variable_rejected(self, rng):
        bn = random_network(rng, n=4)
        with pytest.raises(ValueError, match="must not be assigned"):
            eliminate_marginals(bn, {0: 1}, (0, 1))

    def test_indicated_variable_needs_values_from_minus_one_to_its_last(self, rng):
        bn = random_network(rng, n=4)
        for assigned in ({}, {0: np.array([1, -2])}, {0: bn.cards[0]}):
            with pytest.raises(ValueError, match="indicated variable 0 needs values"):
                eliminate_marginals(bn, assigned, (1,), indicated=(0,))


class TestMarginals:
    def test_posteriors_match_oracle(self, rng):
        for _ in range(25):
            bn = random_network(rng, n=int(rng.integers(4, 9)))
            e = random_evidence(rng, bn)
            pe, want = brute_posteriors(bn, e)
            if pe <= 0:
                continue
            got_pe, got = bucket_eliminate_marginals(bn, e)
            assert got_pe == bucket_eliminate_pe(bn, e)
            for v in range(bn.n):
                np.testing.assert_allclose(got[v], want[v], atol=1e-9)

    def test_observed_variables_become_indicators(self, rng):
        bn = random_network(rng, n=5)
        e = {0: 1}
        _, got = bucket_eliminate_marginals(bn, e)
        expect = np.zeros(bn.cards[0])
        expect[1] = 1.0
        np.testing.assert_array_equal(got[0], expect)

    def test_impossible_evidence_raises(self):
        variables = (Variable(0, "a", 2), Variable(1, "b", 2))
        cpts = (
            Cpt(0, (), np.array([1.0, 0.0])),
            Cpt(1, (0,), np.array([[1.0, 0.0], [0.5, 0.5]])),
        )
        bn = BayesianNetwork(variables, cpts)
        assert bucket_eliminate_pe(bn, {0: 1}) == 0.0
        with pytest.raises(ZeroEvidenceError):
            bucket_eliminate_marginals(bn, {0: 1})


class TestConditionedJoint:
    def test_matches_enumeration(self, rng):
        for _ in range(20):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            free = [v for v in range(bn.n) if v not in e]
            a = {free[0]: 1 % bn.cards[free[0]]}
            want = brute_event_mass(bn, {**e, **a})
            assert conditioned_joint(bn, e, a) == pytest.approx(want, abs=1e-12)

    def test_conflicting_assignment_is_zero(self, rng):
        bn = random_network(rng, n=4)
        assert conditioned_joint(bn, {0: 1}, {0: 0}) == 0.0
        assert conditioned_joint(bn, {0: 1}, {0: 1}) == pytest.approx(
            brute_event_mass(bn, {0: 1}), abs=1e-12
        )


class TestEnumerateOracle:
    def test_against_handwritten_enumeration(self, rng):
        for _ in range(15):
            bn = random_network(rng, n=6)
            e = random_evidence(rng, bn)
            pe_b, tables_b = brute_posteriors(bn, e)
            pe_o, tables_o = enumerate_oracle(bn, e)
            assert pe_o == pytest.approx(pe_b, abs=1e-12)
            if pe_b > 0:
                for v in range(bn.n):
                    np.testing.assert_allclose(tables_o[v], tables_b[v], atol=1e-12)

    def test_state_cap(self, rng):
        bn = random_network(rng, n=8, max_card=3)
        with pytest.raises(ScopeCapError):
            enumerate_oracle(bn, {}, cap=4)


class TestKernelSeam:
    def test_contract_bucket_follows_its_formula(self):
        # dyadic entries keep every product and sum exact
        tables = [
            np.array([0.5, 0.25, 0.125, 0.75]),
            np.array([2.0, 1.5, 0.5]),
            np.array([0.25, 1.0]),
        ]
        gathers = [
            np.array([0, 1, 2, 3, 0, 1], dtype=np.int32),
            np.array([0, 1, 2, 2, 1, 0], dtype=np.int32),
            np.array([1, 0, 1, 0, 0, 1], dtype=np.int32),
        ]
        for n_out, n_sum in ((2, 3), (6, 1)):
            want = [
                sum(
                    math.prod(t[g[p * n_sum + s]] for t, g in zip(tables, gathers))
                    for s in range(n_sum)
                )
                for p in range(n_out)
            ]
            got = kernels.contract_bucket(tables, gathers, n_out, n_sum)
            assert got.shape == (n_out,)
            np.testing.assert_array_equal(got, want)
            # a leading batch axis on one table: the others broadcast
            batched = [np.stack([tables[0], tables[0][::-1]])] + tables[1:]
            got = kernels.contract_bucket(batched, gathers, n_out, n_sum)
            assert got.shape == (2, n_out)
            np.testing.assert_array_equal(got[0], want)
            flipped = [batched[0][1]] + tables[1:]
            np.testing.assert_array_equal(
                got[1], kernels.contract_bucket(flipped, gathers, n_out, n_sum)
            )

    def test_eliminate_contracts_only_through_the_active_kernel(self, rng, monkeypatch):
        real = kernels.contract_bucket
        calls = []

        def counting(tables, gathers, n_out, n_sum):
            calls.append((n_out, n_sum))
            return real(tables, gathers, n_out, n_sum)

        def bypass(*args):
            raise AssertionError("contraction bypassed kernels.active")

        for _ in range(10):
            bn = random_network(rng, n=int(rng.integers(4, 9)))
            e = random_evidence(rng, bn)
            free = [v for v in range(bn.n) if v not in e]
            wanted = tuple(free[:1])
            want = eliminate_marginals(bn, e, wanted)
            plan = _plan_for(bn, tuple(sorted(e)), DEFAULT_TABLE_CAP, wanted)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(kernels, "active", types.SimpleNamespace(contract_bucket=counting))
                m.setattr(kernels, "contract_bucket", bypass)
                got = eliminate_marginals(bn, e, wanted)
            assert got[0] == want[0]
            for v in wanted:
                np.testing.assert_array_equal(got[1][v], want[1][v])
            steps = len(plan.steps) + len(plan.down) + len(plan.beliefs)
            assert len(calls) == steps + (plan.final is not None)
            assert calls
