"""Exact inference: bucket elimination, enumeration oracle, cutset conditioning.

Bucket elimination is compiled to a reusable *plan* per (network, assigned
variables, kept variables): the plan fixes the elimination order, every
intermediate-table layout and the gather index maps for each contraction
step. Executing a plan with concrete assigned values only slices the leaf
CPTs and runs the contraction kernel per step, so repeated queries over the
same structure (e.g. thousands of cutset tuples) avoid all symbolic work.

Evidence is absorbed by slicing CPTs before elimination — no zero-padded
indicator factors, so buckets stay as small as possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import BayesianNetwork, Evidence, PartialAssignment, merge_assignment

#: Largest intermediate table (entries) a plan may create; exceeding it is an
#: error, never a silent approximation.
DEFAULT_TABLE_CAP = 2**22

#: Largest joint state space the enumeration oracle accepts.
ORACLE_STATE_CAP = 2**20


class ScopeCapError(RuntimeError):
    """An elimination step would exceed the configured table cap."""


class ZeroEvidenceError(ValueError):
    """Posterior queries are undefined: P(e) = 0."""


@dataclass(frozen=True)
class _Step:
    factor_slots: tuple[int, ...]
    gathers: tuple[np.ndarray, ...]  # int32, len n_out*n_sum each
    n_out: int
    n_sum: int
    out_vars: tuple[int, ...]
    out_slot: int


@dataclass(frozen=True)
class _Plan:
    leaf_specs: tuple  # (cpt child id, slice index template, free vars) per non-scalar leaf
    scalar_leaves: tuple  # (cpt child id, slice index template) with no free axes
    steps: tuple[_Step, ...]
    final: _Step | None
    keep: tuple[int, ...]
    n_slots: int


def _value_grids(order: tuple[int, ...], cards, n_out: int) -> dict[int, np.ndarray]:
    grids: dict[int, np.ndarray] = {}
    suffix = n_out
    base = np.arange(n_out, dtype=np.int64)
    for v in order:
        suffix //= cards[v]
        grids[v] = (base // suffix) % cards[v]
    return grids


def _factor_strides(fvars: tuple[int, ...], cards) -> dict[int, int]:
    strides: dict[int, int] = {}
    acc = 1
    for v in reversed(fvars):
        strides[v] = acc
        acc *= cards[v]
    return strides


def _gather_maps(
    bucket_vars: list[tuple[int, ...]],
    out_vars: tuple[int, ...],
    summed: tuple[int, ...],
    cards,
) -> tuple[tuple[np.ndarray, ...], int, int]:
    n_out = math.prod(cards[v] for v in out_vars) if out_vars else 1
    n_sum = math.prod(cards[v] for v in summed) if summed else 1
    out_grids = _value_grids(out_vars, cards, n_out)
    sum_grids = _value_grids(summed, cards, n_sum)
    gathers = []
    for fvars in bucket_vars:
        strides = _factor_strides(fvars, cards)
        idx = np.zeros((n_out, n_sum), dtype=np.int64)
        for v in fvars:
            if v in out_grids:
                idx += strides[v] * out_grids[v][:, None]
            else:
                idx += strides[v] * sum_grids[v][None, :]
        gathers.append(np.ascontiguousarray(idx.reshape(-1), dtype=np.int32))
    return tuple(gathers), n_out, n_sum


def _build_plan(
    bn: BayesianNetwork,
    assigned: tuple[int, ...],
    keep: tuple[int, ...],
    cap: int,
) -> _Plan:
    assigned_set = set(assigned)
    keep_set = set(keep)
    if assigned_set & keep_set:
        raise ValueError("kept variables must not be assigned")
    cards = bn.cards

    leaf_specs = []
    scalar_leaves = []
    live: list[tuple[tuple[int, ...], int]] = []  # (free vars, slot)
    slot_count = 0
    for cpt in bn.cpts:
        scope = cpt.parents + (cpt.child,)
        template = tuple("slice" if v not in assigned_set else v for v in scope)
        free = tuple(v for v in scope if v not in assigned_set)
        if free:
            leaf_specs.append((cpt.child, template, free))
            live.append((free, slot_count))
            slot_count += 1
        else:
            scalar_leaves.append((cpt.child, template))

    elim = [v for v in range(bn.n) if v not in assigned_set and v not in keep_set]
    seq = _min_fill_sequence(live, elim, keep, cards)

    steps: list[_Step] = []
    for v in seq:
        bucket = [(fv, slot) for fv, slot in live if v in fv]
        if not bucket:
            continue
        out_vars = tuple(sorted({u for fv, _ in bucket for u in fv} - {v}))
        gathers, n_out, n_sum = _gather_maps([fv for fv, _ in bucket], out_vars, (v,), cards)
        if n_out * n_sum > cap:
            raise ScopeCapError(
                f"bucket for variable {v} needs {n_out * n_sum} entries (cap {cap})"
            )
        out_slot = slot_count
        slot_count += 1
        steps.append(
            _Step(
                factor_slots=tuple(slot for _, slot in bucket),
                gathers=gathers,
                n_out=n_out,
                n_sum=n_sum,
                out_vars=out_vars,
                out_slot=out_slot,
            )
        )
        live = [(fv, slot) for fv, slot in live if v not in fv]
        live.append((out_vars, out_slot))

    final = None
    if live:
        for fv, _ in live:
            if not set(fv) <= keep_set:
                raise AssertionError("factor escaped elimination")
        gathers, n_out, n_sum = _gather_maps([fv for fv, _ in live], keep, (), cards)
        if n_out > cap:
            raise ScopeCapError(f"output table needs {n_out} entries (cap {cap})")
        final = _Step(
            factor_slots=tuple(slot for _, slot in live),
            gathers=gathers,
            n_out=n_out,
            n_sum=1,
            out_vars=keep,
            out_slot=-1,
        )
    return _Plan(
        leaf_specs=tuple(leaf_specs),
        scalar_leaves=tuple(scalar_leaves),
        steps=tuple(steps),
        final=final,
        keep=keep,
        n_slots=slot_count,
    )


def _min_fill_sequence(live, elim, keep, cards) -> list[int]:
    """Min-fill over the factor interaction graph; kept variables stay."""
    adj: dict[int, set[int]] = {v: set() for v in elim}
    for v in keep:
        adj.setdefault(v, set())
    for fv, _ in live:
        for a in fv:
            for b in fv:
                if a != b:
                    adj.setdefault(a, set()).add(b)
    remaining = set(elim)
    seq = []
    while remaining:
        best, best_key = None, None
        for v in sorted(remaining):
            nbrs = [u for u in adj[v] if u in remaining or u in set(keep)]
            fill = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    if nbrs[j] not in adj[nbrs[i]]:
                        fill += 1
            key = (fill, len(nbrs))
            if best_key is None or key < best_key:
                best, best_key = v, key
        nbrs = [u for u in adj[best] if u != best]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        for u in nbrs:
            adj[u].discard(best)
        remaining.discard(best)
        seq.append(best)
    return seq


def _plan_for(bn, assigned_vars: tuple[int, ...], keep: tuple[int, ...], cap: int):
    key = ("plan", assigned_vars, keep, cap)
    plan = bn._cache.get(key)
    if plan is None:
        plan = _build_plan(bn, assigned_vars, keep, cap)
        bn._cache[key] = plan
    return plan


def eliminate(
    bn: BayesianNetwork,
    assignments,
    keep: tuple[int, ...] = (),
    cap: int = DEFAULT_TABLE_CAP,
) -> np.ndarray:
    """Sum-product elimination of everything but ``keep``.

    Returns the table of unnormalized values P(keep values, assignments) with
    axes in ``keep`` order (0-d array when keep is empty). ``assignments`` is
    a mapping var -> value absorbed by CPT slicing.
    """
    # looked up per call, not bound at import, so that a stand-in (such as
    # the benchmark's counting proxy) swapped into kernels.active sees every
    # contraction
    contract = kernels.active.contract_bucket
    assign = dict(assignments)
    assigned_vars = tuple(sorted(assign))
    plan = _plan_for(bn, assigned_vars, tuple(keep), cap)

    slots: list = [None] * plan.n_slots
    # leaf slot i corresponds to the i-th entry of plan.leaf_specs
    for i, (child, template, _free) in enumerate(plan.leaf_specs):
        idx = tuple(slice(None) if t == "slice" else assign[t] for t in template)
        slots[i] = np.ascontiguousarray(bn.cpts[child].table[idx], dtype=np.float64).reshape(-1)
    const = 1.0
    for child, template in plan.scalar_leaves:
        idx = tuple(slice(None) if t == "slice" else assign[t] for t in template)
        const *= float(bn.cpts[child].table[idx])

    for step in plan.steps:
        tables = [slots[s] for s in step.factor_slots]
        slots[step.out_slot] = contract(tables, step.gathers, step.n_out, step.n_sum)

    if plan.final is None:
        out = np.array(1.0)
    else:
        tables = [slots[s] for s in plan.final.factor_slots]
        flat = contract(tables, plan.final.gathers, plan.final.n_out, 1)
        out = flat.reshape(tuple(bn.cards[v] for v in plan.keep))
    if const != 1.0:
        out = out * const
    return out


# ---------------------------------------------------------------------------
# public operations

def bucket_eliminate_pe(bn: BayesianNetwork, e: Evidence, cap: int = DEFAULT_TABLE_CAP) -> float:
    """Exact probability of evidence. Empty evidence gives 1 (normalization)."""
    return float(eliminate(bn, e, (), cap=cap))


def bucket_eliminate_marginals(
    bn: BayesianNetwork, e: Evidence, cap: int = DEFAULT_TABLE_CAP
) -> dict[int, np.ndarray]:
    """Posterior tables P(x | e) for every variable (observed -> indicator)."""
    pe = bucket_eliminate_pe(bn, e, cap=cap)
    if pe == 0.0:
        raise ZeroEvidenceError("P(e) = 0; posteriors undefined")
    out: dict[int, np.ndarray] = {}
    for v in range(bn.n):
        if v in e:
            t = np.zeros(bn.cards[v])
            t[e[v]] = 1.0
        else:
            t = eliminate(bn, e, (v,), cap=cap) / pe
        out[v] = t
    return out


def conditioned_joint(
    bn: BayesianNetwork,
    e: Evidence,
    a: PartialAssignment | dict | None,
    cap: int = DEFAULT_TABLE_CAP,
) -> float:
    """P(a, e): the partial assignment is treated as additional evidence.

    A variable assigned differently by ``a`` and ``e`` makes the event
    impossible: returns 0.0 (not an error).
    """
    merged, conflict = merge_assignment(e, tuple(dict(a or {}).items()))
    if conflict:
        return 0.0
    return bucket_eliminate_pe(bn, merged, cap=cap)


def enumerate_oracle(bn: BayesianNetwork, e: Evidence, cap: int = ORACLE_STATE_CAP):
    """Full-enumeration reference: (P(e), posterior tables). Test use only.

    Materializes the joint as one tensor (product of broadcast CPTs), so it
    shares no code with bucket elimination beyond the CPT arrays themselves.
    """
    n_states = math.prod(bn.cards)
    if n_states > cap:
        raise ScopeCapError(f"state space {n_states} exceeds oracle cap {cap}")
    joint = np.ones(bn.cards, dtype=np.float64)
    for cpt in bn.cpts:
        scope = cpt.parents + (cpt.child,)
        shape = tuple(bn.cards[v] if v in scope else 1 for v in range(bn.n))
        # axes of cpt.table are ordered by scope; reorder to ascending variable id
        order = np.argsort(np.array(scope))
        perm_table = np.transpose(cpt.table, axes=order)
        joint = joint * perm_table.reshape(shape)
    sel = tuple(e[v] if v in e else slice(None) for v in range(bn.n))
    sliced = joint[sel]
    pe = float(sliced.sum())
    tables: dict[int, np.ndarray] = {}
    free = [v for v in range(bn.n) if v not in e]
    for v in range(bn.n):
        if v in e:
            t = np.zeros(bn.cards[v])
            t[e[v]] = 1.0
        else:
            axis = free.index(v)
            other = tuple(i for i in range(len(free)) if i != axis)
            t = sliced.sum(axis=other) / pe if pe > 0.0 else np.full(bn.cards[v], np.nan)
        tables[v] = t
    return pe, tables


def cutset_condition_exact(
    bn: BayesianNetwork,
    e: Evidence,
    c,
    max_tuples: int = 4096,
    cap: int = DEFAULT_TABLE_CAP,
):
    """(P(e), posterior tables) by explicit summation over all cutset tuples."""
    cvars = tuple(c.vars) if hasattr(c, "vars") else tuple(c)
    cards = tuple(bn.cards[v] for v in cvars)
    m = math.prod(cards) if cvars else 1
    if m > max_tuples:
        raise ScopeCapError(f"cutset space {m} exceeds cap {max_tuples}")
    from .model import assignment_tuples

    free = [v for v in range(bn.n) if v not in e and v not in set(cvars)]
    pe_terms: list[float] = []
    acc = {v: np.zeros(bn.cards[v]) for v in free}
    cacc = {v: np.zeros(bn.cards[v]) for v in cvars}
    for tup in assignment_tuples(cards):
        assign = dict(zip(cvars, tup))
        merged, conflict = merge_assignment(e, tuple(assign.items()))
        if conflict:
            pe_terms.append(0.0)
            continue
        p = bucket_eliminate_pe(bn, merged, cap=cap)
        pe_terms.append(p)
        if p > 0.0:
            for v in free:
                acc[v] += eliminate(bn, merged, (v,), cap=cap)
            for v, val in assign.items():
                cacc[v][val] += p
    pe = math.fsum(pe_terms)
    if pe == 0.0:
        raise ZeroEvidenceError("P(e) = 0; posteriors undefined")
    tables: dict[int, np.ndarray] = {}
    for v in range(bn.n):
        if v in e:
            t = np.zeros(bn.cards[v])
            t[e[v]] = 1.0
        elif v in set(cvars):
            t = cacc[v] / pe
        else:
            t = acc[v] / pe
        tables[v] = t
    return pe, tables
