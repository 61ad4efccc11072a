"""Exact inference: bucket elimination and the enumeration oracle.

Bucket elimination is compiled to a reusable *plan* per (network, assigned
variables, kept variables): the plan fixes the elimination order, every
intermediate-table layout and the gather index maps for each contraction
step. Executing a plan with concrete assigned values only slices the leaf
CPTs and runs the contraction kernel per step, so repeated queries over the
same structure (e.g. thousands of cutset tuples) avoid all symbolic work.
A plan takes only the CPTs of the assigned and kept variables and of their
ancestors: every other variable is barren (its bucket sums to one), so the
elimination covers the ancestral part of the network alone. Assigned values
may also be equal-length integer arrays: one execution then evaluates the
whole batch of assignments along a leading axis, with every entry equal to
what the one-assignment call gives.

Evidence is absorbed by slicing CPTs before elimination — no zero-padded
indicator factors, so buckets stay as small as possible.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .model import BayesianNetwork, Evidence, ancestors_of, held_bytes

#: Largest intermediate table (entries) a plan may create; exceeding it is an
#: error, never a silent approximation.
DEFAULT_TABLE_CAP = 2**22

#: Largest joint state space the enumeration oracle accepts.
ORACLE_STATE_CAP = 2**20

#: Largest bucket grid whose cell indices are kept for reuse between plans
#: (at most 128 grids are kept).
_CELLS_CACHED = 2**10


class ScopeCapError(RuntimeError):
    """An elimination step would exceed the configured table cap."""


class ZeroEvidenceError(ValueError):
    """Posterior queries are undefined: P(e) = 0."""


class _Step(NamedTuple):
    factor_slots: tuple[int, ...]
    gathers: tuple[np.ndarray, ...]  # int32, len n_out*n_sum each
    n_out: int
    n_sum: int
    out_slot: int


class _Plan(NamedTuple):
    leaves: tuple  # flat CPT per leaf slot with nothing assigned, None where sliced
    # (slot, CPT view with its assigned axes first, assigned vars, number of
    # free axes) per leaf that is sliced by the assigned values
    sliced: tuple
    scalar_leaves: tuple  # (CPT table, scope) of CPTs with every axis assigned
    steps: tuple[_Step, ...]
    final: _Step | None
    keep: tuple[int, ...]
    n_slots: int
    peak: int  # largest entry count of one step


def _cells(grid: tuple[int, ...]) -> np.ndarray:
    """Row-major multi-indices of every cell of a grid, one row per axis."""
    cells = np.indices(grid, dtype=np.int32).reshape(len(grid), math.prod(grid))
    cells.flags.writeable = False
    return cells


#: Small grids recur across plans; their cells are shared read-only.
_small_cells = functools.lru_cache(maxsize=128)(_cells)


def _gather_maps(
    bucket_vars: list[tuple[int, ...]],
    out_vars: tuple[int, ...],
    summed: tuple[int, ...],
    cards,
) -> tuple[tuple[np.ndarray, ...], int, int]:
    """Per factor, the flat index of its entry at every (out, summed) cell:
    the cells' multi-indices dotted with the factor's strides (0 for the
    axes it lacks)."""
    axes = out_vars + summed
    grid = tuple(cards[v] for v in axes)
    n_out = math.prod(grid[: len(out_vars)])
    n_sum = math.prod(grid[len(out_vars):])
    pos = {v: i for i, v in enumerate(axes)}
    strides = [[0] * len(axes) for _ in bucket_vars]
    for row, fvars in zip(strides, bucket_vars):
        acc = 1
        for v in reversed(fvars):
            row[pos[v]] = acc
            acc *= cards[v]
    cells = _small_cells(grid) if n_out * n_sum <= _CELLS_CACHED else _cells(grid)
    flat = np.array(strides, dtype=np.int32).reshape(len(bucket_vars), len(axes)) @ cells
    return tuple(flat), n_out, n_sum


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
    # only the ancestral set matters: the buckets of every other (barren)
    # variable sum to one, so their CPTs are left out
    relevant = assigned_set | keep_set
    relevant |= ancestors_of(bn, relevant)

    leaves = []
    sliced = []
    scalar_leaves = []
    live: list[tuple[tuple[int, ...], int]] = []  # (free vars, slot)
    for cpt in bn.cpts:
        if cpt.child not in relevant:
            continue
        scope = cpt.parents + (cpt.child,)
        table = np.asarray(cpt.table, dtype=np.float64)
        free = tuple(v for v in scope if v not in assigned_set)
        if not free:
            scalar_leaves.append((table, scope))
            continue
        if len(free) == len(scope):
            leaves.append(np.ascontiguousarray(table).reshape(-1))
        else:
            fixed = tuple(v for v in scope if v in assigned_set)
            axes = sorted(range(len(scope)), key=lambda i: scope[i] not in assigned_set)
            sliced.append((len(leaves), table.transpose(axes), fixed, len(free)))
            leaves.append(None)
        live.append((free, len(live)))
    slot_count = len(live)

    elim = [v for v in sorted(relevant) if v not in assigned_set and v not in keep_set]
    seq = _min_fill_sequence(live, elim, keep, cards)

    steps: list[_Step] = []
    peak = 1
    for v in seq:
        bucket = [f for f in live if v in f[0]]
        if not bucket:
            continue
        live = [f for f in live if v not in f[0]]
        out_vars = tuple(sorted({u for fv, _ in bucket for u in fv if u != v}))
        size = math.prod([cards[u] for u in out_vars]) * cards[v]
        if size > cap:
            raise ScopeCapError(f"bucket for variable {v} needs {size} entries (cap {cap})")
        peak = max(peak, size)
        gathers, n_out, n_sum = _gather_maps([fv for fv, _ in bucket], out_vars, (v,), cards)
        steps.append(_Step(tuple(slot for _, slot in bucket), gathers, n_out, n_sum, slot_count))
        live.append((out_vars, slot_count))
        slot_count += 1

    final = None
    if live:
        if any(u not in keep_set for fv, _ in live for u in fv):
            raise AssertionError("factor escaped elimination")
        size = math.prod([cards[u] for u in keep])
        if size > cap:
            raise ScopeCapError(f"output table needs {size} entries (cap {cap})")
        peak = max(peak, size)
        gathers, n_out, _ = _gather_maps([fv for fv, _ in live], keep, (), cards)
        final = _Step(tuple(slot for _, slot in live), gathers, n_out, 1, -1)
    return _Plan(
        leaves=tuple(leaves),
        sliced=tuple(sliced),
        scalar_leaves=tuple(scalar_leaves),
        steps=tuple(steps),
        final=final,
        keep=keep,
        n_slots=slot_count,
        peak=peak,
    )


def _min_fill_sequence(live, elim, keep, cards) -> list[int]:
    """Min-fill over the factor interaction graph; kept variables stay.

    Eliminates, at each step, the variable with the smallest (fill edges,
    degree, id). Keys are kept per variable and updated where elimination
    changes them: the eliminated variable's neighbours are scored again, and
    a variable next to both ends of a new fill edge has one pair fewer to fill.
    """
    adj: dict[int, set[int]] = {v: set() for v in elim}
    for v in keep:
        adj.setdefault(v, set())
    for fv, _ in live:
        for a in fv:
            for b in fv:
                if a != b:
                    adj.setdefault(a, set()).add(b)

    def key(v):
        nbrs = adj[v]
        d = len(nbrs)
        # ordered pairs of neighbours, less those already adjacent
        missing = d * (d - 1) - sum(map(len, map(nbrs.intersection, map(adj.get, nbrs))))
        return (missing // 2, d, v)

    keys = {v: key(v) for v in elim}
    heap = list(keys.values())
    heapq.heapify(heap)
    seq = []
    while keys:
        entry = heapq.heappop(heap)
        best = entry[2]
        if keys.get(best) != entry:
            continue  # stale: the variable was rescored or already eliminated
        del keys[best]
        seq.append(best)
        nbrs = adj.pop(best)
        for u in nbrs:
            adj[u].discard(best)
        filled: dict[int, int] = {}
        for u in nbrs:
            for w in nbrs - adj[u]:
                if u < w:  # each new edge u-w once (excludes u itself)
                    for x in adj[u] & adj[w]:
                        filled[x] = filled.get(x, 0) + 1
        for u in nbrs:
            adj[u] |= nbrs
            adj[u].discard(u)
        for x, n in filled.items():
            if x in keys and x not in nbrs:
                fill, deg, _ = keys[x]
                keys[x] = (fill - n, deg, x)
                heapq.heappush(heap, keys[x])
        for u in nbrs:
            if u in keys:
                keys[u] = key(u)
                heapq.heappush(heap, keys[u])
    return seq


def _plan_for(bn, assigned_vars: tuple[int, ...], keep: tuple[int, ...], cap: int):
    key = ("plan", assigned_vars, keep, cap)
    plan = bn._cache.get(key)
    if plan is None:
        plan = _build_plan(bn, assigned_vars, keep, cap)
        steps = plan.steps + ((plan.final,) if plan.final else ())
        arrays = [g for step in steps for g in step.gathers]
        arrays += [t for t in plan.leaves if t is not None]
        arrays += [t for _, t, _, _ in plan.sliced] + [t for t, _ in plan.scalar_leaves]
        bn._cache.put(key, plan, held_bytes(arrays))
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
    a mapping var -> value absorbed by CPT slicing. Values may be ints or
    equal-length 1-D integer arrays; with arrays the table gains a leading
    batch axis whose row i is the table of the i-th assignment.
    """
    assign = dict(assignments)
    plan = _plan_for(bn, tuple(sorted(assign)), tuple(keep), cap)
    batched = [v for v, x in assign.items() if isinstance(x, np.ndarray) and x.ndim]
    lengths = {assign[v].shape for v in batched}
    if len(lengths) > 1 or any(len(shape) > 1 for shape in lengths):
        raise ValueError(f"batched values must be 1-D arrays of one length, got {lengths}")
    n = lengths.pop()[0] if lengths else 0
    # a batch runs in chunks whose every step stays within the table cap
    chunk = max(1, cap // plan.peak)
    if n <= chunk:
        return _execute(bn, plan, assign)
    parts = [
        _execute(bn, plan, {**assign, **{v: assign[v][i:i + chunk] for v in batched}})
        for i in range(0, n, chunk)
    ]
    return np.concatenate(parts)


def _execute(bn: BayesianNetwork, plan: _Plan, assign: dict) -> np.ndarray:
    # looked up per call, not bound at import, so that a stand-in (such as
    # the benchmark's counting proxy) swapped into kernels.active sees every
    # contraction
    contract = kernels.active.contract_bucket
    slots = list(plan.leaves) + [None] * (plan.n_slots - len(plan.leaves))
    # assigned axes come first, so batched values put the batch axis in front
    for i, table, fixed, n_free in plan.sliced:
        t = table[tuple(assign[v] for v in fixed)]
        slots[i] = t.reshape(t.shape[: t.ndim - n_free] + (-1,))
    const = 1.0
    for table, scope in plan.scalar_leaves:
        const = const * table[tuple(assign[v] for v in scope)]

    for step in plan.steps:
        tables = [slots[s] for s in step.factor_slots]
        slots[step.out_slot] = contract(tables, step.gathers, step.n_out, step.n_sum)

    shape = tuple(bn.cards[v] for v in plan.keep)
    if plan.final is None:
        out = np.array(1.0)
    else:
        tables = [slots[s] for s in plan.final.factor_slots]
        flat = contract(tables, plan.final.gathers, plan.final.n_out, 1)
        out = flat.reshape(flat.shape[:-1] + shape)
    if plan.scalar_leaves:  # a batch of constants multiplies row by row
        out = out * np.reshape(const, np.shape(const) + (1,) * len(shape))
    return out


# ---------------------------------------------------------------------------
# public operations

def bucket_eliminate_pe(bn: BayesianNetwork, e: Evidence) -> float:
    """Exact probability of evidence. Empty evidence gives 1 (normalization)."""
    return float(eliminate(bn, e, ()))


def bucket_eliminate_marginals(bn: BayesianNetwork, e: Evidence):
    """(P(e), posterior tables P(x | e) for every variable), the shape
    ``enumerate_oracle`` returns; observed variables get indicators."""
    pe = bucket_eliminate_pe(bn, e)
    if pe == 0.0:
        raise ZeroEvidenceError("P(e) = 0; posteriors undefined")
    out: dict[int, np.ndarray] = {}
    for v in range(bn.n):
        if v in e:
            t = np.zeros(bn.cards[v])
            t[e[v]] = 1.0
        else:
            t = eliminate(bn, e, (v,)) / pe
        out[v] = t
    return pe, out


def enumerate_oracle(bn: BayesianNetwork, e: Evidence, cap: int = ORACLE_STATE_CAP):
    """Full-enumeration reference: (P(e), posterior tables), for tests and
    the benchmark's self-check.

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
