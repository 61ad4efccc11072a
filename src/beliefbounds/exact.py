"""Exact inference: bucket elimination and the enumeration oracle.

Bucket elimination is compiled to a reusable *plan* per (network, assigned
variables, kept or wanted variables): the plan fixes the elimination order,
every intermediate-table layout and the gather index maps for each
contraction step. Executing a plan with concrete assigned values only slices
the leaf CPTs and runs the contraction kernel per step, so repeated queries
over the same structure (e.g. thousands of cutset tuples) avoid all symbolic
work. A plan takes only the CPTs of the assigned, kept and wanted variables
and of their ancestors: every other variable is barren (its bucket sums to
one), so the elimination covers the ancestral part of the network alone.
Assigned values may also be equal-length integer arrays: one execution then
evaluates the whole batch of assignments along a leading axis, with every
entry equal to what the one-assignment call gives.

``eliminate`` sums out everything but its kept variables. ``eliminate_marginals``
gives P(assignments) and the table P(v, assignments) of every wanted variable
from one plan, a bucket tree: the forward steps eliminate every variable, a
downward message per bucket on the way to a wanted variable carries the rest
of the network back, and one belief step per wanted variable combines its
bucket with that message (Kask, Dechter, Larrosa & Dechter, AIJ 2005).
Wanted variables that no assigned variable descends from are eliminated
first, children before parents: each such bucket sums to exactly one, so its
message is never computed, and the forward steps multiply the CPTs of the
assigned variables' ancestral set alone, as ``eliminate`` does.

Evidence is absorbed by slicing CPTs before elimination, so buckets stay as
small as possible. An *indicated* variable is not sliced but gets an
indicator leaf, rows x card(v), one-hot at the row's value or all ones where
the row leaves it free (-1); it stays in the plan, so rows that pin different
variables (partial cutset tuples of every depth) share one pass.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .graphs import min_fill_order
from .model import BayesianNetwork, Evidence, ancestors_of, held_bytes

#: Largest intermediate table (entries) a plan may create; exceeding it is an
#: error, never a silent approximation.
DEFAULT_TABLE_CAP = 2**22

#: Most table entries a plan with indicated variables may compute over all
#: its rows. Nothing it indicates is sliced, so its tree spans their whole
#: ancestral set; past this, splitting the rows by the variables they pin
#: costs less (see ``eliminate_marginals``). On binary grids 7x7 to 10x10
#: (bf priors, h = 10, 2 vCPU x86_64), caps from 2^18 to 2^24 gave the
#: least prepare time at 2^21 and 2^22.
INDICATED_WORK_CAP = 2**22

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
    # (slot, table with its assigned axes first, assigned vars, number of
    # free axes) per leaf that is sliced by the assigned values: a CPT view,
    # or an indicator's rows (one-hot per value, then a row of ones for -1)
    sliced: tuple
    scalar_leaves: tuple  # (CPT table, scope) of CPTs with every axis assigned
    steps: tuple[_Step, ...]  # forward steps, those of messages of ones left out
    final: _Step | None
    keep: tuple[int, ...]
    # downward messages, parents before children, then one belief step per
    # wanted variable: (variable, step)
    down: tuple[_Step, ...]
    beliefs: tuple[tuple[int, _Step], ...]
    n_slots: int
    peak: int  # largest entry count of one step
    work: int  # entries all steps compute for one row


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
    wanted: tuple[int, ...] = (),
    indicated: tuple[int, ...] = (),
    work_cap: int | None = None,
) -> _Plan | int:
    """The plan, or where a row would compute more than ``work_cap`` table
    entries, that entry count alone: the steps are laid out as (factor
    slots, out vars, summed vars, out slot) and get their gather maps only
    once the whole tree is within the cap."""
    assigned_set = set(assigned)
    keep_set = set(keep)
    if keep and wanted:
        raise ValueError("a plan either keeps variables or gives beliefs, not both")
    if assigned_set & keep_set:
        raise ValueError("kept variables must not be assigned")
    if assigned_set & set(wanted):
        raise ValueError("wanted variables must not be assigned")
    cards = bn.cards
    # only the ancestral set matters: the buckets of every other (barren)
    # variable sum to one, so their CPTs are left out
    relevant = assigned_set | keep_set | set(indicated)
    relevant |= ancestors_of(bn, relevant)
    # wanted variables outside it, and their ancestors outside it, are barren
    # for the total: they are eliminated first, children before parents, so
    # that each of their buckets holds its own CPT and messages of ones only
    barren = set(wanted) - relevant
    barren |= ancestors_of(bn, barren) - relevant
    relevant |= barren

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
    for v in indicated:
        rows = np.vstack([np.eye(cards[v]), np.ones((1, cards[v]))])
        sliced.append((len(leaves), rows, (v,), 1))
        leaves.append(None)
        live.append(((v,), len(live)))
    slot_count = len(live)
    scopes = {slot: fv for fv, slot in live}

    elim = [
        v for v in sorted(relevant)
        if v not in assigned_set and v not in keep_set and v not in barren
    ]

    # The bucket of a variable barren for the total holds its own CPT and
    # messages of ones only, so it sums to exactly one. Its message keeps its
    # place in the tree but is never computed, and every step leaves it out:
    # multiplying by sums that are one up to rounding would only add rounding.
    ones: set[int] = set()
    # (factor slots, out vars, summed vars, out slot) per forward step
    steps: list[tuple] = []
    # (variable, separator, factor slots, out slot) per bucket, ones included
    buckets: list[tuple[int, tuple[int, ...], tuple[int, ...], int]] = []
    bucket_of: dict[int, int] = {}
    peak = 1

    def eliminate_var(v):
        nonlocal slot_count, peak
        bucket = [f for f in live if v in f[0]]
        if not bucket:
            return
        live[:] = [f for f in live if v not in f[0]]
        out_vars = tuple(sorted({u for fv, _ in bucket for u in fv if u != v}))
        size = math.prod([cards[u] for u in out_vars]) * cards[v]
        if size > cap:
            raise ScopeCapError(f"bucket for variable {v} needs {size} entries (cap {cap})")
        peak = max(peak, size)
        if v in barren:
            ones.add(slot_count)
        else:
            steps.append((tuple(s for _, s in bucket if s not in ones), out_vars, (v,), slot_count))
        bucket_of[v] = len(buckets)
        buckets.append((v, out_vars, tuple(slot for _, slot in bucket), slot_count))
        live.append((out_vars, slot_count))
        scopes[slot_count] = out_vars
        slot_count += 1

    for v in reversed(bn.topo_order):
        if v in barren:
            eliminate_var(v)
    for v in min_fill_order([fv for fv, _ in live], elim, keep)[0]:
        eliminate_var(v)

    final = None
    if live:
        if any(u not in keep_set for fv, _ in live for u in fv):
            raise AssertionError("factor escaped elimination")
        size = math.prod([cards[u] for u in keep])
        if size > cap:
            raise ScopeCapError(f"output table needs {size} entries (cap {cap})")
        peak = max(peak, size)
    final_factors = [slot for _, slot in live if slot not in ones]
    if final_factors:
        final = (tuple(final_factors), keep, (), -1)

    # the bucket tree: each step's output feeds the step that takes it next,
    # or the final product; a downward message to a bucket is its parent's
    # other factors times the parent's own message, summed to the separator.
    # Every one is as large as the parent's forward step, every belief as
    # large as its bucket's, so the cap check above covers them all.
    parent = {}
    for i, (_, _, slots, _) in enumerate(buckets):
        for slot in slots:
            parent[slot] = i
    needed = set()
    for w in wanted:
        i = bucket_of[w]
        while i is not None and i not in needed:
            needed.add(i)
            i = parent.get(buckets[i][3])  # None: it feeds the final product
    down: list[tuple] = []
    down_slot: dict[int, int | None] = {}
    for i in sorted(needed, reverse=True):
        _, sep, _, own = buckets[i]
        p = parent.get(own)
        if p is None:
            factors = [s for s in final_factors if s != own]
            bucket_vars: tuple[int, ...] = ()
        else:
            pv, psep, pslots, _ = buckets[p]
            factors = [s for s in pslots if s != own and s not in ones]
            if down_slot[p] is not None:
                factors.append(down_slot[p])
            bucket_vars = psep + (pv,)
        summed = tuple(sorted(set(bucket_vars) - set(sep)))
        if not factors:  # the parent holds nothing else: a message of ones
            if summed:
                raise AssertionError("a message of ones would sum out a variable")
            down_slot[i] = None
            continue
        down.append((tuple(factors), sep, summed, slot_count))
        down_slot[i] = slot_count
        scopes[slot_count] = sep
        slot_count += 1
    beliefs = []
    for w in wanted:
        i = bucket_of[w]
        factors = [s for s in buckets[i][2] if s not in ones]
        if down_slot[i] is not None:
            factors.append(down_slot[i])
        beliefs.append((w, (tuple(factors), (w,), buckets[i][1], -1)))
    layouts = steps + down + [s for _, s in beliefs] + ([final] if final else [])
    work = sum(math.prod([cards[u] for u in s[1] + s[2]]) for s in layouts)
    if work_cap is not None and work > work_cap:
        return work

    def gathered(layout) -> _Step:
        factors, out_vars, summed, out_slot = layout
        gathers, n_out, n_sum = _gather_maps([scopes[f] for f in factors], out_vars, summed, cards)
        return _Step(factors, gathers, n_out, n_sum, out_slot)

    return _Plan(
        leaves=tuple(leaves),
        sliced=tuple(sliced),
        scalar_leaves=tuple(scalar_leaves),
        steps=tuple(map(gathered, steps)),
        final=gathered(final) if final else None,
        keep=keep,
        down=tuple(map(gathered, down)),
        beliefs=tuple((w, gathered(s)) for w, s in beliefs),
        n_slots=slot_count,
        peak=peak,
        work=work,
    )


def _plan_for(
    bn, assigned_vars: tuple[int, ...], keep: tuple[int, ...], cap: int,
    wanted: tuple[int, ...] = (), indicated: tuple[int, ...] = (), work_cap: int | None = None,
):
    """The cached plan; ``ScopeCapError`` where a row would compute more than
    ``work_cap`` entries. A rejected layout's entry count is cached in the
    plan's place, so a repeat is rejected without laying it out again."""
    key = ("plan", assigned_vars, keep, wanted, cap, indicated)
    plan = bn._cache.get(key)
    if plan is None or isinstance(plan, int) and plan <= work_cap:
        plan = _build_plan(bn, assigned_vars, keep, cap, wanted, indicated, work_cap)
        arrays = []
        if not isinstance(plan, int):
            steps = plan.steps + ((plan.final,) if plan.final else ()) + plan.down
            steps += tuple(step for _, step in plan.beliefs)
            arrays = [g for step in steps for g in step.gathers]
            arrays += [t for t in plan.leaves if t is not None]
            arrays += [t for _, t, _, _ in plan.sliced] + [t for t, _ in plan.scalar_leaves]
        bn._cache.put(key, plan, held_bytes(arrays))
    work = plan if isinstance(plan, int) else plan.work
    if work_cap is not None and work > work_cap:
        raise ScopeCapError(f"plan computes {work} entries a row (cap {work_cap})")
    return plan


def _run(bn: BayesianNetwork, assignments, keep, wanted, cap, indicated=()):
    """(table, beliefs) of one plan over the assignments, in chunks whose
    every step stays within the table cap; with indicated variables, the
    plan's work over all rows stays within ``INDICATED_WORK_CAP``."""
    assign = dict(assignments)
    indicated = tuple(sorted(set(indicated)))
    for v in indicated:
        values = np.asarray(assign.get(v, bn.cards[v]))
        if np.any((values < -1) | (values >= bn.cards[v])):
            raise ValueError(f"indicated variable {v} needs values, -1 where it is free")
    batched = [v for v, x in assign.items() if isinstance(x, np.ndarray) and x.ndim]
    lengths = {assign[v].shape for v in batched}
    if len(lengths) > 1 or any(len(shape) > 1 for shape in lengths):
        raise ValueError(f"batched values must be 1-D arrays of one length, got {lengths}")
    n = lengths.pop()[0] if lengths else 0
    sliced = tuple(sorted(v for v in assign if v not in indicated))
    row_cap = INDICATED_WORK_CAP // max(n, 1) if indicated else None
    plan = _plan_for(bn, sliced, keep, cap, wanted, indicated, row_cap)
    chunk = max(1, cap // plan.peak)
    if n <= chunk:
        return _execute(bn, plan, assign)
    parts = [
        _execute(bn, plan, {**assign, **{v: assign[v][i:i + chunk] for v in batched}})
        for i in range(0, n, chunk)
    ]
    return (
        np.concatenate([out for out, _ in parts]),
        {v: np.concatenate([b[v] for _, b in parts]) for v in wanted},
    )


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
    return _run(bn, assignments, tuple(keep), (), cap)[0]


def eliminate_marginals(
    bn: BayesianNetwork, assignments, wanted, indicated=()
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """(P(assignments), {v: table of P(v=x, assignments) over x}) for every
    ``v`` in ``wanted`` that is unassigned or indicated, from one bucket-tree
    plan.

    Assignments are taken as by ``eliminate``, batches included: with array
    values the total and every table gain the leading batch axis. Variables
    in ``indicated`` get indicator leaves instead of slicing; the value -1
    leaves one free in its row. Such a pass that would compute more than
    ``INDICATED_WORK_CAP`` table entries over all rows raises
    ``ScopeCapError`` before it builds anything: the caller splits the rows.
    """
    return _run(bn, assignments, (), tuple(sorted(set(wanted))), DEFAULT_TABLE_CAP, indicated)


def _execute(bn: BayesianNetwork, plan: _Plan, assign: dict):
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

    # the downward messages read forward messages only, never the final product
    for step in plan.steps + plan.down:
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
    beliefs = {}
    for v, step in plan.beliefs:
        tables = [slots[s] for s in step.factor_slots]
        table = contract(tables, step.gathers, step.n_out, step.n_sum)
        if plan.scalar_leaves:
            table = table * np.reshape(const, np.shape(const) + (1,))
        beliefs[v] = table
    return out, beliefs


# ---------------------------------------------------------------------------
# public operations

def bucket_eliminate_pe(bn: BayesianNetwork, e: Evidence) -> float:
    """Exact probability of evidence. Empty evidence gives 1 (normalization)."""
    return float(eliminate(bn, e, ()))


def bucket_eliminate_marginals(bn: BayesianNetwork, e: Evidence):
    """(P(e), posterior tables P(x | e) for every variable), the shape
    ``enumerate_oracle`` returns; observed variables get indicators. One
    bucket-tree pass gives every unobserved variable's P(x, e)."""
    pe = bucket_eliminate_pe(bn, e)
    if pe == 0.0:
        raise ZeroEvidenceError("P(e) = 0; posteriors undefined")
    unobserved = [v for v in range(bn.n) if v not in e]
    joints = eliminate_marginals(bn, e, unobserved)[1] if unobserved else {}
    out: dict[int, np.ndarray] = {}
    for v in range(bn.n):
        if v in e:
            t = np.zeros(bn.cards[v])
            t[e[v]] = 1.0
        else:
            t = joints[v] / pe
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
