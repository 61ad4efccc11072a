"""Exact inference: bucket elimination and the enumeration oracle.

Bucket elimination is compiled to a reusable *plan* per (network, assigned
variables, wanted variables): the plan fixes the elimination order and lays
every table of a run out in one float64 buffer, rows x cells, with the gather
maps of the steps, grouped by dependency level and summed size. Executing it
copies the unsliced CPTs in, fills the sliced ones with one ``take`` and runs
one contraction kernel call per level group, so repeated queries over the
same structure (e.g. thousands of cutset tuples) avoid all symbolic work. A
plan takes only the CPTs of the assigned and wanted variables and of their
ancestors: every other variable is barren (its bucket sums to
one), so the elimination covers the ancestral part of the network alone.
Assigned values may also be equal-length integer arrays: one execution then
evaluates the whole batch of assignments along a leading axis, with every
entry equal to what the one-assignment call gives. ``eliminate`` also takes
a batch already laid out as integer rows (``Rows``), as Gibbs tuple
selection sends it, one batch a state change.

``eliminate`` sums out every variable and gives P(assignments).
``eliminate_marginals`` gives P(assignments) and the table P(v, assignments)
of every wanted variable from one plan, a bucket tree: the forward steps
eliminate every variable, a downward message per bucket on the way to a
wanted variable carries the rest of the network back, and one belief step
per wanted variable combines its bucket with that message (Kask, Dechter, Larrosa & Dechter, AIJ 2005).
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

#: Largest bucket grid whose gather maps are kept for reuse between plans
#: (at most 256 step signatures are kept).
_CELLS_CACHED = 2**10


class ScopeCapError(RuntimeError):
    """An elimination step would exceed the configured table cap."""


class ZeroEvidenceError(ValueError):
    """Posterior queries are undefined: P(e) = 0."""


class _Layout(NamedTuple):
    """A plan before it gets cells. Slots number the leaves, then the steps;
    a step is (factor slots, out vars, summed vars, out slot) and comes after
    the steps it reads."""
    leaves: tuple  # (table with assigned axes first, assigned vars, free vars)
    # forward steps (none for messages of ones), the product of the fully
    # assigned CPTs, the total, downward messages (parents first), beliefs
    steps: tuple
    forward: int  # entries the forward steps compute for one row (read by tests)
    total: int | None  # slot of P(assignments); None where it is 1
    const: int | None  # slot of the product of the fully assigned CPTs
    beliefs: tuple[tuple[int, int], ...]  # (wanted variable, slot)
    work: int  # entries all steps compute for one row


class _Plan(NamedTuple):
    """A layout in a float64 buffer of rows x cells: 1.0, the template, the
    pooled leaves at the row's values, then each level group's outputs."""
    template: np.ndarray  # 1.0, then each CPT with nothing assigned, flat
    pool: np.ndarray  # the other leaves, flat, their assigned axes first
    strides: np.ndarray  # assigned var x pooled leaf: pool stride of its value
    leaf_of_cell: np.ndarray  # pooled leaf of each pooled cell
    base: np.ndarray  # pool index of each pooled cell, less values x strides
    bounds: np.ndarray  # per assigned var its least value (-1 if indicated), its card
    gathers: np.ndarray  # int32 gather maps of every group, one block each
    # (its gathers, factors x entries; n_out; n_sum; first out cell) per
    # group of the steps of one dependency level and one n_sum
    groups: tuple
    n_cells: int
    total: int  # cell of P(assignments); cell 0 where nothing multiplies
    const: int  # cell of the fully assigned CPTs' product; cell 0 where none
    beliefs: tuple[tuple[int, int, int], ...]  # (wanted variable, first cell, card)
    span: int  # entries per row of the largest array a run makes
    work: int


def _gather_maps(grid: tuple[int, ...], positions: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Per factor, with its axes at ``positions`` of the grid, the flat index
    of its entry at every cell: the cells dotted with its strides."""
    strides = np.zeros((len(positions), len(grid)), dtype=np.int32)
    for row, axes in zip(strides, positions):
        acc = 1
        for a in reversed(axes):
            row[a] = acc
            acc *= grid[a]
    maps = strides @ np.indices(grid, dtype=np.int32).reshape(len(grid), math.prod(grid))
    maps.flags.writeable = False
    return maps


#: Steps of one signature (grid, factor axes) recur across plans; the maps of
#: small grids are shared read-only.
_shared_gather_maps = functools.lru_cache(maxsize=256)(_gather_maps)


def _layout(bn: BayesianNetwork, assigned, cap: int, wanted=(), indicated=()) -> _Layout:
    assigned_set = set(assigned)
    if assigned_set & set(wanted):
        raise ValueError("wanted variables must not be assigned")
    cards = bn.cards
    # only the ancestral set matters: the buckets of every other (barren)
    # variable sum to one, so their CPTs are left out
    relevant = assigned_set | set(indicated)
    relevant |= ancestors_of(bn, relevant)
    # wanted variables outside it, and their ancestors outside it, are barren
    # for the total: they are eliminated first, children before parents, so
    # that each of their buckets holds its own CPT and messages of ones only
    barren = set(wanted) - relevant
    barren |= ancestors_of(bn, barren) - relevant
    relevant |= barren

    leaves = []
    scalars = []  # slots of the CPTs with every axis assigned
    live: list[tuple[tuple[int, ...], int]] = []  # (free vars, slot)
    for cpt in bn.cpts:
        if cpt.child not in relevant:
            continue
        scope = cpt.parents + (cpt.child,)
        fixed = tuple([v for v in scope if v in assigned_set])
        free = tuple([v for v in scope if v not in assigned_set])
        table = np.asarray(cpt.table, dtype=np.float64)
        if fixed:
            table = table.transpose([scope.index(v) for v in fixed + free])
        if free:
            live.append((free, len(leaves)))
        else:
            scalars.append(len(leaves))
        leaves.append((table, fixed, free))
    for v in indicated:  # a row of ones (for -1), then the one-hot rows
        live.append(((v,), len(leaves)))
        leaves.append((np.vstack([np.ones((1, cards[v])), np.eye(cards[v])]), (v,), (v,)))
    slot_count = len(leaves)

    elim = [v for v in sorted(relevant) if v not in assigned_set and v not in barren]

    # The bucket of a variable barren for the total holds its own CPT and
    # messages of ones only, so it sums to exactly one. Its message keeps its
    # place in the tree but is never computed, and every step leaves it out:
    # multiplying by sums that are one up to rounding would only add rounding.
    ones: set[int] = set()
    steps: list[tuple] = []  # forward steps
    # (variable, separator, factor slots, out slot) per bucket, ones included
    buckets: list[tuple[int, tuple[int, ...], tuple[int, ...], int]] = []
    bucket_of: dict[int, int] = {}

    def eliminate_var(v):
        nonlocal slot_count
        bucket = [f for f in live if v in f[0]]
        if not bucket:
            return
        live[:] = [f for f in live if v not in f[0]]
        out_vars = tuple(sorted({u for fv, _ in bucket for u in fv if u != v}))
        size = math.prod([cards[u] for u in out_vars]) * cards[v]
        if size > cap:
            raise ScopeCapError(f"bucket for variable {v} needs {size} entries (cap {cap})")
        if v in barren:
            ones.add(slot_count)
        else:
            steps.append((tuple(s for _, s in bucket if s not in ones), out_vars, (v,), slot_count))
        bucket_of[v] = len(buckets)
        buckets.append((v, out_vars, tuple(slot for _, slot in bucket), slot_count))
        live.append((out_vars, slot_count))
        slot_count += 1

    for v in reversed(bn.topo_order):
        if v in barren:
            eliminate_var(v)
    for v in min_fill_order([fv for fv, _ in live], elim)[0]:
        eliminate_var(v)

    # every variable is eliminated: what is left are the scalar root messages
    roots = [slot for _, slot in live if slot not in ones]

    # the bucket tree: each step's output feeds the step that takes it next,
    # or the total; a downward message to a bucket is its parent's other
    # factors times the parent's own message, summed to the separator.
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
            i = parent.get(buckets[i][3])  # None: it feeds the total
    down: list[tuple] = []
    down_slot: dict[int, int | None] = {}
    for i in sorted(needed, reverse=True):
        _, sep, _, own = buckets[i]
        p = parent.get(own)
        if p is None:
            factors = [s for s in roots if s != own]
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
        slot_count += 1
    beliefs = []
    for w in wanted:
        i = bucket_of[w]
        factors = [s for s in buckets[i][2] if s not in ones]
        if down_slot[i] is not None:
            factors.append(down_slot[i])
        beliefs.append((tuple(factors), (w,), buckets[i][1], slot_count))
        slot_count += 1

    def entries(layouts):
        return sum(math.prod([cards[u] for u in s[1] + s[2]]) for s in layouts)

    forward = entries(steps)
    work = forward + entries(down + beliefs) + bool(roots)
    # the product of the fully assigned CPTs multiplies the total; a product
    # of one factor is that factor and takes no step
    const = scalars[0] if len(scalars) == 1 else slot_count if scalars else None
    if len(scalars) > 1:
        steps.append((tuple(scalars), (), (), const))
    roots += [const] if scalars else []
    total = roots[0] if len(roots) == 1 else slot_count + 1 if roots else None
    if len(roots) > 1:
        steps.append((tuple(roots), (), (), total))
    return _Layout(
        leaves=tuple(leaves),
        steps=tuple(steps + down + beliefs),
        forward=forward,
        total=total,
        const=const,
        beliefs=tuple((w, s[3]) for w, s in zip(wanted, beliefs)),
        work=work,
    )


def _build_plan(
    bn: BayesianNetwork,
    assigned: tuple[int, ...],
    cap: int,
    wanted: tuple[int, ...] = (),
    indicated: tuple[int, ...] = (),
    work_cap: int | None = None,
) -> _Plan | int:
    """The plan, or where a row would compute more than ``work_cap`` table
    entries, that entry count alone: the cells and gathers are laid out
    only once the whole tree is within the cap."""
    layout = _layout(bn, assigned, cap, wanted, indicated)
    if work_cap is not None and layout.work > work_cap:
        return layout.work
    cards = bn.cards
    column = {v: j for j, v in enumerate(assigned + indicated)}
    scope = {slot: free for slot, (_, _, free) in enumerate(layout.leaves)}
    level = dict.fromkeys(scope, 0)
    cell, at = {}, 1  # the first cell of each slot; cell 0 holds 1.0
    template, pooled = [np.ones(1)], []
    for slot, (table, fixed, _) in enumerate(layout.leaves):
        if fixed:
            pooled.append(slot)
        else:
            cell[slot], at = at, at + table.size
            template.append(table)
    strides = [[0] * len(pooled) for _ in column]
    leaf_of_cell, base, offset = [], [], 0
    for j, slot in enumerate(pooled):
        table, fixed, _ = layout.leaves[slot]
        start = offset
        for k, v in enumerate(fixed):
            strides[column[v]][j] = stride = math.prod(table.shape[k + 1:])
            if v in indicated:  # -1 reads the row of ones before the one-hot rows
                start += stride
        size = math.prod(table.shape[len(fixed):])
        leaf_of_cell += [j] * size
        base += range(start, start + size)
        cell[slot], at, offset = at, at + size, offset + table.size

    groups: dict[tuple[int, int], list] = {}
    for step in layout.steps:
        factors, out_vars, summed, out = step
        level[out] = 1 + max([level[f] for f in factors])
        scope[out] = out_vars
        groups.setdefault((level[out], math.prod([cards[v] for v in summed])), []).append(step)
    # every group's gathers, factors x entries, one block after another:
    # the map rows in that order, each with its factor's first cell added
    rows, laid, offsets = [], [], []
    for (_, n_sum), members in sorted(groups.items()):
        # a step with fewer factors than the group reads cell 0, a scalar 1.0
        n_fac = max([len(factors) for factors, _, _, _ in members])
        maps, cells, start = [], [], at
        for factors, out_vars, summed, out in members:
            axes, pad = out_vars + summed, n_fac - len(factors)
            grid = tuple([cards[v] for v in axes])
            cell[out], at = at, at + math.prod(grid[: len(out_vars)])
            positions = tuple([tuple([axes.index(v) for v in scope[f]]) for f in factors])
            positions += ((),) * pad
            shared = math.prod(grid) <= _CELLS_CACHED
            maps.append((_shared_gather_maps if shared else _gather_maps)(grid, positions))
            cells.append([cell[f] for f in factors] + [0] * pad)
        laid.append((n_fac, at - start, n_sum, start))
        rows += [row for factor_rows in zip(*maps) for row in factor_rows]
        offsets += [c for factor_cells in zip(*cells) for c in factor_cells]
    gathers = np.concatenate([np.empty(0, dtype=np.int32)] + rows)
    gathers += np.repeat(np.array(offsets, dtype=np.int32), [len(row) for row in rows])
    first = np.cumsum([0] + [n_fac * n_out * n_sum for n_fac, n_out, n_sum, _ in laid])
    laid = [(gathers[a:b].reshape(n_fac, -1), n_out, n_sum, start)
            for a, b, (n_fac, n_out, n_sum, start) in zip(first, first[1:], laid)]
    return _Plan(
        template=np.concatenate(template, axis=None),
        pool=np.concatenate([np.empty(0)] + [layout.leaves[s][0] for s in pooled], axis=None),
        strides=np.array(strides, dtype=np.intp).reshape(len(column), len(pooled)),
        leaf_of_cell=np.array(leaf_of_cell, dtype=np.intp),
        base=np.array(base, dtype=np.intp),
        bounds=np.array([[0] * len(assigned) + [-1] * len(indicated), [cards[v] for v in column]]),
        gathers=gathers,
        groups=tuple(laid),
        n_cells=at,
        total=0 if layout.total is None else cell[layout.total],
        const=0 if layout.const is None else cell[layout.const],
        beliefs=tuple((w, cell[slot], cards[w]) for w, slot in layout.beliefs),
        span=max([at] + [g.shape[1] for g, _, _, _ in laid]),
        work=layout.work,
    )


def _plan_for(
    bn, assigned_vars: tuple[int, ...], cap: int,
    wanted: tuple[int, ...] = (), indicated: tuple[int, ...] = (), work_cap: int | None = None,
):
    """The cached plan; ``ScopeCapError`` where a row would compute more than
    ``work_cap`` entries. A rejected layout's entry count is cached in the
    plan's place, so a repeat is rejected without laying it out again."""
    key = ("plan", assigned_vars, wanted, cap, indicated)
    plan = bn._cache.get(key)
    if plan is None or isinstance(plan, int) and plan <= work_cap:
        plan = _build_plan(bn, assigned_vars, cap, wanted, indicated, work_cap)
        arrays = [] if isinstance(plan, int) else [a for a in plan if isinstance(a, np.ndarray)]
        bn._cache.put(key, plan, held_bytes(arrays))
    work = plan if isinstance(plan, int) else plan.work
    if work_cap is not None and work > work_cap:
        raise ScopeCapError(f"plan computes {work} entries a row (cap {work_cap})")
    return plan


class Rows(NamedTuple):
    """A batch of assignments as integer value rows: ``values[i, j]`` is
    the value of ``vars[j]`` in assignment i. Plans are cached by ``vars``,
    so a caller that keeps one order reuses one plan."""
    vars: tuple[int, ...]
    values: np.ndarray


class _Bound(NamedTuple):
    """A plan bound to its value columns: each row of values gives the
    assigned variables' values, then the indicated ones'."""
    plan: _Plan
    columns: tuple[int, ...]
    chunk: int  # rows an execution takes: its every array stays within the cap


def _bind(bn: BayesianNetwork, sliced, wanted, cap, indicated=(), n=1) -> _Bound:
    """The cached plan for ``sliced`` assigned variables and ``indicated``
    (sorted) ones, values in that column order; with indicated variables, a plan whose work
    over ``n`` rows would pass ``INDICATED_WORK_CAP`` raises."""
    row_cap = INDICATED_WORK_CAP // max(n, 1) if indicated else None
    plan = _plan_for(bn, sliced, cap, wanted, indicated, row_cap)
    return _Bound(plan, sliced + indicated, max(1, cap // plan.span))


def _apply(bound: _Bound, values: np.ndarray):
    """(total, beliefs) of the bound plan, one row per row of ``values``,
    in chunks of ``bound.chunk`` rows; a value out of range raises."""
    plan = bound.plan
    bad = (values < plan.bounds[0]) | (values >= plan.bounds[1])
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        v, (least, card) = bound.columns[j], plan.bounds[:, j]
        raise ValueError(f"indicated variable {v} needs values, -1 where it is free"
                         if least < 0 else f"variable {v} takes values 0..{card - 1}")
    chunk = bound.chunk
    if len(values) <= chunk:
        return _execute(plan, values)
    parts = [_execute(plan, values[i:i + chunk]) for i in range(0, len(values), chunk)]
    total = np.concatenate([out for out, _ in parts])
    return total, {v: np.concatenate([b[v] for _, b in parts]) for v in parts[0][1]}


def _run(bn: BayesianNetwork, assignments, wanted, cap, indicated=()):
    """(total, beliefs) of one plan over the assignments: ``_bind``, then
    ``_apply`` to a row per assignment."""
    assign = dict(assignments)
    indicated = tuple(sorted(set(indicated)))
    batched = [v for v, x in assign.items() if isinstance(x, np.ndarray) and x.ndim]
    lengths = {assign[v].shape for v in batched}
    if len(lengths) > 1 or any(len(shape) > 1 for shape in lengths):
        raise ValueError(f"batched values must be 1-D arrays of one length, got {lengths}")
    n = lengths.pop()[0] if lengths else 0
    sliced = tuple(sorted(v for v in assign if v not in indicated))
    bound = _bind(bn, sliced, wanted, cap, indicated, n)
    # an indicated variable left out is out of range
    columns = [assign[v] for v in sliced] + [assign.get(v, bn.cards[v]) for v in indicated]
    if columns and np.result_type(*columns).kind not in "iu":
        raise ValueError("assigned values must be integers")
    values = np.empty((n if batched else 1, len(columns)), dtype=np.intp)
    for j, x in enumerate(columns):
        values[:, j] = x
    total, beliefs = _apply(bound, values)
    if batched:
        return total, beliefs
    return total.reshape(()), {v: b[0] for v, b in beliefs.items()}


def eliminate(bn: BayesianNetwork, assignments) -> np.ndarray:
    """P(assignments) by sum-product elimination of every variable.

    ``assignments`` maps var -> value in 0..card-1, absorbed by CPT slicing
    (any other value raises ``ValueError``). Values may be ints or equal-length
    1-D integer arrays; with arrays the result has one row per assignment.
    A ``Rows`` batch gives one result per row, without building the rows
    from a mapping.
    """
    if isinstance(assignments, Rows):
        values = assignments.values
        if values.dtype.kind not in "iu" or values.shape[1:] != (len(assignments.vars),):
            raise ValueError("Rows values must be integers, one column per variable")
        return _apply(_bind(bn, assignments.vars, (), DEFAULT_TABLE_CAP), values)[0]
    return _run(bn, assignments, (), DEFAULT_TABLE_CAP)[0]


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
    return _run(bn, assignments, tuple(sorted(set(wanted))), DEFAULT_TABLE_CAP, indicated)


def _execute(plan: _Plan, values: np.ndarray):
    """(total, beliefs) with one row per row of ``values``."""
    # looked up per call, not bound at import, so that a stand-in (such as
    # the benchmark's counting proxy) swapped into kernels.active sees every
    # contraction
    contract = kernels.active.contract_bucket
    buf = np.empty((len(values), plan.n_cells))
    n_template = len(plan.template)
    buf[:, :n_template] = plan.template
    pooled = (values @ plan.strides)[:, plan.leaf_of_cell] + plan.base
    buf[:, n_template:n_template + len(plan.base)] = plan.pool[pooled]
    for gathers, n_out, n_sum, start in plan.groups:
        contract([buf] * len(gathers), gathers, n_out, n_sum, out=buf[:, start:start + n_out])
    const = buf[:, plan.const, None]  # x * 1.0 is x: cell 0 where nothing is fully assigned
    beliefs = {v: buf[:, at:at + card] * const for v, at, card in plan.beliefs}
    return buf[:, plan.total].copy(), beliefs


# ---------------------------------------------------------------------------
# public operations

def bucket_eliminate_pe(bn: BayesianNetwork, e: Evidence) -> float:
    """Exact probability of evidence. Empty evidence gives 1 (normalization)."""
    return float(eliminate(bn, e))


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
