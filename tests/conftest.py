"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from beliefbounds import bounder as bounder_mod
from beliefbounds import exact as exact_mod
from beliefbounds import kernels
from beliefbounds import tuples as tuples_mod
from beliefbounds.bounder import (
    DEFAULT_K,
    DEFAULT_MAX_ITERS,
    BlanketLp,
    ChainPropagationBounder,
    JointBounder,
    MarginalBounds,
    PartialTupleBounds,
    _blanket_coeffs,
)
from beliefbounds.exact import (
    bucket_eliminate_pe,
    eliminate,
    eliminate_marginals,
    enumerate_oracle,
)
from beliefbounds.graphs import find_loop_cutset
from beliefbounds.model import (
    BayesianNetwork,
    Cpt,
    Variable,
    ancestors_of,
    assignment_tuples,
)
from beliefbounds.tuples import (
    EXHAUSTIVE_CAP,
    ActiveTupleSet,
    _forward_sample_cutset,
    select_tuples_gibbs,
)


# ---------------------------------------------------------------------------
# network generation

def random_network(
    rng: np.random.Generator,
    n: int | None = None,
    max_card: int = 3,
    extra_edge_prob: float = 0.35,
    max_parents: int = 3,
    zero_rows: bool = False,
) -> BayesianNetwork:
    """Random DAG over a random topological order with random CPTs.

    Nodes are wired along a shuffled order (each non-first node gets at least
    one parent with high probability, plus extras), which produces plenty of
    undirected loops. ``zero_rows`` occasionally plants hard zeros so zero
    prior masses get exercised.
    """
    if n is None:
        n = int(rng.integers(4, 13))
    order = rng.permutation(n)
    parents_of: dict[int, tuple[int, ...]] = {}
    for pos, node in enumerate(order):
        cands = order[:pos]
        chosen: list[int] = []
        if pos and rng.random() < 0.9:
            chosen.append(int(rng.choice(cands)))
        for c in cands:
            if len(chosen) >= max_parents:
                break
            if c not in chosen and rng.random() < extra_edge_prob / max(pos, 1):
                chosen.append(int(c))
        parents_of[int(node)] = tuple(sorted(chosen))
    cards = tuple(int(rng.integers(2, max_card + 1)) for _ in range(n))
    variables = tuple(Variable(i, f"v{i}", cards[i]) for i in range(n))
    cpts = []
    for i in range(n):
        ps = parents_of[i]
        shape = tuple(cards[p] for p in ps) + (cards[i],)
        table = rng.random(shape) + 0.02
        if zero_rows and rng.random() < 0.3:
            flat = table.reshape(-1, cards[i])
            row = int(rng.integers(flat.shape[0]))
            col = int(rng.integers(cards[i]))
            flat[row] = 0.0
            flat[row, col] = 1.0
        table = table / table.sum(axis=-1, keepdims=True)
        cpts.append(Cpt(child=i, parents=ps, table=table))
    return BayesianNetwork(variables=variables, cpts=tuple(cpts))


def random_tree_network(rng: np.random.Generator, n: int, max_card: int = 3):
    """Directed tree: every non-root has exactly one parent among earlier ids."""
    cards = tuple(int(rng.integers(2, max_card + 1)) for _ in range(n))
    variables = tuple(Variable(i, f"v{i}", cards[i]) for i in range(n))
    cpts = []
    for i in range(n):
        ps = (int(rng.integers(0, i)),) if i else ()
        shape = tuple(cards[p] for p in ps) + (cards[i],)
        table = rng.random(shape) + 0.05
        table = table / table.sum(axis=-1, keepdims=True)
        cpts.append(Cpt(child=i, parents=ps, table=table))
    return BayesianNetwork(variables=variables, cpts=tuple(cpts))


def barren_network(rng: np.random.Generator, n_core: int, n_leaves: int) -> BayesianNetwork:
    """A random DAG of ``n_core`` variables with ``n_leaves`` childless
    variables hung below it, each with one or two core parents: a prior
    query on the core leaves every leaf barren."""
    core = random_network(rng, n=n_core)
    variables = list(core.variables)
    cpts = list(core.cpts)
    for i in range(n_core, n_core + n_leaves):
        ps = tuple(sorted(int(p) for p in rng.choice(n_core, size=int(rng.integers(1, 3)),
                                                     replace=False)))
        card = int(rng.integers(2, 4))
        table = rng.random(tuple(variables[p].cardinality for p in ps) + (card,)) + 0.02
        variables.append(Variable(i, f"v{i}", card))
        cpts.append(Cpt(child=i, parents=ps, table=table / table.sum(axis=-1, keepdims=True)))
    return BayesianNetwork(variables=tuple(variables), cpts=tuple(cpts))


def grid_network(rows: int, cols: int, *key: int) -> BayesianNetwork:
    """Seeded binary grid: node (i, j) = i * cols + j has parents (i-1, j)
    and (i, j-1). CPT rows are Dirichlet(0.3, 0.3), floored at 1e-6 and
    renormalised, drawn from a generator seeded with (*key, rows, cols)."""
    rng = np.random.default_rng([*key, rows, cols])
    n = rows * cols
    cpts = []
    for i in range(rows):
        for j in range(cols):
            ps = tuple(p for p in ((i - 1) * cols + j if i else None,
                                   i * cols + j - 1 if j else None) if p is not None)
            flat = np.maximum(rng.dirichlet([0.3, 0.3], size=2 ** len(ps)), 1e-6)
            flat /= flat.sum(axis=1, keepdims=True)
            cpts.append(Cpt(child=i * cols + j, parents=ps,
                            table=flat.reshape((2,) * (len(ps) + 1))))
    variables = tuple(Variable(v, f"v{v}", 2) for v in range(n))
    return BayesianNetwork(variables=variables, cpts=tuple(cpts))


def random_evidence(
    rng: np.random.Generator, bn: BayesianNetwork, max_obs: int = 2
) -> dict[int, int]:
    size = int(rng.integers(0, max_obs + 1))
    if size == 0:
        return {}
    chosen = rng.choice(bn.n, size=min(size, bn.n), replace=False)
    return {int(v): int(rng.integers(bn.cards[v])) for v in chosen}


def network_text(bn: BayesianNetwork) -> str:
    """Render a network back to the UAI text grammar."""
    lines = ["BAYES", str(bn.n), " ".join(str(c) for c in bn.cards), str(bn.n)]
    for cpt in bn.cpts:
        scope = cpt.parents + (cpt.child,)
        lines.append(f"{len(scope)} " + " ".join(str(v) for v in scope))
    for cpt in bn.cpts:
        flat = np.asarray(cpt.table).reshape(-1)
        lines.append(str(flat.size))
        lines.append(" ".join(format(x, ".17g") for x in flat))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# independent probability oracles (no shared code with the package internals)

def brute_joint(bn: BayesianNetwork, assign: dict[int, int]) -> float:
    p = 1.0
    for cpt in bn.cpts:
        idx = tuple(assign[q] for q in cpt.parents) + (assign[cpt.child],)
        p *= float(np.asarray(cpt.table)[idx])
    return p


def brute_event_mass(bn: BayesianNetwork, fixed: dict[int, int]) -> float:
    """Σ over completions of the joint: independent reference for P(fixed)."""
    free = [v for v in range(bn.n) if v not in fixed]
    total = []
    for vals in itertools.product(*(range(bn.cards[v]) for v in free)):
        assign = dict(fixed)
        assign.update(zip(free, vals))
        total.append(brute_joint(bn, assign))
    return math.fsum(total)


def brute_posteriors(bn: BayesianNetwork, e: dict[int, int]):
    """(P(e), {var: posterior array}) by full enumeration, fsum-accumulated."""
    masses = {
        v: [[] for _ in range(bn.cards[v])] for v in range(bn.n)
    }
    terms = []
    for vals in itertools.product(*(range(c) for c in bn.cards)):
        assign = dict(enumerate(vals))
        if any(assign[v] != x for v, x in e.items()):
            continue
        p = brute_joint(bn, assign)
        terms.append(p)
        for v in range(bn.n):
            masses[v][assign[v]].append(p)
    pe = math.fsum(terms)
    tables = {
        v: np.array([math.fsum(cell) for cell in masses[v]]) / pe if pe > 0 else None
        for v in range(bn.n)
    }
    return pe, tables


def fraction_event_mass(bn: BayesianNetwork, assigned: dict, keep: tuple[int, ...] = ()):
    """Σ of the joint over every completion of ``assigned``, per value of the
    kept variables, in exact rationals: a nested list indexed like
    ``eliminate(bn, assigned, keep)`` (a bare Fraction when keep is empty).
    Every CPT entry is taken as the float it is (``Fraction(float)`` is
    exact) and the whole network is enumerated, barren variables included."""
    tables = [
        {idx: Fraction(float(p)) for idx, p in np.ndenumerate(np.asarray(cpt.table))}
        for cpt in bn.cpts
    ]
    free = [v for v in range(bn.n) if v not in assigned]
    out = {}
    for vals in itertools.product(*(range(bn.cards[v]) for v in free)):
        full = dict(assigned)
        full.update(zip(free, vals))
        p = Fraction(1)
        for cpt, table in zip(bn.cpts, tables):
            p *= table[tuple(full[q] for q in cpt.parents) + (full[cpt.child],)]
        cell = tuple(full[v] for v in keep)
        out[cell] = out.get(cell, Fraction(0)) + p

    def nest(prefix):
        if len(prefix) == len(keep):
            return out[prefix]
        return [nest(prefix + (x,)) for x in range(bn.cards[keep[len(prefix)]])]

    return nest(())


# ---------------------------------------------------------------------------
# LP instance generation and basis-enumeration oracle

def random_lp(
    rng: np.random.Generator,
    n_members: int | None = None,
    max_card: int = 4,
    point: bool = False,
    cards: list[int] | None = None,
) -> BlanketLp:
    """Feasible random instance: constraints are relaxations of the group
    marginals of a hidden distribution, so the truth is always inside."""
    if cards is None:
        if n_members is None:
            n_members = int(rng.integers(1, 4))
        cards = [int(rng.integers(2, max_card + 1)) for _ in range(n_members)]
    n = int(np.prod(cards))
    coeffs = rng.random(n)
    q = rng.random(n) + 1e-3
    q /= q.sum()
    cols = []
    suffix = n
    base = np.arange(n)
    for c in cards:
        suffix //= c
        cols.append((base // suffix) % c)
    members = []
    for idx, c in enumerate(cards):
        col = cols[idx]
        marg = np.array([q[col == v].sum() for v in range(c)])
        if point:
            lows = marg.copy()
            highs = marg.copy()
        else:
            lows = np.clip(marg - rng.random(c) * 0.3, 0.0, 1.0)
            highs = np.clip(marg + rng.random(c) * 0.3, 0.0, 1.0)
        members.append((idx, col, lows, highs))
    return BlanketLp(query=(0, 0), coeffs=coeffs, members=tuple(members))


class BlanketLpInfeasible(ValueError):
    """The constraint set admits no distribution."""


def solve_blanket_lp_exact(lp: BlanketLp, sense: str) -> float:
    """Exact LP optimum via scipy's HiGHS solver (oracle for the greedy
    relaxation). Raises BlanketLpInfeasible when no q satisfies the
    constraints."""
    from scipy.optimize import linprog

    n = lp.coeffs.shape[0]
    if n > 2**10:
        raise ValueError("blanket state space too large for the exact solver")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be min or max, got {sense!r}")
    rows = []
    rhs = []
    for _var, col, lows, highs in lp.members:
        for v in range(len(lows)):
            ind = (col == v).astype(np.float64)
            rows.append(ind)
            rhs.append(highs[v])
            rows.append(-ind)
            rhs.append(-lows[v])
    a_ub = np.array(rows) if rows else None
    b_ub = np.array(rhs) if rhs else None
    c = lp.coeffs if sense == "min" else -lp.coeffs
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 2:
        raise BlanketLpInfeasible("no boundary distribution satisfies the constraints")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return float(res.fun) if sense == "min" else float(-res.fun)


def lp_basis_enumeration(lp: BlanketLp, sense: str) -> float:
    """Exact optimum by enumerating basic solutions of the standard form.

    Constraints become A z = b with slacks; every square basis is solved and
    feasible basic solutions are scored. Only usable for tiny instances.
    """
    n = lp.coeffs.shape[0]
    rows = [np.ones(n)]
    rhs = [1.0]
    senses = []  # +1: <=, -1: >=
    for _var, col, lows, highs in lp.members:
        for v in range(len(lows)):
            ind = (col == v).astype(float)
            rows.append(ind)
            rhs.append(float(highs[v]))
            senses.append(1)
            rows.append(ind)
            rhs.append(float(lows[v]))
            senses.append(-1)
    m_ineq = len(senses)
    a = np.zeros((1 + m_ineq, n + m_ineq))
    a[0, :n] = rows[0]
    for i in range(m_ineq):
        a[1 + i, :n] = rows[1 + i]
        a[1 + i, n + i] = 1.0 if senses[i] == 1 else -1.0
    b = np.array(rhs)
    n_all = n + m_ineq
    m_rows = 1 + m_ineq
    best = None
    for basis in itertools.combinations(range(n_all), m_rows):
        sub = a[:, basis]
        try:
            z = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(z < -1e-9):
            continue
        full = np.zeros(n_all)
        full[list(basis)] = z
        val = float(lp.coeffs @ full[:n])
        if best is None:
            best = val
        elif sense == "max":
            best = max(best, val)
        else:
            best = min(best, val)
    if best is None:
        raise ValueError("infeasible LP")
    return best


def reference_greedy_lp(lp: BlanketLp, sense: str) -> float:
    """The greedy relaxation written out per call, with no precomputed
    tables: the reference the bounder's table-driven solver must equal
    exactly (same operations in the same order)."""
    maximize = sense == "max"
    candidates = []
    for _var, col, lows, highs in lp.members:
        d = len(lows)
        if np.any(highs < lows - 1e-15):
            continue
        best = np.full(d, -np.inf if maximize else np.inf)
        if maximize:
            np.maximum.at(best, col, lp.coeffs)
        else:
            np.minimum.at(best, col, lp.coeffs)
        empty = ~np.isfinite(best)
        if np.any(lows[empty] > 1e-15):
            continue
        lows = np.where(empty, 0.0, np.clip(lows, 0.0, 1.0))
        highs = np.where(empty, 0.0, np.clip(highs, 0.0, 1.0))
        rem = 1.0 - math.fsum(lows.tolist())
        if rem < -1e-12:
            continue
        rem = max(rem, 0.0)
        safe_best = np.where(empty, 0.0, best)
        value = float(np.dot(lows, safe_best))
        caps = np.clip(highs - lows, 0.0, None)
        for g in np.argsort(-safe_best if maximize else safe_best, kind="stable"):
            if rem <= 0.0:
                break
            if empty[g]:
                continue
            take = min(rem, float(caps[g]))
            value += take * float(safe_best[g])
            rem -= take
        if rem <= 1e-9:
            candidates.append(value)
    if not candidates:
        return float(lp.coeffs.max()) if maximize else float(lp.coeffs.min())
    return min(candidates) if maximize else max(candidates)


# ---------------------------------------------------------------------------
# references: the one-at-a-time forms that the batched, incremental and
# hoisted code must reproduce bit for bit

def blanket_lp_inputs(bn: BayesianNetwork, x: int, kids, e, unobs):
    """({member: its value in each boundary configuration}, coefficients
    per configuration and value of x) of x's blanket LPs, configurations in
    mixed radix over ``unobs``, the first member most significant."""
    n_configs = math.prod(bn.cards[u] for u in unobs)
    cols, suffix = {}, n_configs
    for u in unobs:
        suffix //= bn.cards[u]
        cols[u] = (np.arange(n_configs) // suffix) % bn.cards[u]
    return cols, _blanket_coeffs(bn, x, kids, e, unobs).reshape(n_configs, bn.cards[x])


def _reference_structure(bn: BayesianNetwork, x: int, kids, e, k: int) -> dict:
    """x's unobserved boundary members, their config columns and the LP
    coefficients, built for one call; ``skip`` when the full boundary domain
    exceeds ``k``."""
    boundary: set[int] = set(bn.parents(x))
    for c in kids:
        boundary.add(c)
        boundary.update(bn.parents(c))
    boundary.discard(x)
    if math.prod(bn.cards[v] for v in boundary) > k:
        return {"skip": True}
    unobs = tuple(sorted(v for v in boundary if v not in e))
    cols, coeffs = blanket_lp_inputs(bn, x, kids, e, unobs)
    return {"skip": False, "unobs": unobs, "cols": cols, "coeffs": coeffs}


def _reference_greedy_bounds(x: int, st: dict, lows: dict, highs: dict):
    """(min, max) of the greedy relaxation of every query value's LP, each
    solved on its own by ``reference_greedy_lp``."""
    members = tuple((u, st["cols"][u], lows[u], highs[u]) for u in st["unobs"])
    lps = [BlanketLp((x, val), c, members) for val, c in enumerate(st["coeffs"].T)]
    return [(reference_greedy_lp(lp, "min"), reference_greedy_lp(lp, "max")) for lp in lps]


def reference_propagate(
    bn: BayesianNetwork, e, k: int = DEFAULT_K, max_iters: int = DEFAULT_MAX_ITERS
) -> MarginalBounds:
    """Bound propagation one context and one variable at a time, with the
    scalar greedy LP of every member: what ``propagate_marginal_bounds`` and
    the bounder's lock-step contexts must give, bit for bit. Reads
    ``bounder.DEFAULT_TOL`` at call time, as the package does."""
    lows: dict[int, np.ndarray] = {}
    highs: dict[int, np.ndarray] = {}
    for v in range(bn.n):
        if v in e:
            lo = np.zeros(bn.cards[v])
            lo[e[v]] = 1.0
            lows[v] = lo
            highs[v] = lo.copy()
        else:
            lows[v] = np.zeros(bn.cards[v])
            highs[v] = np.ones(bn.cards[v])

    # barren-descendant pruning: a child stays in x's relevant subnetwork
    # when it is observed or has an observed descendant
    has_obs_below = ancestors_of(bn, set(e))
    sweep_vars = [v for v in bn.topo_order if v not in e]
    structures = {}
    for v in sweep_vars:
        kids = tuple(c for c in bn.children[v] if c in e or c in has_obs_below)
        structures[v] = _reference_structure(bn, v, kids, e, k)
    skipped = {v for v in sweep_vars if structures[v]["skip"]}

    iters = 0
    for _ in range(max_iters):
        iters += 1
        delta = 0.0
        for v in sweep_vars:
            st = structures[v]
            if st["skip"]:
                continue
            lv, hv = lows[v], highs[v]
            for val, (lo, hi) in enumerate(_reference_greedy_bounds(v, st, lows, highs)):
                new_lo = min(max(lv[val], lo), hv[val])
                new_hi = max(min(hv[val], hi), new_lo)
                delta = max(delta, new_lo - lv[val], hv[val] - new_hi)
                lv[val] = new_lo
                hv[val] = new_hi
        if delta <= bounder_mod.DEFAULT_TOL:
            break
    return MarginalBounds(lows=lows, highs=highs, iterations=iters, skipped=frozenset(skipped))


def reference_chain_bounds(bn: BayesianNetwork, e, merged: dict, prior: float, k, iters):
    """abdp's bound on P(merged, e) by the evidence-chain factorization,
    given the prior mass P(merged), with one ``reference_propagate`` per
    factor: what the bounder's lock-step joint must give."""
    for var, val in merged.items():
        if var in e and e[var] != val:
            return 0.0, 0.0
    bf_hi = min(1.0, prior)
    lo_prod, hi_prod = 1.0, 1.0
    ctx = dict(merged)
    for ev_var in (v for v in bn.topo_order if v in e and v not in merged):
        mb = reference_propagate(bn, ctx, k=k, max_iters=iters)
        l, u = mb.interval(ev_var, e[ev_var])
        lo_prod *= max(0.0, l)
        hi_prod *= min(1.0, u)
        ctx[ev_var] = e[ev_var]
        if hi_prod == 0.0:
            break
    lo = max(0.0, lo_prod * prior)
    hi = min(bf_hi, hi_prod * prior)
    return min(lo, hi), hi


def reference_abdp_tables(bounder, partial, prior: float, var_prior: dict):
    """(joint, low row, high row) of one partial of an abdp bounder, given
    its prior and extension priors, with one ``reference_propagate`` per
    chain factor and for e ∪ partial: what the lock-step tables must give."""
    bn, e, k, iters = bounder.bn, bounder.e, bounder.k, bounder.iters
    merged = dict(partial)
    joint = reference_chain_bounds(bn, e, merged, prior, k, iters)
    mb = reference_propagate(bn, {**e, **merged}, k=k, max_iters=iters)
    cap = np.full(bounder.width, prior)
    for v, ext in var_prior.items():
        cap[bounder.cells[v]] = ext
    lows, highs = np.empty(bounder.width), np.empty(bounder.width)
    for v, sl in bounder.cells.items():
        lows[sl], highs[sl] = mb.lows[v], mb.highs[v]
    high = np.minimum(highs * joint[1], cap)
    return joint, np.minimum(lows * joint[0], high), high


def reference_min_fill_sequence(scopes, elim) -> list[int]:
    """Min-fill that rescans every remaining variable at every step: the
    order ``graphs.min_fill_order`` must return. Variables of the scopes
    that are not in ``elim`` stay."""
    adj: dict[int, set[int]] = {v: set() for v in elim}
    for fv in scopes:
        for a in fv:
            for b in fv:
                if a != b:
                    adj.setdefault(a, set()).add(b)
    remaining = set(elim)
    seq = []
    while remaining:
        best, best_key = None, None
        for v in sorted(remaining):
            nbrs = list(adj[v])
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


def reference_induced_width(scopes, order) -> int:
    """Width of eliminating ``order`` first to last on the interaction graph
    of the scopes; variables not in ``order`` stay. Each eliminated variable
    counts its neighbours not yet eliminated and connects them pairwise
    (triangulation on a working copy): the width ``graphs.min_fill_order``
    must report for its own order."""
    adj: dict[int, set[int]] = {}
    for fv in scopes:
        for a in fv:
            adj.setdefault(a, set()).update(b for b in fv if b != a)
    width = 0
    for v in order:
        nbrs = sorted(adj.pop(v, set()))
        width = max(width, len(nbrs))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        for u in nbrs:
            adj[u].discard(v)
    return width


def reference_run(bn: BayesianNetwork, assignments, wanted=(), indicated=()):
    """(total, beliefs) of the exact layer's layout run one step and one
    kernel call at a time: every leaf sliced by numpy indexing (an indicated
    -1 reads its row of ones, the leaf's first), every step gathered from
    its own tables by maps built from their scopes, the product of the fully
    assigned CPTs multiplied into each belief after its sum. The level
    executor, ``exact._run``, must give the same floats bit for bit, in the
    same shapes."""
    assign = dict(assignments)
    indicated = tuple(sorted(set(indicated)))
    sliced = tuple(sorted(v for v in assign if v not in indicated))
    wanted = tuple(sorted(set(wanted)))
    layout = exact_mod._layout(bn, sliced, exact_mod.DEFAULT_TABLE_CAP, wanted, indicated)
    slots, scopes = {}, {}
    for slot, (table, fixed, free) in enumerate(layout.leaves):
        # assigned axes come first, so batched values put the batch axis in front
        t = table[tuple(np.asarray(assign[v]) + (v in indicated) for v in fixed)]
        slots[slot] = t.reshape(t.shape[: t.ndim - len(free)] + (-1,))
        scopes[slot] = free
    for factors, out_vars, summed, out in layout.steps:
        axes = out_vars + summed
        grid = [bn.cards[v] for v in axes]
        cells = np.indices(grid).reshape(len(axes), math.prod(grid))
        gathers = []
        for f in factors:
            flat = np.zeros(cells.shape[1], dtype=np.intp)
            for v in scopes[f]:
                flat = flat * bn.cards[v] + cells[axes.index(v)]
            gathers.append(flat)
        n_out, n_sum = math.prod(grid[: len(out_vars)]), math.prod(grid[len(out_vars):])
        tables = [slots[f] for f in factors]
        slots[out] = kernels.contract_bucket(tables, gathers, n_out, n_sum)
        scopes[out] = out_vars
    total = np.array(1.0) if layout.total is None else slots[layout.total][..., 0]
    beliefs = {}
    for v, slot in layout.beliefs:
        beliefs[v] = slots[slot] if layout.const is None else slots[slot] * slots[layout.const]
    return total, beliefs


def reference_render(obj, indent: int = 0) -> str:
    """Canonical JSON built by string concatenation per level, without the
    final newline: the text ``harness.dumps_canonical`` must give byte for
    byte."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted((str(k), v) for k, v in obj.items())
        inner = ",\n".join(
            f'{pad}  {reference_render(k, 0)}: {reference_render(v, indent + 1)}'
            for k, v in items
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {reference_render(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    try:
        return reference_render(float(obj), indent)  # numpy scalars
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def merge_assignment(e, a, extra=None):
    """Merge evidence, a partial assignment and an optional (var, value) pair.

    Returns (merged dict, conflict flag). A conflict means the same variable
    is assigned two different values; callers treat that event as probability
    zero rather than an error.
    """
    merged = dict(e)
    conflict = False
    items = list(a or ())
    if extra is not None:
        items.append(tuple(extra))
    for var, val in items:
        if var in merged and merged[var] != val:
            conflict = True
        merged[var] = val
    return merged, conflict


def free_cells(bounder, partial, tab=None) -> dict:
    """{variable: (low, high)} for every cell variable that ``partial`` (pairs
    or a dict) leaves free: the per-variable slices of ``tab``'s rows, by
    default the bounder's own tables of ``partial``."""
    pinned = dict(partial)
    if tab is None:
        tab = bounder.tuple_tables(tuple(pinned.items()))
    return {
        v: (tab.low[sl], tab.high[sl]) for v, sl in bounder.cells.items() if v not in pinned
    }


def reference_exact_sums(bn: BayesianNetwork, e, active):
    """(tuple priors, active mass of every unobserved non-cutset variable):
    the priors as exact rationals from one enumeration (``Fraction`` per
    tuple, what the bounder's prior pass gives to rounding), the masses with
    one scalar ``eliminate_marginals`` per tuple, what
    ``engine.prepare_inputs`` must give from its call batched over tuples (a
    cutset value overrides the evidence on a shared variable)."""
    cvars = active.cutset.vars
    table = fraction_event_mass(bn, {}, cvars) if active.tuples else None
    priors = [functools.reduce(lambda t, x: t[x], vals, table) for vals in active.tuples]
    free = [v for v in range(bn.n) if v not in e and v not in cvars]
    rows = []
    for t in active.tuples:
        assigned = dict(e)
        assigned.update(zip(cvars, t))
        rows.append(eliminate_marginals(bn, assigned, free)[1])
    mass = {
        var: np.array(
            [math.fsum(float(row[var][x]) for row in rows) for x in range(bn.cards[var])]
        )
        for var in free
    }
    return priors, mass


def reference_partial_terms(inputs, var: int, value: int):
    """Per-partial (NL, den_term, NU, oL) lists for one query value, summing
    each partial's extension tables anew: what ``engine._terms_by_var``
    must give for that value."""
    k = inputs.cutset_pos.get(var)
    nls, terms, nus, ols = [], [], [], []
    for vals, tab in zip(inputs.tree.partials, inputs.tables):
        jl, ju = tab.joint
        if k is not None and k < len(vals):
            if vals[k] == value:
                nls.append(jl)
                terms.append(jl)
                nus.append(ju)
                ols.append(0.0)
            else:
                nls.append(0.0)
                terms.append(ju)
                nus.append(0.0)
                ols.append(jl)
            continue
        lows, highs = free_cells(inputs.bounder, zip(inputs.cutset.vars, vals), tab)[var]
        nl = float(lows[value])
        ou = float(highs.sum() - highs[value])
        nls.append(nl)
        terms.append(min(nl + ou, ju))
        nus.append(min(float(highs[value]), ju))
        ols.append(float(lows.sum() - lows[value]))
    return nls, terms, nus, ols


def select_by_chain(bn, e, c, h, **options) -> ActiveTupleSet:
    """``select_tuples_gibbs`` on its Gibbs chain however small the cutset
    space is: ``EXHAUSTIVE_CAP`` is 0 for the call."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tuples_mod, "EXHAUSTIVE_CAP", 0)
        return select_tuples_gibbs(bn, e, c, h, **options)


def reference_gibbs_select(bn, e, c, h, sweeps, seed) -> ActiveTupleSet:
    """The Gibbs chain of ``select_tuples_gibbs`` with one scalar
    ``bucket_eliminate_pe`` per newly visited tuple: the tuples and masses
    the batched chain must give, bit for bit."""
    rng = np.random.default_rng(seed)
    visited: dict[tuple[int, ...], float] = {}

    def mass(tup) -> float:
        p = visited.get(tup)
        if p is None:
            merged, conflict = merge_assignment(e, tuple(zip(c.vars, tup)))
            p = 0.0 if conflict else bucket_eliminate_pe(bn, merged)
            visited[tup] = p
        return p

    state = list(_forward_sample_cutset(bn, e, c, rng))
    mass(tuple(state))
    for _ in range(max(0, sweeps)):
        for k in range(c.size):
            current = state[k]
            probs = np.empty(c.cards[k])
            for val in range(c.cards[k]):
                state[k] = val
                probs[val] = mass(tuple(state))
            total = probs.sum()
            if total > 0.0:
                state[k] = int(rng.choice(c.cards[k], p=probs / total))
            else:  # all-zero conditional: keep the current value
                state[k] = current
            mass(tuple(state))

    ranked = sorted(visited.items(), key=lambda kv: (-kv[1], kv[0]))
    chosen = [tup for tup, _ in ranked[:h]]
    if len(chosen) < h:  # deterministic padding
        have = set(chosen)
        for tup in assignment_tuples(c.cards):
            if len(chosen) >= h:
                break
            if tup not in have:
                mass(tup)
                chosen.append(tup)
                have.add(tup)
    pe = np.array([visited[t] for t in chosen], dtype=np.float64)
    return ActiveTupleSet(cutset=c, tuples=tuple(chosen), pe=pe)


# ---------------------------------------------------------------------------
# references built on the package's exact layer

def conditioned_joint(bn: BayesianNetwork, e, a) -> float:
    """P(a, e): the partial assignment ``a`` (a dict or pairs) is treated as
    additional evidence. A variable assigned differently by ``a`` and ``e``
    makes the event impossible: 0.0, not an error."""
    merged, conflict = merge_assignment(e, tuple(dict(a or {}).items()))
    if conflict:
        return 0.0
    return bucket_eliminate_pe(bn, merged)


def partition_check(bn: BayesianNetwork, e, tree, max_terms: int = EXHAUSTIVE_CAP):
    """(active mass, partial mass) of a truncated tree, each recomputed
    exactly from scratch: with a correct tree the two masses sum to P(e)."""
    c = tree.cutset
    if c.n_tuples > max_terms:
        raise ValueError(f"cutset space {c.n_tuples} too large for the check")
    mass_active = math.fsum(
        conditioned_joint(bn, e, dict(zip(c.vars, tup))) for tup in tree.active.tuples
    )
    mass_partial = math.fsum(
        conditioned_joint(bn, e, dict(zip(c.vars[: len(p)], p))) for p in tree.partials
    )
    return mass_active, mass_partial


def _as_pairs(a):
    if a is None:
        return ()
    if isinstance(a, dict):
        return tuple(a.items())
    return tuple(a)


def prior_mass_bounds(bn: BayesianNetwork, e, a, extra=None) -> tuple[float, float]:
    """[0, P(a ∪ extra)]: the prior mass, computed exactly with no evidence,
    bounds P(a ∪ extra, e) for any e."""
    merged, conflict = merge_assignment({}, _as_pairs(a), extra)
    if conflict:
        return 0.0, 0.0
    return 0.0, min(1.0, float(eliminate(bn, merged)))


def chain_joint_bounds(
    bn: BayesianNetwork, e, a, extra=None, k: int = DEFAULT_K, iters: int = DEFAULT_MAX_ITERS
) -> tuple[float, float]:
    """The abdp bounder's joint interval on P(a ∪ extra, e) for an
    assignment given as a dict or pairs, tabled as a partial tuple of its
    own variables."""
    merged, conflict = merge_assignment({}, _as_pairs(a), extra)
    if conflict:
        return 0.0, 0.0
    bounder = ChainPropagationBounder(bn, e, tuple(merged), k=k, iters=iters)
    return bounder.tuple_tables(tuple(merged.items())).joint


def prior_mass_closed_interval(inputs, var: int, value: int):
    """Closed-form marginal interval using only S, S_x and the prior
    remainder R: [S_x/(S+R), (S_x+R)/(S+R)]. What the generic assembly
    reduces to under the prior-mass bounder."""
    s_val = float(inputs.active_mass[var][value])
    den = inputs.s + inputs.r
    if den <= 0.0:
        return 0.0, 1.0
    return s_val / den, (s_val + inputs.r) / den


# ---------------------------------------------------------------------------
# exact plug-in double for assembly arithmetic tests

class ExactBounder(JointBounder):
    """Plug-in returning exact values as point intervals (arithmetic oracle)."""

    name = "exact"

    def _tables(self, fresh, loaded):
        return [self._exact(dict(partial)) for partial in fresh]

    def _exact(self, partial: dict) -> PartialTupleBounds:
        assigned = dict(self.e)
        assigned.update(partial)
        prior = brute_event_mass(self.bn, partial) if partial else 1.0
        mass = brute_event_mass(self.bn, assigned)
        exact, var_prior = np.zeros(self.width), {}
        cset = set(self.cutset_vars)
        for v in self._free_vars(partial):
            card = self.bn.cards[v]
            exact[self.cells[v]] = [
                brute_event_mass(self.bn, {**assigned, v: x}) for x in range(card)
            ]
            if v in cset:
                var_prior[v] = np.array(
                    [brute_event_mass(self.bn, {**partial, v: x}) for x in range(card)]
                )
        return PartialTupleBounds(
            prior=prior,
            joint=(mass, mass),
            low=exact,
            high=exact,
            var_prior=var_prior,
            cost=1,
        )


# ---------------------------------------------------------------------------
# the randomized acceptance suite, built once per session

class SuiteCase:
    __slots__ = ("bn", "e", "cutset", "m", "pe", "posteriors", "active_full")

    def __init__(self, bn, e, cutset, pe, posteriors, active_full):
        self.bn = bn
        self.e = e
        self.cutset = cutset
        self.m = cutset.n_tuples
        self.pe = pe
        self.posteriors = posteriors
        self.active_full = active_full


def _build_suite(count: int = 200, seed: int = 20240817) -> list[SuiteCase]:
    rng = np.random.default_rng(seed)
    cases: list[SuiteCase] = []
    attempts = 0
    while len(cases) < count:
        attempts += 1
        if attempts > count * 60:
            raise RuntimeError("suite generation stalled")
        bn = random_network(rng, zero_rows=attempts % 7 == 0)
        e = random_evidence(rng, bn)
        cutset = find_loop_cutset(bn, exclude=frozenset(e)).with_cards(bn)
        m = cutset.n_tuples
        cap = 40 if len(cases) % 10 == 0 else 18
        if not cutset.vars or m > cap:
            continue
        pe, tables = enumerate_oracle(bn, e)
        if pe <= 1e-9:
            continue
        active_full = select_tuples_gibbs(bn, e, cutset, m)
        cases.append(SuiteCase(bn, e, cutset, pe, tables, active_full))
    return cases


_SUITE_CACHE: list[SuiteCase] | None = None


@pytest.fixture(scope="session")
def acceptance_suite() -> list[SuiteCase]:
    global _SUITE_CACHE
    if _SUITE_CACHE is None:
        _SUITE_CACHE = _build_suite()
    return _SUITE_CACHE


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
