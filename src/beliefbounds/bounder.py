"""Plug-in bounders for joint probabilities of partial assignments.

Two implementations of the same contract:

* ``PriorMassBounder`` ("bf"): lower 0, upper = exact prior mass of the
  assignment. Trivially sound, extremely cheap.
* ``ChainPropagationBounder`` ("abdp"): bounds each evidence conditional in
  the chain factorization P(a, e) = prod_j P(e_j | e_<j, a) * P(a) by
  iterative bound propagation (per-variable linear programs over Markov
  boundary configurations, solved by a sound greedy relaxation), and always
  intersects with the prior-mass interval so it can only be tighter.

Both also produce batched per-tuple tables for the engine: one joint interval
plus two rows, over one cell layout the bounder owns, that bound
P(x, partial, e) for every value x of every still-free variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eliminate stays a module attribute: pipebench/tracing.py wraps bounder.eliminate
from .exact import ScopeCapError, eliminate, eliminate_marginals  # noqa: F401
from .model import BayesianNetwork, Evidence, PartialAssignment, ancestors_of, held_bytes

DEFAULT_K = 2**10
DEFAULT_MAX_ITERS = 50
DEFAULT_TOL = 1e-6


@dataclass
class MarginalBounds:
    """Per-variable, per-value intervals on P(x | e)."""

    lows: dict[int, np.ndarray]
    highs: dict[int, np.ndarray]
    iterations: int = 0
    skipped: frozenset[int] = frozenset()

    def interval(self, var: int, value: int) -> tuple[float, float]:
        return float(self.lows[var][value]), float(self.highs[var][value])


@dataclass
class BlanketLp:
    """One per-variable optimization: extremize sum_b P(x|b) q(b) over
    boundary-configuration distributions q consistent with the current
    per-member marginal intervals.

    ``members`` holds, per unobserved boundary variable: (variable id,
    value-per-config column, lower bounds per value, upper bounds per value).
    Observed boundary members are pinned inside the coefficients.
    """

    query: tuple[int, int]
    coeffs: np.ndarray
    members: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]


def _empty_groups(col: np.ndarray, d: int) -> np.ndarray | None:
    """Mask of the values no boundary configuration takes (None if none)."""
    empty = np.bincount(col, minlength=d) == 0
    return empty if empty.any() else None


def _member_table(coeffs: np.ndarray, col: np.ndarray, d: int, empty, maximize: bool):
    """Greedy table of one member for one coefficient vector and sense.

    Within a value group all mass may sit on the best configuration, so only
    the per-group best coefficient matters (0 for empty groups). Returns that
    array and the (group, best) steps in stable pouring order, best first,
    empty groups left out. Depends only on the boundary structure.
    """
    best = np.full(d, -np.inf if maximize else np.inf)
    if maximize:
        np.maximum.at(best, col, coeffs)
    else:
        np.minimum.at(best, col, coeffs)
    if empty is not None:
        best[empty] = 0.0
    order = np.argsort(-best if maximize else best, kind="stable").tolist()
    steps = tuple(
        (g, float(best[g])) for g in order if empty is None or not empty[g]
    )
    return best, steps


def _member_state(lows: np.ndarray, highs: np.ndarray, empty):
    """Clipped lower bounds, upper caps and remaining mass of one member's
    intervals, shared by every query value and both senses. None when this
    member's constraints alone are infeasible (then the full LP is too)."""
    if np.any(highs < lows - 1e-15):
        return None
    clipped = np.clip(lows, 0.0, 1.0)
    tops = np.clip(highs, 0.0, 1.0)
    if empty is not None:
        if np.any(lows[empty] > 1e-15):
            return None  # mandatory mass in a value no configuration provides
        clipped[empty] = 0.0
        tops[empty] = 0.0
    rem = 1.0 - math.fsum(clipped.tolist())
    if rem < -1e-12:
        return None
    caps = np.clip(tops - clipped, 0.0, None).tolist()
    return clipped, caps, max(rem, 0.0)


def _single_member_opt(state, table):
    """Exact optimum of the relaxation keeping only one member's constraints.

    The relaxation reduces to a fractional allocation over value groups:
    mandatory lower-bound mass first, then the remainder poured greedily
    under the upper caps. ``state`` comes from ``_member_state`` and
    ``table`` from ``_member_table``. Returns None when the caps cannot hold
    the remainder (the full LP is infeasible then).
    """
    lows, caps, rem = state
    best, steps = table
    # np.dot, not a Python sum: BLAS may fuse multiply-adds, and the bounds
    # are kept bit for bit
    value = float(np.dot(lows, best))
    for g, b in steps:
        if rem <= 0.0:
            break
        take = min(rem, caps[g])
        value += take * b
        rem -= take
    if rem > 1e-9:
        return None  # sum of upper caps below 1: infeasible
    return value


def _greedy_optimum(states, tables, fallback: float, maximize: bool) -> float:
    """Tightest single-member optimum over the feasible members, else
    ``fallback`` (the coefficient extreme)."""
    candidates = []
    for state, table in zip(states, tables):
        if state is not None:
            opt = _single_member_opt(state, table)
            if opt is not None:
                candidates.append(opt)
    if not candidates:
        return fallback
    return min(candidates) if maximize else max(candidates)


def solve_blanket_lp_greedy(lp: BlanketLp, sense: str) -> float:
    """Sound greedy relaxation: never below the exact max / above the exact min.

    Takes the best (tightest) single-member relaxation; every such optimum
    brackets the exact one from the safe side, so does their min/max. With no
    members (or all infeasible, which implies the exact LP is infeasible) the
    coefficient extremes are returned.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be min or max, got {sense!r}")
    maximize = sense == "max"
    states, tables = [], []
    for _var, col, lows, highs in lp.members:
        empty = _empty_groups(col, len(lows))
        states.append(_member_state(lows, highs, empty))
        tables.append(_member_table(lp.coeffs, col, len(lows), empty, maximize))
    fallback = float(lp.coeffs.max()) if maximize else float(lp.coeffs.min())
    return _greedy_optimum(states, tables, fallback, maximize)


# ---------------------------------------------------------------------------
# bound propagation

def _boundary_structure(
    bn: BayesianNetwork, x: int, kids: tuple[int, ...], e: Evidence, k: int
):
    """Boundary, config columns, coefficients and greedy tables of x.

    ``kids`` are the children of x that stay after barren-descendant pruning.
    Nothing else of ``e`` matters than the values of the observed boundary
    members, so the cache key holds only those: chain steps and partial
    tuples that differ elsewhere share the entry.
    """
    boundary: set[int] = set(bn.parents(x))
    for c in kids:
        boundary.add(c)
        boundary.update(bn.parents(c))
    boundary.discard(x)
    observed = tuple((v, e[v]) for v in sorted(boundary) if v in e)
    key = ("bdp-var", x, kids, observed, k)
    hit = bn._cache.get(key)
    if hit is not None:
        return hit
    domain = math.prod(bn.cards[v] for v in boundary) if boundary else 1
    if domain > k:
        out = {"skip": True}
        bn._cache.put(key, out, held_bytes([]))
        return out

    unobs = tuple(sorted(v for v in boundary if v not in e))
    n_configs = math.prod(bn.cards[v] for v in unobs) if unobs else 1
    cols: dict[int, np.ndarray] = {}
    suffix = n_configs
    base = np.arange(n_configs, dtype=np.int64)
    for v in unobs:
        suffix //= bn.cards[v]
        cols[v] = (base // suffix) % bn.cards[v]

    card_x = bn.cards[x]

    def value_of(v):
        # returns an array broadcastable over (configs, x values)
        if v == x:
            return np.arange(card_x, dtype=np.int64)[None, :]
        if v in e:
            return np.full((1, 1), e[v], dtype=np.int64)
        return cols[v][:, None]

    scores = np.ones((n_configs, card_x))
    for fam in (x,) + kids:
        cpt = bn.cpts[fam]
        strides = {}
        acc = 1
        scope = cpt.parents + (cpt.child,)
        for v in reversed(scope):
            strides[v] = acc
            acc *= bn.cards[v]
        idx = np.zeros((1, 1), dtype=np.int64)
        for v in scope:
            idx = idx + strides[v] * value_of(v)
        scores = scores * cpt.table.reshape(-1)[idx]
    denom = scores.sum(axis=1)
    coeffs = np.divide(
        scores, denom[:, None], out=np.zeros_like(scores), where=denom[:, None] > 0.0
    )

    # configurations enumerate every value of every member: no empty groups
    def member_tables(c, maximize):
        return tuple(_member_table(c, cols[u], bn.cards[u], None, maximize) for u in unobs)

    # per query value: min fallback and tables, max fallback and tables
    tables = [
        (float(c.min()), member_tables(c, False), float(c.max()), member_tables(c, True))
        for c in coeffs.T
    ]
    out = {
        "skip": False,
        "unobs": unobs,
        "cols": cols,
        "coeffs": coeffs,
        "tables": tables,
    }
    arrays = [coeffs, *cols.values()]
    arrays += [best for c in tables for side in (c[1], c[3]) for best, _ in side]
    bn._cache.put(key, out, held_bytes(arrays))
    return out


def _greedy_bounds(st: dict, states: dict, lows: dict, highs: dict):
    """(min, max) of every query value's greedy relaxation. ``states`` holds
    each member's ``_member_state`` at its current interval; missing ones are
    computed here and then serve every value, both senses, and every other
    variable with that member until its interval is next updated."""
    member_states = []
    for u in st["unobs"]:
        if u not in states:
            states[u] = _member_state(lows[u], highs[u], None)
        member_states.append(states[u])
    return [
        (_greedy_optimum(member_states, min_tabs, min_fb, False),
         _greedy_optimum(member_states, max_tabs, max_fb, True))
        for min_fb, min_tabs, max_fb, max_tabs in st["tables"]
    ]


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def propagate_marginal_bounds(
    bn: BayesianNetwork,
    e: Evidence,
    k: int = DEFAULT_K,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> MarginalBounds:
    """Iterative marginal bounding by per-variable boundary LPs.

    Every unobserved variable starts at [0, 1]; sweeps in topological order
    re-solve each variable's LP against the current intervals of its Markov
    boundary (restricted to the variable's relevant subnetwork) and intersect,
    so intervals never widen. Variables whose full boundary domain exceeds
    ``k`` are skipped and keep [0, 1]. Observed variables are pinned to their
    indicator. ``k < 0`` or ``max_iters < 1`` raises ``ValueError``.
    """
    _at_least("k", k, 0)
    _at_least("max_iters", max_iters, 1)
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
        structures[v] = _boundary_structure(bn, v, kids, e, k)
    skipped = {v for v in sweep_vars if structures[v]["skip"]}

    states: dict = {}
    iters = 0
    for _ in range(max_iters):
        iters += 1
        delta = 0.0
        for v in sweep_vars:
            st = structures[v]
            if st["skip"]:
                continue
            lv, hv = lows[v], highs[v]
            for val, (lo, hi) in enumerate(_greedy_bounds(st, states, lows, highs)):
                new_lo = min(max(lv[val], lo), hv[val])
                new_hi = max(min(hv[val], hi), new_lo)
                delta = max(delta, new_lo - lv[val], hv[val] - new_hi)
                lv[val] = new_lo
                hv[val] = new_hi
            states.pop(v, None)
        if delta <= tol:
            break
    return MarginalBounds(lows=lows, highs=highs, iterations=iters, skipped=frozenset(skipped))


# ---------------------------------------------------------------------------
# joint-probability bounds

def _chain_bounds(bn, e, merged: dict, prior: float, k, iters):
    """Bound P(merged, e) by the evidence-chain factorization, given the
    prior mass P(merged) of a conflict-free assignment.

    Evidence conditionals are taken in topological order (earlier factors see
    smaller relevant subnetworks). Each factor's interval comes from bound
    propagation on the network conditioned on everything to its left.
    The result is intersected with the prior-mass interval, so it degrades to
    that bound instead of ever being worse.
    """
    for var, val in merged.items():
        if var in e and e[var] != val:
            return 0.0, 0.0
    bf_hi = min(1.0, prior)
    lo_prod, hi_prod = 1.0, 1.0
    ctx = dict(merged)
    for ev_var in (v for v in bn.topo_order if v in e and v not in merged):
        mb = propagate_marginal_bounds(bn, ctx, k=k, max_iters=iters)
        l, u = mb.interval(ev_var, e[ev_var])
        lo_prod *= max(0.0, l)
        hi_prod *= min(1.0, u)
        ctx[ev_var] = e[ev_var]
        if hi_prod == 0.0:
            break
    lo = max(0.0, lo_prod * prior)
    hi = min(bf_hi, hi_prod * prior)
    return min(lo, hi), hi


# ---------------------------------------------------------------------------
# engine plug-ins

@dataclass
class PartialTupleBounds:
    """Batched bounder output for one partial tuple.

    ``low`` and ``high`` are rows over the bounder's cell layout (see
    ``JointBounder``): ``low[cells[v]][x]``/``high[cells[v]][x]`` bound
    P(v=x, partial, e) for every variable v the partial leaves free. The
    cells of the variables the partial pins are never read. ``joint`` bounds
    P(partial, e); ``prior`` is the exact prior mass of the partial and
    ``var_prior[v]`` the exact prior of each one-variable cutset extension
    (the bounders cap ``high`` with it). The engine only reads the rows, so
    they may be read-only and shared between partials: the bf bounder's are.
    """

    prior: float
    joint: tuple[float, float]
    low: np.ndarray
    high: np.ndarray
    var_prior: dict[int, np.ndarray]
    cost: int


class JointBounder:
    """Contract: ``tuple_tables`` gives sound bounds on the joints of a
    partial cutset tuple with the evidence (see ``PartialTupleBounds``).

    ``cells[v]`` is the slice of variable v's values in every ``low``/``high``
    row, and ``width`` the length of a row: one cell per (unobserved
    variable, value), variable-major in variable id order.
    """

    name = "?"

    def __init__(self, bn: BayesianNetwork, e: Evidence, cutset_vars: tuple[int, ...]):
        self.bn = bn
        self.e = dict(e)
        self.cutset_vars = tuple(cutset_vars)
        self.invocations = 0
        self._memo: dict = {}
        self._priors: dict = {}  # loaded by tables_for, taken by _tables
        self.cells: dict[int, slice] = {}
        width = 0
        for v in self._free_vars({}):
            self.cells[v] = slice(width, width + bn.cards[v])
            width += bn.cards[v]
        self.width = width
        self._zeros = np.zeros(width)
        self._zeros.flags.writeable = False

    def _free_vars(self, assigned: dict) -> list[int]:
        return [
            v for v in range(self.bn.n) if v not in self.e and v not in assigned
        ]

    def _row(self, tables: dict[int, np.ndarray]) -> np.ndarray:
        """One row from per-variable arrays, one for every cell variable."""
        row = np.empty(self.width)
        for v, sl in self.cells.items():
            row[sl] = tables[v]
        return row

    def tuple_tables(self, partial: PartialAssignment) -> PartialTupleBounds:
        """Memoized batched tables: each distinct partial is computed and
        counted once."""
        key = tuple(partial)
        hit = self._memo.get(key)
        if hit is None:
            if key not in self._priors:  # asked for alone: load its priors
                return self.tables_for([key])[0][0]
            hit = self._tables(dict(partial))
            self._memo[key] = hit
            self.invocations += hit.cost
        return hit

    def tables_for(self, partials, tuples=()) -> tuple[tuple[PartialTupleBounds, ...], list[float]]:
        """(``tuple_tables`` of every partial, the prior of every full cutset
        tuple in ``tuples``). The priors of the full tuples and of the
        partials not yet tabled come from one batched pass (split by depth
        on large networks, see ``_priors_of``)."""
        keys = [tuple(p) for p in partials]
        fresh = list(dict.fromkeys(k for k in keys if k not in self._memo))
        rows = fresh + [tuple(zip(self.cutset_vars, t)) for t in tuples]
        loaded = self._load_priors(rows)
        self._priors.update(zip(fresh, loaded))
        try:
            tables = tuple(self.tuple_tables(k) for k in keys)
        finally:
            self._priors.clear()
        return tables, [prior for prior, _ in loaded[len(fresh):]]

    def _load_priors(self, rows) -> list[tuple[float, dict[int, np.ndarray]]]:
        """(P(row), {free cutset var v: P(row, v=x) per x}) of every row, a
        partial or full cutset tuple as (variable, value) pairs."""
        if not rows:
            return []
        pos = {v: k for k, v in enumerate(self.cutset_vars)}
        pins = np.full((len(rows), len(pos)), -1, dtype=np.int64)
        for i, pairs in enumerate(rows):
            for v, x in pairs:
                pins[i, pos[v]] = x
        return self._priors_of(pins)

    def _priors_of(self, pins: np.ndarray) -> list[tuple[float, dict[int, np.ndarray]]]:
        """``_load_priors`` of rows of cutset values, -1 where free, in one
        bucket-tree pass: the variables every row pins are sliced, the
        others that a row pins get indicator leaves. A pass that would
        compute more than ``exact.INDICATED_WORK_CAP`` entries is split in
        two halves of the rows' pinned sets (by depth, for prefixes), down
        to rows that all pin the same variables."""
        pinned = pins >= 0
        every, some = pinned.all(axis=0), pinned.any(axis=0)
        cut = self.cutset_vars
        indicated = [v for k, v in enumerate(cut) if some[k] and not every[k]]
        wanted = [(k, v) for k, v in enumerate(cut) if not every[k] and v not in self.e]
        try:
            assign = {v: pins[:, k] for k, v in enumerate(cut) if some[k]}
            total, beliefs = eliminate_marginals(self.bn, assign, [v for _, v in wanted], indicated)
        except ScopeCapError:
            if not indicated:
                raise
            sets, which = np.unique(pinned, axis=0, return_inverse=True)
            low = which.reshape(-1) < len(sets) // 2
            out: list = [None] * len(pins)
            for part in (low, ~low):
                for i, loaded in zip(np.flatnonzero(part), self._priors_of(pins[part])):
                    out[i] = loaded
            return out
        n = len(pins)
        ext = {v: np.broadcast_to(beliefs[v], (n, self.bn.cards[v])) for _, v in wanted}
        return [
            (prior, {v: ext[v][j] for k, v in wanted if not pinned[j, k]})
            for j, prior in enumerate(np.broadcast_to(total, (n,)).tolist())
        ]

    def _tables(self, partial: dict) -> PartialTupleBounds:
        raise NotImplementedError


class PriorMassBounder(JointBounder):
    """Its rows are read-only: ``low`` is one zeros row that all partials
    share."""

    name = "bf"

    def _tables(self, partial: dict) -> PartialTupleBounds:
        prior, var_prior = self._priors[tuple(partial.items())]
        # the tuple's own prior mass caps every value; a free cutset variable
        # is capped by its extension priors, exact priors of (partial + {v=x})
        high = np.full(self.width, min(prior, 1.0))
        for v, ext in var_prior.items():
            np.minimum(ext, 1.0, out=high[self.cells[v]])
        high.flags.writeable = False
        return PartialTupleBounds(
            prior=prior,
            joint=(0.0, min(prior, 1.0)),
            low=self._zeros,
            high=high,
            var_prior=var_prior,
            cost=1,
        )


class ChainPropagationBounder(JointBounder):
    name = "abdp"

    def __init__(
        self,
        bn: BayesianNetwork,
        e: Evidence,
        cutset_vars: tuple[int, ...],
        k: int = DEFAULT_K,
        iters: int = DEFAULT_MAX_ITERS,
    ):
        super().__init__(bn, e, cutset_vars)
        self.k = k
        self.iters = iters

    def _tables(self, partial: dict) -> PartialTupleBounds:
        prior, var_prior = self._priors[tuple(partial.items())]
        if prior == 0.0:
            return PartialTupleBounds(
                prior=0.0,
                joint=(0.0, 0.0),
                low=self._zeros,
                high=self._zeros,
                var_prior=var_prior,
                cost=0,
            )
        jl, jh = _chain_bounds(self.bn, self.e, partial, prior, self.k, self.iters)
        cond = dict(self.e)
        cond.update(partial)
        mb = propagate_marginal_bounds(self.bn, cond, k=self.k, max_iters=self.iters)
        # the prior caps every value, a free cutset variable's extension
        # priors cap its own
        cap = np.full(self.width, prior)
        for v, ext in var_prior.items():
            cap[self.cells[v]] = ext
        high = np.minimum(self._row(mb.highs) * jh, cap)
        return PartialTupleBounds(
            prior=prior,
            joint=(jl, jh),
            low=np.minimum(self._row(mb.lows) * jl, high),
            high=high,
            var_prior=var_prior,
            cost=2,
        )


def make_bounder(
    kind: str,
    bn: BayesianNetwork,
    e: Evidence,
    cutset_vars: tuple[int, ...],
    k: int = DEFAULT_K,
    iters: int = DEFAULT_MAX_ITERS,
) -> JointBounder:
    """The plug-in bounder of the given kind. ``k < 0`` or ``iters < 1``
    raises ``ValueError`` for either kind."""
    _at_least("k", k, 0)
    _at_least("iters", iters, 1)
    if kind == "bf":
        return PriorMassBounder(bn, e, cutset_vars)
    if kind == "abdp":
        return ChainPropagationBounder(bn, e, cutset_vars, k=k, iters=iters)
    raise ValueError(f"unknown bounder kind {kind!r} (expected 'bf' or 'abdp')")
