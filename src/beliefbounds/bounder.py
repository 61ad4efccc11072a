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
plus, for every still-free variable, bounds on P(value, partial, e) for all
its values at once — two plug-in invocations per partial tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eliminate stays a module attribute: pipebench/tracing.py wraps bounder.eliminate
from .exact import eliminate, eliminate_marginals  # noqa: F401
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
    indicator.
    """
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
    for _ in range(max(1, max_iters)):
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

    ``var_low[v][x]``/``var_high[v][x]`` bound P(x, partial, e) for every
    still-free variable v; ``joint`` bounds P(partial, e); ``prior`` is the
    exact prior mass of the partial and ``var_prior[v]`` the exact prior of
    each one-variable cutset extension (the bounders cap ``var_high`` with it).
    """

    prior: float
    joint: tuple[float, float]
    var_low: dict[int, np.ndarray]
    var_high: dict[int, np.ndarray]
    var_prior: dict[int, np.ndarray]
    cost: int


class JointBounder:
    """Contract: ``tuple_tables`` gives sound bounds on the joints of a
    partial cutset tuple with the evidence (see ``PartialTupleBounds``)."""

    name = "?"

    def __init__(self, bn: BayesianNetwork, e: Evidence, cutset_vars: tuple[int, ...]):
        self.bn = bn
        self.e = dict(e)
        self.cutset_vars = tuple(cutset_vars)
        self.invocations = 0
        self._memo: dict = {}
        self._priors: dict = {}  # loaded by tables_for, taken by _tables

    def _free_vars(self, assigned: dict) -> list[int]:
        return [
            v for v in range(self.bn.n) if v not in self.e and v not in assigned
        ]

    def tuple_tables(self, partial: PartialAssignment) -> PartialTupleBounds:
        """Memoized batched tables: each distinct partial is computed and
        counted once."""
        key = tuple(partial)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._tables(dict(partial))
            self._memo[key] = hit
            self.invocations += hit.cost
        return hit

    def tables_for(self, partials) -> tuple[PartialTupleBounds, ...]:
        """``tuple_tables`` of every partial. The priors of those not yet
        tabled are eliminated first, batched over partials that assign the
        same variables."""
        keys = [tuple(p) for p in partials]
        self._load_priors([k for k in keys if k not in self._memo])
        try:
            return tuple(self.tuple_tables(k) for k in keys)
        finally:
            self._priors.clear()

    def _load_priors(self, partials) -> None:
        """Exact prior of each partial and of its one-variable cutset
        extensions: one bucket-tree pass per set of assigned variables."""
        groups: dict[tuple[int, ...], dict] = {}
        for pairs in partials:
            assigned = dict(pairs)
            groups.setdefault(tuple(assigned), {})[tuple(assigned.items())] = assigned
        cset = set(self.cutset_vars)
        for avars, members in groups.items():
            n = len(members)
            rows = list(members.values())
            batch = {v: np.array([a[v] for a in rows], dtype=np.int64) for v in avars}
            wanted = [v for v in self._free_vars(rows[0]) if v in cset]
            total, beliefs = eliminate_marginals(self.bn, batch, wanted)
            priors = total.reshape(n).tolist()
            ext = {v: beliefs[v].reshape(n, self.bn.cards[v]) for v in wanted}
            for i, key in enumerate(members):
                self._priors[key] = (priors[i], {v: t[i] for v, t in ext.items()})

    def _prior_tables(self, partial: dict) -> tuple[float, dict[int, np.ndarray]]:
        """(P(partial), {free cutset var: P(partial, var=value) per value})."""
        key = tuple(partial.items())
        if key not in self._priors:
            self._load_priors([key])
        return self._priors.pop(key)

    def _tables(self, partial: dict) -> PartialTupleBounds:
        raise NotImplementedError


class PriorMassBounder(JointBounder):
    name = "bf"

    def _tables(self, partial: dict) -> PartialTupleBounds:
        # extension priors: exact prior of (partial + {v=value})
        prior, var_prior = self._prior_tables(partial)
        var_low: dict[int, np.ndarray] = {}
        var_high: dict[int, np.ndarray] = {}
        for v in self._free_vars(partial):
            card = self.bn.cards[v]
            var_low[v] = np.zeros(card)
            if v in var_prior:
                var_high[v] = np.minimum(var_prior[v], 1.0)
            else:
                # value-independent prior mass of the tuple itself
                var_high[v] = np.full(card, min(prior, 1.0))
        return PartialTupleBounds(
            prior=prior,
            joint=(0.0, min(prior, 1.0)),
            var_low=var_low,
            var_high=var_high,
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
        prior, var_prior = self._prior_tables(partial)
        free = self._free_vars(partial)
        if prior == 0.0:
            zeros = {v: np.zeros(self.bn.cards[v]) for v in free}
            return PartialTupleBounds(
                prior=0.0,
                joint=(0.0, 0.0),
                var_low=zeros,
                var_high={v: z.copy() for v, z in zeros.items()},
                var_prior=var_prior,
                cost=0,
            )
        jl, jh = _chain_bounds(self.bn, self.e, partial, prior, self.k, self.iters)
        cond = dict(self.e)
        cond.update(partial)
        mb = propagate_marginal_bounds(self.bn, cond, k=self.k, max_iters=self.iters)
        var_low: dict[int, np.ndarray] = {}
        var_high: dict[int, np.ndarray] = {}
        for v in free:
            lo = mb.lows[v] * jl
            hi = mb.highs[v] * jh
            if v in var_prior:
                hi = np.minimum(hi, var_prior[v])
            else:
                hi = np.minimum(hi, prior)
            var_low[v] = np.minimum(lo, hi)
            var_high[v] = hi
        return PartialTupleBounds(
            prior=prior,
            joint=(jl, jh),
            var_low=var_low,
            var_high=var_high,
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
    if kind == "bf":
        return PriorMassBounder(bn, e, cutset_vars)
    if kind == "abdp":
        return ChainPropagationBounder(bn, e, cutset_vars, k=k, iters=iters)
    raise ValueError(f"unknown bounder kind {kind!r} (expected 'bf' or 'abdp')")
