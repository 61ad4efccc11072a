"""Plug-in bounders for joint probabilities of partial assignments.

Two implementations of the same contract:

* ``PriorMassBounder`` ("bf"): lower 0, upper = exact prior mass of the
  assignment. Trivially sound, extremely cheap.
* ``ChainPropagationBounder`` ("abdp"): bounds each evidence conditional in
  the chain factorization P(a, e) = prod_j P(e_j | e_<j, a) * P(a) by
  iterative bound propagation (per-variable linear programs over Markov
  boundary configurations, solved by a sound greedy relaxation), and always
  intersects with the prior-mass interval so it can only be tighter. The
  contexts of a ``tables_for`` call propagate in lock-step, up to
  ``PROPAGATE_CHUNK`` at a time: one array update per variable and sweep,
  from tables cached per boundary structure as arrays.

Both also produce batched per-tuple tables for the engine: one joint interval
plus two rows, over one cell layout the bounder owns, that bound
P(x, partial, e) for every value x of every still-free variable. One prior
pass gives both bounders each partial's prior and its cap row: P(partial)
in every cell, and the extension prior P(partial, v=x) in the cells of a
cutset variable v that the partial leaves free. bf's high row is the cap row
clipped to 1; abdp's is its propagated row, capped by it.
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
#: Propagation stops after a sweep that moves no bound by more than this.
DEFAULT_TOL = 1e-6
#: Contexts propagated together. A chunk's per-variable plans are held at
#: once, ~28 KB a context on 7x7 grids.
PROPAGATE_CHUNK = 128


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


def _single_member_opt(state, table):
    """Exact optimum of the relaxation keeping only one member's constraints.

    The relaxation reduces to a fractional allocation over value groups:
    mandatory lower-bound mass first, then the remainder poured greedily
    under the upper caps. ``state`` holds the member's clipped lower bounds,
    caps and remaining mass, ``table`` its best coefficient per group and
    the (group, best) steps in pouring order. Returns None when the caps
    cannot hold the remainder (the full LP is infeasible then).
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


def solve_blanket_lp_greedy(lp: BlanketLp, sense: str) -> float:
    """Sound greedy relaxation: never below the exact max / above the exact min.

    Takes the best (tightest) single-member relaxation; every such optimum
    brackets the exact one from the safe side, so does their min/max. With no
    members (or all infeasible, which implies the exact LP is infeasible) the
    coefficient extremes are returned. Within a value group all mass may sit
    on the best configuration, so only the per-group best coefficient matters
    (0 for a value no configuration takes). Propagation solves its LPs as
    arrays with the same floats (``_blanket_bounds``).
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be min or max, got {sense!r}")
    maximize = sense == "max"
    candidates = []
    for _var, col, lows, highs in lp.members:
        empty = np.bincount(col, minlength=len(lows)) == 0
        # a member whose constraints alone are infeasible makes the LP so
        if np.any(highs < lows - 1e-15) or np.any(lows[empty] > 1e-15):
            continue
        best = np.full(len(lows), -np.inf if maximize else np.inf)
        (np.maximum if maximize else np.minimum).at(best, col, lp.coeffs)
        best[empty] = 0.0
        order = np.argsort(-best if maximize else best, kind="stable").tolist()
        steps = [(g, float(best[g])) for g in order if not empty[g]]
        clipped = np.where(empty, 0.0, np.clip(lows, 0.0, 1.0))
        tops = np.where(empty, 0.0, np.clip(highs, 0.0, 1.0))
        rem = 1.0 - math.fsum(clipped.tolist())
        if rem < -1e-12:
            continue
        caps = np.clip(tops - clipped, 0.0, None).tolist()
        opt = _single_member_opt((clipped, caps, max(rem, 0.0)), (best, steps))
        if opt is not None:
            candidates.append(opt)
    if not candidates:
        return float(lp.coeffs.max()) if maximize else float(lp.coeffs.min())
    return min(candidates) if maximize else max(candidates)


# ---------------------------------------------------------------------------
# bound propagation

def _blanket_coeffs(bn: BayesianNetwork, x: int, kids: tuple[int, ...], e: Evidence, unobs):
    """P(x | boundary configuration) over a grid with one axis per member of
    ``unobs`` (the unobserved boundary), then x's values. ``kids`` are the
    children of x that stay after barren-descendant pruning."""
    axes = unobs + (x,)
    scores = np.ones([bn.cards[v] for v in axes])
    for fam in (x,) + kids:
        cpt = bn.cpts[fam]
        idx = np.zeros([1] * len(axes), dtype=np.int64)  # into the flat CPT, over the grid
        for v in cpt.parents + (cpt.child,):
            shape = [-1 if u == v else 1 for u in axes]
            idx = idx * bn.cards[v] + (e[v] if v in e else np.arange(bn.cards[v]).reshape(shape))
        scores = scores * cpt.table.reshape(-1)[idx]
    denom = scores.sum(axis=-1, keepdims=True)
    return np.divide(scores, denom, out=np.zeros_like(scores), where=denom > 0.0)


#: Per sense (0 the min, 1 the max): the sign that a coefficient sorts by in
#: the pouring order (x * -1.0 is -x), and the optimum of a row without a
#: feasible member until its fallback replaces it.
_SENSE = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)
_NONE = np.array([-np.inf, np.inf]).reshape(2, 1, 1)


def _boundary_structure(bn: BayesianNetwork, x: int, kids: tuple[int, ...], e: Evidence, k: int):
    """x's greedy LP tables as arrays: ``()`` when the full boundary domain
    exceeds ``k`` (x is skipped), else (members, fallback, best, order):
    the unobserved boundary variables in id order; ``fallback[sense, value]``,
    the coefficient extremes (sense 0 the min, 1 the max);
    ``best[sense, value, member, group]``, the extreme coefficient among the
    configurations giving the member that value, padded with infinities
    past a member's card; each member's groups in stable pouring order.

    Nothing else of ``e`` matters than the values of the observed boundary
    members, so the cache key holds only those: chain steps and partial
    tuples that differ elsewhere share the entry.
    """
    boundary = set(bn.parents(x)).union(kids, *(bn.parents(c) for c in kids)) - {x}
    observed = tuple((v, e[v]) for v in sorted(boundary) if v in e)
    key = ("bdp-var", x, kids, observed, k)
    hit = bn._cache.get(key)
    if hit is not None:
        return hit
    out: tuple = ()
    if math.prod(bn.cards[v] for v in boundary) <= k:
        unobs = tuple(sorted(boundary - set(e)))
        grid = _blanket_coeffs(bn, x, kids, e, unobs)
        cards = grid.shape[:-1]
        # every configuration exists, so no group is empty, and a member's
        # best is an exact min or max over the other members' axes
        best = np.empty((2, grid.shape[-1], len(cards), max(cards, default=1)))
        best[0], best[1] = np.inf, -np.inf  # the padding, sorted last
        for m, card in enumerate(cards):
            others = tuple(a for a in range(len(cards)) if a != m)
            best[:, :, m, :card] = grid.min(axis=others).T, grid.max(axis=others).T
        order = np.argsort(best * _SENSE, axis=-1, kind="stable")
        flat = grid.reshape(-1, grid.shape[-1])
        fallback = np.stack([flat.min(axis=0), flat.max(axis=0)])
        out = (np.array(unobs, dtype=np.int64), fallback, best, order)
    bn._cache.put(key, out, held_bytes(list(out)))
    return out


def _plan(bn: BayesianNetwork, x: int, rows, structs, starts: np.ndarray, width: int):
    """x's update in the contexts ``rows`` with structures ``structs``: (rows,
    x's cells, fallback, blocks), cells indexing the flattened contexts ×
    cells intervals. Per member card d, a block over rows × members (the
    member axis padded with masked members): member cells, member mask,
    best, the caps' gather in pouring order, best in pouring order."""
    rows = np.asarray(rows, dtype=np.int64)
    slot: dict = {}
    which = [slot.setdefault(id(st), len(slot)) for st in structs]
    distinct = list({id(st): st for st in structs}.values())
    cards = np.asarray(bn.cards)
    blocks = []
    for d in sorted({int(cards[u]) for st in distinct for u in st[0]}):
        picks = [cards[st[0]] == d for st in distinct]
        n_mem = max(int(p.sum()) for p in picks)
        member = np.zeros((len(distinct), n_mem), dtype=bool)
        first = np.zeros((len(distinct), n_mem), dtype=np.int64)
        best = np.zeros((len(distinct), 2, bn.cards[x], n_mem, d))
        order = np.zeros(best.shape, dtype=np.int64)
        for i, (st, pick) in enumerate(zip(distinct, picks)):
            n = int(pick.sum())
            if n:
                member[i, :n] = True
                first[i, :n] = starts[st[0][pick]]
                best[i, :, :, :n] = st[2][:, :, pick, :d]
                order[i, :, :, :n] = st[3][:, :, pick, :d]
        cells = (rows * width)[:, None, None] + first[which][..., None] + np.arange(d)
        slots = np.arange(len(rows) * n_mem).reshape(len(rows), 1, 1, n_mem, 1) * d
        ranked = np.take_along_axis(best, order, -1)[which]
        blocks.append((cells, member[which], best[which], order[which] + slots, ranked))
    own = (rows * width + starts[x])[:, None] + np.arange(bn.cards[x])
    return rows, own, np.stack([st[1] for st in distinct])[which], blocks


def _blanket_bounds(fallback: np.ndarray, blocks, lows: np.ndarray, highs: np.ndarray):
    """(min, max) of every row's greedy relaxation per value of x, against
    the flat intervals ``lows`` and ``highs``: ``solve_blanket_lp_greedy``
    as arrays, with the same floats. ``np.matmul`` on stacked vectors calls
    the BLAS dot that ``np.dot`` calls. The remainder never drops below 0
    and caps are at least 0, so a pour step after the scalar loop would
    have stopped takes 0 and adds an exact 0."""
    lo = np.full(fallback[:, 0].shape, -np.inf)
    hi = -lo
    for cells, member, best, cap_at, ranked in blocks:
        low, high = lows[cells], highs[cells]
        clipped = np.clip(low, 0.0, 1.0)
        d = cells.shape[-1]
        if d <= 2:  # math.fsum of one or two floats is their plain sum
            rem = 1.0 - clipped.sum(axis=-1)
        else:
            rem = 1.0 - np.array([math.fsum(r) for r in clipped.reshape(-1, d).tolist()])
            rem = rem.reshape(member.shape)
        ok = member & ~(high < low - 1e-15).any(axis=-1) & ~(rem < -1e-12)
        caps = np.clip(np.clip(high, 0.0, 1.0) - clipped, 0.0, None).reshape(-1)[cap_at]
        value = np.matmul(clipped[:, None, None, :, None, :], best[..., None])[..., 0, 0]
        rem = np.maximum(rem, 0.0)[:, None, None]
        for s in range(d):
            take = np.minimum(caps[..., s], rem)
            value = value + take * ranked[..., s]
            rem = rem - take
        value = np.where(ok[:, None, None] & ~(rem > 1e-9), value, _NONE)
        lo = np.maximum(lo, value[:, 0].max(axis=-1))
        hi = np.minimum(hi, value[:, 1].min(axis=-1))
    return np.where(lo == -np.inf, fallback[:, 0], lo), np.where(hi == np.inf, fallback[:, 1], hi)


def _propagate(bn: BayesianNetwork, contexts: list, base: Evidence, k: int, max_iters: int):
    """Bound propagation in every context, ``PROPAGATE_CHUNK`` contexts at
    a time: (cells, lows, highs, iterations, skipped), ``lows`` and
    ``highs`` contexts × cells over the layout ``cells``: the variables
    outside ``base`` in id order (a ``JointBounder``'s layout when ``base``
    is its evidence), then those of ``base``. Sweeps visit the variables in
    topological order; at each, one array update serves every context of
    the chunk that sweeps it. A context keeps its own delta, stop and
    iteration count: each gets what it gets alone."""
    cells: dict[int, slice] = {}
    starts, width = np.zeros(bn.n, dtype=np.int64), 0
    for v in [v for v in range(bn.n) if v not in base] + sorted(base):
        starts[v], cells[v] = width, slice(width, width + bn.cards[v])
        width += bn.cards[v]
    lows, highs = np.zeros((len(contexts), width)), np.ones((len(contexts), width))
    sweeps = []  # per context, {x: structure} of its unobserved variables
    for c, ctx in enumerate(contexts):
        for v, val in ctx.items():  # observed: the indicator
            highs[c, cells[v]] = 0.0
            lows[c, starts[v] + val] = highs[c, starts[v] + val] = 1.0
        # barren-descendant pruning: a child stays in x's relevant
        # subnetwork when it is observed or has an observed descendant
        kept = set(ctx) | ancestors_of(bn, set(ctx))
        sweeps.append({
            v: _boundary_structure(bn, v, tuple(u for u in bn.children[v] if u in kept), ctx, k)
            for v in range(bn.n) if v not in ctx
        })
    flat_lo, flat_hi = lows.reshape(-1), highs.reshape(-1)
    iterations = np.zeros(len(contexts), dtype=np.int64)
    live = np.ones(len(contexts), dtype=bool)
    for top in range(0, len(contexts), PROPAGATE_CHUNK):
        chunk = slice(top, top + PROPAGATE_CHUNK)
        plans = []
        for x in bn.topo_order:
            rows = [c for c in range(len(contexts))[chunk] if sweeps[c].get(x)]
            if rows:
                plans.append(_plan(bn, x, rows, [sweeps[c][x] for c in rows], starts, width))
        for _ in range(max_iters):
            iterations[chunk] += live[chunk]
            before = lows[chunk].copy(), highs[chunk].copy()
            for rows, own, fallback, blocks in plans:
                lo, hi = _blanket_bounds(fallback, blocks, flat_lo, flat_hi)
                lv, hv = flat_lo[own], flat_hi[own]
                # min(max(lv, lo), hv) and max(min(hv, hi), new_lo), as
                # Python's; contexts that stopped keep their intervals
                new_lo = np.where(lo > lv, lo, lv)
                new_lo = np.where(hv < new_lo, hv, new_lo)
                new_hi = np.where(hi < hv, hi, hv)
                new_hi = np.where(new_lo > new_hi, new_lo, new_hi)
                keep = live[rows][:, None]
                flat_lo[own] = np.where(keep, new_lo, lv)
                flat_hi[own] = np.where(keep, new_hi, hv)
            # every variable is updated once a sweep, from its interval at
            # the sweep's start: the largest move of any cell is the delta
            delta = np.maximum(lows[chunk] - before[0], before[1] - highs[chunk])
            live[chunk] &= delta.max(axis=1, initial=0.0) > DEFAULT_TOL
            if not live[chunk].any():
                break
            plans = [p for p in plans if live[p[0]].any()]
    skipped = [frozenset(v for v, st in sw.items() if not st) for sw in sweeps]
    return cells, lows, highs, iterations.tolist(), skipped


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def propagate_marginal_bounds(
    bn: BayesianNetwork, e: Evidence, k: int = DEFAULT_K, max_iters: int = DEFAULT_MAX_ITERS
) -> MarginalBounds:
    """Iterative marginal bounding by per-variable boundary LPs.

    Every unobserved variable starts at [0, 1]; sweeps in topological order
    re-solve each variable's LP against the current intervals of its Markov
    boundary (restricted to the variable's relevant subnetwork) and intersect,
    so intervals never widen; sweeping stops after ``max_iters`` sweeps, or
    after one that moves no bound by more than ``DEFAULT_TOL``. Variables
    whose full boundary domain exceeds ``k`` are skipped and keep [0, 1].
    Observed variables are pinned to their indicator. ``k < 0`` or
    ``max_iters < 1`` raises ``ValueError``.

    The one-context call of the abdp bounder's lock-step propagation
    (``_propagate``), which solves a variable's LPs as arrays.
    """
    _at_least("k", k, 0)
    _at_least("max_iters", max_iters, 1)
    cells, lows, highs, iterations, skipped = _propagate(bn, [e], e, k, max_iters)
    lows, highs = ({v: rows[0, cells[v]] for v in range(bn.n)} for rows in (lows, highs))
    return MarginalBounds(lows, highs, iterations=iterations[0], skipped=skipped[0])


# ---------------------------------------------------------------------------
# engine plug-ins

@dataclass
class PartialTupleBounds:
    """Batched bounder output for one partial tuple.

    ``low`` and ``high`` are rows over the bounder's cell layout (see
    ``JointBounder``): ``low[cells[v]][x]``/``high[cells[v]][x]`` bound
    P(v=x, partial, e) for every variable v the partial leaves free. The
    cells of the variables the partial pins are never read. ``joint`` bounds
    P(partial, e); ``prior`` is the exact prior mass of the partial. Both
    bounders cap ``high`` with the partial's cap row (see
    ``JointBounder._load_priors``). The engine only reads the rows, so they
    may be read-only and shared between partials: the bf bounder's are.
    """

    prior: float
    joint: tuple[float, float]
    low: np.ndarray
    high: np.ndarray
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

    def tuple_tables(self, partial: PartialAssignment) -> PartialTupleBounds:
        """Memoized batched tables: each distinct partial is computed and
        counted once."""
        return self.tables_for([partial])[0][0]

    def tables_for(self, partials, tuples=()) -> tuple[tuple[PartialTupleBounds, ...], list[float]]:
        """(``tuple_tables`` of every partial, the prior of every full cutset
        tuple in ``tuples``). The priors of the full tuples and of the
        partials not yet tabled come from one batched pass (split by depth
        on large networks, see ``_priors_of``), and the partials not yet
        tabled are tabled together."""
        keys = [tuple(p) for p in partials]
        fresh = list(dict.fromkeys(k for k in keys if k not in self._memo))
        rows = fresh + [tuple(zip(self.cutset_vars, t)) for t in tuples]
        priors, caps = self._load_priors(rows)
        n = len(fresh)
        for key, tab in zip(fresh, self._tables(fresh, priors[:n], caps[:n])):
            self._memo[key] = tab
            self.invocations += tab.cost
        return tuple(self._memo[k] for k in keys), priors[n:].tolist()

    def _load_priors(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(P(row) of every row, a cap row per row): each row is a partial
        or full cutset tuple as (variable, value) pairs. A cap row lies over
        the cell layout and holds P(row) in every cell, but P(row, v=x) in
        the cells of a cutset variable v that the row leaves free: the exact
        prior of each one-variable extension, which bounds P(v=x, row, e)."""
        if not rows:
            return np.empty(0), np.empty((0, self.width))
        pos = {v: k for k, v in enumerate(self.cutset_vars)}
        pins = np.full((len(rows), len(pos)), -1, dtype=np.int64)
        for i, pairs in enumerate(rows):
            for v, x in pairs:
                pins[i, pos[v]] = x
        return self._priors_of(pins)

    def _priors_of(self, pins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        n = len(pins)
        priors, caps = np.empty(n), np.empty((n, self.width))
        try:
            assign = {v: pins[:, k] for k, v in enumerate(cut) if some[k]}
            total, beliefs = eliminate_marginals(self.bn, assign, [v for _, v in wanted], indicated)
        except ScopeCapError:
            if not indicated:
                raise
            sets, which = np.unique(pinned, axis=0, return_inverse=True)
            low = which.reshape(-1) < len(sets) // 2
            for part in (low, ~low):
                priors[part], caps[part] = self._priors_of(pins[part])
            return priors, caps
        priors[:] = total
        caps[:] = priors[:, None]
        for k, v in wanted:
            free = ~pinned[:, k]
            caps[free, self.cells[v]] = np.broadcast_to(beliefs[v], (n, self.bn.cards[v]))[free]
        return priors, caps

    def _tables(self, fresh: list, priors: np.ndarray, caps: np.ndarray) -> list[PartialTupleBounds]:
        """The tables of the partials ``fresh``, given their ``priors`` and
        cap rows (see ``_load_priors``)."""
        raise NotImplementedError


class PriorMassBounder(JointBounder):
    """Its rows are read-only: ``low`` is one zeros row that all partials
    share."""

    name = "bf"

    def _tables(self, fresh: list, priors: np.ndarray, caps: np.ndarray) -> list[PartialTupleBounds]:
        # the cap rows, clipped to 1: a row's prior mass caps every value, a
        # free cutset variable's extension priors cap its own
        highs = np.minimum(caps, 1.0)
        highs.flags.writeable = False
        return [
            PartialTupleBounds(
                prior=prior, joint=(0.0, min(prior, 1.0)), low=self._zeros, high=high, cost=1
            )
            for prior, high in zip(priors.tolist(), highs)
        ]


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

    def _tables(self, fresh: list, priors: np.ndarray, caps: np.ndarray) -> list[PartialTupleBounds]:
        """One lock-step propagation over the contexts of every partial with
        mass: one per evidence-chain factor, in topological order (earlier
        ones see smaller relevant subnetworks), then e ∪ partial for its
        rows. A partial without mass is not propagated, and costs nothing."""
        e, jobs, contexts = self.e, [], []
        priors = priors.tolist()
        for key, prior in zip(fresh, priors):
            own, chain = None, None  # no chain: the partial contradicts e
            if prior != 0.0:
                ctx = dict(key)
                if all(e.get(v, x) == x for v, x in key):
                    chain = [v for v in self.bn.topo_order if v in e and v not in ctx]
                for v in chain or ():
                    contexts.append(dict(ctx))
                    ctx[v] = e[v]
                contexts.append({**e, **ctx})
                own = len(contexts) - 1
            jobs.append((own, chain))
        cells, lows, highs, _, _ = _propagate(self.bn, contexts, e, self.k, self.iters)
        out = []
        for (own, chain), prior, cap in zip(jobs, priors, caps):
            jl = jh = 0.0
            low = high = self._zeros
            if own is not None:
                if chain is not None:
                    lo_prod, hi_prod = 1.0, 1.0
                    for row, v in enumerate(chain, own - len(chain)):
                        lo_prod *= max(0.0, float(lows[row, cells[v]][e[v]]))
                        hi_prod *= min(1.0, float(highs[row, cells[v]][e[v]]))
                        if hi_prod == 0.0:  # the later factors are computed and ignored
                            break
                    # intersected with the prior-mass interval: never worse than bf
                    jh = min(min(1.0, prior), hi_prod * prior)
                    jl = min(max(0.0, lo_prod * prior), jh)
                # the cap row: never above bf's high
                high = np.minimum(highs[own, : self.width] * jh, cap)
                low = np.minimum(lows[own, : self.width] * jl, high)
            out.append(PartialTupleBounds(
                prior=prior,
                joint=(jl, jh),
                low=low,
                high=high,
                cost=0 if own is None else 2,
            ))
        return out


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
