"""Anytime bound assembly over exactly-evaluated cutset tuples.

The engine splits the cutset space into h active tuples, whose joint masses
with the evidence are computed exactly, and the partial tuples of the
truncated value tree, whose masses are only bounded by a plug-in bounder. One
generic assembly then produces guaranteed lower/upper bounds for posterior
marginals of every unobserved variable (cutset members included), for P(e),
plus the classic prior-remainder baseline and the width guarantee that only
depends on how much prior mass the active tuples cover.

Per-partial bounder tables are computed once and shared by every query.
``select_and_bound`` is the one setup path (cutset, tuple selection, bounder)
behind both ``run_engine`` and the experiment harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounder import JointBounder, PartialTupleBounds, make_bounder
from .exact import eliminate
from .graphs import Cutset, find_loop_cutset, find_w_cutset
from .model import BayesianNetwork, Evidence
from .tuples import ActiveTupleSet, TruncatedTree, build_truncated_tree, select_tuples_gibbs


@dataclass
class EngineInputs:
    """Everything assembly needs, with the exact sums precomputed.

    ``active_mass[v][x]`` = sum over active tuples of P(x, c^i, e) (for cutset
    members this is the mass of the matching tuples); ``tables[j]`` holds the
    plug-in bounds for partial j, aligned with ``tree.partials``.
    """

    bn: BayesianNetwork
    e: Evidence
    tree: TruncatedTree
    bounder: JointBounder
    s: float
    r: float
    pe_terms: tuple[float, ...]
    active_mass: dict[int, np.ndarray]
    tables: tuple[PartialTupleBounds, ...]
    cutset_pos: dict[int, int]
    timings: dict[str, float] = field(default_factory=dict)
    _marg_cache: dict = field(default_factory=dict, repr=False)

    @property
    def cutset(self) -> Cutset:
        return self.tree.cutset

    @property
    def h(self) -> int:
        return self.tree.active.h

    @property
    def m(self) -> int:
        return self.cutset.n_tuples

    @property
    def m_prime(self) -> int:
        return self.tree.m_prime

    def query_vars(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.bn.n) if v not in self.e)


@dataclass
class BoundsReport:
    """Full result of one engine run; every interval satisfies 0 <= L <= U <= 1.

    ``s`` is the evidence mass covered exactly by the h active tuples, ``r``
    the prior mass of the truncated remainder, and ``i_h = r / (s + r)`` the
    guaranteed cap on every marginal interval width. ``m`` counts the full
    cutset space, ``m_prime`` the retained partial tuples. ``bc_*`` columns
    hold the prior-remainder baseline; ``invocations`` counts plug-in bounder
    calls charged to this report's tables.
    """

    method: str
    h: int
    m: int
    m_prime: int
    s: float
    r: float
    i_h: float
    evidence: tuple[float, float]
    marginals: dict[int, tuple[tuple[float, float], ...]]
    bc_marginals: dict[int, tuple[tuple[float, float], ...]] | None
    bc_evidence: tuple[float, float] | None
    clamp_events: int
    degenerate: tuple[tuple[int, int], ...]
    invocations: int
    timings: dict[str, float]


def _per_tuple(bn: BayesianNetwork, assigned: dict, keep: tuple[int, ...], h: int):
    """``eliminate`` over a batch of h tuples, as an (h, *keep cards) array.
    An empty cutset assigns no array, so its one tuple's table gains the axis."""
    out = eliminate(bn, assigned, keep)
    return out.reshape((h,) + tuple(bn.cards[v] for v in keep))


def prepare_inputs(
    bn: BayesianNetwork,
    e: Evidence,
    active: ActiveTupleSet,
    bounder: JointBounder,
) -> EngineInputs:
    """Exact sums over the active set plus plug-in tables over the partials."""
    c = active.cutset if active.cutset.cards else active.cutset.with_cards(bn)
    tree = build_truncated_tree(c, active)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    pe_terms = tuple(float(p) for p in active.pe)
    s = math.fsum(pe_terms)
    # every active tuple assigns the same variables: one batched elimination
    # per kept variable serves them all (the cutset value wins over evidence)
    h = active.h
    columns = np.array(active.tuples, dtype=np.int64).reshape(h, len(c.vars)).T
    tuple_values = dict(zip(c.vars, columns))
    with_evidence = {**e, **tuple_values}
    priors = _per_tuple(bn, tuple_values, (), h).tolist() if h else []
    r = 0.0 if tree.m_prime == 0 else max(0.0, 1.0 - math.fsum(priors))

    cutset_pos = {v: k for k, v in enumerate(c.vars)}
    active_mass: dict[int, np.ndarray] = {}
    for var in range(bn.n):
        if var in e:
            continue
        card = bn.cards[var]
        if var in cutset_pos:
            k = cutset_pos[var]
            mass = np.zeros(card)
            for val in range(card):
                mass[val] = math.fsum(
                    pe_terms[i] for i, t in enumerate(active.tuples) if t[k] == val
                )
            active_mass[var] = mass
        elif h:
            rows = _per_tuple(bn, with_evidence, (var,), h)
            active_mass[var] = np.array([math.fsum(col) for col in rows.T.tolist()])
        else:
            active_mass[var] = np.zeros(card)
    timings["exact_sums"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tables = bounder.tables_for(
        [tuple(zip(c.vars[: len(vals)], vals)) for vals in tree.partials]
    )
    timings["plugin"] = time.perf_counter() - t0

    for var, mass in active_mass.items():
        if float(mass.max(initial=0.0)) > s + 1e-9:
            raise AssertionError(
                f"active mass of variable {var} exceeds the total active mass"
            )
    return EngineInputs(
        bn=bn,
        e=dict(e),
        tree=tree,
        bounder=bounder,
        s=s,
        r=r,
        pe_terms=pe_terms,
        active_mass=active_mass,
        tables=tables,
        cutset_pos=cutset_pos,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# generic assembly

def _partial_terms(inputs: EngineInputs, var: int):
    """Per-partial contributions (NL, den_term, NU, oL) for every query value
    of ``var``: one tuple of four lists per value.

    NL/NU bound the mass of the partial that lands on the query value;
    den_term is the lower-denominator cap min(NL + other-upper, tuple upper);
    oL lower-bounds the mass on the other values. The sums over a partial's
    extension table are taken once and serve every value.
    """
    k = inputs.cutset_pos.get(var)
    values = range(inputs.bn.cards[var])
    per_value = [([], [], [], []) for _ in values]
    for vals, tab in zip(inputs.tree.partials, inputs.tables):
        jl, ju = tab.joint
        if k is not None and k < len(vals):
            for value, (nls, terms, nus, ols) in zip(values, per_value):
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
        lows = tab.var_low[var]
        highs = tab.var_high[var]
        low_sum = lows.sum()
        high_sum = highs.sum()
        for value, (nls, terms, nus, ols) in zip(values, per_value):
            nl = float(lows[value])
            ou = float(high_sum - highs[value])
            nls.append(nl)
            terms.append(min(nl + ou, ju))
            nus.append(min(float(highs[value]), ju))
            ols.append(float(low_sum - lows[value]))
    return per_value


def _assemble_value(inputs, var: int, value: int, parts):
    """Returns (L, U, degenerate, clamp_events) for one (variable, value)
    from that value's ``_partial_terms`` entry."""
    s_val = float(inputs.active_mass[var][value])
    nls, terms, nus, ols = parts
    num_l = math.fsum([s_val] + nls)
    den_l = math.fsum([inputs.s] + terms)
    num_u = math.fsum([s_val] + nus)
    den_u = math.fsum([inputs.s] + nus + ols)
    if den_l <= 0.0 or den_u <= 0.0:
        return 0.0, 1.0, True, 0
    low = num_l / den_l
    high = num_u / den_u
    clamps = 0
    if low < 0.0 or low > 1.0:
        low = min(1.0, max(0.0, low))
        clamps += 1
    if high < 0.0 or high > 1.0:
        high = min(1.0, max(0.0, high))
        clamps += 1
    if high < low:
        high = low
    return low, high, False, clamps


def _marginal_table(inputs: EngineInputs, var: int):
    hit = inputs._marg_cache.get(var)
    if hit is None:
        hit = tuple(
            _assemble_value(inputs, var, x, parts)
            for x, parts in enumerate(_partial_terms(inputs, var))
        )
        inputs._marg_cache[var] = hit
    return hit


def marginal_bounds(inputs: EngineInputs, var: int, value: int) -> tuple[float, float]:
    """[L, U] on P(var=value | e) for an unobserved non-cutset variable."""
    if var in inputs.e:
        raise ValueError(f"variable {var} is observed")
    if var in inputs.cutset_pos:
        raise ValueError(f"variable {var} is a cutset member; use the cutset query")
    low, high, _, _ = _marginal_table(inputs, var)[value]
    return low, high


def cutset_marginal_bounds(inputs: EngineInputs, var: int, value: int) -> tuple[float, float]:
    """[L, U] on P(var=value | e) for a cutset member.

    Active tuples matching the value contribute their exact mass; partial
    tuples that pin the variable contribute through their joint interval, and
    partial tuples that leave it free through the extension tables.
    """
    if var not in inputs.cutset_pos:
        raise ValueError(f"variable {var} is not in the cutset")
    low, high, _, _ = _marginal_table(inputs, var)[value]
    return low, high


def evidence_bounds(inputs: EngineInputs) -> tuple[float, float]:
    """[L, U] on P(e): exact active mass plus bounded partial mass."""
    low = math.fsum(list(inputs.pe_terms) + [t.joint[0] for t in inputs.tables])
    high = math.fsum(list(inputs.pe_terms) + [t.joint[1] for t in inputs.tables])
    high = min(1.0, high)
    return low, max(high, low)


def evidence_closed_form(inputs: EngineInputs) -> tuple[float, float]:
    """Prior-remainder evidence interval [S, S + R] (clamped at 1)."""
    return inputs.s, max(min(1.0, inputs.s + inputs.r), inputs.s)


def prior_mass_closed_interval(inputs: EngineInputs, var: int, value: int):
    """Closed-form marginal interval using only S, S_x and the prior
    remainder R: [S_x/(S+R), (S_x+R)/(S+R)]. What the generic assembly
    reduces to under the prior-mass bounder."""
    s_val = float(inputs.active_mass[var][value])
    den = inputs.s + inputs.r
    if den <= 0.0:
        return 0.0, 1.0
    return s_val / den, (s_val + inputs.r) / den


def bounded_conditioning_bounds(inputs: EngineInputs, var: int, value: int):
    """Classic baseline: remainder mass spread by priors alone.

    Lower S_x/(S+R); upper (S_x+R)/S, clamped to [0, 1]. The upper's
    denominator keeps only the exactly-covered mass, which is what makes the
    baseline interval at least R wide. Returns (L, U, degenerate flag).
    """
    s_val = float(inputs.active_mass[var][value])
    den = inputs.s + inputs.r
    if den <= 0.0:
        return 0.0, 1.0, True
    low = s_val / den
    if inputs.s <= 0.0:
        return min(low, 1.0), 1.0, True
    high = min(1.0, (s_val + inputs.r) / inputs.s)
    low = min(low, 1.0)
    return low, max(high, low), False


def remainder_interval_bound(inputs: EngineInputs) -> float:
    """Guaranteed cap on every marginal interval width: R/(S+R)."""
    den = inputs.s + inputs.r
    if den <= 0.0:
        return 1.0
    return inputs.r / den


def compute_report(inputs: EngineInputs) -> BoundsReport:
    """Assemble every query interval once, sharing the per-partial tables."""
    t0 = time.perf_counter()
    marginals: dict[int, tuple[tuple[float, float], ...]] = {}
    bc_marginals: dict[int, tuple[tuple[float, float], ...]] = {}
    clamps = 0
    degenerate: list[tuple[int, int]] = []
    for var in inputs.query_vars():
        rows = []
        for value in range(inputs.bn.cards[var]):
            low, high, deg, c = _marginal_table(inputs, var)[value]
            rows.append((low, high))
            clamps += c
            if deg:
                degenerate.append((var, value))
        marginals[var] = tuple(rows)
        bc_marginals[var] = tuple(
            bounded_conditioning_bounds(inputs, var, value)[:2]
            for value in range(inputs.bn.cards[var])
        )

    if inputs.bounder.name == "bf":
        ev = evidence_closed_form(inputs)
    else:
        gl, gh = evidence_bounds(inputs)
        cl, ch = evidence_closed_form(inputs)
        ev = (max(gl, cl), min(gh, ch))
        if ev[1] < ev[0]:
            ev = (ev[0], ev[0])
    timings = dict(inputs.timings)
    timings["assembly"] = time.perf_counter() - t0
    return BoundsReport(
        method=inputs.bounder.name,
        h=inputs.h,
        m=inputs.m,
        m_prime=inputs.m_prime,
        s=inputs.s,
        r=inputs.r,
        i_h=remainder_interval_bound(inputs),
        evidence=ev,
        marginals=marginals,
        bc_marginals=bc_marginals,
        bc_evidence=evidence_closed_form(inputs),
        clamp_events=clamps,
        degenerate=tuple(degenerate),
        invocations=sum(t.cost for t in inputs.tables),
        timings=timings,
    )


# ---------------------------------------------------------------------------
# one-call pipeline

def select_and_bound(
    bn: BayesianNetwork,
    e: Evidence,
    h: int,
    plugin: str = "bf",
    cutset: Cutset | None = None,
    cutset_kind: str = "loop",
    w: int = 1,
    sweeps: int = 32,
    seed: int = 0,
    k: int = 2**10,
    iters: int = 50,
    tol: float = 1e-6,
) -> tuple[ActiveTupleSet, JointBounder, float]:
    """Pipeline setup: choose the cutset (unless given), select the h active
    tuples and build the plug-in bounder. Returns (active, bounder, seconds
    spent selecting tuples)."""
    if cutset is None:
        if cutset_kind == "loop":
            cutset = find_loop_cutset(bn, exclude=frozenset(e))
        elif cutset_kind == "w":
            cutset = find_w_cutset(bn, w, exclude=frozenset(e))
        else:
            raise ValueError(f"unknown cutset kind {cutset_kind!r}")
    cutset = cutset if cutset.cards else cutset.with_cards(bn)
    t0 = time.perf_counter()
    active = select_tuples_gibbs(bn, e, cutset, h, sweeps=sweeps, seed=seed)
    select_s = time.perf_counter() - t0
    bounder = make_bounder(plugin, bn, e, cutset.vars, k=k, iters=iters, tol=tol)
    return active, bounder, select_s


def run_engine(bn: BayesianNetwork, e: Evidence, h: int, **options) -> BoundsReport:
    """Select tuples, bound the partials, assemble: the whole pipeline.
    ``options`` are those of ``select_and_bound``."""
    active, bounder, select_s = select_and_bound(bn, e, h, **options)
    inputs = prepare_inputs(bn, e, active, bounder)
    inputs.timings["selection"] = select_s
    return compute_report(inputs)
