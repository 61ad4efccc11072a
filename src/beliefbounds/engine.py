"""Anytime bound assembly over exactly-evaluated cutset tuples.

The engine splits the cutset space into h active tuples, whose joint masses
with the evidence are computed exactly, and the partial tuples of the
truncated value tree, whose masses are only bounded by a plug-in bounder. One
generic assembly then produces guaranteed lower/upper bounds for posterior
marginals of every unobserved variable (cutset members included), for P(e),
plus the classic prior-remainder baseline and the width guarantee that only
depends on how much prior mass the active tuples cover.

Per-partial bounder tables are computed once and shared by every query;
assembly reads all of them in one array pass per report.
``select_and_bound`` is the one setup path (cutset, tuple selection, bounder)
behind both ``run_engine`` and the experiment harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounder import JointBounder, PartialTupleBounds, _at_least, make_bounder
# eliminate stays a module attribute: pipebench/tracing.py wraps engine.eliminate
from .exact import eliminate, eliminate_marginals  # noqa: F401
from .graphs import Cutset, find_loop_cutset, find_w_cutset
from .model import BayesianNetwork, Evidence, validate_evidence
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
    bc_marginals: dict[int, tuple[tuple[float, float], ...]]
    bc_evidence: tuple[float, float]
    clamp_events: int
    degenerate: tuple[tuple[int, int], ...]
    invocations: int
    timings: dict[str, float]


def prepare_inputs(
    bn: BayesianNetwork,
    e: Evidence,
    active: ActiveTupleSet,
    bounder: JointBounder,
) -> EngineInputs:
    """Exact sums over the active set plus plug-in tables over the partials.
    A bounder built for another network, evidence or cutset raises
    ``ValueError``: its tables would bound other joints."""
    if bounder.bn is not bn or bounder.e != e or bounder.cutset_vars != active.cutset.vars:
        raise ValueError("the bounder was built for another network, evidence or cutset")
    c = active.cutset.with_cards(bn)
    tree = build_truncated_tree(c, active)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    pe_terms = tuple(float(p) for p in active.pe)
    s = math.fsum(pe_terms)
    # every active tuple assigns the same variables: one batched bucket-tree
    # pass over the free variables serves them all (the cutset value wins
    # over evidence). An empty cutset assigns no array, so its one tuple's
    # results gain the axis by reshape.
    h = active.h
    columns = np.array(active.tuples, dtype=np.int64).reshape(h, len(c.vars)).T
    tuple_values = dict(zip(c.vars, columns))

    cutset_pos = {v: k for k, v in enumerate(c.vars)}
    free = [v for v in range(bn.n) if v not in e and v not in cutset_pos]
    beliefs = eliminate_marginals(bn, {**e, **tuple_values}, free)[1] if h and free else {}
    # P(x, c^i, e) <= P(c^i, e): a tuple without evidence mass, such as one
    # that contradicts the evidence on a shared variable, puts none on x
    massless = (np.array(pe_terms) == 0.0).reshape(h, 1)
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
            rows = np.where(massless, 0.0, beliefs[var].reshape(h, card))
            active_mass[var] = np.array([math.fsum(col) for col in rows.T.tolist()])
        else:
            active_mass[var] = np.zeros(card)
    timings["exact_sums"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # the bounder's one prior pass also gives the active tuples' priors
    tables, priors = bounder.tables_for(
        [tuple(zip(c.vars[: len(vals)], vals)) for vals in tree.partials], active.tuples
    )
    r = 0.0 if tree.m_prime == 0 else max(0.0, 1.0 - math.fsum(priors))
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

def _terms_by_var(inputs: EngineInputs):
    """Yields ``(var, [(NL, den_term, NU, oL) per value])`` for every query
    variable, each entry a list over the partials, from one array pass.

    The cells are those of the bounder's layout (``JointBounder.cells``):
    every partial's ``low``/``high`` row is one row of an (m' x cells) low and
    high array, and cells of a cutset variable that the partial pins come
    from its joint interval instead. NL/NU bound the mass of the partial that
    lands on the query value; den_term is the lower-denominator cap
    min(NL + other-upper, tuple upper); oL lower-bounds the mass on the other
    values. Each operation is the elementwise one a per-value loop would
    take, and each per-variable sum is numpy's sum over that variable's
    values, so every term is the float such a loop gives.
    """
    cells = inputs.bounder.cells
    qvars = list(cells)
    starts = [sl.start for sl in cells.values()]
    widths = [sl.stop - sl.start for sl in cells.values()]
    n_cells = inputs.bounder.width
    m = len(inputs.tables)
    cut = inputs.cutset.vars
    low = np.array([t.low for t in inputs.tables], dtype=np.float64).reshape(m, n_cells)
    high = np.array([t.high for t in inputs.tables], dtype=np.float64).reshape(m, n_cells)

    # per-variable sums, spread back over the variable's cells
    low_sum = np.empty_like(low)
    high_sum = np.empty_like(high)
    by_card: dict[int, list[int]] = {}
    for start, width in zip(starts, widths):
        by_card.setdefault(width, []).extend(range(start, start + width))
    for width, cols in by_card.items():
        shape = (m, len(cols) // width, width)
        low_sum[:, cols] = np.repeat(low[:, cols].reshape(shape).sum(axis=2), width, axis=1)
        high_sum[:, cols] = np.repeat(high[:, cols].reshape(shape).sum(axis=2), width, axis=1)

    # the value each partial pins in each cell's variable, -1 where it is free
    pinned_vals = np.full((m, len(cut) + 1), -1, dtype=np.int64)
    for j, vals in enumerate(inputs.tree.partials):
        pinned_vals[j, : len(vals)] = vals
    cell_pos = np.repeat(
        np.array([inputs.cutset_pos.get(v, len(cut)) for v in qvars], dtype=np.int64), widths
    )
    cell_val = np.arange(n_cells) - np.repeat(np.array(starts, dtype=np.int64), widths)
    pin = pinned_vals[:, cell_pos]
    pinned = pin >= 0
    match = pin == cell_val
    joints = np.array([t.joint for t in inputs.tables], dtype=np.float64).reshape(m, 2)
    jl, ju = joints[:, :1], joints[:, 1:]

    nl = np.where(pinned, np.where(match, jl, 0.0), low)
    term = np.where(pinned, np.where(match, jl, ju), np.minimum(low + (high_sum - high), ju))
    nu = np.where(pinned, np.where(match, ju, 0.0), np.minimum(high, ju))
    ol = np.where(pinned, np.where(match, 0.0, jl), low_sum - low)
    # one variable's lists at a time: converting every cell at once would
    # hold all 4 x m' x cells Python floats at the same time
    for v, a, w in zip(qvars, starts, widths):
        yield v, list(zip(*(t[:, a: a + w].T.tolist() for t in (nl, term, nu, ol))))


def _assemble_value(inputs, var: int, value: int, parts):
    """Returns (L, U, degenerate, clamp_events) for one (variable, value)
    from that value's ``_terms_by_var`` entry."""
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
    if high < low:  # crossed: the truth may lie anywhere between the ends
        low, high = high, low
    return low, high, False, clamps


def _marginal_table(inputs: EngineInputs, var: int):
    """``_assemble_value`` of every value of ``var``; the first call
    assembles every query variable at once."""
    if not inputs._marg_cache:
        inputs._marg_cache.update({
            v: tuple(_assemble_value(inputs, v, x, parts) for x, parts in enumerate(per_value))
            for v, per_value in _terms_by_var(inputs)
        })
    return inputs._marg_cache[var]


def marginal_bounds(inputs: EngineInputs, var: int, value: int) -> tuple[float, float]:
    """[L, U] on P(var=value | e) for any unobserved variable.

    Active tuples contribute their exact mass. For a cutset member, partial
    tuples that pin the variable contribute through their joint interval, and
    partial tuples that leave it free through the extension tables.
    """
    if var in inputs.e:
        raise ValueError(f"variable {var} is observed")
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
        if ev[1] < ev[0]:  # crossed: the truth may lie anywhere between the ends
            ev = (ev[1], ev[0])
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
) -> tuple[ActiveTupleSet, JointBounder, float]:
    """Pipeline setup: choose the cutset (unless given), select the h active
    tuples and build the plug-in bounder. Returns (active, bounder, seconds
    spent selecting tuples). Evidence that names a variable or value the
    network lacks raises ``NetworkFormatError``; ``k < 0``, ``iters < 1``,
    ``sweeps < 0`` or ``w < 1`` (whatever the cutset kind) raises
    ``ValueError``."""
    validate_evidence(bn, e)
    _at_least("w", w, 1)
    if cutset is None:
        if cutset_kind == "loop":
            cutset = find_loop_cutset(bn, exclude=frozenset(e))
        elif cutset_kind == "w":
            cutset = find_w_cutset(bn, w, exclude=frozenset(e))
        else:
            raise ValueError(f"unknown cutset kind {cutset_kind!r}")
    cutset = cutset.with_cards(bn)
    # built first, so that a bad bounder knob fails before any inference
    bounder = make_bounder(plugin, bn, e, cutset.vars, k=k, iters=iters)
    t0 = time.perf_counter()
    active = select_tuples_gibbs(bn, e, cutset, h, sweeps=sweeps, seed=seed)
    select_s = time.perf_counter() - t0
    return active, bounder, select_s


def run_engine(bn: BayesianNetwork, e: Evidence, h: int, **options) -> BoundsReport:
    """Select tuples, bound the partials, assemble: the whole pipeline.
    ``options`` are those of ``select_and_bound``."""
    active, bounder, select_s = select_and_bound(bn, e, h, **options)
    inputs = prepare_inputs(bn, e, active, bounder)
    inputs.timings["selection"] = select_s
    return compute_report(inputs)
