"""Active cutset tuples and the truncated search tree.

The engine evaluates h full cutset instantiations exactly ("active" tuples,
ideally the highest-mass ones) and bounds the rest of the cutset space. The
remainder is organized by the truncated search tree: walking the value trie
of the active tuples, every branch that leaves the active paths becomes one
partially-instantiated tuple, so actives and partials partition the space.

Selection sends ``eliminate`` integer value rows only, one per cutset
tuple, with the evidence fixed in a template row, so every batch of a
selection runs one cached plan for P(c, e). When the cutset space is too
large to rank, a seeded Gibbs chain over the cutset picks the active tuples.
Whenever the chain needs a tuple it has not evaluated, one batch gives the
current state and every unseen tuple one coordinate away from it, so a
sweep costs about one plan execution per change of state rather than one
per newly visited tuple. The chain samples each conditional in Python
floats with the float operations of ``Generator.choice``, so it picks what
``Generator.choice`` would from the same stream.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

# the benchmark's tracer wraps tuples.bucket_eliminate_pe, so the name stays
from .exact import bucket_eliminate_pe  # noqa: F401
from .exact import Rows, eliminate
from .graphs import Cutset
from .model import BayesianNetwork, Evidence, assignment_tuples

#: Largest cutset space whose tuples are all summed and ranked; past it a
#: Gibbs chain picks them.
EXHAUSTIVE_CAP = 4096


@dataclass
class ActiveTupleSet:
    """Ordered distinct full cutset tuples with ``pe[i]`` = P(c^i, e).

    The engine only reads the set.
    """

    cutset: Cutset
    tuples: tuple[tuple[int, ...], ...]
    pe: np.ndarray

    @property
    def h(self) -> int:
        return len(self.tuples)

    def prefix(self, h: int) -> "ActiveTupleSet":
        """First-h view (nested sets share selection order)."""
        if not 0 <= h <= self.h:
            raise ValueError(f"prefix {h} outside 0..{self.h}")
        return ActiveTupleSet(cutset=self.cutset, tuples=self.tuples[:h], pe=self.pe[:h])


@dataclass(frozen=True)
class TruncatedTree:
    """Active tuples plus the partial tuples left by trimming the value trie."""

    active: ActiveTupleSet
    partials: tuple[tuple[int, ...], ...]

    @property
    def m_prime(self) -> int:
        return len(self.partials)

    @property
    def cutset(self) -> Cutset:
        return self.active.cutset


def select_tuples_gibbs(
    bn: BayesianNetwork,
    e: Evidence,
    c: Cutset,
    h: int,
    sweeps: int = 32,
    seed: int = 0,
) -> ActiveTupleSet:
    """Pick h distinct cutset tuples aiming for the highest P(c, e) mass.

    Every mass comes from one ``eliminate`` call over a batch of tuples, on
    one cached plan for P(c, e). When the cutset space M is at most
    ``EXHAUSTIVE_CAP`` the selection is exhaustive: one batch gives every
    tuple's mass and the true top-h by P(c,e) is taken, ties broken
    lexicographically (nested prefixes across h come for free). Otherwise a
    single seeded Gibbs chain over the cutset explores tuples; every
    distinct visited tuple is a candidate, the unseen one-coordinate
    neighbours of a state are evaluated in one batch, revisits cost
    nothing, zero-probability tuples are admitted only when fewer than h
    positive-mass tuples were seen, and the set is padded deterministically
    (one tuple per batch) if the chain found fewer than h distinct tuples.
    ``sweeps < 0`` raises ``ValueError``; so does a cutset that does not fit
    the network (see ``Cutset.with_cards``).
    """
    if sweeps < 0:
        raise ValueError(f"sweeps must be at least 0, got {sweeps}")
    c = c.with_cards(bn)
    m = c.n_tuples
    if h > m:
        raise ValueError(f"h={h} exceeds cutset space M={m}")
    if h < 0:
        raise ValueError("h must be >= 0")
    if h == 0:
        return ActiveTupleSet(cutset=c, tuples=(), pe=np.array([], dtype=np.float64))

    masses = _mass_function(bn, e, c)
    if m <= EXHAUSTIVE_CAP:
        rows = np.indices(c.cards).reshape(c.size, m).T  # lexicographic order
        pe = masses(rows)
        top = np.argsort(-pe, kind="stable")[:h]  # ties stay lexicographic
        return ActiveTupleSet(cutset=c, tuples=tuple(map(tuple, rows[top].tolist())), pe=pe[top])

    return _gibbs_select(bn, e, c, h, sweeps, seed, masses)


def _mass_function(bn, e, c):
    """P(c, e) of each row of a rows x |c| array of full cutset tuples, one
    ``eliminate`` call a batch: every batch repeats one template row that
    holds the evidence, so each call finds the same cached plan. The
    cutset's own values replace evidence on shared variables; a tuple that
    contradicts that evidence has mass 0."""
    columns = tuple(sorted(set(e) | set(c.vars)))
    template = np.array([[e.get(v, 0) for v in columns]], dtype=np.intp)
    at = [columns.index(v) for v in c.vars]
    shared = [(k, e[v]) for k, v in enumerate(c.vars) if v in e]

    def masses(rows: np.ndarray) -> np.ndarray:
        values = template.repeat(len(rows), axis=0)
        values[:, at] = rows
        out = eliminate(bn, Rows(columns, values))
        for k, x in shared:
            out[rows[:, k] != x] = 0.0
        return out

    return masses


def _gibbs_select(bn, e, c, h, sweeps, seed, masses) -> ActiveTupleSet:
    rng = np.random.default_rng(seed)
    visited: dict[tuple[int, ...], float] = {}
    known: dict[tuple[int, ...], float] = {}  # evaluated, visited or not
    # every (coordinate, value) pair: a state's one-coordinate moves
    coord = np.repeat(np.arange(c.size), c.cards)
    value = np.concatenate([np.arange(d) for d in c.cards])

    def mass(tup, around) -> float:
        p = visited.get(tup)
        if p is None:
            if tup not in known:
                # every value a sweep tries lies one coordinate away from
                # the chain's state: evaluate all those not yet seen at once
                base = np.array(around, dtype=np.intp)
                moves = value != base[coord]
                near = base[None].repeat(1 + int(moves.sum()), axis=0)
                near[np.arange(1, len(near)), coord[moves]] = value[moves]
                tups = list(map(tuple, near.tolist()))
                fresh = [i for i, t in enumerate(tups) if t not in known]
                known.update(zip([tups[i] for i in fresh], masses(near[fresh]).tolist()))
            p = visited[tup] = known[tup]
        return p

    state = list(_forward_sample_cutset(bn, e, c, rng))
    mass(tuple(state), tuple(state))
    for _ in range(sweeps):
        for k in range(c.size):
            around = tuple(state)
            probs = []
            for val in range(c.cards[k]):
                state[k] = val
                probs.append(mass(tuple(state), around))
            drawn = _draw(rng, probs)
            # an all-zero conditional draws nothing and keeps the value
            state[k] = around[k] if drawn is None else drawn
            mass(tuple(state), around)

    ranked = sorted(visited.items(), key=lambda kv: (-kv[1], kv[0]))
    chosen = [tup for tup, _ in ranked[:h]]
    if len(chosen) < h:  # deterministic padding
        have = set(chosen)
        for tup in assignment_tuples(c.cards):
            if len(chosen) >= h:
                break
            if tup not in have:
                if tup not in known:
                    known[tup] = masses(np.array([tup], dtype=np.intp))[0].item()
                chosen.append(tup)
                have.add(tup)
    pe = np.array([known[t] for t in chosen], dtype=np.float64)
    return ActiveTupleSet(cutset=c, tuples=tuple(chosen), pe=pe)


def _cdf(weights: list[float]) -> list[float] | None:
    """The cdf ``Generator.choice`` makes of ``p = w / w.sum()``, with the
    same float operations in Python floats; None where no weight is
    positive."""
    # np.sum adds fewer than 8 terms left to right and sums pairwise from 8
    # on. The reduce gives the short sums' floats at ~0.25 against ~3.5 µs
    # a call: np.sum alone made a bf-warm selection (~540 draws) ~2.5 ms
    # slower, ~17 against ~19.5 ms (2 vCPU x86_64, numpy 2.4)
    if len(weights) < 8:
        total = functools.reduce(operator.add, weights)
    else:
        total = float(np.sum(weights))
    if not total > 0.0:
        return None
    cdf = list(itertools.accumulate([w / total for w in weights]))
    return [x / cdf[-1] for x in cdf]


def _draw(rng: np.random.Generator, weights: list[float]) -> int | None:
    """``int(rng.choice(len(w), p=w / w.sum()))`` for the weights ``w``,
    without its argument checks: the same cdf and the same draw of the
    random stream, so the same value. None, drawing nothing, where no
    weight is positive."""
    cdf = _cdf(weights)
    return None if cdf is None else bisect.bisect_right(cdf, rng.random())


def _forward_sample_cutset(bn, e, c, rng):
    """Ancestral sample of all variables with observed values forced."""
    sample: dict[int, int] = {}
    for v in bn.topo_order:
        if v in e:
            sample[v] = e[v]
            continue
        row = bn.cpts[v].table[tuple(sample[p] for p in bn.parents(v))]
        drawn = _draw(rng, row.tolist())
        sample[v] = 0 if drawn is None else drawn
    return tuple(sample[v] for v in c.vars)


def build_truncated_tree(c: Cutset, active: ActiveTupleSet) -> TruncatedTree:
    """Partial tuples = leaves above full depth after trimming the value trie.

    Walk the trie of active tuples depth-first in value order; at every node
    on an active path, each value edge that no active tuple takes becomes one
    partial tuple (prefix + that value). An empty active set yields the single
    empty-prefix partial covering the whole space.
    """
    if not c.cards and c.vars:
        raise ValueError("cutset is missing cardinalities")
    if active.h == 0:
        return TruncatedTree(active=active, partials=((),))

    root: dict = {}
    for tup in active.tuples:
        node = root
        for val in tup:
            node = node.setdefault(val, {})

    partials: list[tuple[int, ...]] = []

    def walk(node: dict, depth: int, prefix: tuple[int, ...]):
        if depth == c.size:
            return
        for val in range(c.cards[depth]):
            if val in node:
                walk(node[val], depth + 1, prefix + (val,))
            else:
                partials.append(prefix + (val,))

    walk(root, 0, ())
    return TruncatedTree(active=active, partials=tuple(partials))
