"""Active cutset tuples and the truncated search tree.

The engine evaluates h full cutset instantiations exactly ("active" tuples,
ideally the highest-mass ones) and bounds the rest of the cutset space. The
remainder is organized by the truncated search tree: walking the value trie
of the active tuples, every branch that leaves the active paths becomes one
partially-instantiated tuple, so actives and partials partition the space.

When the cutset space is too large to rank, a seeded Gibbs chain over the
cutset picks the active tuples. Whenever the chain needs a tuple it has not
evaluated, one batched elimination gives the current state and every unseen
tuple one coordinate away from it, so a sweep costs about one elimination
per change of state rather than one per newly visited tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the benchmark's tracer wraps tuples.bucket_eliminate_pe, so the name stays
from .exact import bucket_eliminate_pe  # noqa: F401
from .exact import eliminate
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

    When the cutset space M is at most ``EXHAUSTIVE_CAP`` the selection is
    exhaustive: one batched elimination gives every tuple's mass, exactly as
    the chain would evaluate it, and the true top-h by P(c,e) is taken, ties
    broken lexicographically (nested prefixes across h come for free).
    Otherwise a single seeded Gibbs chain over the cutset explores tuples;
    every distinct visited tuple is a candidate, the unseen one-coordinate
    neighbours of a state are evaluated in one batched elimination, revisits
    cost nothing, zero-probability tuples are admitted only when fewer than
    h positive-mass tuples were seen, and the set is padded deterministically
    (one tuple per elimination) if the chain found fewer than h distinct
    tuples. ``sweeps < 0`` raises ``ValueError``; so does a cutset that does
    not fit the network (see ``Cutset.with_cards``).
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

    if m <= EXHAUSTIVE_CAP:
        masses = _tuple_masses(bn, e, c, list(assignment_tuples(c.cards)))
        ranked = sorted(masses.items(), key=lambda kv: (-kv[1], kv[0]))[:h]
        pe = np.array([p for _, p in ranked], dtype=np.float64)
        return ActiveTupleSet(cutset=c, tuples=tuple(t for t, _ in ranked), pe=pe)

    return _gibbs_select(bn, e, c, h, sweeps, seed)


def _gibbs_select(bn, e, c, h, sweeps, seed) -> ActiveTupleSet:
    rng = np.random.default_rng(seed)
    visited: dict[tuple[int, ...], float] = {}
    known: dict[tuple[int, ...], float] = {}  # evaluated, visited or not

    def mass(tup, around) -> float:
        p = visited.get(tup)
        if p is None:
            if tup not in known:
                # every value a sweep tries lies one coordinate away from
                # the chain's state: evaluate all those not yet seen at once
                near = [around] + [
                    around[:k] + (val,) + around[k + 1:]
                    for k in range(c.size) for val in range(c.cards[k]) if val != around[k]
                ]
                known.update(_tuple_masses(bn, e, c, [t for t in near if t not in known]))
            p = visited[tup] = known[tup]
        return p

    state = list(_forward_sample_cutset(bn, e, c, rng))
    mass(tuple(state), tuple(state))
    for _ in range(sweeps):
        for k in range(c.size):
            current = state[k]
            around = tuple(state)
            probs = np.empty(c.cards[k])
            for val in range(c.cards[k]):
                state[k] = val
                probs[val] = mass(tuple(state), around)
            total = probs.sum()
            if total > 0.0:
                state[k] = int(rng.choice(c.cards[k], p=probs / total))
            else:  # all-zero conditional: keep the current value
                state[k] = current
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
                    known.update(_tuple_masses(bn, e, c, [tup]))
                chosen.append(tup)
                have.add(tup)
    pe = np.array([known[t] for t in chosen], dtype=np.float64)
    return ActiveTupleSet(cutset=c, tuples=tuple(chosen), pe=pe)


def _tuple_masses(bn, e, c, tups) -> dict[tuple[int, ...], float]:
    """P(c, e) of each full cutset tuple, from one batched elimination.

    The cutset's own values replace evidence on shared variables; a tuple
    that contradicts that evidence has mass 0.
    """
    columns = np.array(tups, dtype=np.int64).reshape(len(tups), c.size).T
    assigned = {v: x for v, x in e.items() if v not in c.vars}
    assigned.update(zip(c.vars, columns))
    out = eliminate(bn, assigned).reshape(len(tups))
    for k, v in enumerate(c.vars):
        if v in e:
            out[columns[k] != e[v]] = 0.0
    return dict(zip(tups, out.tolist()))


def _forward_sample_cutset(bn, e, c, rng):
    """Ancestral sample of all variables with observed values forced."""
    sample: dict[int, int] = {}
    for v in bn.topo_order:
        if v in e:
            sample[v] = e[v]
            continue
        row = bn.cpts[v].table[tuple(sample[p] for p in bn.parents(v))]
        total = row.sum()
        if total <= 0.0:
            sample[v] = 0
        else:
            sample[v] = int(rng.choice(bn.cards[v], p=row / total))
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
