"""Active cutset tuples and the truncated search tree.

The engine evaluates h full cutset instantiations exactly ("active" tuples,
ideally the highest-mass ones) and bounds the rest of the cutset space. The
remainder is organized by the truncated search tree: walking the value trie
of the active tuples, every branch that leaves the active paths becomes one
partially-instantiated tuple, so actives and partials partition the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import bucket_eliminate_pe, conditioned_joint, eliminate
from .graphs import Cutset
from .model import BayesianNetwork, Evidence, assignment_tuples, merge_assignment

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
        if h > self.h:
            raise ValueError(f"prefix {h} > h={self.h}")
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
    cap: int = EXHAUSTIVE_CAP,
) -> ActiveTupleSet:
    """Pick h distinct cutset tuples aiming for the highest P(c, e) mass.

    When the cutset space M fits under ``cap`` the selection is exhaustive:
    the true top-h by P(c,e), ties broken lexicographically (nested prefixes
    across h come for free). Otherwise a single seeded Gibbs chain over the
    cutset explores tuples; every distinct visited tuple is a candidate,
    revisits cost nothing, zero-probability tuples are admitted only when
    fewer than h positive-mass tuples were seen, and the set is padded
    deterministically if the chain found fewer than h distinct tuples.
    """
    c = c if c.cards else c.with_cards(bn)
    m = c.n_tuples
    if h > m:
        raise ValueError(f"h={h} exceeds cutset space M={m}")
    if h < 0:
        raise ValueError("h must be >= 0")

    if m <= cap:
        table = eliminate(bn, e, c.vars).reshape(-1)
        order = sorted(range(m), key=lambda i: (-table[i], i))[:h]
        all_tuples = list(assignment_tuples(c.cards))
        tuples = tuple(all_tuples[i] for i in order)
        pe = np.array([table[i] for i in order], dtype=np.float64)
        return ActiveTupleSet(cutset=c, tuples=tuples, pe=pe)

    return _gibbs_select(bn, e, c, h, sweeps, seed)


def _gibbs_select(bn, e, c, h, sweeps, seed) -> ActiveTupleSet:
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


def partition_check(
    bn: BayesianNetwork, e: Evidence, tree: TruncatedTree, max_terms: int = EXHAUSTIVE_CAP
) -> tuple[float, float]:
    """(active mass, partial mass), each recomputed exactly from scratch.

    Test-oracle operation: with a correct tree the two masses sum to P(e).
    """
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
