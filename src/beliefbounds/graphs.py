"""Min-fill elimination orders, loop cutsets and w-cutsets.

``min_fill_order`` is the one elimination-order heuristic: every exact plan
eliminates in its order, and ``find_w_cutset`` measures width with it, so a
w-cutset's promise holds for the plans that sum its tuples.

Cutset quality only affects efficiency downstream — every selection here is
verified post-hoc (is_loop_cutset / width check) and deterministic, with ties
broken by lowest vertex id.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .model import BayesianNetwork


@dataclass(frozen=True)
class Cutset:
    """Ordered conditioning set; order is the search-tree expansion order."""

    vars: tuple[int, ...]
    kind: str = "loop"  # "loop" | "w"
    w: int | None = None
    cards: tuple[int, ...] = ()

    def __post_init__(self):
        if self.cards and len(self.cards) != len(self.vars):
            raise ValueError("cards must align with vars")

    @property
    def size(self) -> int:
        return len(self.vars)

    @property
    def n_tuples(self) -> int:
        """M = number of full cutset instantiations."""
        return math.prod(self.cards) if self.vars else 1

    def with_cards(self, bn: BayesianNetwork) -> "Cutset":
        return Cutset(self.vars, self.kind, self.w, tuple(bn.cards[v] for v in self.vars))


# ---------------------------------------------------------------------------
# min-fill

def min_fill_order(scopes, elim, keep=()) -> tuple[list[int], int]:
    """Min-fill over the interaction graph of the scopes; kept variables stay.

    Returns (order, width): the order eliminates ``elim`` and width is the
    most neighbours a variable has when it is eliminated. Eliminates, at each
    step, the variable with the smallest (fill edges, degree, id). Keys are
    kept per variable and updated where elimination changes them: the
    eliminated variable's neighbours are scored again, and a variable next to
    both ends of a new fill edge has one pair fewer to fill.
    """
    adj: dict[int, set[int]] = {v: set() for v in elim}
    for v in keep:
        adj.setdefault(v, set())
    for scope in scopes:
        for a in scope:
            for b in scope:
                if a != b:
                    adj.setdefault(a, set()).add(b)

    def key(v):
        nbrs = adj[v]
        d = len(nbrs)
        # ordered pairs of neighbours, less those already adjacent
        missing = d * (d - 1) - sum(map(len, map(nbrs.intersection, map(adj.get, nbrs))))
        return (missing // 2, d, v)

    keys = {v: key(v) for v in elim}
    heap = list(keys.values())
    heapq.heapify(heap)
    seq = []
    width = 0
    while keys:
        entry = heapq.heappop(heap)
        best = entry[2]
        if keys.get(best) != entry:
            continue  # stale: the variable was rescored or already eliminated
        del keys[best]
        seq.append(best)
        nbrs = adj.pop(best)
        width = max(width, len(nbrs))
        for u in nbrs:
            adj[u].discard(best)
        filled: dict[int, int] = {}
        for u in nbrs:
            for w in nbrs - adj[u]:
                if u < w:  # each new edge u-w once (excludes u itself)
                    for x in adj[u] & adj[w]:
                        filled[x] = filled.get(x, 0) + 1
        for u in nbrs:
            adj[u] |= nbrs
            adj[u].discard(u)
        for x, n in filled.items():
            if x in keys and x not in nbrs:
                fill, deg, _ = keys[x]
                keys[x] = (fill - n, deg, x)
                heapq.heappush(heap, keys[x])
        for u in nbrs:
            if u in keys:
                keys[u] = key(u)
                heapq.heappush(heap, keys[u])
    return seq, width


# ---------------------------------------------------------------------------
# loop cutsets

def _skeleton_after_cut(bn: BayesianNetwork, cut: set[int]) -> list[tuple[int, int]]:
    """Directed edges surviving deletion of all out-edges of cut vertices,
    as undirected pairs."""
    edges = []
    for cpt in bn.cpts:
        for p in cpt.parents:
            if p not in cut:
                edges.append((p, cpt.child))
    return edges


def _has_cycle(n: int, edges) -> bool:
    # union-find on the undirected skeleton; a repeated component join is a cycle
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def is_loop_cutset(bn: BayesianNetwork, c: Cutset | set[int] | tuple[int, ...]) -> bool:
    """True iff deleting every out-edge of each cutset vertex leaves a
    network whose underlying undirected graph is acyclic."""
    cut = set(c.vars) if isinstance(c, Cutset) else set(c)
    return not _has_cycle(bn.n, _skeleton_after_cut(bn, cut))


def find_loop_cutset(bn: BayesianNetwork, exclude: frozenset[int] | set[int] = frozenset()) -> Cutset:
    """Greedy loop cutset: repeatedly pick the max-degree allowed vertex in
    the remaining loopy part, delete its out-edges, until loop-free; then try
    dropping each chosen vertex (minimalization).

    ``exclude`` vertices are never selected; with a nonempty exclude set the
    guarantee becomes "deleting out-edges of (result + exclude) leaves a
    forest", which the engine uses to keep cutsets disjoint from evidence.
    """
    cut: list[int] = []
    base = set(exclude)
    while _has_cycle(bn.n, _skeleton_after_cut(bn, base | set(cut))):
        core = _two_core(bn.n, _skeleton_after_cut(bn, base | set(cut)))
        # allowed: a vertex with an out-edge inside the remaining loopy part
        deg: dict[int, int] = {}
        for cpt in bn.cpts:
            for p in cpt.parents:
                if p in core and cpt.child in core and p not in base and p not in cut:
                    if p not in exclude:
                        deg[p] = deg.get(p, 0) + 1
        if not deg:
            break  # every remaining loop is already broken by excluded vertices
        undeg = {v: 0 for v in deg}
        for u, v in _skeleton_after_cut(bn, base | set(cut)):
            if u in undeg:
                undeg[u] += 1
            if v in undeg:
                undeg[v] += 1
        pick = max(sorted(undeg), key=lambda v: undeg[v])
        cut.append(pick)
    # minimalize: drop any vertex whose removal keeps the property
    for v in list(cut):
        trial = [u for u in cut if u != v]
        if not _has_cycle(bn.n, _skeleton_after_cut(bn, base | set(trial))):
            cut = trial
    return Cutset(vars=tuple(cut), kind="loop").with_cards(bn)


def _two_core(n: int, edges) -> set[int]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = {v for v in range(n) if adj[v]}
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if len(adj[v] & alive) <= 1:
                alive.discard(v)
                changed = True
    return alive


def find_w_cutset(
    bn: BayesianNetwork, w: int, exclude: frozenset[int] | set[int] = frozenset()
) -> Cutset:
    """Greedy w-cutset: remove the allowed variable with the most moral-graph
    neighbours left (ties to the lowest id) until ``min_fill_order`` of the
    rest has width <= w. The rest is the CPT scopes less the removed
    variables, which is what a plan sees once the cutset is assigned."""
    if w < 1:
        raise ValueError(f"w must be at least 1, got {w}")
    scopes = [cpt.parents + (cpt.child,) for cpt in bn.cpts]
    nbrs: list[set[int]] = [set() for _ in range(bn.n)]
    for scope in scopes:
        for v in scope:
            nbrs[v].update(u for u in scope if u != v)
    removed: list[int] = []
    while True:
        gone = set(removed)
        rest = [v for v in range(bn.n) if v not in gone]
        residual = [tuple(v for v in scope if v not in gone) for scope in scopes]
        if min_fill_order(residual, rest)[1] <= w:
            break
        degs = {v: len(nbrs[v] - gone) for v in rest if v not in exclude}
        if not degs:
            break  # nothing else may be removed
        removed.append(max(sorted(degs), key=lambda v: degs[v]))
    return Cutset(vars=tuple(removed), kind="w", w=w).with_cards(bn)
