"""Moral graphs, elimination orderings, induced width, cutset selection.

Cutset quality only affects efficiency downstream — every selection here is
verified post-hoc (is_loop_cutset / width check) and deterministic, with ties
broken by lowest vertex id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BayesianNetwork


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    adj: tuple[frozenset[int], ...]

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def graph_from_edges(n: int, edges) -> UndirectedGraph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return UndirectedGraph(n, tuple(frozenset(a) for a in adj))


Ordering = tuple[int, ...]


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


def moral_graph(bn: BayesianNetwork) -> UndirectedGraph:
    """Undirected skeleton plus marriage edges between co-parents."""
    edges = []
    for cpt in bn.cpts:
        for p in cpt.parents:
            edges.append((p, cpt.child))
        ps = cpt.parents
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.append((ps[i], ps[j]))
    return graph_from_edges(bn.n, edges)


def induced_width(g: UndirectedGraph, o: Ordering) -> int:
    """Width of the ordered graph, processing vertices from last to first.

    Each processed vertex counts its earlier-ordered neighbors and connects
    them pairwise (triangulation on a working copy).
    """
    if sorted(o) != list(range(g.n)):
        raise ValueError("ordering must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(o)}
    adj = [set(a) for a in g.adj]
    width = 0
    for v in reversed(o):
        earlier = [u for u in adj[v] if pos[u] < pos[v]]
        width = max(width, len(earlier))
        for i in range(len(earlier)):
            for j in range(i + 1, len(earlier)):
                a, b = earlier[i], earlier[j]
                adj[a].add(b)
                adj[b].add(a)
        for u in earlier:
            adj[u].discard(v)
        adj[v] = set()
    return width


def min_fill_ordering(g: UndirectedGraph) -> Ordering:
    """Greedy min-fill elimination order, returned so that processing the
    ordering last-to-first eliminates in greedy pick order. Deterministic:
    ties broken by lowest id."""
    adj = [set(a) for a in g.adj]
    remaining = set(range(g.n))
    picks: list[int] = []
    while remaining:
        best_v, best_fill = -1, None
        for v in sorted(remaining):
            nbrs = [u for u in adj[v] if u in remaining]
            fill = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    if nbrs[j] not in adj[nbrs[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = [u for u in adj[best_v] if u in remaining]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        remaining.discard(best_v)
        picks.append(best_v)
    return tuple(reversed(picks))


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
    """Greedy w-cutset: remove the max-degree moral-graph vertex until the
    min-fill order of the remainder has induced width <= w."""
    if w < 1:
        raise ValueError("w must be >= 1")
    g = moral_graph(bn)
    removed: list[int] = []
    while True:
        sub, mapping = _remove_vertices(g, removed)
        if sub.n == 0 or induced_width(sub, min_fill_ordering(sub)) <= w:
            break
        degs = {}
        inv = {new: old for old, new in mapping.items()}
        for new_v in range(sub.n):
            old = inv[new_v]
            if old not in exclude:
                degs[old] = len(sub.adj[new_v])
        if not degs:
            break  # nothing else may be removed
        pick = max(sorted(degs), key=lambda v: degs[v])
        removed.append(pick)
    return Cutset(vars=tuple(removed), kind="w", w=w).with_cards(bn)


def _remove_vertices(g: UndirectedGraph, removed: list[int]):
    keep = [v for v in range(g.n) if v not in set(removed)]
    mapping = {old: new for new, old in enumerate(keep)}
    edges = [
        (mapping[u], mapping[v])
        for u, v in g.edges()
        if u in mapping and v in mapping
    ]
    return graph_from_edges(len(keep), edges), mapping
