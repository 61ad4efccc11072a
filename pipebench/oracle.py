"""Independent exact oracle: numpy ``einsum`` over the generator's own CPTs.

It shares no code with ``beliefbounds``: it reads the tables the generator
drew, not the parsed network, and contracts them with ``numpy.einsum``
instead of the package's elimination plans. Evidence enters as one indicator
vector per observed node, multiplied into that node's own table, so every
query on networks of one shape has the same contraction structure, and the
contraction paths are built once per shape and output.

numpy's own path search does badly here (on a 6x6 grid its greedy path
creates a contraction over 28 indices), so the paths are bucket orders:
nodes are summed out in id order, each step contracting every operand that
still holds the node. On a grid whose ids run row by row that keeps every
intermediate within about one row of nodes.
"""

from __future__ import annotations

import numpy as np

#: ``einsum`` sublist labels must lie in range(52).
MAX_VARS = 52



def _bucket_path(scopes, out: list[int]) -> list:
    live = [set(s) for s in scopes]
    path: list = ["einsum_path"]
    for v in range(len(scopes)):
        if v in out:
            continue
        hold = tuple(i for i, s in enumerate(live) if v in s)
        if not hold:
            continue
        merged = set().union(*(live[i] for i in hold)) - {v}
        live = [s for i, s in enumerate(live) if i not in hold] + [merged]
        path.append(hold)
    if len(live) > 1:
        path.append(tuple(range(len(live))))
    return path


class Oracle:
    """Exact P(e) and posterior marginals of one generated network.

    ``parents[v]`` and ``tables[v]`` follow the generator's layout: parent
    axes first, in ``parents[v]`` order, then the node's own axis. ``paths``
    holds contraction paths by (scopes, output) and may be shared by oracles
    of networks with one shape.
    """

    def __init__(self, parents, tables, paths: dict | None = None):
        if len(tables) > MAX_VARS:
            raise ValueError(f"{len(tables)} variables exceed the einsum label limit")
        self.scopes = [list(ps) + [v] for v, ps in enumerate(parents)]
        self.tables = [np.asarray(t, dtype=np.float64) for t in tables]
        self._paths = {} if paths is None else paths
        self._memo: dict[tuple, tuple] = {}

    def _contract(self, ops, out: list[int]) -> np.ndarray:
        args = []
        for table, scope in zip(ops, self.scopes):
            args += [table, scope]
        key = (tuple(map(tuple, self.scopes)), tuple(out))
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = _bucket_path(self.scopes, out)
        return np.einsum(*args, out, optimize=path)

    def solve(self, e: dict[int, int]):
        """(P(e), {unobserved node: P(node | e) as an array}), memoised per
        evidence set."""
        key = tuple(sorted(e.items()))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        ops = []
        for v, table in enumerate(self.tables):
            if v in e:
                ind = np.zeros(table.shape[-1])
                ind[e[v]] = 1.0
                table = table * ind
            ops.append(table)
        pe = float(self._contract(ops, []))
        marginals = {
            v: self._contract(ops, [v]) / pe for v in range(len(ops)) if v not in e
        }
        self._memo[key] = (pe, marginals)
        return pe, marginals
