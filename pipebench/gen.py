"""Seeded input generators: binary grid networks and evidence sets as text.

The program under test only ever sees the text these functions return, in the
UAI ``BAYES`` grammar and the evidence grammar that ``beliefbounds`` parses.
The same arguments always give the same text.
"""

from __future__ import annotations

import numpy as np

#: Dirichlet concentration of every CPT row. Values well below 1 skew the rows,
#: so a few cutset tuples carry most of the mass and intervals visibly narrow
#: as h grows.
ALPHA = 0.3

#: Smallest CPT entry. Rows are floored here and renormalised so that no event
#: has probability exactly 0 and every evidence set drawn below is possible.
FLOOR = 1e-6


class Grid:
    """Binary grid network: node (i, j) has parents (i-1, j) and (i, j-1).

    Node (i, j) has id ``i * cols + j``, so ids are a topological order.
    The CPTs are drawn from a generator seeded with ``key`` (and the shape).
    ``tables[v]`` has shape (2,) * (len(parents[v]) + 1): parent axes in
    ``parents[v]`` order, the child value last.
    """

    def __init__(self, rows: int, cols: int, *key: int):
        self.rows, self.cols = rows, cols
        rng = np.random.default_rng([*key, rows, cols])
        self.parents: list[tuple[int, ...]] = []
        self.tables: list[np.ndarray] = []
        for i in range(rows):
            for j in range(cols):
                ps = tuple(
                    p for p in ((i - 1) * cols + j if i else None,
                                i * cols + j - 1 if j else None) if p is not None
                )
                flat = rng.dirichlet([ALPHA, ALPHA], size=2 ** len(ps))
                flat = np.maximum(flat, FLOOR)
                flat /= flat.sum(axis=1, keepdims=True)
                self.parents.append(ps)
                self.tables.append(flat.reshape((2,) * (len(ps) + 1)))

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def text(self) -> str:
        lines = ["BAYES", str(self.n), " ".join(["2"] * self.n), str(self.n)]
        for v, ps in enumerate(self.parents):
            scope = ps + (v,)
            lines.append(f"{len(scope)} " + " ".join(map(str, scope)))
        for table in self.tables:
            flat = table.reshape(-1)
            lines.append(str(flat.size))
            lines.append(" ".join(format(float(x), ".17g") for x in flat))
        return "\n".join(lines) + "\n"

    def sample(self, rng: np.random.Generator) -> list[int]:
        """One ancestral sample of every node."""
        x: list[int] = []
        for v, ps in enumerate(self.parents):
            row = self.tables[v][tuple(x[p] for p in ps)]
            x.append(int(rng.random() < row[1]))
        return x


def evidence(grid: Grid, seed: int, query: int, diagonal: bool = False) -> dict[int, int]:
    """Evidence for one query: 3 or 4 distinct nodes, values from one sample
    of the network, so the evidence is typical rather than near-impossible.

    With ``diagonal`` the nodes are the grid's diagonal (i, i), min(rows,
    cols) of them, in every query and only their values are drawn, so every
    query has the same loop cutset.
    """
    rng = np.random.default_rng([seed, query, 7])  # 7: apart from the CPT streams
    if diagonal:
        nodes = [i * grid.cols + i for i in range(min(grid.rows, grid.cols))]
    else:
        size = int(rng.integers(3, 5))
        nodes = sorted(int(v) for v in rng.choice(grid.n, size=size, replace=False))
    x = grid.sample(rng)
    return {v: x[v] for v in nodes}


def evidence_text(e: dict[int, int]) -> str:
    return f"{len(e)}\n" + "".join(f"{v} {x}\n" for v, x in sorted(e.items()))
