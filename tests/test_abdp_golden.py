"""Frozen outputs of the abdp bounder on fixed seeded networks.

Bound propagation and the batched per-tuple tables must reproduce these
numbers bit for bit: a change that only reorganises the computation keeps
every float. A change meant to move the bounds regenerates the file with

    PYTHONPATH=src python tests/test_abdp_golden.py

and says why in its description. The snapshot was taken on x86-64 with
numpy's bundled OpenBLAS; another BLAS may round the blanket LPs' dot
products differently and fail this test without any change to the code.
"""

from __future__ import annotations

import json
import os

import numpy as np

from beliefbounds.bounder import ChainPropagationBounder, propagate_marginal_bounds
from beliefbounds.graphs import find_loop_cutset

from conftest import free_cells, grid_network, random_evidence, random_network

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "abdp_golden.json")


def _cases():
    """(name, network, evidence, k, iters, partial tuples to tabulate)."""
    grid = grid_network(4, 5, 30, 0)
    yield "grid4x5", grid, {10: 0, 12: 0, 15: 1}, 2**10, 7, (
        (), ((6, 1),), ((6, 1), (8, 1), (1, 0)),
    )
    diag = grid_network(4, 4, 0, 3)
    yield "grid4x4-diagonal", diag, {0: 1, 5: 0, 10: 1, 15: 0}, 2**10, 4, (
        (), ((2, 0),), ((2, 1), (7, 0)),
    )
    # ternary variables, and a k small enough that variable 4 is skipped
    rng = np.random.default_rng(5)
    bn = random_network(rng, n=9, max_card=3)
    e = random_evidence(rng, bn, max_obs=3)
    yield "random9-k24", bn, e, 24, 10, ((), ((2, 2),), ((2, 1), (4, 0)))


def _marginals(mb) -> dict:
    return {
        "lows": [mb.lows[v].tolist() for v in sorted(mb.lows)],
        "highs": [mb.highs[v].tolist() for v in sorted(mb.highs)],
        "iterations": mb.iterations,
        "skipped": sorted(mb.skipped),
    }


def _tables(bounder, partial) -> dict:
    tab = bounder.tuple_tables(partial)
    cells = free_cells(bounder, partial, tab)
    # the extension priors: the cap row's cells of the free cutset variables
    (cap,) = bounder._load_priors([partial])[1]
    free = sorted(set(bounder.cutset_vars) - set(dict(partial)) - set(bounder.e))
    return {
        "prior": tab.prior,
        "joint": list(tab.joint),
        "var_low": [[v, low.tolist()] for v, (low, _) in cells.items()],
        "var_high": [[v, high.tolist()] for v, (_, high) in cells.items()],
        "var_prior": [[v, cap[bounder.cells[v]].tolist()] for v in free],
        "cost": tab.cost,
    }


def snapshot() -> str:
    out = {}
    for name, bn, e, k, iters, partials in _cases():
        cut = find_loop_cutset(bn, exclude=frozenset(e))
        bounder = ChainPropagationBounder(bn, e, cut.vars, k=k, iters=iters)
        entry = {
            "evidence": sorted(e.items()),
            "cutset": list(cut.vars),
            "propagate": _marginals(propagate_marginal_bounds(bn, e, k=k, max_iters=iters)),
            "tuple_tables": [],
        }
        for partial in partials:
            cond = {**e, **dict(partial)}
            entry["tuple_tables"].append({
                "partial": [list(p) for p in partial],
                "propagate": _marginals(
                    propagate_marginal_bounds(bn, cond, k=k, max_iters=iters)
                ),
                "tables": _tables(bounder, partial),
            })
        out[name] = entry
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_abdp_outputs_match_the_frozen_snapshot():
    with open(GOLDEN) as fh:
        want = fh.read()
    assert snapshot() == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(snapshot())
