"""The bucket-contraction kernel: the inner loop of bucket elimination.

Given float64 factor tables and, per table, an integer gather map of length
n_out*n_sum, ``contract_bucket`` computes

    out[..., p] = sum_s  prod_f  table_f[..., gather_f[p*n_sum + s]]

i.e. an elementwise product of the gathered tables followed by a sum over the
trailing n_sum block. Tables are gathered along their last axis; leading axes
(a batch of assignments) broadcast, so a table without them serves every row.
The tables may all be one buffer, with the maps of many steps side by side
and the sums written back into it through ``out``: products and sums keep
numpy's order, so a step gives the same floats alone or next to others.
"""

from __future__ import annotations

import types

import numpy as np

#: There is one kernel, in numpy; nothing is compiled.
COMPILED = False


def contract_bucket(tables, gathers, n_out: int, n_sum: int, out=None) -> np.ndarray:
    # take copies, so the result never aliases an input table
    prod = tables[0].take(gathers[0], axis=-1)
    for t, g in zip(tables[1:], gathers[1:]):
        part = t.take(g, axis=-1)
        prod = np.multiply(prod, part, out=prod if prod.ndim >= part.ndim else None)
    if n_sum == 1:
        return np.positive(prod, out=out)
    if n_sum == 2:  # the reduce's floats: one addition, and 0.0 for -0.0 + -0.0
        pair = np.add(prod[..., 0::2], prod[..., 1::2], out=out)
        return np.add(pair, 0.0, out=pair)
    return prod.reshape(prod.shape[:-1] + (n_out, n_sum)).sum(-1, out=out)


#: The namespace ``exact.eliminate`` calls the kernel through.
active = types.SimpleNamespace(contract_bucket=contract_bucket)
