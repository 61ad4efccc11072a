"""The bucket-contraction kernel: the inner loop of bucket elimination.

Given float64 factor tables and, per table, an integer gather map of length
n_out*n_sum, ``contract_bucket`` computes

    out[..., p] = sum_s  prod_f  table_f[..., gather_f[p*n_sum + s]]

i.e. an elementwise product of the gathered tables followed by a sum over the
trailing n_sum block. Tables are gathered along their last axis; leading axes
(a batch of assignments) broadcast, so a table without them serves every row.
"""

from __future__ import annotations

import types

import numpy as np

#: There is one kernel, in numpy; nothing is compiled.
COMPILED = False


def contract_bucket(tables, gathers, n_out: int, n_sum: int) -> np.ndarray:
    # take copies, so the result never aliases an input table
    prod = tables[0].take(gathers[0], axis=-1)
    for t, g in zip(tables[1:], gathers[1:]):
        prod = prod * t.take(g, axis=-1)
    lead = prod.shape[:-1]
    if n_sum == 1:
        return prod.reshape(lead + (n_out,))
    return prod.reshape(lead + (n_out, n_sum)).sum(-1)


#: The namespace ``exact.eliminate`` calls the kernel through.
active = types.SimpleNamespace(contract_bucket=contract_bucket)
