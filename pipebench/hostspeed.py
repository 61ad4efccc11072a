"""Host-speed correction of the benchmark's CPU times.

On a shared virtual machine the CPU time of a fixed piece of work drifts by
15-30% within a minute, as the host's clock and its other tenants change: on
a 2-vCPU x86_64 VM, the same 10 queries took 2.2 s in one 3-second window and
3.7 s in another. That swamps every change of the program smaller than the
drift. So the benchmark runs a fixed reference loop (pure Python and small
numpy operations, the same mix the program runs, and no ``beliefbounds`` code)
right before the first timed call and after every one, and scales each call's
CPU time by ``REF_S`` over the mean time of the reference runs around it.

A corrected time is therefore the CPU time the call would have taken had the
host been running at the speed at which the reference loop takes ``REF_S``
seconds. The program cannot move the reference, so the correction hides no
change of the program; on the VM above it cut the spread of a workload's
median over repeated runs of one seed from 14% to 5%. The raw CPU times and
the speed factor are printed with every run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds of ``reference()`` on the 2-vCPU x86_64 VM the benchmark was
#: tuned on, at that host's usual speed. Corrected times are in seconds at the
#: speed where the reference takes this long.
REF_S = 0.01

#: Reference runs on each side of a call that its correction averages over.
WINDOW = 4

_GRID = np.arange(16.0).reshape(4, 4)


def reference() -> float:
    """Run the fixed reference loop once; return its CPU seconds."""
    c0 = time.process_time()
    counts: dict[int, int] = {}
    for i in range(1700):
        counts[i % 97] = counts.get(i % 97, 0) + i
        _GRID * 0.5 + _GRID.sum(axis=0)
        sorted((i % 13, i % 7, i % 5, 3))
    return time.process_time() - c0


def corrected(times: list[float], refs: list[float], window: int = WINDOW) -> list[float]:
    """Scale ``times[i]``, measured between ``refs[i]`` and ``refs[i + 1]``,
    to the reference speed, by the mean of the reference runs within
    ``window`` places of that pair."""
    assert len(refs) == len(times) + 1
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - window): i + 2 + window]
        out.append(t * REF_S / statistics.fmean(near))
    return out


def speed(refs: list[float]) -> float:
    """How fast the host ran compared with the reference speed (1.0: as
    fast; 0.8: the reference took 25% longer than REF_S)."""
    return REF_S / statistics.median(refs)
