"""How fast the host runs right now, from a fixed calibration kernel.

A shared host slows every process on it by 1.3-1.7x for seconds to
minutes at a time, in CPU time as well as wall time, and a run of the
benchmark cannot avoid those phases.  The kernel below (interpreter-bound
dict work plus small einsum and BLAS contractions, the two kinds of work
``Engine.check`` does) slows down with them.  How closely a request
follows the kernel, run between requests, depends on its work: small contractions and interpreter-bound planning slow down as much as
the kernel, large memory-bound contractions (qft7 and qft9 on einsum)
and disk reads about half as much.  Each workload therefore carries a
sensitivity ``s``, the exponent in ``latency ~ kernel time ** s``
fitted on a 2-CPU x86-64 host over the slopes of its rows, and the
benchmark reports its timing metrics at the reference speed, the speed
at which one kernel run takes :data:`REFERENCE_SECONDS`:

    reported = measured * factor,
    factor = (REFERENCE_SECONDS / kernel time) ** s

The kernel is part of the benchmark, not of the program, so a change to
the program moves the reported figures and a change of host speed does
not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: One kernel run on a 2-CPU x86-64 host (Python 3, OpenBLAS) when no
#: neighbour load slows it: the speed the figures are reported at.
REFERENCE_SECONDS = 1.0e-3

_MATRIX = np.random.default_rng(0).random((64, 64))


def _body() -> None:
    table = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(6):
        np.einsum("ij,jk->ik", _MATRIX, _MATRIX)
    for _ in range(30):
        np.tensordot(_MATRIX, _MATRIX, axes=1)


def kernel() -> float:
    """Run the calibration kernel once; its wall time in seconds.

    The first pass after a request runs ~8% slower on caches the request
    evicted, so a program that touched more memory would read as a
    slower host; the untimed pass refills them."""
    _body()
    started = time.perf_counter()
    _body()
    return time.perf_counter() - started


def factor(samples, sensitivity: float) -> float:
    """Reference-speed factor for a list of kernel times, for a workload
    whose latency goes as ``kernel time ** sensitivity``."""
    return (REFERENCE_SECONDS / statistics.median(samples)) ** sensitivity


def measure(sensitivity: float, runs: int = 9) -> float:
    """Reference-speed factor of the host now, from ``runs`` kernel runs."""
    return factor([kernel() for _ in range(runs)], sensitivity)
