"""A fixed reference kernel that measures how fast the host runs right now.

Shared hosts change speed by tens of percent within seconds, so a raw
latency measures the host as much as the program.  ``run.py`` times this
kernel between every two invocations, on the same pinned CPU, and divides
each invocation's latency by the mean of the kernel times just before and
just after it.  The quotient, in units of one kernel run, moves with the
program and hardly with the host.

The kernel imports nothing from ``susyqw``, so no change to the program can
move it.  It mixes the kinds of work the program does: an interpreter loop,
calls on small NumPy arrays, float formatting and one dense LAPACK
eigensolve.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20180425)
_SMALL = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_DENSE = _RNG.standard_normal((48, 48)) + 1j * _RNG.standard_normal((48, 48))
_VALUES = _RNG.standard_normal(1200).tolist()


def reference_work() -> float:
    """One run of the kernel; returns a value so that no step is skipped."""
    acc = 0.0
    for i in range(15000):
        acc += (i * i) % 7
    m = _SMALL
    for _ in range(200):
        m = _SMALL @ m
        m = m / np.abs(m).max()
    text = ",".join(f"{x:.17g}" for x in _VALUES)
    w = np.linalg.eigvals(_DENSE)
    return acc + float(np.abs(m).sum()) + len(text) + float(np.abs(w).max())


def reference_seconds() -> float:
    """Wall time of one kernel run."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start
