"""Machine-speed reference for the timed metrics.

On a shared host the CPU speed this process gets drifts by tens of percent
over tens of seconds (neighbours contend for the cores, caches and memory;
it is not time stolen from the process: its CPU time tracks its wall time).
A run's median pass time then depends on the minute it ran in.  So every
timed pass and every set-up probe is bracketed by runs of a fixed kernel
that belongs to the benchmark, and its wall time is scaled by

    REFERENCE_S / (mean of the two bracketing kernel times),

which gives seconds at a fixed machine speed: the speed at which the kernel
takes REFERENCE_S (about its median on a shared 2-vCPU x86-64 host with
Python 3.11 and numpy 2.4).  The kernel does not use stochvi, so a change to
the program moves the scaled time by the same factor as the wall time.

The kernel does the three kinds of work a pass does, in one fixed order:
an interpreted integer loop (solver Python), additive Gaussian draws averaged
in batches (the additive oracles) and batches of 8x8 Gaussian matrices applied
to a vector (the matrix-noise oracle).  There is no loop of small numpy
calls: its time swung more than the passes' times did, so scaling by it
added noise instead of removing it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.06
_LOOP = 300_000
_ADDITIVE_BATCHES = (2000, 4000, 8000, 12000) * 3
_MATRIX_BATCHES = (1000, 2000, 3000) * 3


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed kernel.

    Garbage left by the previous pass is collected first, untimed, so the
    kernel does not pay for it.
    """
    gc.collect()
    gen = np.random.Generator(np.random.Philox(11))
    x5, x8 = np.ones(5), np.ones(8)
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    total = float(s)
    for n in _ADDITIVE_BATCHES:
        total += float((x5 + gen.standard_normal((n, 5))).mean(axis=0)[0])
    for n in _MATRIX_BATCHES:
        total += float((gen.standard_normal((n, 8, 8)) @ x8).mean(axis=0)[0])
    t1 = time.perf_counter()
    if not np.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite value")
    return t1 - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds scaled to the machine speed at which the kernel takes
    REFERENCE_S, using the kernel times just before and just after."""
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))
