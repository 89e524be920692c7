"""A fixed reference kernel that tracks the speed of the host.

On a shared host the speed of one core drifts by tens of percent within
seconds and between minutes, and the drift is common to everything that
runs on it.  The benchmark runs this kernel before and after every timed
pass, and scales times to the speed at which the kernel takes
``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel_time

Scaled times are seconds on a host where the kernel takes 10 ms.  The
kernel does not call the package, so a change to the package moves scaled
times exactly as it moves measured ones.  Its work mixes what the
workloads spend their time on: an interpreter loop, many numpy calls on
small arrays, and one pass over arrays larger than a core's L2 cache.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010
LOOP = 40_000          # interpreter-loop iterations
SMALL_CALLS = 3000     # pairs of numpy calls on a 64-element array
BIG_LEN = 1 << 18      # float64 elements: 2 MiB per array


def kernel() -> float:
    acc = 0
    for i in range(LOOP):
        acc += (i * i) % 7
    a = np.arange(64.0)
    for _ in range(SMALL_CALLS):
        a = np.sqrt(a + 1.0)
    big = np.arange(BIG_LEN, dtype=float)
    return acc + float(a[0]) + float((big * 0.5).sum())


def measure() -> float:
    """Time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
