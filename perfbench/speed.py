"""Host-speed probe: a fixed piece of work, timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python loop or the same ``eigh`` can take 0.13 s in one second and
0.2 s a few seconds later, in step with each other. A run therefore times
the probe before and after every operation and reports wall times scaled by
``REFERENCE_S / probe``: the seconds the operation would have taken on a
host where the probe takes ``REFERENCE_S``. The probe is perfbench code
only, so a change to hierwalk moves the scaled times exactly as it moves
the wall times; the scale cancels only the host's own drift.

The work mixes what the workloads do: interpreter-bound Python, many small
numpy calls and a batch of small ``eigh``, all on one thread. Times of
these track the workloads' own times on the drifting host (correlation
0.6-0.9); a BLAS-threaded matmul and first-touch page faults were tried
and left out, because their times jump independently of the workloads.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS).
REFERENCE_S = 0.012

_RNG = np.random.default_rng(12345)
_SYM = _RNG.normal(size=(96, 8, 8))
_SYM = _SYM + np.swapaxes(_SYM, 1, 2)
_VEC = _RNG.normal(size=16)


def _python_work() -> int:
    table = {}
    total = 0
    for i in range(12000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) * (i & 7)
    return total + len(table)


def _numpy_work() -> float:
    acc = 0.0
    for _ in range(300):
        acc += float(np.dot(_VEC, np.exp(-_VEC * 0.1)))
    for a in _SYM:
        acc += float(np.linalg.eigh(a)[0][0])
    return acc


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - start


class SpeedScale:
    """Scales wall times by host speed, probing between operations.

    ``mark()`` probes and returns the probe time; ``scale(before, after)``
    is the factor for an operation that ran between two probes.
    """

    def __init__(self):
        for _ in range(3):     # first calls pay lazy LAPACK and allocator set-up
            probe()
        self.samples = []

    def mark(self) -> float:
        p = probe()
        self.samples.append(p)
        return p

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_S / (0.5 * (before + after))
