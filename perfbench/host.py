"""Host speed probe: a fixed calibration pass that never calls the program.

On a shared virtual machine the speed of the host drifts: on the 2-CPU
VM the benchmark was tuned on, the median solve time of a whole
30-second run moved by up to 60% from one run to the next, with the same
inputs.  Timing the program alone cannot tell that drift from a program
change.  The probe times a fixed mix of interpreter work and small numpy
kernels, the two kinds of work the solvers do, between solves.  It
allocates no arrays, so the program's heap state cannot change its cost.
The median of a group of passes, divided by :data:`REFERENCE_S`, is
that group's host factor.  Each end-to-end time is reported divided by
the factor of the passes taken alongside it (rates multiplied), i.e. in
seconds of a host on which the pass takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Pass seconds on the reference host.  It only sets the scale: a typical
#: pass median on the 2-CPU container the benchmark was tuned on.
REFERENCE_S = 0.0090

_GENERATOR = np.random.default_rng(0)
_MATRIX = _GENERATOR.random((60, 400))
_SCRATCH = np.empty_like(_MATRIX)
_ORDER = _GENERATOR.permutation(20_000).tolist()


def probe_once() -> float:
    """Seconds one calibration pass takes now."""
    started = time.perf_counter()
    total = 0
    for _ in range(3):
        for value in _ORDER:
            total += value & 7
    for _ in range(100):
        np.copyto(_SCRATCH, _MATRIX)
        _SCRATCH.sort(axis=1)
        total += int(_SCRATCH[:, -1].sum())
    return time.perf_counter() - started


def factor(samples: List[float]) -> float:
    """Median pass time over :data:`REFERENCE_S` (above 1: a slower host)."""
    return statistics.median(samples) / REFERENCE_S
