"""Speed floors of the fast paths, as min-of-N wall-clock ratios.

Each floor is at most half the ratio measured on the same instance when
the floor was set (the measured ratios are noted per test), so a busy
host does not trip it, while a fast path that stops paying does.
"""

import os
import time

import pytest

from repro.core.distributed import DistributedConfig
from repro.core.subproblem import SubproblemConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_sweep

TINY = ScenarioConfig(num_groups=8, num_links=10)


def _best_of(repeats, fn):
    """Minimum wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep(config, *, seeds, max_iterations, **kwargs):
    distributed = DistributedConfig(
        accuracy=1e-3, max_iterations=max_iterations, subproblem=config
    )
    return run_sweep(
        "speed",
        "epsilon",
        [0.1, 10.0],
        lambda _x: TINY,
        epsilon_of_x=lambda x: float(x),
        seeds=seeds,
        distributed_config=distributed,
        **kwargs,
    )


def test_sweep_engine_beats_legacy_engine():
    """Default serial sweep (dedup) vs the engine before it: the same
    sweep without dedup.  Measured 1.9x on two CPUs; floor 1.0x."""

    def legacy():
        _sweep(SubproblemConfig(), seeds=(7,), max_iterations=1, dedup=False)

    def default():
        _sweep(SubproblemConfig(), seeds=(7,), max_iterations=1)

    assert _best_of(2, legacy) / _best_of(3, default) >= 1.0


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_parallel_sweep_keeps_pace_with_serial():
    """``workers=2`` vs ``workers=1``, repetitions interleaved so drift
    does not favour either side.  Measured 1.33x to 2.21x on two CPUs;
    floor 0.6x."""
    serial = parallel = float("inf")
    for _ in range(3):
        serial = min(serial, _best_of(1, lambda: _sweep(
            SubproblemConfig(), seeds=(7, 11), max_iterations=2, workers=1)))
        parallel = min(parallel, _best_of(1, lambda: _sweep(
            SubproblemConfig(), seeds=(7, 11), max_iterations=2, workers=2)))
    assert serial / parallel >= 0.6
