"""Speed floors of the fast paths, as min-of-N wall-clock ratios.

Each floor is at most half the ratio measured on the same instance when
the floor was set (the measured ratios are noted per test), so a busy
host does not trip it, while a fast path that stops paying does.
"""

import os
import time

import numpy as np
import pytest

from repro.core.distributed import DistributedConfig
from repro.core.subproblem import SubproblemConfig, solve_subproblem
from repro.experiments.config import ScenarioConfig, build_problem
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


def test_batched_oracle_beats_legacy():
    """Measured 8.2x on one CPU and 17.7x to 18.5x on two; floor 4x."""
    problem = build_problem(ScenarioConfig(num_groups=12, num_links=16), rng=7)
    rng = np.random.default_rng(0)
    aggregate = np.clip(rng.random((problem.num_groups, problem.num_files)) * 0.6, 0.0, 1.0)
    batched_config = SubproblemConfig(oracle="batched")
    legacy_config = SubproblemConfig(oracle="legacy")

    def batched():
        return solve_subproblem(problem, 0, aggregate, batched_config)

    def legacy():
        return solve_subproblem(problem, 0, aggregate, legacy_config)

    fast, reference = batched(), legacy()
    np.testing.assert_array_equal(fast.caching, reference.caching)
    np.testing.assert_array_equal(fast.routing, reference.routing)
    assert fast.cost == reference.cost
    assert fast.dual_history == reference.dual_history
    assert _best_of(3, legacy) / _best_of(5, batched) >= 4.0


def test_sweep_engine_beats_legacy_engine():
    """Default serial sweep vs the validating oracle without dedup.
    Measured 3.2x on two CPUs; floor 1.5x."""

    def legacy():
        _sweep(SubproblemConfig(oracle="legacy"), seeds=(7,), max_iterations=1, dedup=False)

    def default():
        _sweep(SubproblemConfig(), seeds=(7,), max_iterations=1)

    assert _best_of(2, legacy) / _best_of(3, default) >= 1.5


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
