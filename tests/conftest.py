"""Shared fixtures: small, hand-checkable problem instances."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.problem import ProblemInstance


def solution_digest(solutions) -> str:
    """SHA-256 over every output of a sequence of subproblem solutions:
    the cache set and routing bytes, and the reprs of the cost, best
    dual, dual history, iteration count and convergence flag.

    The seeded subproblem tests pin these digests.  Each solution also
    hashes the ``b"-"`` an absent multiplier array used to contribute,
    so digests recorded while solutions still carried one stay valid.
    """
    digest = hashlib.sha256()
    for solution in solutions:
        for array in (solution.caching, solution.routing):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(b"-")
        scalars = (
            float(solution.cost),
            float(solution.best_dual),
            tuple(float(value) for value in solution.dual_history),
            int(solution.iterations),
            bool(solution.converged),
        )
        digest.update(repr(scalars).encode())
    return digest.hexdigest()


def make_tiny_problem() -> ProblemInstance:
    """Two SBSs, three MU groups, four files — small enough to reason about.

    SBS 0 reaches groups {0, 1}; SBS 1 reaches groups {1, 2}.  Group 1 is
    shared.  Cache size 2, bandwidth 10 per SBS.
    """
    demand = np.array(
        [
            [8.0, 4.0, 2.0, 1.0],
            [6.0, 3.0, 1.0, 0.5],
            [5.0, 2.5, 1.5, 1.0],
        ]
    )
    connectivity = np.array(
        [
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
        ]
    )
    return ProblemInstance(
        demand=demand,
        connectivity=connectivity,
        cache_capacity=np.array([2.0, 2.0]),
        bandwidth=np.array([10.0, 10.0]),
        sbs_cost=np.ones((2, 3)),
        bs_cost=np.array([100.0, 120.0, 110.0]),
    )


@pytest.fixture
def tiny_problem() -> ProblemInstance:
    """The :func:`make_tiny_problem` instance."""
    return make_tiny_problem()


@pytest.fixture
def single_sbs_problem() -> ProblemInstance:
    """One SBS, two groups, three files — the simplest nontrivial case."""
    demand = np.array(
        [
            [4.0, 2.0, 1.0],
            [3.0, 2.0, 0.5],
        ]
    )
    return ProblemInstance(
        demand=demand,
        connectivity=np.array([[1.0, 1.0]]),
        cache_capacity=np.array([1.0]),
        bandwidth=np.array([5.0]),
        sbs_cost=np.ones((1, 2)),
        bs_cost=np.array([50.0, 60.0]),
    )


def random_problem(
    rng: np.random.Generator,
    *,
    num_sbs: int = 3,
    num_groups: int = 5,
    num_files: int = 6,
    scarce_bandwidth: bool = True,
) -> ProblemInstance:
    """A random valid instance for property-style tests."""
    demand = rng.uniform(0.0, 5.0, size=(num_groups, num_files))
    connectivity = (rng.uniform(size=(num_sbs, num_groups)) < 0.6).astype(float)
    # Make sure every SBS reaches someone (keeps instances interesting).
    for n in range(num_sbs):
        if connectivity[n].sum() == 0:
            connectivity[n, rng.integers(num_groups)] = 1.0
    total = demand.sum()
    bandwidth_level = total / (2.0 * num_sbs) if scarce_bandwidth else total
    return ProblemInstance(
        demand=demand,
        connectivity=connectivity,
        cache_capacity=np.full(num_sbs, float(rng.integers(1, max(2, num_files // 2) + 1))),
        bandwidth=np.full(num_sbs, bandwidth_level),
        sbs_cost=rng.uniform(0.5, 2.0, size=(num_sbs, num_groups)),
        bs_cost=rng.uniform(50.0, 100.0, size=num_groups),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
