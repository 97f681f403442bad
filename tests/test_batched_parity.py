"""Randomized exact-parity suites for the batched numpy kernels.

The batched fractional-knapsack and the batched subgradient ascent are
only admissible because they are *bit-identical* to the scalar paths —
same stable tie-breaking, same floating-point operation order.  These
suites hammer that claim with seeded random instances, degenerate cases
included, asserting exact equality (no tolerances anywhere).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subproblem import (
    SubproblemConfig,
    SubproblemWorkspace,
    solve_subproblem,
)
from repro.solvers.fractional_knapsack import (
    KnapsackBatchWorkspace,
    solve_fractional_knapsack,
    solve_fractional_knapsack_batch,
)

from conftest import random_problem


def _random_knapsack(rng: np.random.Generator, batch: int, items: int):
    """One random batch instance with adversarial structure mixed in."""
    costs = rng.normal(0.0, 1.0, size=(batch, items))
    weights = rng.uniform(0.0, 2.0, size=items)
    caps = rng.uniform(0.0, 3.0, size=(batch, items))
    # Zero-weight (free) items with negative costs.
    if items >= 2:
        weights[rng.integers(items)] = 0.0
    # Value-density ties: clone one item's cost/weight pair into another.
    if items >= 3:
        src, dst = rng.choice(items, size=2, replace=False)
        costs[:, dst] = costs[:, src]
        weights[dst] = weights[src]
    # Zero caps on a slice of items.
    caps[:, rng.integers(items)] = 0.0
    budget = float(rng.uniform(0.0, weights.sum() + 1.0))
    return costs, weights, caps, budget


class TestKnapsackBatchParity:
    """Batched knapsack vs ``solve_fractional_knapsack``: exact, always."""

    def test_random_instances_exact(self):
        """~200 random batches, each row checked against the scalar solver."""
        rng = np.random.default_rng(1234)
        workspace = None
        for case in range(200):
            batch = int(rng.integers(1, 6))
            items = int(rng.integers(1, 25))
            costs, weights, caps, budget = _random_knapsack(rng, batch, items)
            if case % 11 == 0:
                budget = 0.0  # degenerate: no budget at all
            result = solve_fractional_knapsack_batch(
                costs, weights, budget, caps, workspace=workspace
            )
            for b in range(batch):
                scalar = solve_fractional_knapsack(costs[b], weights, budget, caps[b])
                assert np.array_equal(result.allocations[b], scalar.allocation), (
                    f"case {case} row {b}: allocations differ"
                )
                assert result.objectives[b] == scalar.objective
                assert result.budgets_used[b] == scalar.budget_used

    def test_single_item_rows(self):
        """The smallest possible instance, profitable and not."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            costs = rng.normal(0.0, 1.0, size=(1, 1))
            weights = rng.uniform(0.0, 2.0, size=1)
            caps = rng.uniform(0.0, 2.0, size=(1, 1))
            budget = float(rng.uniform(0.0, 2.0))
            result = solve_fractional_knapsack_batch(costs, weights, budget, caps)
            scalar = solve_fractional_knapsack(costs[0], weights, budget, caps[0])
            assert np.array_equal(result.allocations[0], scalar.allocation)
            assert result.objectives[0] == scalar.objective

    def test_all_ties_all_profitable(self):
        """Every item identical: stable order must match the scalar sort."""
        items = 12
        costs = np.full((3, items), -1.0)
        weights = np.full(items, 0.5)
        caps = np.ones((3, items))
        budget = 2.0
        result = solve_fractional_knapsack_batch(costs, weights, budget, caps)
        for b in range(3):
            scalar = solve_fractional_knapsack(costs[b], weights, budget, caps[b])
            assert np.array_equal(result.allocations[b], scalar.allocation)

    def test_zero_capacity_everywhere(self):
        costs = np.array([[-1.0, -2.0, -3.0]])
        weights = np.array([1.0, 1.0, 1.0])
        caps = np.zeros((1, 3))
        result = solve_fractional_knapsack_batch(costs, weights, 5.0, caps)
        scalar = solve_fractional_knapsack(costs[0], weights, 5.0, caps[0])
        assert np.array_equal(result.allocations[0], scalar.allocation)
        assert result.objectives[0] == scalar.objective == 0.0

    def test_workspace_reuse_across_batch_shapes(self):
        """A stale workspace of the wrong shape must be replaced, not trusted."""
        rng = np.random.default_rng(99)
        workspace = KnapsackBatchWorkspace(2, 4)
        for batch, items in ((2, 4), (3, 7), (1, 2), (5, 20)):
            costs, weights, caps, budget = _random_knapsack(rng, batch, items)
            result = solve_fractional_knapsack_batch(
                costs, weights, budget, caps, workspace=workspace
            )
            for b in range(batch):
                scalar = solve_fractional_knapsack(costs[b], weights, budget, caps[b])
                assert np.array_equal(result.allocations[b], scalar.allocation)


    def test_workspace_resize_reuses_buffers_and_stays_exact(self):
        """Below capacity, resize() re-views the same buffers; every size
        still solves exactly like the scalar solver."""
        rng = np.random.default_rng(5)
        workspace = KnapsackBatchWorkspace(2, 40)
        buffer = workspace.allocation
        for items in (40, 7, 1, 23, 40):
            workspace.resize(items)
            assert np.shares_memory(workspace.allocation, buffer)
            costs, weights, caps, budget = _random_knapsack(rng, 2, items)
            workspace.bind_weights(weights)
            for row in range(2):
                workspace.prepare_row(row, costs[row])
                allocation = workspace.solve_row(row, caps[row], budget)
                scalar = solve_fractional_knapsack(costs[row], weights, budget, caps[row])
                assert np.array_equal(allocation, scalar.allocation)
        workspace.resize(60)
        assert not np.shares_memory(workspace.allocation, buffer)


class TestSubgradientStepParity:
    """Batched multiplier updates vs the scalar ascent: exact trajectories."""

    def test_projected_step_matches_scalar(self):
        """The fused 2-D projected step equals the per-element update."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            mu = np.abs(rng.normal(0.0, 1.0, size=size))
            subgrad = rng.normal(0.0, 1.0, size=size)
            step = float(rng.uniform(0.0, 0.5))
            batched = np.maximum(mu + step * subgrad, 0.0)
            scalar = np.array(
                [max(mu[i] + step * subgrad[i], 0.0) for i in range(size)]
            )
            assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize("polish", [True, False])
    def test_full_ascent_parity_random_instances(self, polish):
        """Batched dual ascent == legacy on random subproblems.

        This is the end-to-end guarantee: same dual history (every
        iterate), same multipliers, same primal solution — so
        ``repro-trace diff`` and the byte-identity anchors are safe no
        matter which oracle ran.
        """
        rng = np.random.default_rng(2024)
        ws_batched = None
        for case in range(12):
            problem = random_problem(
                rng,
                num_sbs=2,
                num_groups=int(rng.integers(2, 7)),
                num_files=int(rng.integers(2, 9)),
            )
            if ws_batched is None:
                ws_batched = SubproblemWorkspace(problem)
            shape = (problem.num_groups, problem.num_files)
            aggregate = np.clip(rng.uniform(size=shape) * 1.2 - 0.1, 0.0, None)
            kwargs = {}
            if case % 3 == 1:
                kwargs["prices"] = np.abs(rng.normal(0.0, 0.05, size=shape))
                kwargs["cap_slack"] = 0.1
            if case % 3 == 2:
                kwargs["initial_multipliers"] = np.abs(
                    rng.normal(0.0, 0.2, size=shape)
                )
            solutions = {
                oracle: solve_subproblem(
                    problem,
                    0,
                    aggregate,
                    SubproblemConfig(oracle=oracle, polish=polish, max_iter=30),
                    workspace={"batched": ws_batched, "legacy": None}[oracle],
                    **kwargs,
                )
                for oracle in ("batched", "legacy")
            }
            reference = solutions["legacy"]
            candidate = solutions["batched"]
            assert np.array_equal(candidate.caching, reference.caching), (
                f"case {case}: batched caching differs"
            )
            assert np.array_equal(candidate.routing, reference.routing)
            assert candidate.cost == reference.cost
            assert candidate.best_dual == reference.best_dual
            assert candidate.dual_history == reference.dual_history
            assert candidate.iterations == reference.iterations
            assert candidate.converged == reference.converged
            assert np.array_equal(candidate.multipliers, reference.multipliers)
