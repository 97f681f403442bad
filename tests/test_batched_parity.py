"""Randomized exact-parity suites for the batched numpy kernels.

The batched fractional-knapsack stages are only admissible because they
are *bit-identical* to the scalar solver — same stable tie-breaking,
same floating-point operation order.  These suites hammer that claim
with seeded random instances, degenerate cases included, asserting
exact equality (no tolerances anywhere).  The subproblem oracle built
on them is pinned by digests of its full outputs on seeded cases.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import perf
from repro.core import subproblem
from repro.core.subproblem import (
    SubproblemConfig,
    _polish_cache_set,
    _select_cache_set,
    _top_k,
    solve_subproblem,
)
from repro.solvers.fractional_knapsack import KnapsackWorkspace, solve_fractional_knapsack

from repro.workload import generate_city_instance

from conftest import random_problem, solution_digest


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


def _masked(costs, weights, caps, groups, mask, budget):
    """The masked stage of a fresh workspace prepared on ``costs``."""
    workspace = KnapsackWorkspace(weights)
    workspace.prepare_row(costs, caps, groups)
    return workspace.solve_masked(mask, budget)


def _assert_masked_exact(costs, weights, caps, groups, masks, budget):
    """Every row of a ``(T, G)`` mask batch, and its first row alone, solve
    exactly as the scalar solver with caps ``caps * mask[groups]``."""
    allocations = _masked(costs, weights, caps, groups, masks, budget)
    assert allocations.shape == (masks.shape[0], costs.size)
    for mask, allocation in zip(masks, allocations):
        scalar = solve_fractional_knapsack(costs, weights, budget, caps * mask[groups])
        assert allocation.tobytes() == scalar.allocation.tobytes()
        assert float(costs @ allocation) == scalar.objective
    single = _masked(costs, weights, caps, groups, masks[0], budget)
    assert single.tobytes() == allocations[0].tobytes()


class TestKnapsackBatchParity:
    """The masked stage (one prepared greedy order, a batch of cap masks)
    vs ``solve_fractional_knapsack``: exact, always."""

    def test_random_instances_exact(self):
        """~200 random batches: arbitrary per-row caps (each item its own
        group, the caps as masks), then binary and fractional masks over
        item groups (the same ``(cap * mask) * w`` grouping as the
        scalar solver's ``caps * w``)."""
        rng = np.random.default_rng(1234)
        for case in range(200):
            batch = int(rng.integers(1, 6))
            items = int(rng.integers(1, 25))
            costs, weights, caps, budget = _random_knapsack(rng, batch, items)
            if case % 11 == 0:
                budget = 0.0  # degenerate: no budget at all
            _assert_masked_exact(
                costs[0], weights, np.ones(items), np.arange(items), caps, budget
            )
            groups = rng.integers(0, 4, size=items)
            masks = (rng.random((batch, 4)) < 0.6).astype(np.float64)
            _assert_masked_exact(costs[0], weights, caps[0], groups, masks, budget)
            masks = rng.uniform(0.0, 1.5, size=(batch, 4))
            _assert_masked_exact(costs[0], weights, caps[0], groups, masks, budget)

    def test_single_item_rows(self):
        """The smallest possible instance, profitable and not."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            costs = rng.normal(0.0, 1.0, size=1)
            weights = rng.uniform(0.0, 2.0, size=1)
            caps = rng.uniform(0.0, 2.0, size=1)
            budget = float(rng.uniform(0.0, 2.0))
            masks = np.array([[1.0], [0.0]])
            _assert_masked_exact(costs, weights, caps, np.zeros(1, dtype=np.intp), masks, budget)

    def test_all_ties_all_profitable(self):
        """Every item identical: stable order must match the scalar sort."""
        items = 12
        costs = np.full(items, -1.0)
        weights = np.full(items, 0.5)
        groups = np.arange(items) % 3
        masks = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        _assert_masked_exact(costs, weights, np.ones(items), groups, masks, 2.0)

    def test_zero_capacity_everywhere(self):
        costs = np.array([-1.0, -2.0, -3.0])
        weights = np.array([1.0, 1.0, 1.0])
        groups = np.zeros(3, dtype=np.intp)
        _assert_masked_exact(costs, weights, np.zeros(3), groups, np.ones((1, 1)), 5.0)
        allocation = _masked(costs, weights, np.ones(3), groups, np.zeros(1), 5.0)
        assert float(costs @ allocation) == 0.0


def _tie_heavy(rng: np.random.Generator, size: int, *, inf: bool = True) -> np.ndarray:
    """Values from a small set, so most of them tie, with ``-0.0``,
    negatives and (as per-file sums can overflow to) ``+inf``."""
    values = rng.integers(0, 4, size=size).astype(np.float64)
    values[rng.random(size) < 0.15] = -0.0
    values[rng.random(size) < 0.15] *= -1.0
    if inf:
        values[rng.random(size) < 0.1] = np.inf
    return values


def _reference_cache_set(capacity, aggregated, tie_break):
    """The first-come scan along the stable descending orders."""
    caching = np.zeros(aggregated.size)
    take = [f for f in np.argsort(-aggregated, kind="stable") if aggregated[f] > 0]
    caching[take[:capacity]] = 1.0
    if tie_break is not None:
        spare = capacity - min(len(take), capacity)
        fill = [f for f in np.argsort(-tie_break, kind="stable") if not caching[f]]
        caching[fill[:spare]] = 1.0
    return caching


class TestTopK:
    """``_top_k`` is the first ``k`` of ``argsort(-v, kind="stable")``:
    ties go to the lowest index, and no chosen set exceeds ``C_n``."""

    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            size = int(rng.integers(1, 60))
            values = _tie_heavy(rng, size)
            for k in {0, 1, int(rng.integers(0, size + 1)), size - 1, size, size + 3}:
                reference = np.argsort(-values, kind="stable")[: max(k, 0)]
                assert np.array_equal(_top_k(values, k), np.sort(reference))
                assert np.array_equal(_top_k(values, k, ordered=True), reference)

    def test_edge_sizes(self):
        one = np.array([2.5])
        assert _top_k(one, 0).size == 0
        assert np.array_equal(_top_k(one, 1), [0])
        assert np.array_equal(_top_k(one, 5, ordered=True), [0])
        values = np.array([1.0, np.inf, 1.0, -0.0, 0.0, np.inf])
        assert np.array_equal(_top_k(values, 3, ordered=True), [1, 5, 0])
        assert np.array_equal(_top_k(values, 5), [0, 1, 2, 3, 5])
        assert np.array_equal(_top_k(values, 6), np.arange(6))

    @pytest.mark.parametrize("filler", [False, True])
    def test_cache_set_selection(self, filler):
        rng = np.random.default_rng(78 + filler)
        for _ in range(300):
            files = int(rng.integers(1, 50))
            capacity = int(rng.integers(0, files + 3))
            aggregated = _tie_heavy(rng, files)
            tie_break = _tie_heavy(rng, files) if filler else None
            caching = _select_cache_set(files, capacity, aggregated, tie_break)
            assert np.array_equal(caching, _reference_cache_set(capacity, aggregated, tie_break))
            assert caching.sum() <= capacity
            if filler:
                assert caching.sum() == min(capacity, files)

    def test_cache_subproblem_tie_break(self):
        """The top-set selection on per-file sums of per-item scores:
        positive sums first, spare slots by the tie break."""
        rng = np.random.default_rng(79)
        for _ in range(60):
            problem = random_problem(rng, num_sbs=1, num_groups=3, num_files=int(rng.integers(1, 30)))
            shape = (problem.num_groups, problem.num_files)
            scores = rng.integers(0, 2, size=shape) * rng.choice([0.5, 1.0], size=shape)
            scores *= rng.random(shape) < 0.2
            tie_break = _tie_heavy(rng, problem.num_files, inf=False)
            capacity = int(np.floor(problem.cache_capacity[0] + 1e-9))
            caching = _select_cache_set(
                problem.num_files, capacity, scores.sum(axis=0), tie_break
            )
            expected = _reference_cache_set(capacity, scores.sum(axis=0), tie_break)
            assert np.array_equal(caching, expected)
            assert caching.sum() == min(capacity, problem.num_files)

    @pytest.mark.parametrize("empty_slots", [0, 2])
    def test_polish_candidate_order(self, empty_slots):
        """Polish tries the uncached files of positive potential in stable
        descending order — adds one by one, swaps as rows of the batch —
        and every trial fits the cache."""
        rng = np.random.default_rng(80 + empty_slots)
        for _ in range(40):
            files = int(rng.integers(4, 60))
            potential = _tie_heavy(rng, files)
            caching = np.zeros(files)
            caching[rng.choice(files, size=int(rng.integers(1, 4)), replace=False)] = 1.0
            cached = int(caching.sum())
            capacity = cached + empty_slots
            max_candidates = int(rng.integers(1, 12))
            tried = []

            def evaluate(trial):
                assert trial.sum() <= capacity
                tried.append(int(np.flatnonzero(trial > caching)[0]))
                return np.zeros(1), 0.0

            def batch_evaluate(trials):
                for trial in trials:
                    evaluate(trial)
                return np.zeros((trials.shape[0], 1)), np.zeros(trials.shape[0])

            _polish_cache_set(
                caching,
                np.zeros(1),
                0.0,
                evaluate=evaluate,
                batch_evaluate=batch_evaluate,
                screen=_NoScreen(),
                potential=potential,
                capacity=capacity,
                max_passes=1,
                max_candidates=max_candidates,
            )
            # No trial improves: the adds, then every cached file swapped
            # against every candidate.
            uncached = np.flatnonzero(caching == 0)
            uncached = uncached[potential[uncached] > 0]
            order = uncached[np.argsort(-potential[uncached], kind="stable")]
            candidates = list(order[: max(max_candidates, empty_slots)])
            assert tried == candidates[:empty_slots] + candidates * cached


class _NoScreen:
    """A recovery screen that never proves a trial loses."""

    def bound(self, caching):
        return -np.inf

    def swap_bounds(self, caching, outs, ins):
        return np.full(outs.size, -np.inf)


class TestPinnedSolves:
    """The oracle's outputs on seeded subproblems, pinned by digests."""

    @pytest.mark.parametrize("polish", [True, False])
    def test_random_instances(self, polish):
        """Thirteen random subproblems: plain, priced with cap slack,
        seeded with an incumbent, and last one where polish moves."""
        solutions = _random_instance_solutions(polish)
        assert solution_digest(solutions) == DIGESTS[f"random-{polish}"]
        if polish:
            unpolished = _polish_case(polish=False)
            assert solutions[-1].cost < unpolished.cost
            assert not np.array_equal(solutions[-1].caching, unpolished.caching)

    def test_screened_city_parity_warm_start(self):
        """A dense city instance where the weak-duality screen fires,
        pinned: polish on, and a second call warm-started with the first
        call's cache set as its incumbent."""
        with perf.collecting() as registry:
            solutions = _screened_city_solutions()
        assert solution_digest(solutions) == DIGESTS["screened-city"]
        assert registry.snapshot()["counters"]["subproblem.recoveries_screened"] > 0


#: Digests (:func:`conftest.solution_digest`) of the oracle's outputs on
#: this module's seeded cases, recorded with the code from which the
#: paper's multiplier ascent was deleted: the deletion left them as
#: they were.
DIGESTS = {
    "random-True": "66b3b4473c8d052a7a93446cdc3817e05f01731e4a5f3a509d6e7451cb6ae5e4",
    "random-False": "6730e25005f5f00a7e199d04aea313d46a048166fe9da03f8b23c4926bf62be2",
    "screened-city": "fc3a2a7621ff238aa5409afbc2d1d09e9c5ebbef2d2b5320846b223629d2291a",
    "dead-zero-demand": "0fb8a0f60bec677b35f01b5e52ed1568ebacc8a9b881b0e5b55e8d2f022af091",
    "dead-saturated": "e84184b4f299dd9e153e6103fd772e06979dfd2d2d4ed1718714758e14aa65b0",
    "dead-costly-link": "a169d2886ec1baeac7f5b2c705d57d5e8772ca8beeb3e93dbb41989ab0cecc10",
    "dead-priced": "2f12cee5c27078ae82b80888af7a130ebdcc90514757fff01da88ce70ce2fd32",
    "dead-none-live": "e31ab4e45eaf5e86657c3545ea3e55c15a135777cb79f364f09a6eb7176ed0d6",
}

#: Seed of :func:`_polish_case`: the first draw of the random family's
#: generator on which polish swaps a file and lowers the cost.
POLISH_SEED = 206


def _random_subproblem(rng):
    """A small random subproblem of SBS 0 and the others' aggregate."""
    problem = random_problem(
        rng,
        num_sbs=2,
        num_groups=int(rng.integers(2, 7)),
        num_files=int(rng.integers(2, 9)),
    )
    shape = (problem.num_groups, problem.num_files)
    aggregate = np.clip(rng.uniform(size=shape) * 1.2 - 0.1, 0.0, None)
    return problem, aggregate


def _polish_case(polish):
    problem, aggregate = _random_subproblem(np.random.default_rng(POLISH_SEED))
    return solve_subproblem(problem, 0, aggregate, SubproblemConfig(polish=polish))


def _random_instance_solutions(polish):
    """Twelve random subproblems, plain, priced with cap slack, and
    seeded with a random incumbent, then :func:`_polish_case`."""
    rng = np.random.default_rng(2024)
    solutions = []
    for case in range(12):
        problem, aggregate = _random_subproblem(rng)
        shape = aggregate.shape
        kwargs = {}
        if case % 3 == 1:
            kwargs["prices"] = np.abs(rng.normal(0.0, 0.05, size=shape))
            kwargs["cap_slack"] = 0.1
        if case % 3 == 2:
            incumbent = np.zeros(problem.num_files)
            size = min(int(problem.cache_capacity[0]), problem.num_files)
            incumbent[rng.choice(problem.num_files, size=size, replace=False)] = 1.0
            kwargs["candidate_caching"] = incumbent
        config = SubproblemConfig(polish=polish, max_iter=30)
        solutions.append(solve_subproblem(problem, 0, aggregate, config, **kwargs))
    solutions.append(_polish_case(polish))
    return solutions


def _screened_city_solutions():
    """Two SBSs of a dense city instance, each solved twice, the second
    time with the first solve's cache set as the incumbent."""
    problem = generate_city_instance(6, 40, 500, rng=14).to_dense()
    shape = (problem.num_groups, problem.num_files)
    rng = np.random.default_rng(7)
    solutions = []
    for sbs in (0, 3):
        aggregate = np.zeros(shape)
        previous = None
        for _ in range(2):
            seed = {} if previous is None else {"candidate_caching": previous.caching}
            previous = solve_subproblem(problem, sbs, aggregate, **seed)
            solutions.append(previous)
            aggregate = np.clip(aggregate + rng.uniform(0.0, 0.3, size=shape), 0.0, 1.0)
    return solutions


def _dead_item_case(rng, kind):
    """A subproblem whose view mixes one class of dead items (items that
    can never move) with live ones; ``"none-live"`` has no live item."""
    problem = random_problem(rng, num_sbs=2, num_groups=6, num_files=8)
    shape = (problem.num_groups, problem.num_files)
    aggregate = rng.uniform(0.0, 0.8, size=shape)
    kwargs = {}
    dead = rng.random(shape) < 0.5
    if kind == "zero-demand":
        problem = dataclasses.replace(problem, demand=np.where(dead, 0.0, problem.demand))
    elif kind == "saturated":
        aggregate = np.where(dead, rng.uniform(1.0, 1.5, size=shape), aggregate)
    elif kind == "costly-link":
        # Link cost equal to the BS cost (a signed-zero coefficient), or
        # above it on rows out of reach, where the instance allows it.
        sbs_cost = problem.sbs_cost.copy()
        rows = rng.random(problem.num_groups) < 0.5
        factor = np.where(problem.connectivity[0] > 0, 1.0, 1.5)
        sbs_cost[0, rows] = (problem.bs_cost * factor)[rows]
        problem = dataclasses.replace(problem, sbs_cost=sbs_cost)
    elif kind == "priced":
        # Congestion prices past the saving, negative prices on some
        # zero-demand cells (free items, which stay live), and a slack
        # that revives some saturated cells.
        free = rng.random(shape) < 0.15
        problem = dataclasses.replace(problem, demand=np.where(free, 0.0, problem.demand))
        kwargs["prices"] = np.where(free, -1.0, np.where(dead, 200.0 * problem.demand, 0.0))
        kwargs["cap_slack"] = 0.2
        aggregate = np.where(rng.random(shape) < 0.3, 1.0, aggregate)
    elif kind == "none-live":
        aggregate = np.full(shape, 1.0)
    return problem, aggregate, kwargs


def _dead_item_solutions(kind, polish):
    """Six subproblems of one dead-item class."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    solutions = []
    for _ in range(6):
        problem, aggregate, kwargs = _dead_item_case(rng, kind)
        config = SubproblemConfig(max_iter=40, polish=polish)
        solutions.append(solve_subproblem(problem, 0, aggregate, config, **kwargs))
    return solutions


class TestDeadItemParity:
    """The oracle on live items only, pinned, whatever makes items dead.

    Polish moves nothing on these cases: with it on and off the outputs
    match the same digest."""

    KINDS = ("zero-demand", "saturated", "costly-link", "priced", "none-live")

    @pytest.mark.parametrize("polish", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_dead_items_pinned(self, kind, polish, monkeypatch):
        # The live set the kernel computes, as it computes it.
        live_items, live_sets = subproblem._live_items, []

        def spy(*args):
            live_sets.append(live_items(*args))
            return live_sets[-1]

        monkeypatch.setattr(subproblem, "_live_items", spy)
        solutions = _dead_item_solutions(kind, polish)
        assert solution_digest(solutions) == DIGESTS[f"dead-{kind}"]
        assert len(live_sets) == len(solutions)
        for live in live_sets:
            if kind == "none-live":
                # One dead item stands in for the empty live set.
                assert live.size == 1
            else:
                assert live.size < 6 * 8
