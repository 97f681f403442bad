"""Randomized exact-parity suites for the batched numpy kernels.

The batched fractional-knapsack stages are only admissible because they
are *bit-identical* to the scalar solver — same stable tie-breaking,
same floating-point operation order.  These suites hammer that claim
with seeded random instances, degenerate cases included, asserting
exact equality (no tolerances anywhere).  The batched subgradient
ascent is pinned the same way, by digests of its full outputs recorded
from the validating reference oracle it was bit-identical to.
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


def _solve_once(costs, weights, caps, budget, *, workspace=None):
    """The fused dual row of a fresh (or given) workspace."""
    if workspace is None:
        workspace = KnapsackWorkspace(weights)
    return workspace.solve_row_once(costs, caps * weights, caps, budget)


class TestFusedDualRow:
    """``solve_row_once`` (the dual routing row, sorted and solved in one
    pass) vs ``solve_fractional_knapsack``: the same bytes, always."""

    @staticmethod
    def assert_exact(costs, weights, caps, budget):
        allocation = _solve_once(costs, weights, caps, budget)
        scalar = solve_fractional_knapsack(costs, weights, budget, caps)
        assert allocation.tobytes() == scalar.allocation.tobytes()

    def test_random_instances_exact(self):
        rng = np.random.default_rng(4321)
        for case in range(300):
            items = int(rng.integers(1, 40))
            costs, weights, caps, budget = _random_knapsack(rng, 1, items)
            self.assert_exact(costs[0], weights, caps[0], budget)

    def test_tied_ratios(self):
        """Many items share a density: the stable order decides who gets
        the budget's remainder."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            items = int(rng.integers(2, 30))
            weights = rng.choice([0.5, 1.0, 2.0], size=items)
            costs = -weights * rng.choice([1.0, 2.0], size=items)
            caps = rng.choice([0.25, 1.0], size=items)
            budget = float(rng.uniform(0.0, np.sum(caps * weights)))
            self.assert_exact(costs, weights, caps, budget)

    def test_zero_weight_items_are_free(self):
        costs = np.array([-1.0, -2.0, 3.0, -0.5, -4.0])
        weights = np.array([0.0, 1.0, 0.0, 0.0, 2.0])
        caps = np.array([0.7, 1.0, 1.0, 0.0, 0.5])
        for budget in (0.0, 0.5, 10.0):
            self.assert_exact(costs, weights, caps, budget)
        allocation = _solve_once(costs, weights, caps, 0.0)
        assert allocation[0] == 0.7 and allocation[2] == 0.0

    def test_zero_caps(self):
        costs = np.array([-3.0, -2.0, -1.0, -2.0])
        weights = np.array([1.0, 1.0, 1.0, 1.0])
        for caps in (np.zeros(4), np.array([0.0, 1.0, 0.0, 0.5])):
            for budget in (0.0, 0.5, 5.0):
                self.assert_exact(costs, weights, caps, budget)

    def test_zero_budget(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            costs, weights, caps, _ = _random_knapsack(rng, 1, 12)
            self.assert_exact(costs[0], weights, caps[0], 0.0)

    def test_budget_at_or_above_total_demand(self):
        """Every paid item fills its cap, the last one exactly at the budget."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            costs, weights, caps, _ = _random_knapsack(rng, 1, 15)
            total = float(np.sum(caps[0] * weights))
            for budget in (total, total * 2.0 + 1.0):
                self.assert_exact(costs[0], weights, caps[0], budget)

    def test_single_item(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            costs = rng.normal(0.0, 1.0, size=1)
            weights = rng.choice([0.0, rng.uniform(0.1, 2.0)], size=1)
            caps = rng.uniform(0.0, 2.0, size=1)
            self.assert_exact(costs, weights, caps, float(rng.uniform(0.0, 2.0)))

    def test_counts_one_row_and_leaves_prepared_rows_alone(self):
        """One ``knapsack.batched_rows`` per call, and the row prepared on
        the same workspace (the recovery row) still solves exactly."""
        rng = np.random.default_rng(12)
        costs, weights, caps, budget = _random_knapsack(rng, 2, 20)
        workspace = KnapsackWorkspace(weights)
        groups = np.arange(20)
        workspace.prepare_row(costs[1], np.ones(20), groups)
        with perf.collecting() as registry:
            for _ in range(3):
                _solve_once(costs[0], weights, caps[0], budget, workspace=workspace)
        assert registry.snapshot()["counters"]["knapsack.batched_rows"] == 3
        recovery = workspace.solve_masked(caps[1], budget)
        scalar = solve_fractional_knapsack(costs[1], weights, budget, caps[1])
        assert recovery.tobytes() == scalar.allocation.tobytes()


def _tie_heavy(rng: np.random.Generator, size: int, *, inf: bool = True) -> np.ndarray:
    """Values from a small set, so most of them tie, with ``-0.0``,
    negatives and (as summed multipliers can overflow to) ``+inf``."""
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
        """The caching subproblem (Eq. 18) on summed multipliers: positive
        aggregated multipliers first, spare slots by the tie break."""
        rng = np.random.default_rng(79)
        for _ in range(60):
            problem = random_problem(rng, num_sbs=1, num_groups=3, num_files=int(rng.integers(1, 30)))
            shape = (problem.num_groups, problem.num_files)
            multipliers = rng.integers(0, 2, size=shape) * rng.choice([0.5, 1.0], size=shape)
            multipliers *= rng.random(shape) < 0.2
            tie_break = _tie_heavy(rng, problem.num_files, inf=False)
            capacity = int(np.floor(problem.cache_capacity[0] + 1e-9))
            caching = _select_cache_set(
                problem.num_files, capacity, multipliers.sum(axis=0), tie_break
            )
            expected = _reference_cache_set(capacity, multipliers.sum(axis=0), tie_break)
            assert np.array_equal(caching, expected)
            assert caching.sum() == min(capacity, problem.num_files)

    @pytest.mark.parametrize("empty_slots", [0, 2])
    def test_polish_candidate_order(self, empty_slots):
        """Polish tries the uncached files of positive potential in stable
        descending order, and every trial fits the cache."""
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

            _polish_cache_set(
                caching,
                np.zeros(1),
                0.0,
                evaluate=evaluate,
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
        """The batched dual ascent on random subproblems, pinned.

        This is the end-to-end guarantee: same dual history (every
        iterate), same multipliers, same primal solution as the
        reference oracle — so ``repro-trace diff`` and the byte-identity
        anchors stay safe.
        """
        assert solution_digest(_full_ascent_solutions(polish)) == BATCHED_DIGESTS[
            f"full-ascent-{polish}"
        ]

    def test_screened_city_parity_warm_start(self):
        """The batched ascent on a dense city instance where the
        weak-duality screen fires, pinned: polish on, and a second call
        warm-started from the first call's multipliers and cache set."""
        with perf.collecting() as registry:
            solutions = _screened_city_solutions()
        assert solution_digest(solutions) == BATCHED_DIGESTS["screened-city"]
        assert registry.snapshot()["counters"]["subproblem.recoveries_screened"] > 0


#: Digests (:func:`conftest.solution_digest`) of the batched oracle's
#: outputs on this module's seeded cases, recorded from the validating
#: reference oracle, which the batched kernel matched bit for bit.
BATCHED_DIGESTS = {
    "full-ascent-True": "af2d3880b2160ed8808d8248fea462065244cd0a1462a9c54378433d26cc306e",
    "full-ascent-False": "af2d3880b2160ed8808d8248fea462065244cd0a1462a9c54378433d26cc306e",
    "screened-city": "a38a2bc8aa85acd282d7c32e4e28acc7884022d0e678840c61c67f4091897159",
    "dead-zero-demand-True": "8ebee91ed33248399104c072d8c74dfd33a8a04d6169190d42d926c92c9a37f7",
    "dead-zero-demand-False": "8ebee91ed33248399104c072d8c74dfd33a8a04d6169190d42d926c92c9a37f7",
    "dead-saturated-True": "cb8259a2e3808536fa129348dfb99a2dae48afa6319a4231a84229e2ab1cdc1c",
    "dead-saturated-False": "cb8259a2e3808536fa129348dfb99a2dae48afa6319a4231a84229e2ab1cdc1c",
    "dead-costly-link-True": "14a00ff8256f7cba0115d3431d86ad8e4af51665a106c5578746076dc0fb028a",
    "dead-costly-link-False": "14a00ff8256f7cba0115d3431d86ad8e4af51665a106c5578746076dc0fb028a",
    "dead-priced-True": "94e8093f39c6ed81e6353c03015712815a5c3bf63860b1435edac3b01b35c034",
    "dead-priced-False": "94e8093f39c6ed81e6353c03015712815a5c3bf63860b1435edac3b01b35c034",
    "dead-warm-dead-True": "cfd358c7125ca6a40a90565eb0872243c4acfa50e6c12955c803473c3bdb4885",
    "dead-warm-dead-False": "cfd358c7125ca6a40a90565eb0872243c4acfa50e6c12955c803473c3bdb4885",
    "dead-none-live-True": "a22843d810e03998eddb1c9ca637127aa8cf9222308c4d9042159c7378d65578",
    "dead-none-live-False": "a22843d810e03998eddb1c9ca637127aa8cf9222308c4d9042159c7378d65578",
}


def _full_ascent_solutions(polish, oracle="batched"):
    """Twelve random subproblems: plain, priced with cap slack, and
    warm-started."""
    rng = np.random.default_rng(2024)
    solutions = []
    for case in range(12):
        problem = random_problem(
            rng,
            num_sbs=2,
            num_groups=int(rng.integers(2, 7)),
            num_files=int(rng.integers(2, 9)),
        )
        shape = (problem.num_groups, problem.num_files)
        aggregate = np.clip(rng.uniform(size=shape) * 1.2 - 0.1, 0.0, None)
        kwargs = {}
        if case % 3 == 1:
            kwargs["prices"] = np.abs(rng.normal(0.0, 0.05, size=shape))
            kwargs["cap_slack"] = 0.1
        if case % 3 == 2:
            kwargs["initial_multipliers"] = np.abs(rng.normal(0.0, 0.2, size=shape))
        config = SubproblemConfig(oracle=oracle, polish=polish, max_iter=30)
        solutions.append(solve_subproblem(problem, 0, aggregate, config, **kwargs))
    return solutions


def _screened_city_solutions(oracle="batched"):
    """Two SBSs of a dense city instance, each solved twice, the second
    time warm-started from the first solve."""
    problem = generate_city_instance(6, 40, 500, rng=14).to_dense()
    shape = (problem.num_groups, problem.num_files)
    rng = np.random.default_rng(7)
    solutions = []
    for sbs in (0, 3):
        aggregate = np.zeros(shape)
        previous = None
        for _ in range(2):
            warm = {}
            if previous is not None:
                warm = {
                    "initial_multipliers": previous.multipliers,
                    "candidate_caching": previous.caching,
                }
            config = SubproblemConfig(oracle=oracle, polish=True)
            previous = solve_subproblem(problem, sbs, aggregate, config, **warm)
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
    elif kind == "warm-dead":
        problem = dataclasses.replace(problem, demand=np.where(dead, 0.0, problem.demand))
        aggregate = np.where(rng.random(shape) < 0.3, 1.0, aggregate)
        kwargs["initial_multipliers"] = rng.uniform(0.0, 0.5, size=shape) * (
            rng.random(shape) < 0.6
        )
    elif kind == "none-live":
        aggregate = np.full(shape, 1.0)
    return problem, aggregate, kwargs


def _dead_item_solutions(kind, polish, oracle="batched"):
    """Six subproblems of one dead-item class."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    solutions = []
    for _ in range(6):
        problem, aggregate, kwargs = _dead_item_case(rng, kind)
        config = SubproblemConfig(oracle=oracle, polish=polish, max_iter=40)
        solutions.append(solve_subproblem(problem, 0, aggregate, config, **kwargs))
    return solutions


class TestDeadItemParity:
    """The batched ascent on live items only matches the reference that
    ran the full view, bit for bit, whatever makes items dead."""

    KINDS = ("zero-demand", "saturated", "costly-link", "priced", "warm-dead", "none-live")

    @pytest.mark.parametrize("polish", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_dead_items_match_legacy(self, kind, polish, monkeypatch):
        # The live set the batched kernel computes, as it computes it.
        live_items, live_sets = subproblem._live_items, []

        def spy(*args):
            live_sets.append(live_items(*args))
            return live_sets[-1]

        monkeypatch.setattr(subproblem, "_live_items", spy)
        solutions = _dead_item_solutions(kind, polish)
        assert solution_digest(solutions) == BATCHED_DIGESTS[f"dead-{kind}-{polish}"]
        assert len(live_sets) == len(solutions)
        for live in live_sets:
            if kind == "none-live":
                # One dead item stands in for the empty live set.
                assert live.size == 1
            elif kind != "warm-dead":
                assert live.size < 6 * 8
