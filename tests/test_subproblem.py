"""Tests for the per-SBS subproblem ``P_n`` (Eq. 10, Theorem 1) and its
bandwidth-price oracle."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro import perf
from repro.core.problem import ProblemInstance
from repro.core.routing import residual_caps
from repro.core.subproblem import (
    ItemView,
    SubproblemConfig,
    _constant_term,
    _evaluate_cache_set,
    _RecoveryScreen,
    _routing_coefficients,
    _select_cache_set,
    solve_subproblem,
    solve_subproblem_exhaustive,
)
from repro.exceptions import ValidationError
from repro.experiments.config import build_problem
from repro.solvers.fractional_knapsack import KnapsackWorkspace
from repro.workload import generate_city_instance

from conftest import make_tiny_problem, random_problem, solution_digest

DATA = pathlib.Path(__file__).parent / "data"


def cache_subproblem(problem, sbs, multipliers, *, tie_break_value=None):
    """The caching step on a ``(U, F)`` grid of per-item scores: the
    kernel's top-set selection over their per-file sums.  The oracle
    runs it on ``-g(pi)``; the paper's Eq. 18 on the summed multipliers
    ``mu``; Theorem 1 makes either LP relaxation integral."""
    capacity = int(np.floor(problem.cache_capacity[sbs] + 1e-9))
    return _select_cache_set(
        problem.num_files, capacity, multipliers.sum(axis=0), tie_break_value
    )


def routing_subproblem(problem, sbs, multipliers, caps):
    """The routing knapsack on a ``(U, F)`` grid with per-item charges
    added to the coefficients ``c`` (congestion prices, or the paper's
    multipliers in Eq. 20): the kernel's recovery row with every file
    cached."""
    view = ItemView.grid(problem, sbs)
    costs = _routing_coefficients(problem, sbs).ravel() + multipliers.ravel()
    caps = np.asarray(caps, dtype=np.float64).ravel()
    row = KnapsackWorkspace(view.weight)
    row.prepare_row(costs, caps, view.item_file)
    allocation = row.solve_masked(np.ones(problem.num_files), view.bandwidth)
    return allocation.reshape(problem.num_groups, problem.num_files)


class TestCacheSubproblem:
    def test_integral_output(self, tiny_problem):
        """Theorem 1: the relaxed caching subproblem has integral optima."""
        multipliers = np.array(
            [
                [3.0, 1.0, 0.5, 0.0],
                [2.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        caching = cache_subproblem(tiny_problem, 0, multipliers)
        assert set(np.unique(caching)).issubset({0.0, 1.0})

    def test_picks_largest_aggregated_multipliers(self, tiny_problem):
        multipliers = np.zeros((3, 4))
        multipliers[:, 2] = 5.0
        multipliers[:, 1] = 1.0
        caching = cache_subproblem(tiny_problem, 0, multipliers)
        assert caching[2] == 1.0 and caching[1] == 1.0
        assert caching.sum() == 2.0  # capacity

    def test_zero_multipliers_with_tiebreak(self, tiny_problem):
        value = np.array([1.0, 5.0, 3.0, 0.0])
        caching = cache_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), tie_break_value=value
        )
        assert caching[1] == 1.0 and caching[2] == 1.0

    def test_zero_multipliers_without_tiebreak(self, tiny_problem):
        caching = cache_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert caching.sum() == 0.0  # no positive multipliers, nothing forced

    def test_zero_capacity(self, tiny_problem):
        problem = tiny_problem.with_cache_capacity(0.0)
        caching = cache_subproblem(problem, 0, np.ones((3, 4)))
        assert caching.sum() == 0.0

    def test_matches_lp_relaxation(self, tiny_problem, rng):
        """The greedy top-set selection equals the LP optimum of its
        relaxation (Eq. 18; Theorem 1)."""
        from repro.solvers.lp import solve_lp

        for _ in range(5):
            multipliers = rng.uniform(0.0, 2.0, size=(3, 4))
            caching = cache_subproblem(tiny_problem, 0, multipliers)
            aggregated = multipliers.sum(axis=0)
            lp = solve_lp(
                -aggregated,
                a_ub=np.ones((1, 4)),
                b_ub=[2.0],
                upper=np.ones(4),
                backend="simplex",
            )
            assert float(aggregated @ caching) == pytest.approx(-lp.objective, abs=1e-9)


class TestRoutingSubproblem:
    def test_zero_multipliers_serves_greedily(self, tiny_problem):
        caps = np.ones((3, 4)) * tiny_problem.connectivity[0][:, np.newaxis]
        routing = routing_subproblem(tiny_problem, 0, np.zeros((3, 4)), caps)
        usage = float(np.sum(routing * tiny_problem.demand))
        assert usage <= tiny_problem.bandwidth[0] + 1e-9
        assert usage > 0.0

    def test_huge_multipliers_stop_routing(self, tiny_problem):
        caps = np.ones((3, 4)) * tiny_problem.connectivity[0][:, np.newaxis]
        routing = routing_subproblem(tiny_problem, 0, np.full((3, 4), 1e7), caps)
        assert np.all(routing == 0.0)

    def test_caps_respected(self, tiny_problem):
        caps = np.full((3, 4), 0.25) * tiny_problem.connectivity[0][:, np.newaxis]
        routing = routing_subproblem(tiny_problem, 0, np.zeros((3, 4)), caps)
        assert routing.max() <= 0.25 + 1e-12


class TestSolveSubproblem:
    def test_feasible_output(self, tiny_problem):
        result = solve_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert result.caching.sum() <= tiny_problem.cache_capacity[0] + 1e-9
        assert np.all(result.routing <= result.caching[np.newaxis, :] + 1e-9)
        usage = float(np.sum(result.routing * tiny_problem.demand))
        assert usage <= tiny_problem.bandwidth[0] + 1e-9

    def test_matches_exhaustive_tiny(self, tiny_problem):
        for sbs in range(tiny_problem.num_sbs):
            dual = solve_subproblem(tiny_problem, sbs, np.zeros((3, 4)))
            exact = solve_subproblem_exhaustive(tiny_problem, sbs, np.zeros((3, 4)))
            assert dual.cost == pytest.approx(exact.cost, rel=1e-6)

    def test_matches_exhaustive_random(self, rng):
        for _ in range(4):
            problem = random_problem(rng, num_sbs=2, num_groups=4, num_files=5)
            aggregate = rng.uniform(0.0, 0.5, size=(4, 5))
            dual = solve_subproblem(problem, 0, aggregate)
            exact = solve_subproblem_exhaustive(problem, 0, aggregate)
            assert dual.cost == pytest.approx(exact.cost, rel=1e-5)

    def test_respects_aggregate_caps(self, tiny_problem):
        aggregate = np.ones((3, 4))  # everything already served
        result = solve_subproblem(tiny_problem, 0, aggregate)
        assert np.all(result.routing == 0.0)

    def test_dual_history_recorded(self, tiny_problem):
        result = solve_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), SubproblemConfig(max_iter=30)
        )
        assert len(result.dual_history) >= 1
        assert result.iterations == len(result.dual_history)

    def test_dual_lower_bounds_primal(self, tiny_problem):
        """Weak duality: best dual <= best primal cost (both for min P_n)."""
        result = solve_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert result.best_dual <= result.cost + 1e-6

    def test_max_iter_cap(self, tiny_problem):
        """The bisection stops after ``max_iter`` price probes, one dual
        value each, and reports that its bracket did not close."""
        result = solve_subproblem(
            tiny_problem, 0, np.zeros((3, 4)), SubproblemConfig(max_iter=2)
        )
        assert result.iterations == len(result.dual_history) == 2
        assert not result.converged

    def test_history_recorded(self):
        """One dual value per price probe; the certified ``best_dual``
        may beat every probe (the incumbent's split price) but is never
        worse than the best probe by more than the bisection's rounding
        margin, and never above the cost."""
        result = solve_subproblem(make_tiny_problem(), 0, np.zeros((3, 4)))
        assert result.converged
        assert len(result.dual_history) == result.iterations
        best_probe = max(result.dual_history)
        assert result.best_dual >= best_probe - 1e-9 * abs(result.cost)
        assert result.best_dual <= result.cost

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SubproblemConfig(max_iter=0)
        with pytest.raises(TypeError):
            SubproblemConfig(oracle="batched")  # one oracle, no option

    def test_invalid_controls(self):
        """``max_iter`` must be a positive integer: not negative, not a
        float, a bool or a string."""
        for max_iter in (-3, 2.5, True, "3"):
            with pytest.raises(ValidationError, match="max_iter must be"):
                SubproblemConfig(max_iter=max_iter)

    def test_exact_within_certified_gap_of_exhaustive(self):
        """On small views the exact oracle's certificate holds against
        the enumerated optimum: ``best_dual <= optimum <= cost``, and its
        cost is within its own gap of the optimum (polish on and off,
        with and without an incumbent)."""
        rng = np.random.default_rng(77)
        for case in range(40):
            problem = random_problem(
                rng,
                num_sbs=2,
                num_groups=int(rng.integers(2, 7)),
                num_files=int(rng.integers(2, 9)),
            )
            aggregate = np.clip(rng.uniform(-0.1, 1.1, size=problem.demand.shape), 0.0, 1.0)
            optimum = solve_subproblem_exhaustive(problem, 0, aggregate)
            seed = {} if case % 2 else {"candidate_caching": optimum.caching[::-1].copy()}
            for polish in (True, False):
                config = SubproblemConfig(polish=polish)
                exact = solve_subproblem(problem, 0, aggregate, config, **seed)
                assert exact.iterations == len(exact.dual_history) >= 1
                assert exact.best_dual <= optimum.cost
                assert exact.cost - optimum.cost <= exact.cost - exact.best_dual
                assert exact.cost >= optimum.cost - 1e-9 * abs(optimum.cost)


class TestExhaustive:
    def test_subset_guard(self, rng):
        problem = random_problem(rng, num_files=30)
        with pytest.raises(ValidationError, match="enumerate"):
            solve_subproblem_exhaustive(
                problem, 0, np.zeros((problem.num_groups, 30)), max_subsets=10
            )


class TestFastOracleParity:
    """The oracle's outputs on seeded cases, pinned by digests."""

    def test_bit_identical_zero_aggregate(self):
        assert solution_digest(_zero_aggregate_solutions()) == DIGESTS["zero-aggregate"]

    def test_bit_identical_random_instances(self):
        assert solution_digest(_random_instance_solutions()) == DIGESTS["random"]

    def test_bit_identical_with_prices_and_slack(self):
        solutions = _prices_and_slack_solutions()
        assert solution_digest(solutions) == DIGESTS["prices-slack"]

    def test_workspace_reuse_is_safe(self, rng):
        """A solve in between must not leak state into a repeated one: the
        kernel's scratch belongs to each call."""
        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        agg_a = np.zeros(shape)
        agg_b = np.clip(rng.uniform(size=shape), 0.0, 1.0)
        first = solve_subproblem(problem, 0, agg_a)
        solve_subproblem(problem, 0, agg_b)
        again = solve_subproblem(problem, 0, agg_a)
        assert first.cost == again.cost
        assert np.array_equal(first.routing, again.routing)


#: Digests (:func:`conftest.solution_digest`) of the oracle's outputs on
#: this module's seeded cases, recorded with the code from which the
#: paper's multiplier ascent was deleted: the deletion left them as
#: they were.
DIGESTS = {
    "zero-aggregate": "8956fb3b148a53c1e81fa42372f951d5c13e624c58b75c28a5c4f685700d13d7",
    "random": "716915e636f506f4afd19bd6b7af2e28f9e23dbbc4146f6085fe74a53867acc1",
    "prices-slack": "b550d4baaae5562efa9bb46589ce8aa6aa73473a18316e3487fa3524d3d1618f",
    "pair-views": "fc3e085215cc91985c2289818f9da7d168a2d8a9aec9001a627da7ff1319f0ea",
}


def _zero_aggregate_solutions():
    return [solve_subproblem(make_tiny_problem(), 0, np.zeros((3, 4)))]


def _random_instance_solutions():
    rng = np.random.default_rng(12345)
    config = SubproblemConfig()
    solutions = []
    for _ in range(4):
        problem = random_problem(rng)
        aggregate = np.clip(rng.uniform(size=(problem.num_groups, problem.num_files)), 0.0, 1.0)
        for sbs in range(problem.num_sbs):
            solutions.append(solve_subproblem(problem, sbs, aggregate, config))
    return solutions


def _prices_and_slack_solutions():
    rng = np.random.default_rng(12345)
    problem = random_problem(rng)
    shape = (problem.num_groups, problem.num_files)
    aggregate = np.clip(rng.uniform(size=shape) * 0.8, 0.0, 1.0)
    prices = rng.uniform(0.0, 0.5, size=shape)
    return [solve_subproblem(problem, 0, aggregate, prices=prices, cap_slack=0.3)]


def _pair_view_cases():
    """Per SBS of a small city: its pair view, the others' aggregate on
    its pairs, and its zero-padded block's grid view and aggregate."""
    sparse = generate_city_instance(4, 24, 300, reach=2, files_per_group=12, rng=5)
    rng = np.random.default_rng(3)
    for sbs in range(sparse.num_sbs):
        index = sparse.sbs_index(sbs)
        if not index.pair_ids.size:
            continue
        others = rng.uniform(0.0, 0.7, size=index.pair_ids.size)
        block, _ = sparse.sub_instance(sbs)
        padded = np.zeros(block.demand.shape)
        padded.ravel()[index.local_flat] = others
        grid = ItemView.grid(block, 0, constant_offset=index.bs_offset)
        yield sparse.item_view(sbs), others, grid, padded, index


def _pair_view_solutions():
    return [solve_subproblem(pairs, None, others) for pairs, others, _, _, _ in _pair_view_cases()]


class TestItemView:
    """The flat item view: zero-demand cells can be dropped exactly."""

    @staticmethod
    def pair_view(grid: np.ndarray) -> ItemView:
        rows, files = grid.shape
        row, file = np.nonzero(grid)
        return ItemView(
            item_row=row,
            item_file=file,
            weight=grid[row, file],
            link_cost=np.zeros(rows),
            reach=np.ones(rows),
            bs_cost=np.ones(rows),
            num_files=files,
            cache_capacity=1.0,
            bandwidth=1.0,
            constant_offset=0.0,
            shape=row.shape,
        )

    def test_pair_file_sums_equal_grid_reduction(self):
        """bincount over the demand cells == axis-0 reduction of the
        zero-padded grid, bit for bit."""
        rng = np.random.default_rng(11)
        for _ in range(60):
            shape = (int(rng.integers(1, 60)), int(rng.integers(1, 400)))
            grid = rng.uniform(0.0, 5.0, size=shape) * (rng.random(shape) < 0.08)
            view = self.pair_view(grid)
            assert np.array_equal(
                view.file_sums(view.weight), np.add.reduce(grid, axis=0)
            )

    def test_pair_view_solve_equals_padded_block_solve(self):
        """Solving only the demand pairs reproduces the zero-padded block
        solve: same cache set, iterations, routing and dual values bit
        for bit; objectives agree to the last bits."""
        for view, others, grid, padded, index in _pair_view_cases():
            pairs = solve_subproblem(view, None, others)
            cells = solve_subproblem(grid, None, padded)
            assert np.array_equal(pairs.caching, cells.caching)
            assert pairs.iterations == cells.iterations
            assert np.array_equal(pairs.routing, cells.routing.ravel()[index.local_flat])
            assert pairs.cost == pytest.approx(cells.cost, rel=1e-12)
            assert pairs.dual_history == cells.dual_history
        solutions = _pair_view_solutions()
        assert solution_digest(solutions) == DIGESTS["pair-views"]
        view, others, _, _, _ = next(_pair_view_cases())
        with pytest.raises(ValidationError, match="sbs=None"):
            solve_subproblem(view, 0, others)


class TestBoundaryValidation:
    """The oracle rejects non-finite prices and cap slack up front (the
    arrays are validated before the kernel runs)."""

    def test_nan_rejected(self, tiny_problem):
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="prices must be finite"):
            solve_subproblem(tiny_problem, 0, np.zeros((3, 4)), prices=bad)

    def test_empty_view_rejected(self):
        """A view without items has no subproblem.  Oracles once
        disagreed on it: one returned a filler cache at cost 0, another
        failed inside its knapsack workspace."""
        view = TestItemView.pair_view(np.zeros((2, 3)))
        assert view.num_items == 0
        with pytest.raises(ValidationError, match="local subproblem is empty"):
            solve_subproblem(view, None, np.zeros(0))

    @pytest.mark.parametrize(
        "weight, message",
        [
            ([1.0, -1.0, 3.0], "weight must be nonnegative"),
            ([1.0, np.nan, 3.0], "weight must be finite"),
            ([1.0, np.inf, 3.0], "weight must be finite"),
            ([1.0, 2.0], r"weight must have shape \(3,\)"),
        ],
        ids=["negative", "nan", "inf", "short"],
    )
    def test_view_weight_validated(self, weight, message):
        """A caller-built view's weights once split the oracles: a
        negative weight solved under one and failed under another, a
        NaN failed as "performed no iterations".  The view now refuses
        them when it is built."""
        view = TestItemView.pair_view(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(ValidationError, match=message):
            view = dataclasses.replace(view, weight=np.array(weight))
            solve_subproblem(view, None, np.zeros(3))

    @pytest.mark.parametrize(
        "field, spoiled, message",
        [
            ("link_cost", np.array([np.nan, 0.0]), "link_cost must be finite"),
            ("bs_cost", np.array([-1.0, 1.0]), "bs_cost must be nonnegative"),
            ("reach", np.array([2.0, 1.0]), "reach must be binary"),
            ("bandwidth", np.nan, "bandwidth must be finite"),
            ("cache_capacity", -1.0, "cache_capacity must be finite and nonnegative"),
        ],
        ids=["link_cost", "bs_cost", "reach", "bandwidth", "cache_capacity"],
    )
    def test_view_rows_and_scalars_validated(self, field, spoiled, message):
        """A spoiled per-row array or scalar once split the oracles: one
        solved (or failed as "performed no iterations") where another
        raised.  The view validates them once, when it is built."""
        view = TestItemView.pair_view(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(ValidationError, match=message):
            view = dataclasses.replace(view, **{field: spoiled})
            solve_subproblem(view, None, np.zeros(3))

    def test_prices_shape_checked(self, tiny_problem):
        with pytest.raises(ValidationError, match="prices must have shape"):
            solve_subproblem(tiny_problem, 0, np.zeros((3, 4)), prices=np.zeros((4, 3)))

    @pytest.mark.parametrize("slack", [np.nan, np.inf, -0.1])
    def test_cap_slack_must_be_finite_and_nonnegative(self, slack):
        """A NaN slack used to act as 0 and an infinite one split the
        oracles (one solved, another failed inside the knapsack)."""
        problem = build_problem()
        aggregate = np.full((problem.num_groups, problem.num_files), 0.6)
        with pytest.raises(ValidationError, match="cap_slack must be finite and nonnegative"):
            solve_subproblem(problem, 0, aggregate, cap_slack=slack)


def _screen_case(rng, case):
    """One random recovery instance exercising a screen edge case, with
    the inputs the kernel builds, from the reference helpers."""
    problem = random_problem(
        rng,
        num_sbs=2,
        num_groups=int(rng.integers(2, 8)),
        num_files=int(rng.integers(3, 12)),
        scarce_bandwidth=case % 5 != 1,  # 1: unsaturated budget
    )
    shape = (problem.num_groups, problem.num_files)
    if case % 5 == 2:  # zero-weight cells (never paid)
        demand = problem.demand * (rng.random(shape) < 0.6)
        problem = ProblemInstance(
            demand=demand,
            connectivity=problem.connectivity,
            cache_capacity=problem.cache_capacity,
            bandwidth=problem.bandwidth,
            sbs_cost=problem.sbs_cost,
            bs_cost=problem.bs_cost,
        )
    if case % 5 == 3:  # zero budget: only free items are taken
        problem = problem.with_bandwidth(np.zeros(problem.num_sbs))
    aggregate = np.clip(rng.uniform(-0.1, 1.1, size=shape), 0.0, 1.0)
    caps = residual_caps(problem, 0, aggregate)
    prices = None
    if case % 2:
        prices = rng.uniform(0.0, 0.3, size=shape)
        reach = problem.connectivity[0][:, np.newaxis]
        caps = np.minimum(caps + 0.2 * reach, reach)  # cap_slack
    if case % 5 == 4:  # free items: negative price on zero-weight cells
        problem = ProblemInstance(
            demand=problem.demand * (rng.random(shape) < 0.7),
            connectivity=problem.connectivity,
            cache_capacity=problem.cache_capacity,
            bandwidth=problem.bandwidth,
            sbs_cost=problem.sbs_cost,
            bs_cost=problem.bs_cost,
        )
        prices = np.where(problem.demand == 0, -rng.uniform(0.0, 2.0, size=shape), 0.0)
    constant = _constant_term(problem, 0, aggregate)
    priced = _routing_coefficients(problem, 0)
    if prices is not None:
        priced = priced + prices
    priced = priced.ravel()
    view = ItemView.grid(problem, 0)
    weight = view.weight
    paid = np.flatnonzero((priced < 0) & (weight > 0))
    order = paid[np.argsort(priced[paid] / weight[paid], kind="stable")]
    flat_caps = caps.ravel()
    screen = _RecoveryScreen(
        view,
        priced,
        flat_caps,
        constant,
        order,
        view.item_file.take(order),
        flat_caps.take(order),
    )

    def exact(caching):
        return _evaluate_cache_set(problem, 0, caching, caps, constant, prices)

    return problem, screen, exact


class TestRecoveryScreen:
    """The weak-duality screen never claims more than the exact cost."""

    @staticmethod
    def random_set(rng, num_files):
        caching = np.zeros(num_files)
        size = int(rng.integers(0, num_files + 1))
        caching[rng.choice(num_files, size=size, replace=False)] = 1.0
        return caching

    def test_bound_below_exact_cost(self):
        """``LB(x) - margin <= cost(x)`` for random sets and swaps on 60
        seeded instances (prices, cap slack, zero-weight cells, free
        items, zero and unsaturated budgets), and tight at the incumbent."""
        rng = np.random.default_rng(20201)
        for case in range(60):
            problem, screen, exact = _screen_case(rng, case)
            num_files = problem.num_files
            assert screen.bound(np.ones(num_files)) == -np.inf
            incumbent = self.random_set(rng, num_files)
            routing, cost = exact(incumbent)
            screen.refresh(incumbent, routing.ravel())
            assert screen.bound(incumbent) <= cost
            assert screen.bound(incumbent) == pytest.approx(cost, rel=1e-9, abs=1e-9)
            for _ in range(15):
                caching = self.random_set(rng, num_files)
                assert screen.bound(caching) <= exact(caching)[1], f"case {case}"
            outs = np.flatnonzero(incumbent > 0)
            ins = np.flatnonzero(incumbent == 0)
            if outs.size and ins.size:
                swap_out = np.repeat(outs, ins.size)
                swap_in = np.tile(ins, outs.size)
                bounds = screen.swap_bounds(incumbent, swap_out, swap_in)
                for out, into, bound in zip(swap_out, swap_in, bounds):
                    trial = incumbent.copy()
                    trial[out], trial[into] = 0.0, 1.0
                    assert bound <= exact(trial)[1], f"case {case}"

    def test_nothing_screened_before_an_incumbent(self, rng):
        """Without a seed the first probe's top set is always recovered:
        one knapsack row, nothing screened."""
        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        with perf.collecting() as registry:
            solution = solve_subproblem(
                problem, 0, np.zeros(shape), SubproblemConfig(max_iter=1, polish=False)
            )
        counters = registry.snapshot()["counters"]
        assert np.isfinite(solution.cost)
        assert counters.get("subproblem.recoveries_screened", 0) == 0
        assert counters["knapsack.batched_rows"] == 1


def _captured_calls():
    """Real subproblem calls: the inputs SBS agents pass to
    ``solve_subproblem`` in eight seeded Algorithm 1 runs — grid views of
    dense instances and pair views of sparse ones, caps and prices
    coordination (prices with cap slack), polish on and off, incumbent
    seeds and LPPM noise — in the order of the runs.

    Four runs are solved here.  The other four were driven by the
    paper's multiplier ascent, since deleted: their calls were recorded
    while it existed and are replayed from ``data/weak_duality_calls.npz``
    on the views of the same instances."""
    from repro.core import distributed
    from repro.core.distributed import DistributedConfig, solve_distributed
    from repro.core.layout import layout_for
    from repro.core.sparse import solve_distributed_sparse
    from repro.privacy import LPPMConfig

    def config(polish=True, **kwargs):
        subproblem = SubproblemConfig(polish=polish)
        return DistributedConfig(accuracy=0.0, subproblem=subproblem, **kwargs)

    def dense(seed):
        return lambda: generate_city_instance(4, 20, 120, rng=seed).to_dense()

    # (instance, its live run, or None when its calls are replayed)
    runs = [
        (dense(1), None),
        (
            lambda: generate_city_instance(5, 30, 200, rng=2),
            lambda p: solve_distributed_sparse(p, config(polish=False, max_iterations=6)),
        ),
        (lambda: generate_city_instance(5, 30, 200, rng=3), None),
        (
            dense(4),
            lambda p: solve_distributed(p, config(coordination="prices", max_iterations=8)),
        ),
        (dense(5), None),
        (
            lambda: generate_city_instance(6, 40, 300, rng=7),
            lambda p: solve_distributed_sparse(p, config(max_iterations=6)),
        ),
        (lambda: generate_city_instance(6, 40, 300, rng=8), None),
        (
            build_problem,
            lambda p: solve_distributed(
                p,
                config(max_iterations=6),
                privacy=LPPMConfig(epsilon=1.0, delta=0.5, sensitivity=1.0),
                rng=6,
            ),
        ),
    ]
    recorded = np.load(DATA / "weak_duality_calls.npz")
    calls = []
    solve = distributed.solve_subproblem

    def spy(view, sbs, others, config=None, **kwargs):
        calls.append((view, np.array(others), config.polish, dict(kwargs)))
        return solve(view, sbs, others, config, **kwargs)

    def replay(number, problem):
        layout, views = layout_for(problem), {}
        for k in np.flatnonzero(recorded["run"] == number):
            sbs = int(recorded["sbs"][k])
            if sbs not in views:
                views[sbs] = layout.view(sbs)
            kwargs = {
                "prices": recorded[f"prices_{k}"] if f"prices_{k}" in recorded else None,
                "cap_slack": float(recorded["cap_slack"][k]),
                "candidate_caching": recorded[f"seed_{k}"] if f"seed_{k}" in recorded else None,
            }
            calls.append((views[sbs], recorded[f"others_{k}"], bool(recorded["polish"][k]), kwargs))

    distributed.solve_subproblem = spy
    try:
        for number, (instance, run) in enumerate(runs):
            if run is None:
                replay(number, instance())
            else:
                run(instance())
    finally:
        distributed.solve_subproblem = solve
    return calls


def _recorded_batched_costs():
    """The paper's multiplier ascent's cost on each captured call, with
    the call's own polish setting, recorded while it existed."""
    table = json.loads((DATA / "weak_duality_batched_costs.json").read_text())
    return [float.fromhex(cost) for cost in table["batched_cost"]]


class TestWeakDualityGate:
    """The oracle's ``best_dual`` bounds every cache set's cost: the
    paper's multiplier ascent (the batched oracle, recorded) never
    computed a cost below it, and the oracle's cost is never above the
    ascent's by more than its own certified gap."""

    def test_batched_cost_never_below_exact_bound(self, record_property):
        calls = _captured_calls()
        batched_costs = _recorded_batched_costs()
        assert len(calls) == len(batched_costs) >= 160
        kinds = {
            (len(view.shape), polish, kwargs["prices"] is not None)
            for view, _, polish, kwargs in calls
        }
        assert len(kinds) >= 5  # grid/pair views, polish on/off, prices
        assert any(kwargs["cap_slack"] > 0 for _, _, _, kwargs in calls)
        assert any(kwargs["candidate_caching"] is not None for _, _, _, kwargs in calls)
        within_gap = 0
        solutions = []
        for (view, others, polish, kwargs), batched_cost in zip(calls, batched_costs):
            exact = solve_subproblem(view, None, others, SubproblemConfig(polish=polish), **kwargs)
            solutions.append(exact)
            assert batched_cost >= exact.best_dual
            assert exact.best_dual <= exact.cost
            if exact.cost > batched_cost:
                assert exact.cost - batched_cost <= exact.cost - exact.best_dual
                within_gap += 1
        record_property("exact_above_batched_within_gap", within_gap)
        assert within_gap <= len(calls) // 10
        assert solution_digest(solutions) == EXACT_GATE_DIGEST


#: Digest of the exact oracle's outputs on :func:`_captured_calls`.
EXACT_GATE_DIGEST = "f775760e4b8ad1d78a4eda04ca2b4a79cb234eef05ea0c62ba7d561804ca5484"
