"""Tests for the per-SBS Lagrangian subproblem (Eqs. 10-23, Theorem 1)."""

import dataclasses

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
    cache_subproblem,
    routing_subproblem,
    solve_subproblem,
    solve_subproblem_exhaustive,
)
from repro.exceptions import ValidationError
from repro.experiments.config import build_problem
from repro.workload import generate_city_instance

from conftest import random_problem


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

    @pytest.mark.parametrize(
        "tie_break", [np.array([1.0, np.nan, 0.0, 2.0]), np.arange(3.0)], ids=["nan", "short"]
    )
    def test_tiebreak_validated(self, tiny_problem, tie_break):
        """A NaN or short ``tie_break_value`` used to fill the cache from
        whatever order it happened to give."""
        with pytest.raises(ValidationError, match="tie_break_value"):
            cache_subproblem(tiny_problem, 0, np.zeros((3, 4)), tie_break_value=tie_break)

    def test_zero_multipliers_without_tiebreak(self, tiny_problem):
        caching = cache_subproblem(tiny_problem, 0, np.zeros((3, 4)))
        assert caching.sum() == 0.0  # no positive multipliers, nothing forced

    def test_zero_capacity(self, tiny_problem):
        problem = tiny_problem.with_cache_capacity(0.0)
        caching = cache_subproblem(problem, 0, np.ones((3, 4)))
        assert caching.sum() == 0.0

    def test_matches_lp_relaxation(self, tiny_problem, rng):
        """The greedy selection equals the LP optimum of Eq. 18."""
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

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SubproblemConfig(max_iter=0)


class TestExhaustive:
    def test_subset_guard(self, rng):
        problem = random_problem(rng, num_files=30)
        with pytest.raises(ValidationError, match="enumerate"):
            solve_subproblem_exhaustive(
                problem, 0, np.zeros((problem.num_groups, 30)), max_subsets=10
            )


class TestFastOracleParity:
    """The batched kernel must be indistinguishable from the legacy oracle."""

    def _parity(self, problem, sbs, aggregate, prices=None, cap_slack=0.0):
        fast = solve_subproblem(
            problem,
            sbs,
            aggregate,
            SubproblemConfig(oracle="batched"),
            prices=prices,
            cap_slack=cap_slack,
        )
        legacy = solve_subproblem(
            problem,
            sbs,
            aggregate,
            SubproblemConfig(oracle="legacy"),
            prices=prices,
            cap_slack=cap_slack,
        )
        assert np.array_equal(fast.caching, legacy.caching)
        assert np.array_equal(fast.routing, legacy.routing)
        assert fast.cost == legacy.cost
        assert fast.iterations == legacy.iterations
        assert fast.dual_history == legacy.dual_history
        assert np.array_equal(fast.multipliers, legacy.multipliers)

    def test_bit_identical_zero_aggregate(self, tiny_problem):
        self._parity(tiny_problem, 0, np.zeros((3, 4)))

    def test_bit_identical_random_instances(self, rng):
        for _ in range(4):
            problem = random_problem(rng)
            aggregate = np.clip(
                rng.uniform(size=(problem.num_groups, problem.num_files)), 0.0, 1.0
            )
            for sbs in range(problem.num_sbs):
                self._parity(problem, sbs, aggregate)

    def test_bit_identical_with_prices_and_slack(self, rng):
        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        aggregate = np.clip(rng.uniform(size=shape) * 0.8, 0.0, 1.0)
        prices = rng.uniform(0.0, 0.5, size=shape)
        self._parity(problem, 0, aggregate, prices=prices, cap_slack=0.3)

    def test_workspace_reuse_is_safe(self, rng):
        """A solve in between must not leak state into a repeated one: the
        kernel's scratch belongs to each call."""
        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        agg_a = np.zeros(shape)
        agg_b = np.clip(rng.uniform(size=shape), 0.0, 1.0)
        first = solve_subproblem(problem, 0, agg_a, SubproblemConfig())
        solve_subproblem(problem, 0, agg_b, SubproblemConfig())
        again = solve_subproblem(problem, 0, agg_a, SubproblemConfig())
        assert first.cost == again.cost
        assert np.array_equal(first.routing, again.routing)


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
        solve: same cache set, iterations and routing; zero cells keep
        +0.0 multipliers; objectives agree to the last bits."""
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
            pairs = solve_subproblem(sparse.item_view(sbs), None, others)
            cells = solve_subproblem(grid, None, padded)
            assert np.array_equal(pairs.caching, cells.caching)
            assert pairs.iterations == cells.iterations
            assert np.array_equal(pairs.routing, cells.routing.ravel()[index.local_flat])
            mu = cells.multipliers.ravel()
            assert np.array_equal(pairs.multipliers, mu[index.local_flat])
            off_items = np.delete(mu, index.local_flat)
            assert np.all(off_items == 0.0) and not np.any(np.signbit(off_items))
            assert pairs.cost == pytest.approx(cells.cost, rel=1e-12)
            # The legacy reference solves the padded block itself.
            legacy = solve_subproblem(
                sparse.item_view(sbs), None, others, SubproblemConfig(oracle="legacy")
            )
            assert np.array_equal(legacy.routing, pairs.routing)
            assert legacy.dual_history == cells.dual_history
        with pytest.raises(ValidationError, match="sbs=None"):
            solve_subproblem(sparse.item_view(sbs), sbs, others)


class TestBoundaryValidation:
    """Both oracles reject non-finite prices, warm starts and cap slack
    up front."""

    @pytest.mark.parametrize("oracle", ["batched", "legacy"])
    @pytest.mark.parametrize("argument", ["prices", "initial_multipliers"])
    def test_nan_rejected(self, tiny_problem, oracle, argument):
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match=f"{argument} must be finite"):
            solve_subproblem(
                tiny_problem,
                0,
                np.zeros((3, 4)),
                SubproblemConfig(oracle=oracle),
                **{argument: bad},
            )

    @pytest.mark.parametrize("oracle", ["batched", "legacy"])
    def test_empty_view_rejected(self, oracle):
        """A view without items has no subproblem.  The oracles used to
        disagree: legacy returned a filler cache at cost 0, batched failed
        inside its knapsack workspace."""
        view = TestItemView.pair_view(np.zeros((2, 3)))
        assert view.num_items == 0
        with pytest.raises(ValidationError, match="local subproblem is empty"):
            solve_subproblem(view, None, np.zeros(0), SubproblemConfig(oracle=oracle))

    @pytest.mark.parametrize("oracle", ["batched", "legacy"])
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
    def test_view_weight_validated(self, oracle, weight, message):
        """A caller-built view's weights used to split the oracles: a
        negative weight solved under batched and failed under legacy, a
        NaN failed batched as "performed no iterations".  The view now
        refuses them when it is built."""
        view = TestItemView.pair_view(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(ValidationError, match=message):
            view = dataclasses.replace(view, weight=np.array(weight))
            solve_subproblem(view, None, np.zeros(3), SubproblemConfig(oracle=oracle))

    @pytest.mark.parametrize("oracle", ["batched", "legacy"])
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
    def test_view_rows_and_scalars_validated(self, oracle, field, spoiled, message):
        """A spoiled per-row array or scalar used to split the oracles:
        batched solved (or failed as "performed no iterations") where
        legacy raised.  The view validates them once, when it is built,
        so both oracles raise the same error."""
        view = TestItemView.pair_view(np.array([[1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(ValidationError, match=message):
            view = dataclasses.replace(view, **{field: spoiled})
            solve_subproblem(view, None, np.zeros(3), SubproblemConfig(oracle=oracle))

    @pytest.mark.parametrize("oracle", ["batched", "legacy"])
    def test_prices_shape_checked(self, tiny_problem, oracle):
        with pytest.raises(ValidationError, match="prices must have shape"):
            solve_subproblem(
                tiny_problem,
                0,
                np.zeros((3, 4)),
                SubproblemConfig(oracle=oracle),
                prices=np.zeros((4, 3)),
            )

    @pytest.mark.parametrize("oracle", ["batched", "legacy"])
    @pytest.mark.parametrize("slack", [np.nan, np.inf, -0.1])
    def test_cap_slack_must_be_finite_and_nonnegative(self, oracle, slack):
        """A NaN slack used to act as 0 and an infinite one split the
        oracles (batched solved, legacy failed inside the knapsack)."""
        problem = build_problem()
        aggregate = np.full((problem.num_groups, problem.num_files), 0.6)
        with pytest.raises(ValidationError, match="cap_slack must be finite and nonnegative"):
            solve_subproblem(
                problem, 0, aggregate, SubproblemConfig(oracle=oracle), cap_slack=slack
            )


def _screen_case(rng, case):
    """One random recovery instance exercising a screen edge case, with
    the inputs the batched kernel builds, from the reference helpers."""
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
        """Without a seed the first dual iterate's set is always recovered."""
        problem = random_problem(rng)
        shape = (problem.num_groups, problem.num_files)
        with perf.collecting() as registry:
            solution = solve_subproblem(
                problem, 0, np.zeros(shape), SubproblemConfig(max_iter=1, polish=False)
            )
        counters = registry.snapshot()["counters"]
        assert np.isfinite(solution.cost)
        assert counters.get("subproblem.recoveries_screened", 0) == 0
        assert counters["knapsack.batched_rows"] == 2  # dual row + one recovery
