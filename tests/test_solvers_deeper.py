"""Deeper solver-substrate tests: degeneracy, ties, references."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core.convex import project_capped_simplex
from repro.exceptions import ValidationError
from repro.solvers.branch_and_bound import solve_mixed_binary_lp
from repro.solvers.fractional_knapsack import solve_fractional_knapsack
from repro.solvers.simplex import simplex_solve


class TestSimplexDegeneracy:
    def test_degenerate_vertex(self):
        """Multiple constraints active at the optimum (classic cycling
        risk; Bland's rule must terminate)."""
        result = simplex_solve(
            [-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
        )
        assert result.objective == pytest.approx(-2.0)

    def test_beale_cycling_example(self):
        """Beale's classic cycling LP; Bland's rule terminates on it."""
        c = [-0.75, 150.0, -0.02, 6.0]
        a = [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        mine = simplex_solve(c, a_ub=a, b_ub=b)
        reference = linprog(c, A_ub=a, b_ub=b, method="highs")
        assert reference.success
        assert mine.objective == pytest.approx(reference.fun, abs=1e-8)

    def test_zero_rows(self):
        result = simplex_solve([1.0], a_ub=[[0.0]], b_ub=[1.0], upper=[2.0])
        assert result.objective == pytest.approx(0.0)

    def test_many_redundant_constraints(self):
        a = [[1.0]] * 10
        b = [1.0] * 10
        result = simplex_solve([-1.0], a_ub=a, b_ub=b)
        assert result.objective == pytest.approx(-1.0)

    def test_equality_and_upper_bound_interaction(self):
        # x + y = 1.5, y <= 0.5 -> x = 1.0
        result = simplex_solve(
            [1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.5], upper=[2.0, 0.5]
        )
        assert result.objective == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            simplex_solve([1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(ValidationError):
            simplex_solve([1.0], upper=[1.0, 2.0])
        with pytest.raises(ValidationError):
            simplex_solve([1.0], upper=[-1.0])


class TestKnapsackTies:
    def test_equal_ratios_split_arbitrarily_but_optimally(self):
        result = solve_fractional_knapsack(
            [-2.0, -2.0], [1.0, 1.0], budget=1.0
        )
        assert result.allocation.sum() == pytest.approx(1.0)
        assert result.objective == pytest.approx(-2.0)

    def test_stable_tie_break_prefers_lower_index(self):
        result = solve_fractional_knapsack([-2.0, -2.0], [1.0, 1.0], budget=1.0)
        assert result.allocation[0] == pytest.approx(1.0)

    def test_zero_cost_items_untouched(self):
        result = solve_fractional_knapsack([0.0, -1.0], [1.0, 1.0], budget=5.0)
        assert result.allocation[0] == 0.0

    def test_all_caps_zero(self):
        result = solve_fractional_knapsack(
            [-1.0, -2.0], [1.0, 1.0], budget=5.0, caps=np.zeros(2)
        )
        assert np.all(result.allocation == 0.0)

    def test_huge_budget_takes_everything(self):
        result = solve_fractional_knapsack([-1.0, -2.0], [1.0, 1.0], budget=1e9)
        np.testing.assert_allclose(result.allocation, [1.0, 1.0])


class TestCappedSimplexReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_qp_reference(self, seed):
        """The projection solves min ||z - v||^2 on the polytope; check
        against scipy's LSQ-style solver on random instances."""
        from scipy.optimize import minimize

        rng = np.random.default_rng(seed)
        n = 6
        v = rng.uniform(-1.0, 2.0, n)
        caps = rng.uniform(0.2, 1.0, n)
        radius = float(rng.uniform(0.5, caps.sum()))
        mine = project_capped_simplex(v, radius, caps)

        reference = minimize(
            lambda z: np.sum((z - v) ** 2),
            np.clip(v, 0, caps) * 0.5,
            bounds=[(0.0, float(c)) for c in caps],
            constraints=[{"type": "ineq", "fun": lambda z: radius - z.sum()}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-14},
        )
        assert reference.success
        assert np.sum((mine - v) ** 2) == pytest.approx(
            float(reference.fun), abs=1e-6
        )


class TestBranchAndBoundCorners:
    def test_no_constraints(self):
        result = solve_mixed_binary_lp([2.0, -3.0], None, None, binary_indices=[0, 1])
        np.testing.assert_allclose(result.x, [0.0, 1.0])

    def test_duplicate_binary_indices_deduped(self):
        result = solve_mixed_binary_lp([-1.0], None, None, binary_indices=[0, 0, 0])
        assert result.objective == pytest.approx(-1.0)

    def test_binary_with_tight_upper(self):
        # upper bound 0.4 on a binary variable forces it to 0
        result = solve_mixed_binary_lp(
            [-1.0], None, None, binary_indices=[0], upper=[0.4]
        )
        assert result.objective == pytest.approx(0.0)

    def test_all_continuous(self):
        result = solve_mixed_binary_lp(
            [-1.0, -1.0], [[1.0, 1.0]], [1.0], binary_indices=[], upper=[1.0, 1.0]
        )
        assert result.objective == pytest.approx(-1.0)
