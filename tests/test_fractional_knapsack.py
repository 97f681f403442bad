"""Tests for the fractional knapsack solver, cross-checked against LP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.solvers.fractional_knapsack import solve_fractional_knapsack
from repro.solvers.lp import solve_lp


class TestBasics:
    def test_takes_only_negative_costs(self):
        result = solve_fractional_knapsack([1.0, -2.0], [1.0, 1.0], budget=10.0)
        np.testing.assert_allclose(result.allocation, [0.0, 1.0])
        assert result.objective == pytest.approx(-2.0)

    def test_budget_limits(self):
        result = solve_fractional_knapsack([-3.0, -2.0], [2.0, 2.0], budget=2.0)
        # Best ratio first: item 0 (-1.5/unit) fills the whole budget.
        np.testing.assert_allclose(result.allocation, [1.0, 0.0])
        assert result.budget_used == pytest.approx(2.0)

    def test_fractional_split(self):
        result = solve_fractional_knapsack([-3.0, -2.0], [2.0, 2.0], budget=3.0)
        np.testing.assert_allclose(result.allocation, [1.0, 0.5])

    def test_caps_respected(self):
        result = solve_fractional_knapsack(
            [-5.0], [1.0], budget=10.0, caps=np.array([0.3])
        )
        np.testing.assert_allclose(result.allocation, [0.3])

    def test_free_items_taken_fully(self):
        result = solve_fractional_knapsack([-1.0], [0.0], budget=0.0)
        np.testing.assert_allclose(result.allocation, [1.0])
        assert result.budget_used == 0.0

    def test_zero_budget_paid_items(self):
        result = solve_fractional_knapsack([-1.0], [1.0], budget=0.0)
        np.testing.assert_allclose(result.allocation, [0.0])

    def test_ratio_ordering(self):
        # item 1 has better cost-per-weight despite smaller absolute cost
        result = solve_fractional_knapsack([-10.0, -6.0], [10.0, 2.0], budget=2.0)
        np.testing.assert_allclose(result.allocation, [0.0, 1.0])

    def test_saturated_helper(self):
        result = solve_fractional_knapsack([-1.0], [1.0], budget=0.5)
        assert result.saturated(0.5)
        slack = solve_fractional_knapsack([-1.0], [1.0], budget=5.0)
        assert not slack.saturated(5.0)


class TestValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            solve_fractional_knapsack([1.0], [1.0, 2.0], budget=1.0)

    def test_negative_weight(self):
        with pytest.raises(ValidationError):
            solve_fractional_knapsack([1.0], [-1.0], budget=1.0)

    def test_negative_budget(self):
        with pytest.raises(ValidationError):
            solve_fractional_knapsack([1.0], [1.0], budget=-1.0)

    def test_nan_cost(self):
        with pytest.raises(ValidationError):
            solve_fractional_knapsack([np.nan], [1.0], budget=1.0)

    def test_negative_cap(self):
        with pytest.raises(ValidationError):
            solve_fractional_knapsack([1.0], [1.0], budget=1.0, caps=np.array([-1.0]))


@st.composite
def knapsack_instances(draw):
    n = draw(st.integers(1, 8))
    costs = draw(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)
    )
    weights = draw(
        st.lists(st.floats(0.1, 5.0, allow_nan=False), min_size=n, max_size=n)
    )
    caps = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    budget = draw(st.floats(0.0, 10.0, allow_nan=False))
    return np.array(costs), np.array(weights), np.array(caps), budget


class TestAgainstLP:
    @given(knapsack_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_lp_optimum(self, instance):
        costs, weights, caps, budget = instance
        greedy = solve_fractional_knapsack(costs, weights, budget, caps)
        lp = solve_lp(
            costs,
            a_ub=weights.reshape(1, -1),
            b_ub=np.array([budget]),
            upper=caps,
            backend="simplex",
        )
        assert greedy.objective == pytest.approx(lp.objective, abs=1e-6)

    @given(knapsack_instances())
    @settings(max_examples=60, deadline=None)
    def test_always_feasible(self, instance):
        costs, weights, caps, budget = instance
        result = solve_fractional_knapsack(costs, weights, budget, caps)
        assert result.allocation.min() >= -1e-12
        assert np.all(result.allocation <= caps + 1e-9)
        assert result.budget_used <= budget + 1e-6


class TestNoValidationFastPath:
    def test_validated_path_still_rejects_bad_input(self):
        """There is no unvalidated path: float64 arrays are checked too."""
        with pytest.raises(ValidationError):
            solve_fractional_knapsack(
                np.array([np.nan]), np.array([1.0]), 1.0, np.array([1.0])
            )
