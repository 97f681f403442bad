"""Tests for the subgradient step schedule (Eq. 22) and the projected
subgradient ascent (Eq. 21), which runs fused into the batched
subproblem oracle; its exact trajectories are pinned in
``test_batched_parity.py``.
"""

import numpy as np
import pytest

from repro.core.subproblem import SubproblemConfig, solve_subproblem
from repro.exceptions import ValidationError
from repro.solvers.subgradient import StepSchedule

from conftest import make_tiny_problem, random_problem


class TestStepSchedule:
    def test_formula(self):
        schedule = StepSchedule(eta0=2.0, alpha=0.5)
        assert schedule(0) == pytest.approx(2.0)
        assert schedule(2) == pytest.approx(1.0)

    def test_diminishing(self):
        schedule = StepSchedule(eta0=1.0, alpha=0.1)
        values = [schedule(k) for k in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_eta0(self):
        with pytest.raises(ValidationError):
            StepSchedule(eta0=0.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError):
            StepSchedule(alpha=-1.0)


def _ascent(max_iter=120, **kwargs):
    """The batched oracle's ascent on one random subproblem."""
    problem = random_problem(np.random.default_rng(11))
    aggregate = np.full((problem.num_groups, problem.num_files), 0.2)
    config = SubproblemConfig(oracle="batched", polish=False, max_iter=max_iter)
    return solve_subproblem(problem, 0, aggregate, config, **kwargs)


class TestAscent:
    def test_projection_keeps_nonnegative(self):
        """Eq. 21 projects onto ``mu >= 0``, a negative warm start too."""
        problem = random_problem(np.random.default_rng(11))
        start = np.random.default_rng(2).normal(0.0, 5.0, size=problem.demand.shape)
        result = _ascent(initial_multipliers=start)
        assert result.multipliers.min() >= 0.0
        assert not np.any(np.signbit(result.multipliers))

    def test_history_recorded(self):
        result = solve_subproblem(
            make_tiny_problem(), 0, np.zeros((3, 4)), SubproblemConfig(oracle="batched")
        )
        assert result.converged
        assert len(result.dual_history) == result.iterations
        assert result.best_dual == max(result.dual_history)

    def test_max_iter_cap(self):
        result = _ascent(max_iter=7)
        assert result.iterations == 7
        assert not result.converged

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="initial_multipliers must have"):
            _ascent(initial_multipliers=np.zeros(5))

    def test_invalid_controls(self):
        with pytest.raises(ValidationError):
            SubproblemConfig(oracle="batched", max_iter=0)
        with pytest.raises(ValidationError):
            StepSchedule(eta0=-1.0)
